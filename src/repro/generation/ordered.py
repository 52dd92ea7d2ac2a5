"""Ordered generation (SOPG): emit guesses in descending model probability.

Search-based Ordered Password Generation (arXiv 2403.09954) observes
that an autoregressive password model cracks more per guess when the
guesses come out *sorted* by model probability instead of sampled:
at small budgets every emitted string is the most probable one the model
has not tried yet.  This module implements that strategy as a second
generation backend next to D&C-GEN.

Algorithm
---------

A node is a password prefix with its cumulative negative log-probability
under the *constrained, renormalised* next-token distribution — the same
distribution :mod:`repro.generation.sampler` draws from, so the ordered
and sampled strategies enumerate the identical probability space.  A
min-heap frontier holds ``(neg_logprob, seq, prompt_index, chars,
complete)`` tuples; each round pops up to ``beam_width`` of the most
probable incomplete nodes, computes their next-token distributions in
one batched model call, and pushes every child back.  Because a child's
negative log-probability is never below its parent's, a complete node
popped while nothing else is pending is provably the most probable
unemitted password — the emitted stream is non-increasing in
probability and duplicate-free (distinct nodes are distinct strings).

Two prompt modes share the machinery:

* **pattern-conditioned** (PagPassGPT) — one root per pattern, weighted
  by its S_p prior; position ``i`` allows only the pattern's class
  (:meth:`~repro.tokenizer.tokenizer.PasswordTokenizer.allowed_ids_at`),
  and a node completes when the pattern is filled;
* **unconditional** (PassGPT) — a single ``<BOS>`` root; every position
  allows ``<EOS>`` plus all character tokens, and choosing ``<EOS>``
  completes the node.

Inference fast path
-------------------

A frontier is a set of shared prefixes, which is exactly the shape the
PR-3 machinery optimises: each prompt is primed once through the
model's :class:`~repro.nn.PromptCache`, expansion batches gather the
trimmed prompt KV state to the group width (:meth:`~repro.nn.KVCache.
gather`) and feed only the decided characters through
:meth:`~repro.nn.GPT2Inference.extend`.  Depth-0 expansions reuse the
cached prompt logits outright — zero model calls.

Fault tolerance
---------------

Ordered campaigns are first-class citizens of the journaled runtime:
every ``snapshot_every`` rounds the full enumeration state (heap,
emitted delta, counters) is recorded as a digest-guarded ``frontier``
record.  Resuming replays the journaled snapshots and continues from
the last one; because enumeration is deterministic, the merged stream
is byte-identical to an uninterrupted run for any snapshot interval.
``maybe_fail("frontier")`` guards the snapshot site for fault-injection
tests (``REPRO_FAULT=crash:frontier:K``).

Memory is bounded by ``max_frontier``: when the heap outgrows it the
*least* probable nodes are pruned.  Pruning never reorders the emitted
stream but can drop reachable strings, so it is accounted, never
silent: :attr:`OrderedStats.truncated_nodes` / ``truncated_mass`` and a
``frontier_truncated`` telemetry event report exactly what was given up.
"""

from __future__ import annotations

import hashlib
import heapq
import math
from dataclasses import asdict, dataclass, fields
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Optional, Sequence, Union

import numpy as np

from .. import telemetry
from ..runtime import Budget, RunJournal
from ..tokenizer.patterns import Pattern
from .campaign import Campaign, CampaignPlan, run_campaign
from .sampler import constrained_distribution

if TYPE_CHECKING:  # imported lazily to avoid a models <-> generation cycle
    from ..models.pagpassgpt import PagPassGPT


@dataclass(frozen=True)
class OrderedConfig:
    """Knobs of the best-first enumerator.

    ``beam_width`` is the number of frontier nodes expanded per batched
    model call — a throughput knob that also sets how many equal-score
    candidates can be in flight (the emitted *order* is probability-
    sorted regardless).  ``max_frontier`` caps heap memory; overflow
    prunes the least probable nodes with full accounting.
    ``snapshot_every`` is the journaling cadence in rounds (resume is
    byte-identical for any value).  ``max_patterns`` truncates the S_p
    prior like :class:`~repro.generation.dcgen.DCGenConfig`;
    ``max_chars`` caps unconditional password length (default: the
    tokenizer's limit).
    """

    beam_width: int = 64
    max_frontier: int = 50_000
    snapshot_every: int = 4
    max_patterns: Optional[int] = None
    max_chars: Optional[int] = None

    def __post_init__(self) -> None:
        if self.beam_width < 1:
            raise ValueError("beam_width must be >= 1")
        if self.max_frontier < self.beam_width:
            raise ValueError("max_frontier must be >= beam_width")
        if self.snapshot_every < 1:
            raise ValueError("snapshot_every must be >= 1")
        if self.max_patterns is not None and self.max_patterns < 1:
            raise ValueError("max_patterns must be >= 1 or None")
        if self.max_chars is not None and self.max_chars < 1:
            raise ValueError("max_chars must be >= 1 or None")


@dataclass
class OrderedStats:
    """Counters describing one ordered run (journaled with snapshots)."""

    rounds: int = 0
    pops: int = 0
    expansions: int = 0  # nodes fed through the model (rows)
    model_calls: int = 0
    emitted: int = 0
    truncated_nodes: int = 0
    truncated_mass: float = 0.0  # probability mass of pruned nodes
    snapshots: int = 0
    exhausted: bool = False  # frontier emptied before the budget was met

    def as_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "OrderedStats":
        known = {f.name for f in fields(cls)}
        return cls(**{k: v for k, v in data.items() if k in known})


@dataclass(frozen=True)
class OrderedPrompt:
    """One enumeration root: a primed prompt plus its prior.

    ``pattern`` selects the mode: a :class:`Pattern` constrains every
    position to its class and completes at the pattern length; ``None``
    means unconditional — characters until ``<EOS>``.
    """

    prompt_ids: np.ndarray
    prior_neg_logprob: float
    pattern: Optional[Pattern]
    label: str


def prompts_digest(prompts: Sequence[OrderedPrompt]) -> str:
    """Content digest of the enumeration roots — the run identity a
    journal pins (two runs with equal digests enumerate the same space
    with the same priors)."""
    h = hashlib.sha256()
    for prompt in prompts:
        h.update(prompt.label.encode())
        h.update(b"|")
        h.update(repr(float(prompt.prior_neg_logprob)).encode())
        h.update(b"|")
        h.update(np.asarray(prompt.prompt_ids, dtype=np.int64).tobytes())
        h.update(b";")
    return h.hexdigest()[:16]


class OrderedGenerator:
    """Best-first enumeration over a fitted GPT password model.

    Construct via :meth:`for_patterns` (PagPassGPT: pattern-conditioned
    mixture weighted by S_p) or :meth:`unconditional` (PassGPT: bare
    ``<BOS>``).  The model object must expose ``tokenizer``,
    ``inference`` and ``prompt_cache`` — both GPT model classes do.
    """

    def __init__(
        self,
        model: "PagPassGPT",
        prompts: Sequence[OrderedPrompt],
        config: OrderedConfig = OrderedConfig(),
    ) -> None:
        if not prompts:
            raise ValueError("ordered generation needs at least one prompt root")
        self.model = model
        self.prompts = list(prompts)
        self.config = config
        self.stats = OrderedStats()
        vocab = model.tokenizer.vocab
        self._eos_id = int(vocab.eos_id)
        # Unconditional candidate set: <EOS> first, then every character.
        self._uncond_allowed = np.concatenate(
            [
                np.array([vocab.eos_id], dtype=np.int64),
                np.array(vocab.char_ids, dtype=np.int64),
            ]
        )
        self._eos_only = np.array([vocab.eos_id], dtype=np.int64)

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def for_patterns(
        cls,
        model: "PagPassGPT",
        pattern_probs: Optional[dict[str, float]] = None,
        config: OrderedConfig = OrderedConfig(),
    ) -> "OrderedGenerator":
        """Pattern-conditioned mixture: one root per pattern, S_p prior.

        ``pattern_probs`` defaults to the S_p recorded while fitting the
        model; probabilities are renormalised over the (possibly
        ``max_patterns``-truncated) ranked set so priors sum to 1.
        """
        probs = pattern_probs if pattern_probs is not None else model.pattern_probs
        if not probs:
            raise ValueError("no pattern distribution available; fit the model first")
        ranked = sorted(probs.items(), key=lambda item: (-item[1], item[0]))
        if config.max_patterns is not None:
            ranked = ranked[: config.max_patterns]
        ranked = [(p, prob) for p, prob in ranked if prob > 0]
        mass = sum(prob for _, prob in ranked)
        if not ranked or mass <= 0:
            raise ValueError("pattern distribution has no positive mass")
        tokenizer = model.tokenizer
        prompts = [
            OrderedPrompt(
                prompt_ids=np.asarray(
                    tokenizer.encode_prompt(Pattern.parse(p)), dtype=np.int64
                ),
                prior_neg_logprob=-math.log(prob / mass),
                pattern=Pattern.parse(p),
                label=p,
            )
            for p, prob in ranked
        ]
        return cls(model, prompts, config)

    @classmethod
    def unconditional(
        cls, model, config: OrderedConfig = OrderedConfig()
    ) -> "OrderedGenerator":
        """Single ``<BOS>`` root; passwords end at ``<EOS>`` (PassGPT)."""
        vocab = model.tokenizer.vocab
        prompt = OrderedPrompt(
            prompt_ids=np.array([vocab.bos_id], dtype=np.int64),
            prior_neg_logprob=0.0,
            pattern=None,
            label="<free>",
        )
        return cls(model, [prompt], config)

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def generate(
        self,
        n: int,
        journal: Optional[Union[str, Path, RunJournal]] = None,
        resume: bool = False,
        progress: Optional[Callable[[int, int], None]] = None,
        budget: Optional[Budget] = None,
    ) -> list[str]:
        """The ``n`` most probable unemitted passwords, most probable first.

        Fully deterministic — no sampling, no rng, no worker dependence;
        the only approximation is ``max_frontier`` pruning, which is
        reported in :attr:`stats`.  ``journal`` / ``resume`` give the
        same crash-safety contract as D&C-GEN: frontier snapshots are
        journaled every ``snapshot_every`` rounds and a resumed run
        emits the byte-identical stream of an uninterrupted one.
        ``progress(emitted, n)`` fires once per round.  ``budget`` (a
        :class:`~repro.runtime.Budget`) is polled at every round
        boundary; on a trip the un-snapshotted delta is flushed to the
        journal first, so the graceful stop loses nothing.
        """
        return [
            pw for pw, _ in self.generate_scored(n, journal, resume, progress, budget)
        ]

    def generate_scored(
        self,
        n: int,
        journal: Optional[Union[str, Path, RunJournal]] = None,
        resume: bool = False,
        progress: Optional[Callable[[int, int], None]] = None,
        budget: Optional[Budget] = None,
    ) -> list[tuple[str, float]]:
        """:meth:`generate` with each password's log-probability attached.

        The scores are cumulative log-probabilities under the
        constrained renormalised next-token distribution (plus the
        pattern prior in pattern mode) and are non-increasing along the
        returned list — the property the test harness asserts.
        """
        if n <= 0:
            return []
        config = self.config

        def plan() -> CampaignPlan:
            return CampaignPlan(
                rows=int(n),
                header={"n": int(n), "beam_width": int(config.beam_width),
                        "max_frontier": int(config.max_frontier),
                        "prompts": prompts_digest(self.prompts)},
                event={"beam_width": int(config.beam_width),
                       "max_frontier": int(config.max_frontier),
                       "prompts": len(self.prompts),
                       "backend": self.model.inference.backend_name},
            )

        return run_campaign(
            "ordered", n, plan, self.model, journal=journal, resume=resume,
            progress=progress, budget=budget,
            execute=lambda campaign: self._run(n, campaign),
        )

    # ------------------------------------------------------------------
    # Enumeration core
    # ------------------------------------------------------------------
    def _run(self, n: int, campaign: Campaign) -> list[tuple[str, float]]:
        self.stats = OrderedStats()
        stats = self.stats
        registry = telemetry.get_registry()
        heap: list[tuple] = []
        seq = 0
        emitted: list[tuple[str, float]] = []
        delta: list[list] = []  # [password, neg_logprob] since last snapshot
        snapshot_id = 0

        journal = campaign.journal
        restored = campaign.completed()
        if restored:
            for sid in sorted(restored):
                emitted.extend(
                    (pw, -float(neg)) for pw, neg in restored[sid]["emitted"]
                )
            last = restored[max(restored)]
            heap = [
                (float(neg), int(s), int(p), tuple(chars), bool(complete))
                for neg, s, p, chars, complete in last["heap"]
            ]
            heapq.heapify(heap)
            seq = int(last["seq"])
            self.stats = stats = OrderedStats.from_dict(last["stats"])
            snapshot_id = max(restored) + 1
            campaign.resumed(len(restored), len(emitted), int(stats.model_calls))
        else:
            for index, prompt in enumerate(self.prompts):
                if math.isfinite(prompt.prior_neg_logprob):
                    heap.append((float(prompt.prior_neg_logprob), seq, index, (), False))
                    seq += 1
            heapq.heapify(heap)

        campaign.report(len(emitted), n)

        while len(emitted) < n and heap:
            with telemetry.trace(
                "ordered.round", level="debug", round=int(stats.rounds)
            ) as span:
                pops0, calls0, emit0 = stats.pops, stats.model_calls, len(emitted)
                batch: list[tuple] = []
                held: list[tuple] = []
                while heap and len(batch) < self.config.beam_width and len(emitted) < n:
                    node = heapq.heappop(heap)
                    stats.pops += 1
                    if node[4]:  # complete
                        if batch:
                            # An expansion is pending whose children may
                            # score better — defer to a later round.
                            held.append(node)
                        else:
                            password = self._password(node)
                            emitted.append((password, -node[0]))
                            delta.append([password, node[0]])
                    else:
                        batch.append(node)
                if len(emitted) >= n:
                    # Budget met mid-collection: everything popped but not
                    # emitted goes back so snapshots stay exact.
                    for node in batch:
                        heapq.heappush(heap, node)
                    batch = []
                if batch:
                    seq = self._expand(batch, heap, seq)
                for node in held:
                    heapq.heappush(heap, node)
                self._prune(heap, registry, stats)
                stats.rounds += 1
                stats.emitted = len(emitted)
                registry.counter("ordered.pops").inc(stats.pops - pops0)
                span.set(
                    pops=stats.pops - pops0,
                    guesses=len(emitted) - emit0,
                    model_calls=stats.model_calls - calls0,
                )
            campaign.report(len(emitted), n)
            if journal is not None and stats.rounds % self.config.snapshot_every == 0:
                snapshot_id = self._snapshot(campaign, snapshot_id, heap, seq, delta)
                delta = []
            if campaign.exceeded(guesses=len(emitted), model_calls=stats.model_calls):
                # Graceful stop at a round boundary: flush the pending
                # delta as an extra snapshot first, so the interrupted
                # round's guesses are durable before the raise — resume
                # picks up exactly here.
                if journal is not None and delta:
                    snapshot_id = self._snapshot(campaign, snapshot_id, heap, seq, delta)
                    delta = []
                campaign.poll(
                    guesses=len(emitted),
                    model_calls=stats.model_calls,
                    rounds=stats.rounds,
                )

        if len(emitted) < n:
            stats.exhausted = True
            telemetry.emit(
                "frontier_exhausted", emitted=len(emitted), requested=int(n)
            )
        stats.emitted = len(emitted)
        if journal is not None and delta:
            self._snapshot(campaign, snapshot_id, heap, seq, delta)
        return emitted[:n]

    def _expand(self, batch: list[tuple], heap: list[tuple], seq: int) -> int:
        """Batched child generation; returns the advanced ``seq`` counter.

        Nodes are grouped by ``(prompt, depth)`` so each group is one
        KV-cached forward: the shared prompt comes from the warm
        :class:`~repro.nn.PromptCache`, the decided characters ride one
        :meth:`~repro.nn.GPT2Inference.extend` call.  Group iteration
        order is sorted, so child insertion — and therefore the ``seq``
        tie-break — is deterministic.
        """
        stats = self.stats
        groups: dict[tuple[int, int], list[tuple]] = {}
        for node in batch:
            groups.setdefault((node[2], len(node[3])), []).append(node)
        for (prompt_index, depth), nodes in sorted(groups.items()):
            prompt = self.prompts[prompt_index]
            prompt_logits, prompt_kv = self.model.prompt_cache.lookup(prompt.prompt_ids)
            if depth == 0:
                logits = np.repeat(prompt_logits, len(nodes), axis=0)
            else:
                kv = prompt_kv.gather(np.zeros(len(nodes), dtype=np.intp))
                chars = np.array([node[3] for node in nodes], dtype=np.int64)
                logits = self.model.inference.extend(chars, kv)
                stats.model_calls += 1
            allowed = self._allowed(prompt, depth)
            # log of the renormalised constrained distribution, float64
            # so cumulative scores do not lose precision along the path.
            with np.errstate(divide="ignore"):
                log_probs = np.log(
                    constrained_distribution(logits, allowed).astype(np.float64)
                )
            stats.expansions += len(nodes)
            pattern_len = prompt.pattern.length if prompt.pattern is not None else None
            for row, node in enumerate(nodes):
                parent_neg, _, _, parent_chars, _ = node
                for column, token_id in enumerate(allowed.tolist()):
                    lp = log_probs[row, column]
                    if not np.isfinite(lp):
                        continue  # zero-probability child: unreachable
                    child_neg = parent_neg - float(lp)
                    if pattern_len is not None:
                        child_chars = parent_chars + (token_id,)
                        complete = depth + 1 == pattern_len
                    elif token_id == self._eos_id:
                        child_chars = parent_chars
                        complete = True
                    else:
                        child_chars = parent_chars + (token_id,)
                        complete = False
                    heapq.heappush(
                        heap, (child_neg, seq, node[2], child_chars, complete)
                    )
                    seq += 1
        return seq

    def _allowed(self, prompt: OrderedPrompt, depth: int) -> np.ndarray:
        """Candidate token ids for the next position of a node."""
        if prompt.pattern is not None:
            return self.model.tokenizer.allowed_ids_at(prompt.pattern, depth)
        if depth >= self._max_chars():
            return self._eos_only
        return self._uncond_allowed

    def _max_chars(self) -> int:
        if self.config.max_chars is not None:
            return self.config.max_chars
        tokenizer = self.model.tokenizer
        return getattr(tokenizer, "max_password_length", tokenizer.block_size - 2)

    def _password(self, node: tuple) -> str:
        token_strs = self.model.tokenizer.vocab.token_array
        return "".join(token_strs[list(node[3])]) if node[3] else ""

    def _prune(self, heap: list[tuple], registry, stats: OrderedStats) -> None:
        """Cap the heap at ``max_frontier``, accounting for what's dropped."""
        if len(heap) <= self.config.max_frontier:
            return
        heap.sort()  # a sorted list is a valid heap
        dropped = heap[self.config.max_frontier :]
        del heap[self.config.max_frontier :]
        mass = float(sum(math.exp(-node[0]) for node in dropped))
        stats.truncated_nodes += len(dropped)
        stats.truncated_mass += mass
        registry.counter("ordered.truncated").inc(len(dropped))
        telemetry.emit(
            "frontier_truncated",
            level="debug",
            dropped=len(dropped),
            mass=mass,
            frontier=len(heap),
        )

    def _snapshot(
        self,
        campaign: Campaign,
        snapshot_id: int,
        heap: list[tuple],
        seq: int,
        delta: list[list],
    ) -> int:
        """Journal the full enumeration state; returns the next ordinal.

        The campaign's ``maybe_fail("frontier")`` sits before the write so
        the fault harness can kill the run at an exact snapshot boundary
        (``REPRO_FAULT=crash:frontier:K`` crashes before snapshot K+1,
        leaving K durable snapshots behind).
        """
        campaign.record(
            snapshot_id,
            {
                "round": int(self.stats.rounds),
                "emitted": delta,
                "heap": [
                    [neg, s, p, list(chars), complete]
                    for neg, s, p, chars, complete in heap
                ],
                "seq": int(seq),
                "stats": self.stats.as_dict(),
            },
        )
        self.stats.snapshots += 1
        return snapshot_id + 1
