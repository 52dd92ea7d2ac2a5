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
and sampled strategies enumerate the identical probability space.  The
frontier is columnar (:class:`Frontier`): numpy arrays of
``neg_logprob``, ``seq``, prompt index, depth, packed characters and
complete flags, kept sorted by ``(neg_logprob, seq)``.  Each round walks
the sorted prefix: leading complete nodes are emitted, then up to
``beam_width`` of the most probable incomplete nodes are expanded with
one batched model call per ``(prompt length, depth)`` shape, and their
children — built with array ops — are merged back in order.  Because a
child's negative log-probability is never below its parent's, a
complete node reached while nothing else is pending is provably the most
probable unemitted password — the emitted stream is non-increasing in
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
prompt-cache machinery optimises: each prompt is primed once through the
model's :class:`~repro.nn.PromptCache`.  A round's nodes of one
``(prompt length, depth)`` shape share one forward, whatever their
prompts: the trimmed prompt KV states are gathered to the rows in one
copy (:meth:`~repro.nn.KVCache.gather_from`) and only the decided
characters go through
:meth:`~repro.nn.GPT2Inference.extend`.  Depth-0 expansions reuse the
cached prompt logits outright — zero model calls.  The forward and
:func:`~repro.generation.sampler.constrained_distribution` are
batch-invariant (each row's bits equal the row computed alone), so how
rows are grouped never changes a score, and a password scores the same
at every ``beam_width``.

Fault tolerance
---------------

Ordered campaigns are first-class citizens of the journaled runtime:
every ``snapshot_every`` rounds a ``frontier`` record journals the
emitted delta and counters as JSONL, and the frontier itself as one
binary ``.npy`` sidecar whose sha256 the record carries
(:meth:`~repro.runtime.RunJournal.record`).  Each sidecar supersedes the
last, so the journal holds the emitted guesses plus one frontier and a
snapshot costs about as much as the frontier's bytes.  Resuming reads
the newest record whose sidecar verifies and continues from it; because
enumeration is deterministic, the merged stream is byte-identical to an
uninterrupted run for any snapshot interval.  If no record has a usable
sidecar (a torn tail reaching back past it, a deleted or corrupt file,
a journal from before sidecars), the run restarts from the roots on the
same journal header and emits ``frontier_restart`` — by the same
determinism the stream does not change.  ``maybe_fail("frontier")``
guards the snapshot site for fault-injection tests
(``REPRO_FAULT=crash:frontier:K``).

Memory is bounded by ``max_frontier``: when the frontier outgrows it the
*least* probable nodes are pruned.  Pruning never reorders the emitted
stream but can drop reachable strings, so it is accounted, never
silent: :attr:`OrderedStats.truncated_nodes` / ``truncated_mass`` and a
``frontier_truncated`` telemetry event report exactly what was given up.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import asdict, dataclass, fields
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Optional, Sequence, Union

import numpy as np

from .. import telemetry
from ..nn import KVCache
from ..runtime import Budget, RunJournal
from ..tokenizer.patterns import Pattern
from .campaign import Campaign, CampaignPlan, run_campaign
from .sampler import constrained_distribution

if TYPE_CHECKING:  # imported lazily to avoid a models <-> generation cycle
    from ..models.pagpassgpt import PagPassGPT


@dataclass(frozen=True)
class OrderedConfig:
    """Knobs of the best-first enumerator.

    ``beam_width`` is the number of frontier nodes expanded per round,
    with one batched model call per ``(prompt length, depth)`` shape
    among them — a throughput knob that also sets how many equal-score
    candidates can be in flight (the emitted *order* is probability-
    sorted regardless).  ``max_frontier`` caps frontier memory; overflow
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
    model_calls: int = 0  # extend forwards: one per (prompt length, depth) per round
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


class Frontier:
    """The enumerator's open nodes as columns, best first.

    Row ``i`` is one node: its cumulative negative log-probability
    ``neg``, insertion ordinal ``seq`` (the tie-break), ``prompt`` index,
    decided characters (the first ``depth`` entries of ``chars``) and
    whether it is a ``complete`` password.  Rows stay sorted by ``(neg,
    seq)``, so popping the best nodes walks a prefix and pruning is a
    slice.
    """

    COLUMNS = ("neg", "seq", "prompt", "depth", "complete", "chars")
    __slots__ = COLUMNS

    def __init__(self, neg, seq, prompt, depth, complete, chars) -> None:
        self.neg = neg
        self.seq = seq
        self.prompt = prompt
        self.depth = depth
        self.complete = complete
        self.chars = chars

    def __len__(self) -> int:
        return len(self.neg)

    def columns(self) -> list[np.ndarray]:
        return [getattr(self, name) for name in self.COLUMNS]

    def select(self, index) -> "Frontier":
        """The rows at ``index``: a slice (views) or an index array."""
        if isinstance(index, slice):
            return Frontier(*(column[index] for column in self.columns()))
        # np.take copies whole rows of the 2-D chars column far faster
        # than fancy indexing does.
        return Frontier(*(np.take(column, index, axis=0) for column in self.columns()))

    def merge(
        self, keep: np.ndarray, children: "Frontier", limit: int
    ) -> tuple["Frontier", np.ndarray]:
        """The rows where ``keep`` is set plus ``children``, sorted by
        ``(neg, seq)`` and cut to the best ``limit``; also the ``neg`` of
        the rows cut off, best first.

        Children are newer than every row here (larger ``seq``), so one
        ``np.lexsort`` orders them and each lands after the rows it ties.
        """
        kept = np.flatnonzero(keep)
        by_score = np.lexsort((children.seq, children.neg))
        at = np.searchsorted(self.neg[kept], children.neg[by_score], side="right")
        at += np.arange(len(at))
        # Row of [self, children] that lands at each merged position.
        source = np.empty(len(kept) + len(at), dtype=np.intp)
        old = np.ones(len(source), dtype=bool)
        old[at] = False
        source[old] = kept
        source[at] = by_score + len(self)
        neg = np.take(np.concatenate((self.neg, children.neg)), source)
        head = source[:limit]
        rest = (
            np.take(np.concatenate((mine, theirs)), head, axis=0)
            for mine, theirs in zip(self.columns()[1:], children.columns()[1:])
        )
        return Frontier(neg[:limit], *rest), neg[limit:]

    def to_records(self, dtype: np.dtype) -> np.ndarray:
        """One structured array (the journal sidecar's form)."""
        records = np.empty(len(self), dtype=dtype)
        for name in self.COLUMNS:
            records[name] = getattr(self, name)
        return records

    @classmethod
    def from_records(cls, records: np.ndarray) -> "Frontier":
        return cls(*(np.ascontiguousarray(records[name]) for name in cls.COLUMNS))


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
        # One frontier row per node: its score, insertion ordinal, prompt,
        # decided characters (the first ``depth`` of ``chars``) and
        # whether it is a finished password.
        lengths = [
            p.pattern.length if p.pattern is not None else self._max_chars()
            for p in self.prompts
        ]
        self._row_dtype = np.dtype([
            ("neg", "<f8"),
            ("seq", "<i8"),
            ("prompt", "<i4"),
            ("depth", "<i2"),
            ("complete", "?"),
            ("chars", np.min_scalar_type(len(vocab) - 1), (max(lengths),)),
        ])
        #: Depth at which each prompt's nodes complete (-1: at <EOS> only).
        self._complete_at = np.array(
            [p.pattern.length if p.pattern is not None else -1 for p in self.prompts],
            dtype=np.int64,
        )
        self._prompt_len = np.array([len(p.prompt_ids) for p in self.prompts])
        #: The distinct candidate sets, and which one each (prompt, depth)
        #: draws its next token from.
        self._candidates: list[np.ndarray] = []
        self._candidate_of = np.zeros((len(self.prompts), max(lengths) + 1), dtype=np.intp)
        known: dict[bytes, int] = {}
        for i, (prompt, length) in enumerate(zip(self.prompts, lengths)):
            for depth in range(length + 1):
                allowed = self._allowed(prompt, depth)
                key = allowed.tobytes()
                if key not in known:
                    known[key] = len(self._candidates)
                    self._candidates.append(allowed)
                self._candidate_of[i, depth] = known[key]

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
        registry = telemetry.get_registry()
        emitted: list[tuple[str, float]] = []
        delta: list[list] = []  # [password, neg_logprob] since last snapshot
        journal = campaign.journal
        restored = self._restore(campaign, emitted)
        if restored is None:
            frontier, seq, snapshot_id = self._roots()
        else:
            frontier, seq, snapshot_id = restored
        stats = self.stats
        beam_width = self.config.beam_width
        max_frontier = self.config.max_frontier

        campaign.report(len(emitted), n)

        while len(emitted) < n and len(frontier):
            with telemetry.trace(
                "ordered.round", level="debug", round=int(stats.rounds)
            ) as span:
                pops0, calls0, emit0 = stats.pops, stats.model_calls, len(emitted)
                # The frontier is sorted best first, so a round is a walk
                # along its prefix: the leading complete nodes are the
                # most probable unemitted passwords...
                incomplete = np.flatnonzero(~frontier.complete)
                lead = int(incomplete[0]) if len(incomplete) else len(frontier)
                take = min(lead, n - len(emitted))
                for row in range(take):
                    password = self._password(frontier, row)
                    neg = float(frontier.neg[row])
                    emitted.append((password, -neg))
                    delta.append([password, neg])
                if len(emitted) < n and take < len(frontier):
                    # ...then up to beam_width incomplete nodes are popped
                    # for expansion.  Complete nodes among them stay put:
                    # a pending child may outscore them.
                    batch_rows = incomplete[:beam_width]
                    popped = (
                        int(batch_rows[-1]) + 1
                        if len(incomplete) >= beam_width
                        else len(frontier)
                    )
                    keep = np.ones(len(frontier), dtype=bool)
                    keep[:take] = False
                    keep[batch_rows] = False
                    children = self._expand(frontier.select(batch_rows), seq)
                    seq += len(children)
                    frontier, dropped = frontier.merge(keep, children, max_frontier)
                else:
                    popped = take
                    dropped = frontier.neg[take + max_frontier :]
                    frontier = frontier.select(slice(take, take + max_frontier))
                stats.pops += popped
                if len(dropped):
                    self._truncated(dropped, len(frontier), registry, stats)
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
                snapshot_id = self._snapshot(campaign, snapshot_id, frontier, seq, delta)
                delta = []
            if campaign.exceeded(guesses=len(emitted), model_calls=stats.model_calls):
                # Graceful stop at a round boundary: flush the pending
                # delta as an extra snapshot first, so the interrupted
                # round's guesses are durable before the raise — resume
                # picks up exactly here.
                if journal is not None and delta:
                    snapshot_id = self._snapshot(campaign, snapshot_id, frontier, seq, delta)
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
            self._snapshot(campaign, snapshot_id, frontier, seq, delta)
        return emitted[:n]

    def _roots(self) -> tuple[Frontier, int, int]:
        """The fresh frontier: one node per finite-prior prompt, plus the
        next ``seq`` and snapshot id."""
        indices = [
            i for i, prompt in enumerate(self.prompts)
            if math.isfinite(prompt.prior_neg_logprob)
        ]
        roots = Frontier.from_records(np.zeros(len(indices), dtype=self._row_dtype))
        roots.neg[:] = [self.prompts[i].prior_neg_logprob for i in indices]
        roots.seq[:] = np.arange(len(indices))
        roots.prompt[:] = indices
        return roots.select(np.lexsort((roots.seq, roots.neg))), len(indices), 0

    def _restore(
        self, campaign: Campaign, emitted: list[tuple[str, float]]
    ) -> Optional[tuple[Frontier, int, int]]:
        """Resume from the newest ``frontier`` record whose sidecar verifies.

        Fills ``emitted`` from that record and the ones before it and
        returns ``(frontier, seq, next snapshot id)``, or ``None`` when
        there is nothing to resume.  When no record qualifies — a torn
        tail reaching back past the live sidecar, a deleted or corrupt
        sidecar, or a journal written before sidecars existed — the
        journal starts over with the same header and a
        ``frontier_restart`` event: enumeration is deterministic, so
        restarting from the roots emits the same stream.
        """
        restored = campaign.completed()
        if not restored:
            return None
        for sid in sorted(restored, reverse=True):
            records = campaign.journal.load_sidecar(campaign.record_kind, sid)
            if records is not None and records.dtype == self._row_dtype:
                break
        else:
            telemetry.emit("frontier_restart", records=len(restored))
            campaign.journal.reset()
            return None
        used = [s for s in sorted(restored) if s <= sid]
        for s in used:
            emitted.extend((pw, -float(neg)) for pw, neg in restored[s]["emitted"])
        last = restored[sid]
        self.stats = OrderedStats.from_dict(last["stats"])
        campaign.resumed(len(used), len(emitted), int(self.stats.model_calls))
        return Frontier.from_records(records), int(last["seq"]), sid + 1

    def _expand(self, batch: Frontier, seq: int) -> Frontier:
        """Children of the ``batch`` rows, numbered from ``seq``.

        The forwards are batched by shape, not by prompt: all rows whose
        prompts have one length and that decided one number of characters
        ride a single :meth:`~repro.nn.GPT2Inference.extend` on a KV
        cache gathered from their prompts' :class:`~repro.nn.PromptCache`
        entries, and all rows drawing from one candidate set share one
        :func:`constrained_distribution`.  Depth-0 rows reuse
        the cached prompt logits — zero model calls.  Both kernels are
        batch-invariant, so a row's scores do not depend on which rows
        share its call.  Children come out in sorted ``(prompt, depth)``
        order, then by parent in pop order, then by candidate token, so
        the ``seq`` tie-break is deterministic.  Zero-probability
        children are unreachable and never created.
        """
        stats = self.stats
        order = np.lexsort((batch.depth, batch.prompt))  # stable: pop order kept
        prompt, depth = batch.prompt[order], batch.depth[order]
        distinct, local = np.unique(prompt, return_inverse=True)
        entries = [
            self.model.prompt_cache.lookup(self.prompts[i].prompt_ids)
            for i in distinct.tolist()
        ]
        prompt_logits = np.concatenate([logits for logits, _ in entries])
        logits = np.empty((len(order), prompt_logits.shape[1]), dtype=prompt_logits.dtype)
        # One group per (prompt length, depth) shape.  Only the
        # return_inverse form of np.unique here: the plain form imports
        # numpy.ma on first use, ~15 ms added to every process.
        shapes, shape = np.unique(
            self._prompt_len[prompt] * (int(depth.max()) + 1) + depth, return_inverse=True
        )
        for key in range(len(shapes)):
            rows = np.flatnonzero(shape == key)
            d = int(depth[rows[0]])
            if d == 0:
                logits[rows] = prompt_logits[local[rows]]
                continue
            used, which = np.unique(local[rows], return_inverse=True)
            kv = KVCache.gather_from([entries[u][1] for u in used.tolist()], which)
            chars = batch.chars[order[rows], :d].astype(np.int64)
            logits[rows] = self.model.inference.extend(chars, kv)
            stats.model_calls += 1
        stats.expansions += len(order)
        sets, candidate = np.unique(self._candidate_of[prompt, depth], return_inverse=True)
        parents, log_probs, tokens = [], [], []
        for key in range(len(sets)):
            rows = np.flatnonzero(candidate == key)
            allowed = self._candidates[sets[key]]
            # log of the renormalised constrained distribution, float64
            # so cumulative scores do not lose precision along the path.
            with np.errstate(divide="ignore"):
                group = np.log(
                    constrained_distribution(logits[rows], allowed).astype(np.float64)
                )
            row, column = np.nonzero(np.isfinite(group))
            parents.append(rows[row])
            log_probs.append(group[row, column])
            tokens.append(allowed[column])
        parent = np.concatenate(parents)
        # Each parent's children are contiguous and in token order within
        # its candidate set; a stable sort restores the parents' order.
        by_parent = np.argsort(parent, kind="stable")
        children = batch.select(order[parent[by_parent]])
        children.neg -= np.concatenate(log_probs)[by_parent]
        children.seq = np.arange(seq, seq + len(children), dtype=np.int64)
        token = np.concatenate(tokens)[by_parent]
        # <EOS> completes an unconditional node without adding a char.
        grows = np.flatnonzero(token != self._eos_id)
        children.chars[grows, children.depth[grows]] = token[grows]
        children.depth[grows] += 1
        children.complete = (token == self._eos_id) | (
            children.depth == self._complete_at[children.prompt]
        )
        return children

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

    def _password(self, frontier: Frontier, row: int) -> str:
        token_strs = self.model.tokenizer.vocab.token_array
        return "".join(token_strs[frontier.chars[row, : frontier.depth[row]]])

    def _truncated(
        self, dropped: np.ndarray, kept: int, registry, stats: OrderedStats
    ) -> None:
        """Account for the nodes pruned to hold the ``max_frontier`` cap."""
        # math.exp summed best first: the mass is the same float however
        # the frontier is stored.
        mass = float(sum(map(math.exp, (-dropped).tolist())))
        stats.truncated_nodes += len(dropped)
        stats.truncated_mass += mass
        registry.counter("ordered.truncated").inc(len(dropped))
        telemetry.emit(
            "frontier_truncated",
            level="debug",
            dropped=len(dropped),
            mass=mass,
            frontier=kept,
        )

    def _snapshot(
        self,
        campaign: Campaign,
        snapshot_id: int,
        frontier: Frontier,
        seq: int,
        delta: list[list],
    ) -> int:
        """Journal the enumeration state; returns the next ordinal.

        The JSONL record carries the emitted delta and counters; the
        frontier itself goes to the record's binary sidecar.  The
        campaign's ``maybe_fail("frontier")`` sits before the write so
        the fault harness can kill the run at an exact snapshot boundary
        (``REPRO_FAULT=crash:frontier:K`` crashes before snapshot K+1,
        leaving K durable snapshots behind).
        """
        campaign.record(
            snapshot_id,
            {
                "round": int(self.stats.rounds),
                "emitted": delta,
                "seq": int(seq),
                "stats": self.stats.as_dict(),
            },
            sidecar=frontier.to_records(self._row_dtype),
        )
        self.stats.snapshots += 1
        return snapshot_id + 1
