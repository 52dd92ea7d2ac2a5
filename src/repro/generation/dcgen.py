"""D&C-GEN: divide-and-conquer password generation (§III-C, Algorithm 1).

The total guessing budget ``N`` is split across patterns by their training
probability (``N_Pi = N * Pr(P_i)``); any task whose budget exceeds the
threshold ``T`` is recursively divided along the next-token distribution
the model assigns to pattern-conforming candidates, producing
non-overlapping subtasks with longer prefixes.  Duplicates can then only
arise *inside* a leaf task, which is what drives the repeat rate down.

Implemented optimisations from §III-C3:

* a task's budget is capped at the search-space size of its pattern
  (generalised: at every node, the remaining search space of the prefix);
* tasks at the same depth are executed as one batched model call;
* prefixes are carried as integer id arrays end to end (no re-encoding).

Execution model
---------------

A run has two phases so leaves can execute anywhere:

* **divide** (serial, model-bound): :meth:`DCGenerator.plan` builds the
  task tree and emits a flat list of :class:`LeafTask` in canonical
  order, each with a stable ``task_id``;
* **execute**: leaves are packed into :class:`LeafBatch` es of at most
  ``gen_batch`` rows (:func:`build_batches`) and run either in-process
  or on a worker pool (:mod:`repro.generation.parallel`).  Every leaf
  draws its randomness from ``(base_seed, task_id)``
  (:func:`leaf_rng`), so the guess stream is byte-identical regardless
  of batch width or worker count.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Optional, Sequence, Union

import numpy as np

from .. import telemetry
from ..runtime import Budget, RetryPolicy, RunJournal
from ..tokenizer.patterns import Pattern
from .campaign import CampaignPlan, run_campaign
from .sampler import (
    GEN_BATCH,
    SamplerConfig,
    choose_constrained,
    constrained_distribution,
)

if TYPE_CHECKING:  # imported lazily to avoid a models <-> generation cycle
    from ..models.pagpassgpt import PagPassGPT


@dataclass(frozen=True)
class DCGenConfig:
    """D&C-GEN parameters.

    ``threshold`` is the paper's T: the largest leaf-task budget (the
    paper uses 4,000, tied to GPU batch capacity; scale it with your
    budget).  Tasks whose computed budget falls below ``min_count`` (the
    paper uses 1) are deleted.  ``gen_batch`` is the model-call batch
    width (rows per forward pass); it affects throughput only, never the
    sampled output.  ``workers > 1`` shards leaf batches across a
    process pool (:mod:`repro.generation.parallel`) with no change to
    the guess stream or stats.  ``max_retries`` / ``task_timeout``
    parameterise the pool supervisor (per-task retry budget and hung-task
    detection; see :class:`repro.runtime.RetryPolicy`).
    """

    threshold: int = 256
    min_count: float = 1.0
    max_patterns: Optional[int] = None
    gen_batch: int = GEN_BATCH
    workers: int = 1
    max_retries: int = 2
    task_timeout: Optional[float] = None

    def __post_init__(self) -> None:
        if self.threshold < 1:
            raise ValueError("threshold must be >= 1")
        if self.min_count <= 0:
            raise ValueError("min_count must be positive")
        if self.gen_batch < 1:
            raise ValueError("gen_batch must be >= 1")
        if self.workers < 1:
            raise ValueError("workers must be >= 1")
        if self.max_retries < 0:
            raise ValueError("max_retries must be >= 0")
        if self.task_timeout is not None and self.task_timeout <= 0:
            raise ValueError("task_timeout must be positive or None")

    def retry_policy(self) -> RetryPolicy:
        """The pool-supervision policy these knobs describe."""
        return RetryPolicy(max_retries=self.max_retries, task_timeout=self.task_timeout)


@dataclass
class DCGenStats:
    """Counters describing one D&C-GEN run (used by the ablation bench)."""

    patterns_used: int = 0
    divisions: int = 0
    leaves: int = 0
    deleted_tasks: int = 0
    model_calls: int = 0
    generated: int = 0


@dataclass
class _Task:
    """One subtask of the division phase: a rule prefix plus its budget."""

    prefix: np.ndarray  # ids: <BOS> pattern <SEP> [chars...]
    count: float


@dataclass(frozen=True)
class LeafTask:
    """One executable leaf of the division tree.

    ``task_id`` is the leaf's position in the canonical enumeration
    (patterns in ranked order, then depth, then insertion order); it is
    stable across runs and seeds the leaf's sampling rng together with
    the run's base seed, which is what makes execution order — and
    therefore worker sharding — irrelevant to the output.
    """

    task_id: int
    pattern: str
    prefix: np.ndarray  # ids: <BOS> pattern <SEP> chars[:done_chars]
    count: float  # budget share (the paper's N_i; may be fractional)
    rows: int  # whole guesses this leaf emits
    done_chars: int
    prompt_len: int


@dataclass(frozen=True)
class LeafBatch:
    """A slice of the leaf list that executes as one model batch.

    ``slices`` holds ``(leaf, row_start, row_stop)`` triples; a leaf
    larger than ``gen_batch`` spans several batches.  All leaves in a
    batch share the pattern and prefix length, so the batch is a single
    KV-cached decode.
    """

    batch_id: int
    slices: tuple[tuple[LeafTask, int, int], ...]

    @property
    def rows(self) -> int:
        return sum(stop - start for _, start, stop in self.slices)


def _largest_remainder(weights: np.ndarray, units: int) -> np.ndarray:
    """Allocate ``units`` whole guesses proportionally to ``weights``.

    Classic largest-remainder apportionment: floors first, then hands the
    remaining units to the largest fractional parts.  Used when a task's
    budget is too small to divide fractionally.
    """
    units = max(1, units)
    if weights.sum() <= 0:
        weights = np.ones_like(weights)
    shares = weights / weights.sum() * units
    floors = np.floor(shares).astype(np.int64)
    remainder = units - int(floors.sum())
    if remainder > 0:
        order = np.argsort(-(shares - floors))
        floors[order[:remainder]] += 1
    return floors


def remaining_search_space(pattern: Pattern, done_chars: int) -> float:
    """Distinct completions of a pattern after ``done_chars`` characters.

    Returned as float: for long patterns the exact integer overflows
    nothing here, but the D&C budget arithmetic is float anyway.
    """
    classes = pattern.char_classes()
    space = 1.0
    for cls in classes[done_chars:]:
        space *= {"L": 52, "N": 10, "S": 32}[cls]
    return space


def plan_digest(leaves: Sequence[LeafTask]) -> str:
    """Content digest of a leaf plan: the run identity a journal pins.

    Two runs with the same digest execute the same leaves with the same
    budgets, so their journaled batch results are interchangeable.
    """
    h = hashlib.sha256()
    for leaf in leaves:
        h.update(f"{leaf.task_id}|{leaf.pattern}|{leaf.rows}|{leaf.done_chars}|".encode())
        h.update(np.asarray(leaf.prefix, dtype=np.int64).tobytes())
        h.update(b";")
    return h.hexdigest()[:16]


def leaf_rng(base_seed: int, task_id: int) -> np.random.Generator:
    """The per-leaf random generator: ``(base_seed, task_id)`` seeded.

    Every leaf's draws come from its own stream, so the output does not
    depend on which batch (or which worker) the leaf lands in.
    """
    return np.random.default_rng((base_seed, task_id))


def build_batches(leaves: Sequence[LeafTask], gen_batch: int) -> list[LeafBatch]:
    """Pack leaves into execution batches of at most ``gen_batch`` rows.

    Batches never mix prefix lengths or patterns (each batch is one
    KV-cached decode), and together they cover every leaf's rows exactly
    once — the unit of work the parallel backend shards.
    """
    batches: list[LeafBatch] = []
    slices: list[tuple[LeafTask, int, int]] = []
    room = gen_batch
    key: Optional[tuple[str, int]] = None

    def flush() -> None:
        nonlocal slices, room
        if slices:
            batches.append(LeafBatch(batch_id=len(batches), slices=tuple(slices)))
        slices = []
        room = gen_batch

    for leaf in leaves:
        leaf_key = (leaf.pattern, leaf.done_chars)
        if key != leaf_key:
            flush()
            key = leaf_key
        start = 0
        while start < leaf.rows:
            take = min(room, leaf.rows - start)
            slices.append((leaf, start, start + take))
            room -= take
            start += take
            if room == 0:
                flush()
    flush()
    return batches


def execute_batch(
    model: "PagPassGPT",
    batch: LeafBatch,
    base_seed: int,
    sampler: Optional[SamplerConfig] = None,
) -> tuple[list[str], int]:
    """Run one leaf batch; returns ``(guesses in row order, model calls)``.

    Pure with respect to run state: everything it needs travels in the
    batch, so it executes identically in the serial loop and in a worker
    process — it is D&C-GEN's campaign task function.  ``sampler``
    defaults to the model's.

    Priming is prefix-deduplicated: the shared ``<BOS> pattern <SEP>``
    prompt comes from the model's :class:`~repro.nn.PromptCache` (primed
    once per pattern, usually already warm from the divide phase), the
    leaf characters are extended with one row per *leaf* rather than per
    guess, and the result is fanned out to the full row count with
    :meth:`~repro.nn.KVCache.gather`.  Because batched forward passes
    are per-row bitwise deterministic, the sampled stream is identical
    to priming every row from scratch.

    The returned call count is *logical* (prompt primes are accounted
    once per pattern in :meth:`DCGenerator.plan`), so stats stay
    invariant to worker sharding; physical work is tracked separately by
    :class:`~repro.nn.InferenceCounters`.
    """
    with telemetry.trace(
        "dcgen.execute_batch",
        level="debug",
        batch_id=batch.batch_id,
        pattern=batch.slices[0][0].pattern,
        rows=batch.rows,
    ) as span:
        sampler = sampler or model.sampler
        tokenizer = model.tokenizer
        vocab = tokenizer.vocab
        token_strs = vocab.token_array
        first = batch.slices[0][0]
        pattern = Pattern.parse(first.pattern)
        done = first.done_chars
        prompt_len = first.prompt_len
        n_positions = pattern.length - done

        # One prefix row per *leaf slice*; expand maps them to guess rows.
        counts = np.array([stop - start for _, start, stop in batch.slices])
        expand = np.repeat(np.arange(len(batch.slices)), counts)
        if done:
            leaf_chars = np.stack([leaf.prefix[prompt_len:] for leaf, _, _ in batch.slices])
        else:
            leaf_chars = np.empty((len(batch.slices), 0), dtype=np.int64)

        # Fully-specified prefixes need no sampling at all.
        if n_positions == 0:
            guesses = ["".join(row) for row in token_strs[leaf_chars[expand]].tolist()]
            span.set(guesses=len(guesses), model_calls=0)
            return guesses, 0

        # Each leaf's draw matrix is drawn whole and sliced, so a leaf that
        # spans several batches still samples the same values per row.
        draws = np.concatenate(
            [
                leaf_rng(base_seed, leaf.task_id).random((leaf.rows, n_positions))[start:stop]
                for leaf, start, stop in batch.slices
            ]
        )

        prompt_logits, prompt_kv = model.prompt_cache.lookup(first.prefix[:prompt_len])
        calls = 0
        if done:
            # Extend the shared prompt by each leaf's decided characters
            # (unique rows only), then replicate to the full guess count.
            unique_kv = prompt_kv.gather(np.zeros(len(batch.slices), dtype=np.intp))
            unique_logits = model.inference.extend(leaf_chars, unique_kv)
            calls += 1
            cache = unique_kv.gather(expand)
            logits = unique_logits[expand]
        else:
            cache = prompt_kv.gather(np.zeros(len(expand), dtype=np.intp))
            logits = np.repeat(prompt_logits, len(expand), axis=0)

        chosen_cols = np.empty((len(expand), n_positions), dtype=np.int64)
        for j, position in enumerate(range(done, pattern.length)):
            allowed = tokenizer.allowed_ids_at(pattern, position)
            chosen = choose_constrained(logits, allowed, draws[:, j], sampler)
            chosen_cols[:, j] = chosen
            if position + 1 < pattern.length:
                logits = model.inference.step(chosen, cache)
                calls += 1
        all_chars = np.concatenate([leaf_chars[expand], chosen_cols], axis=1)
        guesses = ["".join(row) for row in token_strs[all_chars].tolist()]
        span.set(guesses=len(guesses), model_calls=calls)
        return guesses, calls


def planned_execute_costs(batches: Sequence[LeafBatch]) -> dict[str, int]:
    """The execute phase's model-call / primed-position budget.

    Assumes every pattern prompt is already warm in the
    :class:`~repro.nn.PromptCache` (``plan`` primes them), so the budget
    counts only per-batch leaf-character extends and decode steps:

    * ``model_calls`` — one extend per batch with decided characters,
      plus ``n_positions - 1`` single-token steps per batch;
    * ``primed_positions`` — unique-leaf rows × decided characters (the
      priming FLOPs proxy);
    * ``prompt_cache_hits`` — shared-prompt lookups the execute phase
      will serve from the warm cache: one per batch that samples at all
      (fully-specified batches return before touching the cache).

    The throughput bench compares these against the physical
    :class:`~repro.nn.InferenceCounters` of a serial run; measured work
    above plan means priming got de-deduplicated.  The telemetry
    summary's :func:`~repro.telemetry.check_summary` holds a clean
    campaign to these numbers exactly.
    """
    calls = 0
    primed = 0
    cache_hits = 0
    for batch in batches:
        first = batch.slices[0][0]
        n_positions = Pattern.parse(first.pattern).length - first.done_chars
        if first.done_chars > 0 and n_positions > 0:
            calls += 1
            primed += len(batch.slices) * first.done_chars
        if n_positions > 0:
            calls += n_positions - 1
            cache_hits += 1
    return {
        "model_calls": calls,
        "primed_positions": primed,
        "prompt_cache_hits": cache_hits,
    }


class DCGenerator:
    """Runs Algorithm 1 on a fitted :class:`PagPassGPT`."""

    def __init__(self, model: "PagPassGPT", config: DCGenConfig = DCGenConfig()) -> None:
        self.model = model
        self.config = config
        self.stats = DCGenStats()
        #: Leaves of the most recent :meth:`plan` / :meth:`generate` call.
        self.leaf_tasks: list[LeafTask] = []

    # ------------------------------------------------------------------
    def generate(
        self,
        total: int,
        pattern_probs: Optional[dict[str, float]] = None,
        seed: int = 0,
        journal: Optional[Union[str, Path, RunJournal]] = None,
        resume: bool = False,
        progress: Optional[Callable[[int, int], None]] = None,
        budget: Optional[Budget] = None,
    ) -> list[str]:
        """Generate ~``total`` guesses; returns the raw (ordered) stream.

        ``pattern_probs`` defaults to the S_p recorded while fitting the
        model.  Patterns are processed in descending probability, so a
        truncated prefix of the output is itself a sensible guess list.
        ``seed`` feeds every leaf's rng via :func:`leaf_rng`; the stream
        is identical for any ``gen_batch`` or ``workers`` setting.

        ``journal`` (a path or an open :class:`RunJournal`) makes the run
        crash-safe: every completed leaf batch is journaled as it lands,
        and a rerun with ``resume=True`` skips journaled batches and
        emits the byte-identical stream an uninterrupted run would have —
        even with a different worker count.  Resuming validates the
        journal's header (seed, total, plan digest) and raises
        :class:`~repro.runtime.JournalError` on mismatch.

        ``progress`` is called as ``progress(done_rows, total_rows)``
        after every completed batch (and once for journal-resumed work);
        the CLI wires a :class:`~repro.telemetry.Heartbeat` here.  With
        an active telemetry session the run also emits a
        ``campaign_plan`` event carrying the full
        :func:`planned_execute_costs` budget, a ``campaign_resume``
        event for journal-reused work, and a ``campaign`` span.

        ``budget`` (a :class:`~repro.runtime.Budget`) is polled after
        every durable batch boundary — and while waiting on workers — so
        a deadline, quota, or delivered SIGTERM raises
        :class:`~repro.runtime.CampaignInterrupted` with the completed
        work already journaled; a ``resume=True`` rerun then continues
        byte-identically.
        """
        def plan() -> CampaignPlan:
            leaves = self.plan(total, pattern_probs)
            batches = build_batches(leaves, self.config.gen_batch)
            digest = plan_digest(leaves)
            config = self.config
            return CampaignPlan(
                rows=sum(b.rows for b in batches),
                header={"seed": int(seed), "total": int(total),
                        "threshold": int(config.threshold),
                        "gen_batch": int(config.gen_batch),
                        "n_batches": len(batches), "plan": digest},
                event={"n_tasks": len(batches), "plan": digest,
                       "threshold": int(config.threshold),
                       "gen_batch": int(config.gen_batch),
                       "workers": int(config.workers),
                       "backend": self.model.inference.backend_name,
                       **planned_execute_costs(batches)},
                tasks=batches,
                run_task=execute_batch,
                record_calls=True,
            )

        results = run_campaign(
            "dcgen", total, plan, self.model, seed=seed, workers=self.config.workers,
            journal=journal, resume=resume, progress=progress, budget=budget,
            policy=self.config.retry_policy(),
        )
        out: list[str] = []
        for guesses, calls in results:
            out.extend(guesses)
            self.stats.model_calls += calls
        self.stats.generated = len(out)
        return out

    # ------------------------------------------------------------------
    # Divide phase
    # ------------------------------------------------------------------
    def plan(
        self,
        total: int,
        pattern_probs: Optional[dict[str, float]] = None,
    ) -> list[LeafTask]:
        """Divide phase only: build and return the canonical leaf list.

        Resets :attr:`stats` and populates the divide-phase counters
        (``patterns_used``, ``divisions``, ``deleted_tasks``, ``leaves``
        and the divide-phase share of ``model_calls``).
        """
        with telemetry.trace("dcgen.plan", total=int(total)) as span:
            leaves = self._plan(total, pattern_probs)
            span.set(
                leaves=len(leaves),
                patterns=self.stats.patterns_used,
                divisions=self.stats.divisions,
            )
            return leaves

    def _plan(
        self,
        total: int,
        pattern_probs: Optional[dict[str, float]] = None,
    ) -> list[LeafTask]:
        model = self.model
        if not model.is_fitted:
            raise RuntimeError("PagPassGPT must be fitted before running D&C-GEN")
        probs = pattern_probs if pattern_probs is not None else model.pattern_probs
        if not probs:
            raise ValueError("no pattern distribution available; fit the model first")
        self.stats = DCGenStats()
        self.leaf_tasks = []

        ranked = sorted(probs.items(), key=lambda item: (-item[1], item[0]))
        if self.config.max_patterns is not None:
            ranked = ranked[: self.config.max_patterns]

        # Patterns whose share would fall below min_count are deleted
        # (Algorithm 1 / Fig. 7); their probability mass is redistributed
        # over the kept patterns so the requested total is actually spent.
        kept = [(p, prob) for p, prob in ranked if total * prob >= self.config.min_count]
        self.stats.deleted_tasks += len(ranked) - len(kept)
        kept_mass = sum(prob for _, prob in kept)
        if not kept or kept_mass <= 0:
            return []

        leaves: list[LeafTask] = []
        for pattern_str, prob in kept:
            pattern = Pattern.parse(pattern_str)
            budget = min(total * prob / kept_mass, remaining_search_space(pattern, 0))
            self.stats.patterns_used += 1
            self._divide_pattern(pattern, budget, leaves)
        self.stats.leaves = len(leaves)
        self.leaf_tasks = leaves
        return leaves

    def _divide_pattern(
        self, pattern: Pattern, budget: float, out: list[LeafTask]
    ) -> None:
        """Divide one pattern's task tree, appending its leaves to ``out``."""
        tokenizer = self.model.tokenizer
        prompt = np.asarray(tokenizer.encode_prompt(pattern), dtype=np.int64)
        prompt_len = len(prompt)
        threshold = self.config.threshold

        # Prime the pattern's shared prompt once; the divide phase, every
        # execute batch, and (via copy-on-write fork) worker processes
        # all reuse this entry instead of re-running the prompt forward.
        # Counted here exactly once so the stats stay invariant to
        # gen_batch packing and worker sharding.
        self.model.prompt_cache.lookup(prompt)
        self.stats.model_calls += 1

        # Level-synchronous division: every task at depth d has the same
        # prefix length, so a whole level is one batched model call.
        leaves_by_depth: dict[int, list[_Task]] = {}
        if budget <= threshold:
            leaves_by_depth[0] = [_Task(prompt, budget)]
            frontier: list[_Task] = []
        else:
            frontier = [_Task(prompt, budget)]
        depth = 0
        while frontier:
            next_frontier: list[_Task] = []
            allowed = tokenizer.allowed_ids_at(pattern, depth)
            child_space = remaining_search_space(pattern, depth + 1)
            rows = np.stack([t.prefix for t in frontier])
            probs = self._next_distributions(rows, allowed, prompt_len)
            self.stats.divisions += len(frontier)
            for task, dist in zip(frontier, probs):
                counts = task.count * dist
                keep = np.nonzero(counts >= self.config.min_count)[0]
                self.stats.deleted_tasks += len(counts) - len(keep)
                if len(keep) == 0:
                    # Every child is below min_count (near-flat
                    # distribution): allocate the parent's (small, < c)
                    # budget as whole guesses to the most probable
                    # children by largest remainder — budget is spent and
                    # the subtasks stay non-overlapping and duplicate-free.
                    units = _largest_remainder(counts, int(round(task.count)))
                    keep = np.nonzero(units)[0]
                    counts = units.astype(np.float64)
                else:
                    # Redistribute deleted children's mass over survivors
                    # so the parent's budget is actually spent.
                    counts = counts * (task.count / counts[keep].sum())
                for j in keep:
                    child_count = min(float(counts[j]), child_space)
                    child = _Task(np.append(task.prefix, allowed[j]), child_count)
                    if child_count <= threshold:
                        leaves_by_depth.setdefault(depth + 1, []).append(child)
                    else:
                        next_frontier.append(child)
            frontier = next_frontier
            depth += 1

        # Emit leaves in canonical order: depth-sorted, insertion order.
        for leaf_depth in sorted(leaves_by_depth):
            for task in leaves_by_depth[leaf_depth]:
                if leaf_depth == pattern.length:
                    rows = 1  # fully specified: one decode, no sampling
                else:
                    # Ceil rather than round: fractional leaf budgets would
                    # otherwise systematically under-spend the requested
                    # total (mass already lost to deleted children).
                    rows = int(np.ceil(task.count))
                out.append(
                    LeafTask(
                        task_id=len(out),
                        pattern=pattern.string,
                        prefix=task.prefix,
                        count=float(task.count),
                        rows=rows,
                        done_chars=leaf_depth,
                        prompt_len=prompt_len,
                    )
                )

    def _next_distributions(
        self, rows: np.ndarray, allowed: np.ndarray, prompt_len: int
    ) -> np.ndarray:
        """Renormalised next-token probabilities over ``allowed`` per row.

        All rows share the pattern prompt ``rows[:, :prompt_len]``, so the
        prompt KV state comes from the warm :class:`~repro.nn.PromptCache`
        and only the characters beyond it are fed through the model.  At
        depth 0 the cached prompt logits are reused outright — no model
        call at all.
        """
        gen_batch = self.config.gen_batch
        out = np.empty((len(rows), len(allowed)), dtype=np.float64)
        prompt_logits, prompt_kv = self.model.prompt_cache.lookup(rows[0, :prompt_len])
        depth = rows.shape[1] - prompt_len
        for start in range(0, len(rows), gen_batch):
            chunk = rows[start : start + gen_batch]
            if depth == 0:
                logits = np.repeat(prompt_logits, len(chunk), axis=0)
            else:
                kv = prompt_kv.gather(np.zeros(len(chunk), dtype=np.intp))
                logits = self.model.inference.extend(chunk[:, prompt_len:], kv)
                self.stats.model_calls += 1
            out[start : start + len(chunk)] = constrained_distribution(logits, allowed)
        return out
