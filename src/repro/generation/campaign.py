"""One runner for every generation campaign.

:func:`run_campaign` owns what every strategy shares: the ``campaign``
span and ``campaign_plan`` event, the run journal (attached with the
telemetry trace pinned into its header, and rejoined on resume), reuse
of journaled results (``campaign_resume``), ``progress``, budget polls
at each durable boundary, and the worker pool with its serial fallback.
A strategy supplies a :class:`CampaignPlan` — journal header, event
fields, and durable tasks with a per-task function — or, when it keeps
its own loop (the ordered enumerator's rounds), an ``execute`` callback
driving the open :class:`Campaign`.

Sampled generation is the simplest plan and lives here: ``GEN_BATCH``
chunks, each drawing from ``(seed, chunk_index)``, so the stream is the
same for any worker count and across a resume.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Optional, Sequence, Union

import numpy as np

from .. import telemetry
from ..runtime import Budget, RetryPolicy, RunJournal, maybe_fail
from .sampler import GEN_BATCH
from .strategies import STRATEGIES

#: ``run_task(model, task, seed) -> (guesses, model_calls)``.  It must be
#: a module-level function: spawned pool workers receive it by pickle.
TaskFn = Callable[[Any, Any, int], tuple[list[str], int]]


@dataclass
class CampaignPlan:
    """What a strategy hands :func:`run_campaign`.

    ``rows`` is the number of guesses the plan produces.  ``header`` is
    the journal's run identity (the runner adds ``kind``) and ``event``
    the ``campaign_plan`` fields after ``kind``/``requested``/``rows``.
    ``tasks`` are the durable units in stream order; a task's journal
    ``task_id`` is its position.  ``record_calls`` journals each task's
    model-call count next to its guesses.
    """

    rows: int
    header: dict
    event: dict
    tasks: Sequence = ()
    run_task: Optional[TaskFn] = None
    record_calls: bool = False


@dataclass
class Campaign:
    """An open campaign: its journal plus the progress and budget hooks."""

    record_kind: str
    journal: Optional[RunJournal]
    progress: Optional[Callable[[int, int], None]]
    budget: Optional[Budget]

    def completed(self) -> dict[int, Any]:
        """Journaled payloads of this campaign's record kind, by task id."""
        return {} if self.journal is None else self.journal.completed(self.record_kind)

    def resumed(self, tasks: int, guesses: int, model_calls: int) -> None:
        """Announce work reused from the journal (nothing when none was)."""
        if tasks:
            telemetry.emit(
                "campaign_resume", tasks=tasks, guesses=guesses, model_calls=model_calls
            )

    def record(self, task_id: int, payload: Any) -> None:
        """Make one unit durable; its record kind is also its fault site."""
        maybe_fail(self.record_kind)
        if self.journal is not None:
            self.journal.record(self.record_kind, task_id, payload)

    def report(self, done: int, total: int) -> None:
        if self.progress is not None:
            self.progress(done, total)

    def exceeded(self, guesses: int, model_calls: int) -> bool:
        """Whether the budget has tripped (without raising)."""
        return self.budget is not None and (
            self.budget.exceeded(guesses=guesses, model_calls=model_calls) is not None
        )

    def poll(self, **counts) -> None:
        """Raise :class:`~repro.runtime.CampaignInterrupted` on a trip."""
        if self.budget is not None:
            self.budget.poll(**counts)


def run_campaign(
    strategy: str,
    requested: int,
    plan: Callable[[], CampaignPlan],
    model,
    *,
    seed: int = 0,
    workers: int = 1,
    journal: Optional[Union[str, Path, RunJournal]] = None,
    resume: bool = False,
    progress: Optional[Callable[[int, int], None]] = None,
    budget: Optional[Budget] = None,
    policy: Optional[RetryPolicy] = None,
    execute: Optional[Callable[[Campaign], Any]] = None,
):
    """Run one campaign of ``strategy`` (a :data:`STRATEGIES` name).

    ``plan`` is called inside the ``campaign`` span, so planning work
    (D&C-GEN's divide phase) is timed as part of the campaign.  Without
    ``execute`` the plan's tasks run and the per-task ``(guesses,
    model_calls)`` results come back in task order.

    ``journal`` is a path (attached here: created fresh, or validated
    against the plan's header when ``resume=True``) or an already open
    :class:`RunJournal`, which the caller keeps owning.
    """
    spec = STRATEGIES[strategy]
    with telemetry.trace("campaign", kind=spec.kind, requested=int(requested)):
        p = plan()
        telemetry.emit(
            "campaign_plan", kind=spec.kind, requested=int(requested), rows=int(p.rows),
            **p.event,
        )
        owns_journal = journal is not None and not isinstance(journal, RunJournal)
        if owns_journal:
            header = telemetry.pin_trace({"kind": spec.kind, **p.header})
            journal = RunJournal.attach(journal, header, resume=resume)
            # A resumed run rejoins the original run's trace so its spans
            # extend the first attempt's tree; a fresh run adopts its own
            # pinned ref (a no-op).
            telemetry.rejoin_trace(journal.header.get(RunJournal.TRACE_HEADER_KEY))
        try:
            campaign = Campaign(spec.record, journal, progress, budget)
            if execute is not None:
                return execute(campaign)
            return _run_tasks(campaign, p, model, seed, workers, policy, spec.kind)
        finally:
            if owns_journal:
                journal.close()


def _run_tasks(
    campaign: Campaign,
    plan: CampaignPlan,
    model,
    seed: int,
    workers: int,
    policy: Optional[RetryPolicy],
    kind: str,
) -> list[tuple[list[str], int]]:
    """Run the plan's tasks serially or on a pool; results in task order.

    Journaled tasks are reused verbatim and every fresh completion is
    journaled the moment it lands, so a crash never costs more than the
    tasks in flight.  The budget is polled before the first task, after
    each task's journal write and while waiting on workers.
    """
    from .parallel import execute_parallel

    tasks = plan.tasks
    results: dict[int, tuple[list[str], int]] = {
        index: (list(payload["guesses"]), int(payload.get("model_calls", 0)))
        for index, payload in campaign.completed().items()
        if 0 <= index < len(tasks)
    }
    pending = [index for index in range(len(tasks)) if index not in results]
    done_rows = sum(len(guesses) for guesses, _ in results.values())
    done_calls = sum(calls for _, calls in results.values())
    campaign.resumed(len(results), done_rows, done_calls)
    campaign.report(done_rows, plan.rows)

    def counts() -> dict:
        return {
            "guesses": done_rows,
            "model_calls": done_calls,
            "tasks": len(results),
            "n_tasks": len(tasks),
        }

    def on_result(position: int, value: tuple[list[str], int]) -> None:
        nonlocal done_rows, done_calls
        index = pending[position]
        guesses, calls = value
        payload: dict = {"guesses": list(guesses)}
        if plan.record_calls:
            payload["model_calls"] = int(calls)
        campaign.record(index, payload)
        results[index] = value
        done_rows += len(guesses)
        done_calls += calls
        campaign.report(done_rows, plan.rows)
        campaign.poll(**counts())

    def run_serially() -> None:
        for position, index in enumerate(pending):
            if index not in results:  # journaled before a pool failure
                on_result(position, plan.run_task(model, tasks[index], seed))

    campaign.poll(**counts())
    if workers > 1 and len(pending) > 1:
        try:
            execute_parallel(
                model, [tasks[index] for index in pending], plan.run_task, seed, workers,
                policy=policy, on_result=on_result,
                stop=None if campaign.budget is None else campaign.budget.stopper(counts),
                context=f"parallel {kind} campaign",
            )
        except Exception as exc:
            warnings.warn(
                f"parallel {kind} campaign failed ({exc!r}); "
                "falling back to serial execution",
                RuntimeWarning,
                stacklevel=3,
            )
            run_serially()
    else:
        run_serially()
    return [results[index] for index in range(len(tasks))]


# ----------------------------------------------------------------------
# Sampled generation: GEN_BATCH chunks of free (trawling) decoding
# ----------------------------------------------------------------------

def free_chunks(n: int, gen_batch: int = GEN_BATCH) -> list[tuple[int, int]]:
    """``(chunk_index, rows)`` pairs covering ``n`` free-generation rows."""
    return [
        (i, min(gen_batch, n - start))
        for i, start in enumerate(range(0, n, gen_batch))
    ]


def run_free_chunk(model, chunk: tuple[int, int], seed: int) -> tuple[list[str], int]:
    """One sampled chunk; its rng is ``(seed, chunk_index)``."""
    index, rows = chunk
    with telemetry.trace("free.chunk", level="debug", rows=int(rows)) as span:
        guesses = model.sample_free_batch(rows, np.random.default_rng((seed, index)))
        span.set(guesses=len(guesses), model_calls=0)
    return guesses, 0


def generate_sampled(
    model,
    n: int,
    seed: int = 0,
    workers: int = 1,
    journal: Optional[Union[str, Path, RunJournal]] = None,
    resume: bool = False,
    progress: Optional[Callable[[int, int], None]] = None,
    budget: Optional[Budget] = None,
) -> list[str]:
    """The sampled strategy on any model with ``sample_free_batch``."""
    if n <= 0:
        return []

    def plan() -> CampaignPlan:
        chunks = free_chunks(n)
        # Warm the <BOS> prompt before any dispatch so forked workers
        # inherit the primed entry copy-on-write instead of re-priming.
        bos = np.array([model.tokenizer.vocab.bos_id], dtype=np.int64)
        model.prompt_cache.lookup(bos)
        return CampaignPlan(
            rows=n,
            header={"seed": int(seed), "n": int(n), "gen_batch": int(GEN_BATCH),
                    "n_chunks": len(chunks)},
            event={"n_tasks": len(chunks), "gen_batch": int(GEN_BATCH),
                   "workers": int(workers), "backend": model.inference.backend_name},
            tasks=chunks,
            run_task=run_free_chunk,
        )

    results = run_campaign(
        "sampled", n, plan, model, seed=seed, workers=workers, journal=journal,
        resume=resume, progress=progress, budget=budget,
    )
    return [pw for guesses, _ in results for pw in guesses]
