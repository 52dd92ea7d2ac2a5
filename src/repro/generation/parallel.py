"""Multiprocess execution backend for campaign tasks.

D&C-GEN's subtasks are non-overlapping (§III-C2), which makes leaf
execution embarrassingly parallel — the paper runs it across 4 GPUs.
Here the divide phase stays serial in the parent (it is model-bound and
cheap), and the resulting :class:`~repro.generation.dcgen.LeafBatch`
list is sharded across a process pool.  Sampled (trawling) generation
parallelises the same way, with ``gen_batch``-sized chunks as the unit.
:func:`execute_parallel` takes any task list plus the module-level
``run_task(model, task, seed)`` the campaign runs serially
(:mod:`repro.generation.campaign`).

Because every leaf/chunk seeds its own rng from ``(base_seed, task_id)``,
the merged stream is byte-identical to the serial path for any worker
count — the equivalence harness in ``tests/test_generation_parallel.py``
enforces this.

Weight sharing
--------------

* With the ``fork`` start method (Linux default) workers inherit the
  parent's model snapshot copy-on-write: the parent touches
  ``model.inference`` and ``model.prompt_cache`` once before forking so
  no worker rebuilds them — prompts primed in the parent (the D&C-GEN
  divide phase warms every pattern's ``<BOS> pattern <SEP>``) are never
  re-primed by workers.
* Without ``fork`` (e.g. spawn on macOS/Windows) the parent writes the
  weights once to a temporary ``repro.nn.serialization`` checkpoint and
  each worker rebuilds the model from that blob at pool init.

Failure handling
----------------

Tasks run under :func:`repro.runtime.retry.supervised_map`: worker
exceptions are caught *inside* the worker and reported per task, so a
single failed or hung task is retried (with backoff, up to
``RetryPolicy.max_retries`` times, a hung pool being killed and rebuilt)
while every completed result is kept.  Tasks whose retries are exhausted
run serially in the parent as a last resort with a ``RuntimeWarning`` —
the run always completes with the exact serial output.  ``on_result``
callbacks fire in the parent as each task completes, which is where the
run journal (:mod:`repro.runtime.journal`) persists progress.

Fault injection (:mod:`repro.runtime.faults`): every worker task passes
through ``maybe_fail("worker", index)``; the legacy
``REPRO_PARALLEL_TEST_CRASH`` variable still makes every worker raise
before its first task.
"""

from __future__ import annotations

import multiprocessing as mp
import os
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Optional, Sequence

from .. import telemetry
from ..runtime import RetryPolicy, maybe_fail, signals, supervised_map

#: Environment variable that makes every worker crash before its first
#: task.  Used by the equivalence harness to test graceful fallback.
CRASH_ENV = "REPRO_PARALLEL_TEST_CRASH"


@dataclass
class _WorkerContext:
    """Read-only state each worker needs: model, tasks, task fn, seed."""

    model: Any
    tasks: Sequence
    run_task: Callable[[Any, Any, int], Any]
    base_seed: int


#: Set in the parent before forking (inherited copy-on-write) or rebuilt
#: by :func:`_init_from_checkpoint` under non-fork start methods.
_CTX: Optional[_WorkerContext] = None


def _parent_telemetry_args() -> Optional[tuple[str, str, str, Optional[dict]]]:
    """Session init args to ship to workers, or ``None`` (telemetry off).

    The trace ref pins the worker session into the parent's trace: its
    root spans attach under whatever span is open at pool start (the
    campaign span), so the merged streams form one connected tree.
    """
    sess = telemetry.active()
    if sess is None:
        return None
    return (str(sess.dir), sess.run_id, sess.level, sess.trace_ref())


def _init_worker_telemetry(tele: Optional[tuple[str, str, str, Optional[dict]]]) -> None:
    """Open this worker's own ``telemetry-worker-<pid>.jsonl`` stream.

    Replaces any session inherited via fork (the parent's stream must
    only ever be written by the parent) and marks the metrics registry,
    so everything the worker reports is its own delta.  The shipped
    trace ref (works for fork and spawn alike — it rides the initargs)
    makes the worker a remote child of the parent's campaign span.
    """
    if tele is not None:
        directory, run_id, level, trace = tele
        telemetry.start_session(
            directory,
            run_id=run_id,
            worker=os.getpid(),
            level=level,
            context=telemetry.TraceContext.from_dict(trace),
        )


def _init_fork_worker(tele: Optional[tuple[str, str, str, Optional[dict]]]) -> None:
    """Pool initializer for the fork path (model arrives copy-on-write)."""
    signals.ignore_in_worker()
    _init_worker_telemetry(tele)


def _init_from_checkpoint(
    path, model_cls, tokenizer, sampler, tasks, run_task, base_seed, tele=None
) -> None:
    """Pool initializer for non-fork start methods.

    Rebuilds the model once per worker from an explicit weight blob (a
    ``repro.nn.serialization`` npz checkpoint written by the parent),
    loaded with the parent model's own class.
    """
    global _CTX

    signals.ignore_in_worker()
    _init_worker_telemetry(tele)
    model = model_cls.load(path)
    model.tokenizer = tokenizer
    model.sampler = sampler
    _CTX = _WorkerContext(model=model, tasks=tasks, run_task=run_task, base_seed=base_seed)


def _run_task(index: int) -> tuple[int, bool, object]:
    """Worker body: run one task by index, reporting any raise per task.

    Catching ``BaseException`` is deliberate: injected faults derive from
    it, and the supervisor must be able to attribute *any* worker failure
    to its task index rather than lose the whole map.
    """
    try:
        if os.environ.get(CRASH_ENV):
            raise RuntimeError(f"worker crash injected via {CRASH_ENV}")
        maybe_fail("worker", index)
        ctx = _CTX
        assert ctx is not None, "worker context not initialised"
        result = (index, True, ctx.run_task(ctx.model, ctx.tasks[index], ctx.base_seed))
    except BaseException as exc:  # noqa: BLE001 — see docstring
        return (index, False, f"{type(exc).__name__}: {exc}")
    # Refresh this worker's final metrics snapshot after every completed
    # task: workers die by Pool.terminate(), so there is no shutdown hook
    # — the last snapshot written is the worker's final accounting.
    sess = telemetry.active()
    if sess is not None and sess.worker is not None:
        sess.emit_metrics()
    return result


def execute_parallel(
    model,
    tasks: Sequence,
    run_task: Callable[[Any, Any, int], Any],
    base_seed: int,
    workers: int,
    start_method: Optional[str] = None,
    policy: Optional[RetryPolicy] = None,
    on_result: Optional[Callable[[int, object], None]] = None,
    stop: Optional[Callable[[], None]] = None,
    context: str = "parallel execution",
) -> list:
    """Supervised map of ``run_task(model, task, base_seed)`` over ``tasks``.

    Returns the results in task order — the same list the serial loop
    produces.  An empty ``tasks`` returns ``[]`` without spinning up a
    pool.  Individual task failures are retried per
    :class:`~repro.runtime.retry.RetryPolicy` and fall back to in-parent
    serial execution as a last resort; ``on_result(index, result)``
    fires once per task as it completes (unordered).  ``run_task`` must
    be a module-level function so spawned workers can unpickle it.

    ``stop`` (e.g. ``Budget.stopper``) is polled while waiting on worker
    results so deadlines and graceful-shutdown signals interrupt the map
    mid-wait; the supervisor terminates and reaps the pool on the way
    out (see :func:`repro.runtime.retry.supervised_map`).
    """
    global _CTX
    if not tasks:
        return []
    policy = policy or RetryPolicy()
    if start_method is None:
        methods = mp.get_all_start_methods()
        start_method = "fork" if "fork" in methods else mp.get_start_method()
    # Build the weight snapshot and prompt-KV cache once, before any
    # fork, so workers inherit them copy-on-write.  Under
    # REPRO_BACKEND=compiled this also renders+compiles (or cache-loads)
    # the fused decode kernels in the parent: forked workers inherit the
    # loaded shared library and bound weight pointers COW and never
    # touch the compiler; spawned workers re-resolve via the on-disk
    # kernel cache instead (the env var travels with them).
    model.inference
    model.prompt_cache
    workers = max(1, min(workers, len(tasks)))
    tele = _parent_telemetry_args()

    def run(factory) -> list:
        return supervised_map(
            factory,
            _run_task,
            len(tasks),
            policy=policy,
            serial_fn=lambda i: run_task(model, tasks[i], base_seed),
            on_result=on_result,
            context=context,
            stop=stop,
        )

    if start_method == "fork":
        ctx = mp.get_context("fork")
        _CTX = _WorkerContext(
            model=model, tasks=tuple(tasks), run_task=run_task, base_seed=base_seed
        )
        try:
            return run(lambda: ctx.Pool(
                processes=workers, initializer=_init_fork_worker, initargs=(tele,)
            ))
        finally:
            _CTX = None

    # Non-fork start method: ship an explicit weight blob once per worker.
    # The blob outlives any single pool so a post-timeout rebuild can
    # re-initialise fresh workers from it.
    ctx = mp.get_context(start_method)
    with tempfile.TemporaryDirectory(prefix="repro-parallel-") as tmp:
        path = Path(tmp) / "weights.npz"
        model.save(path)
        initargs = (str(path), type(model), model.tokenizer, model.sampler,
                    tuple(tasks), run_task, base_seed, tele)
        return run(lambda: ctx.Pool(
            processes=workers, initializer=_init_from_checkpoint, initargs=initargs
        ))
