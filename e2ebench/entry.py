"""Benchmark-owned entry points into ``repro``.

``python entry.py <repro CLI args...>``
    Calls :func:`repro.cli.main` with the arguments, exactly like
    ``python -m repro.cli``.  With ``E2E_TRACE=<file>`` set, it first
    wraps the public functions listed in :mod:`tracer` and, once
    ``main`` returns, writes the spans to ``<file>`` (tagged with
    ``E2E_TAG``, stamped with the parent's spawn time ``E2E_SPAWN``).

With ``E2E_JOBS=<file>`` set, it also records the CPU seconds each
``repro serve`` job spends on its fleet thread and writes them to
``<file>`` at exit as ``[kind, n, cpu_seconds, start, end]`` rows
(``start`` and ``end`` from ``time.monotonic()``).

``python entry.py --batch <argv-list.json>``
    Runs :func:`repro.cli.main` once per argument list in one process;
    exits 1 if any call does not return 0.

``python entry.py --score-loop <argv.json> <interval-s> <cpu.json>``
    An open loop of :func:`repro.cli.main` calls with one argument list,
    one every ``interval-s`` seconds, until stdin closes; then writes
    ``[start, cpu_seconds]`` per call to ``<cpu.json>`` (``start`` from
    ``time.monotonic()``; ``cpu_seconds`` is ``null`` for a call that
    did not return 0).

``python entry.py --kernels <dim> <layers> <heads> <out.json>``
    Builds the compiled decode kernels for that model shape into
    ``$REPRO_KERNEL_CACHE`` and writes the compile seconds to
    ``<out.json>``; exits 1 when the compiled backend is not active.
"""

from __future__ import annotations

import json
import os
import select
import sys
import time

START = time.monotonic()


def build_kernels(dim: int, layers: int, heads: int, out: str) -> int:
    """Compile the decode kernels for an (untrained) model of this shape."""
    from repro.models import PagPassGPT
    from repro.nn import GPT2Config, GPT2Inference
    from repro.telemetry import get_registry

    probe = PagPassGPT()
    config = GPT2Config(
        vocab_size=len(probe.tokenizer.vocab),
        block_size=probe.tokenizer.block_size,
        dim=dim,
        n_layers=layers,
        n_heads=heads,
    )
    model = PagPassGPT(model_config=config)
    model.model.eval()
    engine = GPT2Inference(model.model, backend="compiled")
    compile_s = get_registry().snapshot()["gauges"].get("backend.compile_seconds")
    with open(out, "w", encoding="utf-8") as fh:
        json.dump({"backend": engine.backend_name, "compile_s": compile_s}, fh)
    return 0 if engine.backend_name == "compiled" and compile_s else 1


def meter_jobs() -> list:
    """Record each server job's CPU seconds on the fleet thread running it."""
    from repro.server.core import CampaignServer

    rows = []
    run = CampaignServer._run_job_sync

    def metered(self, job):
        start, t0 = time.monotonic(), time.thread_time()
        try:
            return run(self, job)
        finally:
            rows.append([job.spec.kind, job.spec.n, time.thread_time() - t0, start,
                         time.monotonic()])

    CampaignServer._run_job_sync = metered
    return rows


def score_loop(argv_path: str, interval: float, out: str) -> int:
    """Call the CLI on a fixed schedule until stdin reaches end of file."""
    from repro.cli import main as cli_main

    with open(argv_path, encoding="utf-8") as fh:
        command = json.load(fh)
    calls = []
    due = time.monotonic()
    while not select.select([sys.stdin], [], [], max(0.0, due - time.monotonic()))[0]:
        start = time.monotonic()
        t0 = time.process_time()
        ok = cli_main(command) == 0
        calls.append([start, time.process_time() - t0 if ok else None])
        due += interval
    with open(out, "w", encoding="utf-8") as fh:
        json.dump(calls, fh)
    return 0


def main(argv: list[str]) -> int:
    if argv[:1] == ["--kernels"]:
        dim, layers, heads, out = argv[1:5]
        return build_kernels(int(dim), int(layers), int(heads), out)
    if argv[:1] == ["--score-loop"]:
        return score_loop(argv[1], float(argv[2]), argv[3])
    if argv[:1] == ["--batch"]:
        from repro.cli import main as cli_main

        with open(argv[1], encoding="utf-8") as fh:
            commands = json.load(fh)
        failed = sum(cli_main(cmd) != 0 for cmd in commands)
        return 1 if failed else 0

    trace_path = os.environ.get("E2E_TRACE")
    jobs_path = os.environ.get("E2E_JOBS")
    recorder = None
    if trace_path:
        import tracer

        recorder = tracer.Recorder(tag=os.environ.get("E2E_TAG", ""))
        tracer.install(recorder)
    jobs = meter_jobs() if jobs_path else None
    from repro.cli import main as cli_main

    code = 1
    try:
        if recorder is None:
            code = cli_main(argv)
        else:
            with recorder.span("cli.main", "cli"):
                code = cli_main(argv)
    finally:
        if recorder is not None:
            spawn = float(os.environ.get("E2E_SPAWN", START))
            recorder.dump(trace_path, {"spawn": spawn, "start": START, "exit": code,
                                       "end": time.monotonic(), "argv": argv})
        if jobs is not None:
            with open(jobs_path, "w", encoding="utf-8") as fh:
                json.dump(jobs, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
