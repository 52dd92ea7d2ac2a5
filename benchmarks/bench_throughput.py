"""Generation throughput benchmark: prime/decode/sample phase timings.

Measures the inference fast path on a deterministic synthetic campaign
(untrained fixed-seed model — throughput does not depend on weight
values) and writes ``BENCH_throughput.json`` at the repo root so the
perf trajectory is tracked across PRs.

Reported per run:

* **D&C-GEN**: plan/execute wall-clock, guesses/sec, physical model
  calls and primed positions (from
  :class:`repro.nn.InferenceCounters`), the planned execute budget
  (:func:`repro.generation.planned_execute_costs`), per-phase time split
  (prime / decode / sample), and the priming FLOPs-proxy reduction vs
  per-row priming (``primed rows × prefix length``, what
  ``execute_batch`` cost before prefix deduplication).
* **Free generation**: wall-clock and guesses/sec.

The whole run executes inside a telemetry session
(:mod:`repro.telemetry`): every phase hook doubles as a ``phase.prime``
/ ``phase.decode`` / ``phase.sample`` span, so the JSONL trace is the
ground truth for the phase split and the JSON report records both the
wrapper-measured and the span-derived numbers (they must agree) plus
the trace directory (``--telemetry DIR``, default a fresh temp dir).

``--check`` turns the run into a deterministic CI gate: it fails if the
physical execute-phase work exceeds the planned budget (priming got
de-deduplicated) or if the FLOPs-proxy reduction falls below 2x.
Wall-clock numbers are recorded but never gated — they are
machine-dependent.

``--backend compiled`` runs the same campaign on the fused C decode
kernels (``repro.nn.backend``) and writes a ``latest_<scale>_compiled``
entry beside the numpy one, recording the decode-phase speedup against
the numpy entry already on disk.  Under ``--check`` the compiled run
additionally gates on the backend actually being active (no silent
fallback) and on a small free-generation stream matching the numpy
reference byte-for-byte.

Usage::

    PYTHONPATH=src python benchmarks/bench_throughput.py [--scale tiny|standard]
        [--backend numpy|compiled] [--out BENCH_throughput.json]
        [--telemetry DIR] [--check]
"""

from __future__ import annotations

import argparse
import json
import os
import tempfile
import time
from pathlib import Path

import numpy as np

REPO_ROOT = Path(__file__).resolve().parent.parent

#: Synthetic campaign configs.  ``standard`` matches the pre-change
#: baseline recorded in BENCH_throughput.json; ``tiny`` is the CI smoke.
SCALES = {
    "standard": {"total": 6000, "free_n": 1024, "threshold": 64},
    "tiny": {"total": 1200, "free_n": 256, "threshold": 48},
}

MODEL_SPEC = {"dim": 64, "n_layers": 2, "n_heads": 4, "seed": 0}
PATTERN_PROBS = {"L4N2": 0.4, "N6": 0.3, "L3S1N2": 0.2, "L8": 0.1}
SEED = 3


def build_model():
    from repro.models import PagPassGPT
    from repro.nn import GPT2Config

    model = PagPassGPT(
        model_config=GPT2Config(
            vocab_size=135,
            block_size=32,
            dim=MODEL_SPEC["dim"],
            n_layers=MODEL_SPEC["n_layers"],
            n_heads=MODEL_SPEC["n_heads"],
            dropout=0.0,
        ),
        seed=MODEL_SPEC["seed"],
    )
    model._fitted = True
    model.pattern_probs = dict(PATTERN_PROBS)
    return model


class PhaseTimer:
    """Wraps the inference entry points to split time into phases.

    Each wrapped call also runs inside a ``phase.<name>`` telemetry
    span, so the JSONL trace carries the same split the wrapper sums.
    """

    def __init__(self, model):
        self.times = {"prime": 0.0, "decode": 0.0, "sample": 0.0}
        self._model = model
        inference = model.inference
        self._originals = (inference.start, inference.extend, inference.step)
        inference.start = self._timed("prime", inference.start)
        inference.extend = self._timed("prime", inference.extend)
        inference.step = self._timed("decode", inference.step)
        import repro.generation.dcgen as dcgen_mod

        self._dcgen_mod = dcgen_mod
        self._orig_choose = dcgen_mod.choose_constrained
        dcgen_mod.choose_constrained = self._timed("sample", self._orig_choose)

    def _timed(self, phase, fn):
        from repro import telemetry

        def wrapper(*args, **kwargs):
            t0 = time.perf_counter()
            try:
                with telemetry.trace(f"phase.{phase}", level="debug"):
                    return fn(*args, **kwargs)
            finally:
                self.times[phase] += time.perf_counter() - t0

        return wrapper

    def restore(self):
        inference = self._model.inference
        inference.start, inference.extend, inference.step = self._originals
        self._dcgen_mod.choose_constrained = self._orig_choose


def bench_dcgen(scale: dict) -> dict:
    from repro.generation import (
        DCGenConfig,
        DCGenerator,
        build_batches,
        execute_batch,
        plan_digest,
        planned_execute_costs,
    )

    model = build_model()
    gen = DCGenerator(model, DCGenConfig(threshold=scale["threshold"]))
    backend_active = model.inference.backend_name
    counters = model.inference.counters

    t0 = time.perf_counter()
    leaves = gen.plan(scale["total"])
    plan_seconds = time.perf_counter() - t0
    divide_calls = counters.calls
    divide_primed = counters.prime_positions

    batches = build_batches(leaves, gen.config.gen_batch)
    planned = planned_execute_costs(batches)
    # What per-row priming (the pre-dedup execute_batch) would cost:
    # every sampled row re-primes its full prefix.
    legacy_primed = sum(
        batch.rows
        * (batch.slices[0][0].prompt_len + batch.slices[0][0].done_chars)
        for batch in batches
        if _positions_left(batch)
    )
    prompt_positions = sum({leaf.pattern: leaf.prompt_len for leaf in leaves}.values())

    counters.reset()
    timer = PhaseTimer(model)
    t0 = time.perf_counter()
    results = [execute_batch(model, batch, SEED) for batch in batches]
    execute_seconds = time.perf_counter() - t0
    timer.restore()
    guesses = [pw for chunk, _ in results for pw in chunk]

    deduped_primed = counters.prime_positions + prompt_positions
    return {
        "backend_active": backend_active,
        "guesses": len(guesses),
        "plan_digest": plan_digest(leaves),
        "plan_seconds": round(plan_seconds, 4),
        "execute_seconds": round(execute_seconds, 4),
        "seconds": round(plan_seconds + execute_seconds, 4),
        "guesses_per_sec": round(len(guesses) / (plan_seconds + execute_seconds), 1),
        "phase_seconds": {k: round(v, 4) for k, v in timer.times.items()},
        "model_calls": {
            "divide": divide_calls,
            "execute": counters.calls,
            "execute_planned": planned["model_calls"],
        },
        "primed_positions": {
            "divide": divide_primed,
            "execute": counters.prime_positions,
            "execute_planned": planned["primed_positions"],
            "prompts": prompt_positions,
            "legacy_per_row": legacy_primed,
        },
        "priming_reduction": round(legacy_primed / max(1, deduped_primed), 2),
    }


def _positions_left(batch) -> bool:
    from repro.tokenizer import Pattern

    first = batch.slices[0][0]
    return Pattern.parse(first.pattern).length > first.done_chars


def bench_free(scale: dict) -> dict:
    model = build_model()
    t0 = time.perf_counter()
    guesses = model.generate(scale["free_n"], seed=SEED)
    seconds = time.perf_counter() - t0
    return {
        "guesses": len(guesses),
        "seconds": round(seconds, 4),
        "guesses_per_sec": round(len(guesses) / seconds, 1),
    }


def check_compiled(dcgen: dict, scale: dict) -> list[str]:
    """Compiled-backend gates: really active, and byte-identical output.

    The stream probe regenerates a small free-generation stream under
    each backend and compares them — a cheap, deterministic stand-in for
    the full golden-stream suite that runs even where the fixture file
    is not at hand.
    """
    failures = []
    if dcgen["backend_active"] != "compiled":
        failures.append(
            "compiled backend requested but fell back to "
            f"{dcgen['backend_active']} — see the backend_fallback event"
        )
        return failures  # stream probe would just compare numpy to numpy
    n = min(256, scale["free_n"])
    streams = {}
    for name in ("numpy", "compiled"):
        os.environ["REPRO_BACKEND"] = name
        model = build_model()
        streams[name] = model.generate(n, seed=SEED)
    os.environ["REPRO_BACKEND"] = "compiled"
    if streams["compiled"] != streams["numpy"]:
        diverged = sum(a != b for a, b in zip(streams["numpy"], streams["compiled"]))
        failures.append(
            f"compiled backend stream diverges from numpy reference "
            f"({diverged}/{n} guesses differ)"
        )
    return failures


def run_checks(dcgen: dict) -> list[str]:
    """Deterministic regression gates (no wall-clock flakiness)."""
    failures = []
    calls = dcgen["model_calls"]
    if calls["execute"] > calls["execute_planned"]:
        failures.append(
            f"execute model calls {calls['execute']} exceed planned "
            f"{calls['execute_planned']} — priming got de-deduplicated"
        )
    primed = dcgen["primed_positions"]
    if primed["execute"] > primed["execute_planned"]:
        failures.append(
            f"execute primed positions {primed['execute']} exceed planned "
            f"{primed['execute_planned']}"
        )
    if dcgen["priming_reduction"] < 2.0:
        failures.append(
            f"priming FLOPs-proxy reduction {dcgen['priming_reduction']}x "
            "below the required 2x"
        )
    return failures


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--scale", choices=sorted(SCALES), default="standard")
    parser.add_argument(
        "--backend", choices=("numpy", "compiled"), default="numpy",
        help="decode backend to benchmark (compiled writes latest_<scale>_compiled)",
    )
    parser.add_argument("--out", type=Path, default=REPO_ROOT / "BENCH_throughput.json")
    parser.add_argument(
        "--telemetry", type=Path, default=None, metavar="DIR",
        help="telemetry trace directory (default: fresh temp dir)",
    )
    parser.add_argument(
        "--profile", type=Path, default=None, metavar="FILE",
        help="sample the wall-clock during the run and write folded "
             "flamegraph stacks to FILE (span-attributed)",
    )
    parser.add_argument(
        "--check",
        action="store_true",
        help="fail (exit 1) on deterministic perf regressions",
    )
    args = parser.parse_args()
    scale = SCALES[args.scale]
    os.environ["REPRO_BACKEND"] = args.backend

    from repro import telemetry

    tele_dir = args.telemetry or Path(tempfile.mkdtemp(prefix="repro-bench-telemetry-"))
    np.seterr(all="ignore")
    profiler = telemetry.SamplingProfiler() if args.profile else None
    with telemetry.session(tele_dir, run_id=f"bench-{args.scale}-{args.backend}"):
        if profiler is not None:
            profiler.start()
        try:
            dcgen = bench_dcgen(scale)
            free = bench_free(scale)
        finally:
            if profiler is not None:
                profiler.stop()  # inside the session: the profile event lands in-stream
    if profiler is not None:
        profiler.write(args.profile)
        print(f"profile: {profiler.sample_count} samples -> {args.profile} "
              f"(top spans: {profiler.top_spans(3)})")
    tele_summary = telemetry.summarize_campaign(tele_dir)
    spans = tele_summary["spans"]
    dcgen["span_phase_seconds"] = {
        phase: spans.get(f"phase.{phase}", {}).get("total_s", 0.0)
        for phase in ("prime", "decode", "sample")
    }
    report = {
        "scale": args.scale,
        "backend": {"requested": args.backend, "active": dcgen["backend_active"]},
        "config": {**scale, "model": MODEL_SPEC, "pattern_probs": PATTERN_PROBS, "seed": SEED},
        "dcgen": dcgen,
        "free": free,
        "telemetry": {
            "directory": str(tele_dir),
            "spans": {name: agg for name, agg in list(spans.items())[:12]},
        },
    }

    existing = {}
    if args.out.exists():
        try:
            existing = json.loads(args.out.read_text())
        except (OSError, json.JSONDecodeError):
            existing = {}
    existing.setdefault("baseline_pre_fastpath", {})
    if args.backend == "compiled":
        # Record the decode-phase speedup against the numpy entry for
        # the same scale (the headline number for the compiled backend).
        reference = existing.get(f"latest_{args.scale}")
        if isinstance(reference, dict):
            ref_decode = (
                reference.get("dcgen", {}).get("span_phase_seconds", {}).get("decode")
            )
            own_decode = dcgen["span_phase_seconds"]["decode"]
            if ref_decode and own_decode:
                report["decode_speedup_vs_numpy"] = round(ref_decode / own_decode, 2)
        existing[f"latest_{args.scale}_compiled"] = report
    else:
        existing[f"latest_{args.scale}"] = report
    args.out.write_text(json.dumps(existing, indent=1) + "\n")

    print(f"D&C-GEN [{args.scale}, backend={dcgen['backend_active']}]: "
          f"{dcgen['guesses']} guesses in {dcgen['seconds']}s "
          f"({dcgen['guesses_per_sec']}/s); phases {dcgen['phase_seconds']}")
    if "decode_speedup_vs_numpy" in report:
        print(f"  decode-phase speedup vs numpy entry: "
              f"{report['decode_speedup_vs_numpy']}x")
    print(f"  span-derived phases: {dcgen['span_phase_seconds']} "
          f"(trace: {tele_dir})")
    print(f"  model calls: divide={dcgen['model_calls']['divide']} "
          f"execute={dcgen['model_calls']['execute']} "
          f"(planned {dcgen['model_calls']['execute_planned']})")
    print(f"  priming FLOPs-proxy reduction vs per-row: {dcgen['priming_reduction']}x")
    print(f"free: {free['guesses']} guesses in {free['seconds']}s ({free['guesses_per_sec']}/s)")
    print(f"wrote {args.out}")

    failures = run_checks(dcgen)
    if args.check and args.backend == "compiled":
        failures += check_compiled(dcgen, scale)
    for failure in failures:
        print(f"CHECK FAILED: {failure}")
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
