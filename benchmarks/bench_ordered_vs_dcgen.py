"""Ordered vs D&C-GEN: hit rate as a function of guess budget.

The SOPG claim (arXiv 2403.09954) is that emitting guesses in
descending model probability beats sampling at small budgets — every
ordered guess is the best unguessed string, while sampling spends
budget on duplicates and low-probability draws.  This benchmark stages
that comparison under one shared protocol (same leak, same split, same
trained model, same budgets — the MAYA requirement) and writes
``BENCH_ordered_vs_dcgen.json`` at the repo root.

Protocol per scale:

1. synthesize + clean a RockYou-style leak, split 7:1:2;
2. train one PagPassGPT on the train split (seeded, deterministic);
3. for each guess budget B: take the first B ordered guesses and a
   B-guess D&C-GEN campaign from the *same* model, and score both
   against the held-out test split with
   :func:`repro.evaluation.hit_rate` (which dedups guesses, so D&C-GEN
   is not penalised twice for repeats);
4. record hit rates, unique-guess counts, enumerator stats, and
   wall-clock (wall-clock is reported, never gated).

The ordered run repeats ``REPEATS`` times; its wall-clock is the
median with the [min, max] spread.  Each run replaces the scale's
``latest_<scale>`` report and its ``history`` entry for the current
commit (one entry per commit and scale): the commit, whether ``src/``
or ``benchmarks/`` differ from it, the enumerator's rounds, pops,
expansions and model calls, rows per model call, and the ordered
wall-clock.

``--check`` enforces only deterministic invariants: the ordered stream
is duplicate-free and non-increasing in score, every budget is met
without frontier exhaustion, pruning is fully accounted, and every
repeat emits the same stream with the same counters.

Usage::

    PYTHONPATH=src python benchmarks/bench_ordered_vs_dcgen.py
        [--scale tiny|standard] [--out BENCH_ordered_vs_dcgen.json] [--check]
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent

SCALES = {
    "standard": {
        "entries": 4000, "epochs": 2, "budgets": [100, 500, 1000],
        "dim": 48, "n_layers": 2, "n_heads": 4,
        "beam_width": 64, "max_frontier": 60_000, "threshold": 48,
    },
    "tiny": {
        "entries": 2000, "epochs": 1, "budgets": [50, 200],
        "dim": 32, "n_layers": 1, "n_heads": 2,
        "beam_width": 32, "max_frontier": 20_000, "threshold": 32,
    },
}

SEED = 7
#: Timed ordered runs per scale; the median and [min, max] are reported.
REPEATS = 3


def build_trained_model(scale: dict):
    """Leak -> clean -> split -> trained PagPassGPT, all seeded."""
    from repro.datasets import build_corpus, clean_leak, generate_leak, split_dataset
    from repro.models import PagPassGPT
    from repro.nn import GPT2Config
    from repro.training import TrainConfig

    cleaned, _ = clean_leak(generate_leak("rockyou", scale["entries"], seed=SEED))
    splits = split_dataset(cleaned, seed=SEED)
    model = PagPassGPT(
        model_config=GPT2Config(
            vocab_size=135, block_size=32, dim=scale["dim"],
            n_layers=scale["n_layers"], n_heads=scale["n_heads"], dropout=0.0,
        ),
        train_config=TrainConfig(
            epochs=scale["epochs"], batch_size=128, lr=2e-3, seed=SEED
        ),
        seed=SEED,
    )
    model.fit(build_corpus(splits.train, name="bench-train"))
    return model, splits.test


def bench_ordered(model, budgets: list[int], scale: dict, test: list[str]) -> dict:
    from repro.evaluation import hit_rate
    from repro.generation import OrderedConfig, OrderedGenerator

    runs = []
    for _ in range(REPEATS):
        gen = OrderedGenerator.for_patterns(
            model,
            config=OrderedConfig(
                beam_width=scale["beam_width"], max_frontier=scale["max_frontier"]
            ),
        )
        t0 = time.perf_counter()
        scored = gen.generate_scored(max(budgets))
        runs.append((time.perf_counter() - t0, scored, gen.stats.as_dict()))
    times = [seconds for seconds, _, _ in runs]
    seconds = statistics.median(times)
    _, scored, stats = runs[0]
    stream = [pw for pw, _ in scored]
    scores = [score for _, score in scored]
    return {
        "guesses": len(stream),
        "repeats": REPEATS,
        "seconds": round(seconds, 4),
        "seconds_spread": [round(min(times), 4), round(max(times), 4)],
        "guesses_per_sec": round(len(stream) / seconds, 1) if seconds else None,
        "stats": stats,
        "rows_per_call": round(stats["expansions"] / max(stats["model_calls"], 1), 2),
        "repeatable": all(
            other == scored and other_stats == stats for _, other, other_stats in runs
        ),
        "monotone": all(a >= b for a, b in zip(scores, scores[1:])),
        "unique": len(set(stream)),
        "by_budget": {
            str(budget): {
                "hit_rate": round(hit_rate(stream[:budget], test), 4),
                "unique_guesses": len(set(stream[:budget])),
            }
            for budget in budgets
        },
    }


def bench_dcgen(model, budgets: list[int], scale: dict, test: list[str]) -> dict:
    from repro.evaluation import hit_rate
    from repro.generation import DCGenConfig, DCGenerator

    by_budget = {}
    total_seconds = 0.0
    for budget in budgets:
        gen = DCGenerator(model, DCGenConfig(threshold=scale["threshold"]))
        t0 = time.perf_counter()
        stream = gen.generate(budget, seed=SEED)
        seconds = time.perf_counter() - t0
        total_seconds += seconds
        by_budget[str(budget)] = {
            "hit_rate": round(hit_rate(stream[:budget], test), 4),
            "unique_guesses": len(set(stream[:budget])),
            "seconds": round(seconds, 4),
        }
    return {"seconds": round(total_seconds, 4), "by_budget": by_budget}


def run_checks(ordered: dict, budgets: list[int]) -> list[str]:
    """Deterministic invariants only — hit rates are recorded, not gated
    (they depend on how far the tiny model converged, not on this code)."""
    failures = []
    if not ordered["monotone"]:
        failures.append("ordered scores are not non-increasing")
    if ordered["unique"] != ordered["guesses"]:
        failures.append(
            f"ordered stream has duplicates: {ordered['guesses']} emitted, "
            f"{ordered['unique']} unique"
        )
    if ordered["guesses"] < max(budgets):
        failures.append(
            f"frontier exhausted at {ordered['guesses']} < budget {max(budgets)}"
        )
    stats = ordered["stats"]
    if stats["truncated_nodes"] and stats["truncated_mass"] <= 0.0:
        failures.append("frontier pruning dropped nodes without accounting mass")
    if not ordered["repeatable"]:
        failures.append("ordered repeats differ in stream or counters")
    return failures


def git_state() -> dict:
    """The commit benchmarked and whether the measured code differs from it."""

    def git(*args) -> subprocess.CompletedProcess:
        return subprocess.run(
            ["git", "-C", str(REPO_ROOT), *args], capture_output=True, text=True
        )

    head = git("rev-parse", "--short", "HEAD")
    if head.returncode != 0:
        return {"commit": None, "dirty": None}
    dirty = git("diff", "--quiet", "HEAD", "--", "src", "benchmarks").returncode != 0
    return {"commit": head.stdout.strip(), "dirty": dirty}


def history_entry(scale: str, ordered: dict) -> dict:
    stats = ordered["stats"]
    return {
        **git_state(),
        "scale": scale,
        **{key: stats[key] for key in ("rounds", "pops", "expansions", "model_calls")},
        "rows_per_call": ordered["rows_per_call"],
        "repeats": ordered["repeats"],
        "ordered_seconds_median": ordered["seconds"],
        "ordered_seconds_spread": ordered["seconds_spread"],
        "guesses_per_sec": ordered["guesses_per_sec"],
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--scale", choices=sorted(SCALES), default="standard")
    parser.add_argument(
        "--out", type=Path, default=REPO_ROOT / "BENCH_ordered_vs_dcgen.json"
    )
    parser.add_argument(
        "--check", action="store_true",
        help="fail (exit 1) if a deterministic ordered invariant breaks",
    )
    args = parser.parse_args()
    scale = SCALES[args.scale]
    budgets = scale["budgets"]

    t0 = time.perf_counter()
    model, test = build_trained_model(scale)
    train_seconds = time.perf_counter() - t0

    ordered = bench_ordered(model, budgets, scale, test)
    dcgen = bench_dcgen(model, budgets, scale, test)

    report = {
        "scale": args.scale,
        "config": {**scale, "seed": SEED},
        "train_seconds": round(train_seconds, 2),
        "test_passwords": len(test),
        "ordered": ordered,
        "dcgen": dcgen,
    }
    existing = {}
    if args.out.exists():
        try:
            existing = json.loads(args.out.read_text())
        except (OSError, json.JSONDecodeError):
            existing = {}
    existing[f"latest_{args.scale}"] = report
    entry = history_entry(args.scale, ordered)
    existing["history"] = [
        old for old in existing.get("history", [])
        if (old["commit"], old["scale"]) != (entry["commit"], entry["scale"])
    ] + [entry]
    args.out.write_text(json.dumps(existing, indent=1) + "\n")

    print(f"[{args.scale}] trained in {train_seconds:.1f}s; "
          f"test set {len(test)} passwords")
    print(f"{'budget':>8}  {'ordered':>10}  {'dcgen':>10}")
    for budget in budgets:
        o = ordered["by_budget"][str(budget)]["hit_rate"]
        d = dcgen["by_budget"][str(budget)]["hit_rate"]
        print(f"{budget:>8}  {o:>10.2%}  {d:>10.2%}")
    print(f"ordered: {ordered['guesses']} guesses in {ordered['seconds']}s "
          f"(median of {ordered['repeats']}, spread {ordered['seconds_spread']}; "
          f"{ordered['stats']['model_calls']} model calls, "
          f"{ordered['rows_per_call']} rows/call, "
          f"{ordered['stats']['truncated_nodes']} pruned)")
    print(f"wrote {args.out}")

    failures = run_checks(ordered, budgets)
    for failure in failures:
        print(f"CHECK FAILED: {failure}")
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
