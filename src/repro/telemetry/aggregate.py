"""Cross-process campaign aggregation: merge worker traces into one summary.

A telemetry directory written by a campaign contains::

    telemetry.jsonl                  parent (plan, campaign events, serial spans)
    telemetry-worker-<pid>.jsonl     one per worker process (execute spans)

:func:`summarize_campaign` merges them into a single JSON-ready summary:
fleet guess/model-call/cache-hit totals, per-worker skew, the fault and
retry timeline, top spans by time, and the planned-vs-actual comparison
against the budget the parent recorded at plan time
(:func:`repro.generation.planned_execute_costs`).

:func:`check_summary` turns the summary into deterministic CI
invariants; :func:`stable_events` strips the non-deterministic fields
(timestamps, durations, pids) so two identical seeded campaigns can be
compared byte-for-byte.
"""

from __future__ import annotations

from pathlib import Path
from typing import Iterable, Optional, Union

from .logger import read_events
from .metrics import Histogram

#: Span names that represent one completed unit of generation work.
EXECUTE_SPANS = ("dcgen.execute_batch", "free.chunk", "ordered.round")

#: Record keys that vary run-to-run even for identical campaigns.
_UNSTABLE_KEYS = ("ts", "pid", "worker")
#: Field keys that vary run-to-run: wall-clock durations, and trace
#: identity (trace ids are random per run; span ids embed the pid).
_UNSTABLE_FIELDS = ("duration_s", "trace_id", "remote_parent", "span_id", "parent_id")
#: Whole events that are wall-clock-shaped by nature: heartbeats are
#: interval-throttled (their *count* varies run-to-run) and profiles
#: carry sample counts.  Both are dropped from the deterministic view.
_UNSTABLE_EVENTS = ("heartbeat", "profile")

#: Span-duration histograms bucket microseconds: 2**36 µs ≈ 19 h covers
#: any campaign phase while keeping log2 bucket resolution fine at the
#: millisecond scale where decode batches live.
_DURATION_MAX_EXPONENT = 36


def _duration_percentiles(histogram: Histogram) -> dict:
    """Bucket-interpolated p50/p95/p99 of a µs histogram, in ms."""
    out = {}
    for label, q in (("p50_ms", 0.50), ("p95_ms", 0.95), ("p99_ms", 0.99)):
        value = histogram.quantile(q)
        out[label] = round(value / 1000.0, 3) if value is not None else None
    return out


def campaign_files(directory: Union[str, Path]) -> list[Path]:
    """The parent stream first, then worker streams in stable order."""
    directory = Path(directory)
    out: list[Path] = []
    parent = directory / "telemetry.jsonl"
    if parent.exists():
        out.append(parent)
    out.extend(sorted(directory.glob("telemetry-worker-*.jsonl")))
    return out


def collect_events(directory: Union[str, Path]) -> list[tuple[str, dict]]:
    """``(source_filename, record)`` pairs across every stream in order."""
    out: list[tuple[str, dict]] = []
    for path in campaign_files(directory):
        for record in read_events(path):
            out.append((path.name, record))
    return out


def stable_events(records: Iterable[dict]) -> list[dict]:
    """Deterministic view: drops timestamps, durations, and pids.

    Two identical seeded campaigns must produce identical stable views;
    the fault-injection and determinism tests compare these directly.
    """
    out = []
    for record in records:
        if record.get("event") in _UNSTABLE_EVENTS:
            continue
        rec = {k: v for k, v in record.items() if k not in _UNSTABLE_KEYS}
        fields = dict(rec.get("fields", {}))
        for key in _UNSTABLE_FIELDS:
            fields.pop(key, None)
        rec["fields"] = fields
        out.append(rec)
    return out


def summarize_campaign(directory: Union[str, Path]) -> dict:
    """Merge every stream in ``directory`` into one campaign summary."""
    directory = Path(directory)
    events = collect_events(directory)

    planned: Optional[dict] = None
    resumed = {"tasks": 0, "guesses": 0, "model_calls": 0}
    executed = {
        "tasks": 0,
        "guesses": 0,
        "model_calls": 0,
        "prompt_cache_hits": 0,
        "prompt_cache_misses": 0,
    }
    workers: dict[str, dict] = {}
    faults = {
        "task_failed": 0,
        "task_recovered": 0,
        "pool_rebuilds": 0,
        "serial_fallbacks": 0,
        "details": [],
    }
    failed_tasks: dict[tuple, int] = {}
    recovered_tasks: set = set()
    spans: dict[str, dict] = {}
    span_durations: dict[str, Histogram] = {}
    run_id = None
    wall_s = 0.0
    journal_records = 0
    journal_io = {"bytes": 0, "fsyncs": 0}

    for source, record in events:
        run_id = run_id or record.get("run_id")
        event = record.get("event")
        fields = record.get("fields", {})
        if event == "campaign_plan":
            planned = dict(fields)  # last plan wins (identical on resume)
        elif event == "campaign_resume":
            resumed["tasks"] += int(fields.get("tasks", 0))
            resumed["guesses"] += int(fields.get("guesses", 0))
            resumed["model_calls"] += int(fields.get("model_calls", 0))
        elif event == "task_failed":
            faults["task_failed"] += 1
            key = (fields.get("context"), fields.get("task"))
            failed_tasks[key] = failed_tasks.get(key, 0) + 1
            if len(faults["details"]) < 20:
                faults["details"].append(
                    {
                        "task": fields.get("task"),
                        "error": fields.get("error"),
                        "attempt": fields.get("attempt"),
                        "context": fields.get("context"),
                    }
                )
        elif event == "task_recovered":
            faults["task_recovered"] += 1
            recovered_tasks.add((fields.get("context"), fields.get("task")))
        elif event == "pool_rebuild":
            faults["pool_rebuilds"] += 1
        elif event == "serial_fallback":
            faults["serial_fallbacks"] += 1
        elif event == "span":
            name = fields.get("name", "?")
            if name == "journal.record":
                journal_records += 1
            duration = float(fields.get("duration_s") or 0.0)
            agg = spans.setdefault(name, {"count": 0, "total_s": 0.0, "max_s": 0.0})
            agg["count"] += 1
            agg["total_s"] += duration
            agg["max_s"] = max(agg["max_s"], duration)
            histogram = span_durations.get(name)
            if histogram is None:
                histogram = span_durations[name] = Histogram(
                    name, max_exponent=_DURATION_MAX_EXPONENT
                )
            histogram.observe(duration * 1e6)  # µs buckets
            if name == "campaign":
                wall_s += duration
                delta = fields.get("delta", {})
                for key in journal_io:
                    journal_io[key] += int(delta.get(f"journal.{key}", 0))
            if name in EXECUTE_SPANS:
                attrs = fields.get("attrs", {})
                delta = fields.get("delta", {})
                executed["tasks"] += 1
                executed["guesses"] += int(attrs.get("guesses", 0))
                executed["model_calls"] += int(attrs.get("model_calls", 0))
                executed["prompt_cache_hits"] += int(delta.get("prompt_cache.hits", 0))
                executed["prompt_cache_misses"] += int(delta.get("prompt_cache.misses", 0))
                per = workers.setdefault(
                    source, {"tasks": 0, "guesses": 0, "model_calls": 0, "busy_s": 0.0}
                )
                per["tasks"] += 1
                per["guesses"] += int(attrs.get("guesses", 0))
                per["model_calls"] += int(attrs.get("model_calls", 0))
                per["busy_s"] += duration

    unaccounted = sorted(
        str(key[1]) for key in failed_tasks if key not in recovered_tasks
    )
    for name, agg in spans.items():
        agg["total_s"] = round(agg["total_s"], 6)
        agg["max_s"] = round(agg["max_s"], 6)
        agg.update(_duration_percentiles(span_durations[name]))
    for per in workers.values():
        per["busy_s"] = round(per["busy_s"], 6)

    total_guesses = executed["guesses"] + resumed["guesses"]
    summary = {
        "directory": str(directory),
        "run_id": run_id,
        "files": [p.name for p in campaign_files(directory)],
        "planned": planned,
        "resumed": resumed,
        "executed": executed,
        "total_guesses": total_guesses,
        "workers": dict(sorted(workers.items())),
        "faults": {**faults, "unaccounted": unaccounted},
        "journal_records": journal_records,
        "journal_bytes": journal_io["bytes"],
        "journal_fsyncs": journal_io["fsyncs"],
        "spans": dict(
            sorted(spans.items(), key=lambda item: -item[1]["total_s"])
        ),
        "wall_s": round(wall_s, 6),
        "guesses_per_s": round(total_guesses / wall_s, 1) if wall_s > 0 else None,
    }
    return summary


def check_summary(summary: dict) -> list[str]:
    """Deterministic campaign invariants; returns human-readable failures.

    * every failed task was eventually recovered (no silent drops);
    * with a recorded plan and no resume/recompute, the fleet totals —
      guesses, model calls, prompt-cache hits — exactly equal the
      planned budget (catching both lost work and de-deduplication).
    """
    failures: list[str] = []
    if summary["faults"]["unaccounted"]:
        failures.append(
            f"unaccounted task failures: {summary['faults']['unaccounted']}"
        )
    planned = summary.get("planned")
    if planned:
        # A resumed campaign may legitimately exceed plan by the one
        # batch that executed but crashed before its journal write; a
        # clean campaign must match exactly.
        clean = summary["resumed"]["tasks"] == 0
        total = summary["total_guesses"]
        rows = int(planned.get("rows", -1))
        guess_mismatch = (total != rows) if clean else (total < rows)
        if guess_mismatch:
            failures.append(
                f"fleet guess count {total} != planned rows {planned.get('rows')}"
            )
        if clean:
            # Only plans that can price model calls up front (D&C-GEN)
            # record the key; ordered/free campaigns cannot know it at
            # plan time, so absence skips the check rather than failing.
            if "model_calls" in planned and (
                summary["executed"]["model_calls"] != int(planned["model_calls"])
            ):
                failures.append(
                    f"fleet model calls {summary['executed']['model_calls']} != "
                    f"planned {planned.get('model_calls')}"
                )
            if "prompt_cache_hits" in planned and (
                summary["executed"]["prompt_cache_hits"]
                != int(planned["prompt_cache_hits"])
            ):
                failures.append(
                    f"prompt cache hits {summary['executed']['prompt_cache_hits']} != "
                    f"planned dedup savings {planned['prompt_cache_hits']}"
                )
    return failures


# ----------------------------------------------------------------------
# Rendering
# ----------------------------------------------------------------------

def _table(headers: list[str], rows: list[list]) -> str:
    cells = [[str(c) for c in row] for row in rows]
    widths = [
        max(len(headers[i]), *(len(r[i]) for r in cells)) if cells else len(headers[i])
        for i in range(len(headers))
    ]
    def fmt(row):
        return "  ".join(c.ljust(widths[i]) for i, c in enumerate(row)).rstrip()
    lines = [fmt(headers), fmt(["-" * w for w in widths])]
    lines.extend(fmt(row) for row in cells)
    return "\n".join(lines)


def render_summary(summary: dict, top_spans: int = 10) -> str:
    """Human-readable campaign report (the ``telemetry summarize`` view)."""
    lines: list[str] = []
    planned = summary.get("planned") or {}
    lines.append(f"Campaign telemetry: {summary['directory']}")
    lines.append(
        f"  run_id={summary['run_id']}  streams={len(summary['files'])}  "
        f"journal_records={summary['journal_records']}  "
        f"journal_bytes={summary['journal_bytes']}  "
        f"journal_fsyncs={summary['journal_fsyncs']}"
    )
    rate = summary.get("guesses_per_s")
    lines.append(
        f"  guesses: {summary['total_guesses']} "
        f"(executed {summary['executed']['guesses']}, resumed {summary['resumed']['guesses']})"
        + (f"  fleet rate: {rate}/s over {summary['wall_s']}s" if rate else "")
    )
    if planned.get("backend"):
        lines.append(f"  decode backend: {planned['backend']}")
    if planned:
        lines.append("")
        lines.append("Planned vs actual")
        lines.append(
            _table(
                ["metric", "planned", "actual"],
                [
                    ["guesses", planned.get("rows"), summary["total_guesses"]],
                    ["model calls", planned.get("model_calls"),
                     summary["executed"]["model_calls"] + summary["resumed"]["model_calls"]],
                    ["prompt-cache hits", planned.get("prompt_cache_hits"),
                     summary["executed"]["prompt_cache_hits"]],
                    ["tasks", planned.get("n_tasks"),
                     summary["executed"]["tasks"] + summary["resumed"]["tasks"]],
                ],
            )
        )
    if summary["workers"]:
        lines.append("")
        lines.append("Per-stream execution (worker skew)")
        lines.append(
            _table(
                ["stream", "tasks", "guesses", "model calls", "busy_s"],
                [
                    [name, per["tasks"], per["guesses"], per["model_calls"], per["busy_s"]]
                    for name, per in summary["workers"].items()
                ],
            )
        )
    faults = summary["faults"]
    lines.append("")
    lines.append(
        f"Faults: {faults['task_failed']} task failure(s), "
        f"{faults['task_recovered']} recovered, "
        f"{faults['pool_rebuilds']} pool rebuild(s), "
        f"{faults['serial_fallbacks']} serial fallback(s), "
        f"{len(faults['unaccounted'])} unaccounted"
    )
    for detail in faults["details"]:
        lines.append(
            f"  task {detail['task']} attempt {detail['attempt']}: {detail['error']}"
        )
    if summary["spans"]:
        lines.append("")
        lines.append(f"Top spans by total time")
        rows = [
            [
                name,
                agg["count"],
                agg["total_s"],
                agg["max_s"],
                agg.get("p50_ms", "-"),
                agg.get("p95_ms", "-"),
                agg.get("p99_ms", "-"),
            ]
            for name, agg in list(summary["spans"].items())[:top_spans]
        ]
        lines.append(
            _table(["span", "count", "total_s", "max_s", "p50_ms", "p95_ms", "p99_ms"], rows)
        )
    return "\n".join(lines)
