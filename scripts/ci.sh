#!/usr/bin/env bash
# CI entry point: full test suite + perf, parallel-generation and
# crash-resume smokes.
#
# 1. Runs the tier-1 suite (unit/property/integration tests).
# 1b. Perf smoke: generation throughput bench on a tiny model, emitting
#    the BENCH_throughput.json artifact.  Gates only on deterministic
#    counters (model calls / primed positions vs the planned budget —
#    catching de-dedup regressions), never on wall-clock.
# 2. Smokes bench_table4_trawling at tiny scale with 2 worker processes
#    and only the GPT model rows, exercising the multiprocess D&C-GEN
#    backend end-to-end (~30 s warm; the first run trains the tiny
#    checkpoints into .cache/lab and takes a few minutes).
# 3. Crash-resume smoke: trains a tiny checkpoint, runs a 2-worker
#    D&C-GEN campaign that is killed after 3 journaled batches
#    (REPRO_FAULT), resumes it, and diffs the result against a clean
#    uninterrupted run — the streams must be byte-identical.
# 4. Telemetry smoke: a telemetry-enabled 2-worker campaign whose merged
#    summary must pass `repro telemetry summarize --check` (fleet guess
#    count == planned total, zero unaccounted task failures, prompt-cache
#    hits == planned dedup savings).
# 5. Ordered smoke (ISSUE 6): a best-first campaign on the same tiny
#    checkpoint is crashed at a journaled frontier snapshot, resumed,
#    diffed byte-for-byte against the uninterrupted stream, and its
#    telemetry must pass `summarize --check`.
# 6. Compiled-backend smoke (ISSUE 8): reruns the 2-worker campaign with
#    `--backend compiled` and demands the byte-identical stream, then
#    gates the compiled tiny bench.  Soft-skipped (with a visible
#    notice) when no C compiler is on PATH.
# 7. Observability smoke (ISSUE 10): a traced+profiled 2-worker campaign
#    must stay byte-identical, pass `summarize --check`, and export to a
#    single connected chrome-trace tree (`export --check`); the overhead
#    bench records traced-vs-untraced cost into
#    BENCH_telemetry_overhead.json (stream-identity gated, wall-clock
#    recorded only); a live `repro serve` is scraped for Prometheus
#    exposition and rendered once by `repro top` before its SIGTERM
#    drain.
# 8. PassGPT smoke: a PassGPT checkpoint runs the sampled (2 workers)
#    and ordered strategies through the same campaign runner: each is
#    crashed at its journaled unit, verified, resumed, and diffed
#    byte-for-byte against a clean run.
set -euo pipefail
cd "$(dirname "$0")/.."

export PYTHONPATH=src

python -m pytest -x -q

# Perf smoke (deterministic): fails if D&C-GEN's physical model-call or
# primed-position counts exceed the planned execute budget.
python benchmarks/bench_throughput.py --scale tiny --check
test -s BENCH_throughput.json

REPRO_BENCH_SCALE=tiny \
REPRO_BENCH_WORKERS=2 \
REPRO_BENCH_TRAWLING_MODELS="PagPassGPT,PagPassGPT-D&C" \
python -m pytest benchmarks/bench_table4_trawling.py --benchmark-only -x -q

# ----------------------------------------------------------------------
# Crash-resume smoke (ISSUE 2): interrupted campaign == clean campaign.
# ----------------------------------------------------------------------
SMOKE_DIR=$(mktemp -d)
trap 'rm -rf "$SMOKE_DIR"' EXIT

python -m repro.cli synth --site rockyou --entries 2000 --out "$SMOKE_DIR/leak.txt"
python -m repro.cli clean --input "$SMOKE_DIR/leak.txt" --out "$SMOKE_DIR/cleaned.txt"
python -m repro.cli train --input "$SMOKE_DIR/cleaned.txt" --out "$SMOKE_DIR/model.npz" \
    --dim 32 --layers 1 --heads 2 --epochs 1 --batch-size 128

GEN_ARGS=(generate --checkpoint "$SMOKE_DIR/model.npz" -n 1500
          --dcgen --threshold 32 --workers 2 --seed 5)

python -m repro.cli "${GEN_ARGS[@]}" --out "$SMOKE_DIR/clean_run.txt"

# Interrupted run: crash after 3 journaled leaf batches...
if REPRO_FAULT=crash:leaf_batch:3 \
   python -m repro.cli "${GEN_ARGS[@]}" --out "$SMOKE_DIR/resumed.txt" \
       --journal "$SMOKE_DIR/run.jsonl"; then
    echo "crash-resume smoke: injected crash did not fire" >&2
    exit 1
fi
test -s "$SMOKE_DIR/run.jsonl"  # journaled progress survived the crash

# Integrity gate (ISSUE 7): the crash left artifacts behind — the
# verifier must pass them (repairing a torn journal tail if the kill
# landed mid-write) before the resume leg is allowed to trust them.
python -m repro.cli verify "$SMOKE_DIR/run.jsonl" "$SMOKE_DIR/model.npz" --repair
echo "verify smoke: crash artifacts pass integrity verification"

# ...then resume and demand the byte-identical stream.
python -m repro.cli "${GEN_ARGS[@]}" --out "$SMOKE_DIR/resumed.txt" \
    --journal "$SMOKE_DIR/run.jsonl" --resume
diff "$SMOKE_DIR/clean_run.txt" "$SMOKE_DIR/resumed.txt"
echo "crash-resume smoke: interrupted+resumed run is byte-identical"

# ----------------------------------------------------------------------
# Telemetry smoke (ISSUE 5): traced campaign passes its invariant gate.
# ----------------------------------------------------------------------
python -m repro.cli "${GEN_ARGS[@]}" --out "$SMOKE_DIR/traced.txt" \
    --telemetry "$SMOKE_DIR/tele"
diff "$SMOKE_DIR/clean_run.txt" "$SMOKE_DIR/traced.txt"  # telemetry never alters the stream
test -s "$SMOKE_DIR/tele/telemetry.jsonl"
test -s "$SMOKE_DIR/tele/campaign-summary.json"
ls "$SMOKE_DIR"/tele/telemetry-worker-*.jsonl > /dev/null  # per-worker traces exist
python -m repro.cli telemetry summarize "$SMOKE_DIR/tele" --check
echo "telemetry smoke: merged campaign summary passes deterministic invariants"

# ----------------------------------------------------------------------
# Ordered smoke (ISSUE 6): best-first campaign, crash at a frontier
# snapshot, resume, byte-identical stream + telemetry invariants.
# ----------------------------------------------------------------------
# Snapshot cadence matters here: a frontier snapshot journals the whole
# heap (fsync'd), so every-round snapshots would dominate the wall-clock.
ORD_ARGS=(generate --checkpoint "$SMOKE_DIR/model.npz" -n 120
          --strategy ordered --beam-width 64 --max-frontier 5000
          --snapshot-every 20)

python -m repro.cli "${ORD_ARGS[@]}" --out "$SMOKE_DIR/ordered_clean.txt" \
    --telemetry "$SMOKE_DIR/ordered-tele"
python -m repro.cli telemetry summarize "$SMOKE_DIR/ordered-tele" --check

# Interrupted run: crash before the 4th frontier snapshot...
if REPRO_FAULT=crash:frontier:3 \
   python -m repro.cli "${ORD_ARGS[@]}" --out "$SMOKE_DIR/ordered_resumed.txt" \
       --journal "$SMOKE_DIR/ordered.jsonl"; then
    echo "ordered smoke: injected crash did not fire" >&2
    exit 1
fi
test -s "$SMOKE_DIR/ordered.jsonl"  # journaled snapshots survived the crash

# ...then resume and demand the byte-identical ordered stream.
python -m repro.cli "${ORD_ARGS[@]}" --out "$SMOKE_DIR/ordered_resumed.txt" \
    --journal "$SMOKE_DIR/ordered.jsonl" --resume
diff "$SMOKE_DIR/ordered_clean.txt" "$SMOKE_DIR/ordered_resumed.txt"
echo "ordered smoke: crashed+resumed best-first stream is byte-identical"

# ----------------------------------------------------------------------
# PassGPT smoke: the baseline model gets the same journaled campaigns.
# ----------------------------------------------------------------------
python -m repro.cli train --input "$SMOKE_DIR/cleaned.txt" --model passgpt \
    --out "$SMOKE_DIR/passgpt.npz" --dim 32 --layers 1 --heads 2 --epochs 1 --batch-size 128

passgpt_crash_resume() {  # <fault directive> <generate args...>
    local fault=$1; shift
    local args=(generate --checkpoint "$SMOKE_DIR/passgpt.npz" "$@")
    python -m repro.cli "${args[@]}" --out "$SMOKE_DIR/passgpt_clean.txt"
    if REPRO_FAULT=$fault python -m repro.cli "${args[@]}" \
           --out "$SMOKE_DIR/passgpt_resumed.txt" --journal "$SMOKE_DIR/passgpt.jsonl"; then
        echo "passgpt smoke: injected $fault did not fire" >&2
        exit 1
    fi
    python -m repro.cli verify "$SMOKE_DIR/passgpt.jsonl" --repair
    python -m repro.cli "${args[@]}" --out "$SMOKE_DIR/passgpt_resumed.txt" \
        --journal "$SMOKE_DIR/passgpt.jsonl" --resume
    diff "$SMOKE_DIR/passgpt_clean.txt" "$SMOKE_DIR/passgpt_resumed.txt"
}
passgpt_crash_resume crash:free_chunk:1 -n 1500 --seed 5 --workers 2
passgpt_crash_resume crash:frontier:1 --strategy ordered -n 60 \
    --beam-width 64 --max-frontier 5000 --snapshot-every 5
echo "passgpt smoke: crashed+resumed sampled and ordered streams are byte-identical"

# ----------------------------------------------------------------------
# Compiled-backend smoke (ISSUE 8): the fused C decode kernels must emit
# the byte-identical stream, and the compiled bench gates must hold
# (backend really active, stream == numpy reference).  Soft-skip when
# the container has no C compiler — the numpy fallback path is already
# covered by the suite above.
# ----------------------------------------------------------------------
if command -v "${CC:-cc}" > /dev/null; then
    python -m repro.cli "${GEN_ARGS[@]}" --backend compiled \
        --out "$SMOKE_DIR/compiled_run.txt" --telemetry "$SMOKE_DIR/compiled-tele"
    diff "$SMOKE_DIR/clean_run.txt" "$SMOKE_DIR/compiled_run.txt"
    python -m repro.cli telemetry summarize "$SMOKE_DIR/compiled-tele" --check
    python benchmarks/bench_throughput.py --scale tiny --check --backend compiled
    echo "compiled smoke: C backend stream is byte-identical and bench gates pass"
else
    echo "compiled smoke: SKIPPED — no C compiler ('${CC:-cc}') on PATH" >&2
fi

# ----------------------------------------------------------------------
# Chaos smoke (ISSUE 7): fixed-seed randomized fault schedule.  Each case
# runs golden -> fault -> (repair if corrupted) -> resume and demands a
# byte-identical stream plus `telemetry summarize --check`.  Fixed seed
# keeps the schedule (and runtime, ~30 s) reproducible across CI runs.
# ----------------------------------------------------------------------
python -m repro.cli chaos --workdir "$SMOKE_DIR/chaos" \
    --checkpoint "$SMOKE_DIR/model.npz" \
    --seed 0 --per-strategy 1 --strategies dcgen,sampled --workers 1 -n 400
test -s "$SMOKE_DIR/chaos/chaos-report.json"
echo "chaos smoke: seeded fault schedule holds the byte-identical-resume invariant"

# ----------------------------------------------------------------------
# Server soak smoke (ISSUE 9): guessing as a service under chaos.  A
# fixed-seed soak drives a live campaign server with concurrent client
# threads, one armed worker-crash fault, and a SIGTERM drain mid-run;
# a recovered server over the same state dir must finish every accepted
# request with a byte-identical stream (zero lost, zero duplicated) and
# a clean per-job `telemetry summarize --check`, or a typed failure.
# ----------------------------------------------------------------------
python -m repro.cli chaos --server --workdir "$SMOKE_DIR/soak" \
    --checkpoint "$SMOKE_DIR/model.npz" \
    --seed 0 --requests 4 --clients 2 -n 200
test -s "$SMOKE_DIR/soak/soak-report.json"
echo "server soak smoke: accepted requests survive crash+drain byte-identically"

# And the operator path end-to-end: a real `repro serve` process must
# come up, stay alive, and exit 0 on a SIGTERM graceful drain.
python -m repro.cli serve --checkpoint "$SMOKE_DIR/model.npz" \
    --state-dir "$SMOKE_DIR/server-state" --port 0 --fleet 1 &
SERVER_PID=$!
sleep 3
kill -0 "$SERVER_PID" || { echo "serve smoke: server died at startup" >&2; exit 1; }
kill -TERM "$SERVER_PID"
wait "$SERVER_PID"
test -s "$SMOKE_DIR/server-state/requests.journal.jsonl"
echo "serve smoke: SIGTERM drain exits 0"

# ----------------------------------------------------------------------
# Observability smoke (ISSUE 10): tracing + profiling + exposition.
# ----------------------------------------------------------------------
# A traced AND profiled 2-worker campaign still emits the byte-identical
# stream, its merged summary passes --check, the folded profile is
# non-empty, and the exported chrome-trace is one connected tree
# spanning the parent and worker pids.
python -m repro.cli "${GEN_ARGS[@]}" --out "$SMOKE_DIR/profiled.txt" \
    --telemetry "$SMOKE_DIR/obs-tele" --profile "$SMOKE_DIR/profile.folded"
diff "$SMOKE_DIR/clean_run.txt" "$SMOKE_DIR/profiled.txt"
test -s "$SMOKE_DIR/profile.folded"
python -m repro.cli telemetry summarize "$SMOKE_DIR/obs-tele" --check
python -m repro.cli telemetry export "$SMOKE_DIR/obs-tele" \
    --format chrome-trace --out "$SMOKE_DIR/trace.json" --check
test -s "$SMOKE_DIR/trace.json"
echo "observability smoke: traced+profiled campaign byte-identical, trace tree connected"

# Overhead bench: records traced / traced+profiled cost next to the
# untraced baseline and hard-gates on stream identity.  Wall-clock
# overhead is recorded, not gated, at tiny scale (too noisy for CI);
# the committed standard-scale artifact carries the <=5% result.
python benchmarks/bench_telemetry_overhead.py --scale tiny --repeats 2 \
    --out "$SMOKE_DIR/BENCH_telemetry_overhead.json"
test -s "$SMOKE_DIR/BENCH_telemetry_overhead.json"
echo "observability smoke: telemetry overhead recorded, streams identical"

# Prometheus exposition + repro top against a live server.  The
# ephemeral port is parsed from the serve banner; the scrape uses
# stdlib urllib (curl is not guaranteed in the container).
python -m repro.cli serve --checkpoint "$SMOKE_DIR/model.npz" \
    --state-dir "$SMOKE_DIR/obs-server-state" --port 0 --fleet 1 \
    2> "$SMOKE_DIR/serve.log" &
SERVER_PID=$!
for _ in $(seq 1 50); do
    grep -q "serving on" "$SMOKE_DIR/serve.log" && break
    kill -0 "$SERVER_PID" || { cat "$SMOKE_DIR/serve.log" >&2; exit 1; }
    sleep 0.2
done
PORT=$(sed -n 's|.*serving on http://[^:]*:\([0-9]*\).*|\1|p' "$SMOKE_DIR/serve.log" | head -1)
test -n "$PORT" || { echo "observability smoke: no port in serve banner" >&2; exit 1; }
python - "$PORT" <<'PY'
import sys
from urllib.request import urlopen

port = sys.argv[1]
with urlopen(f"http://127.0.0.1:{port}/metrics?format=prometheus", timeout=10) as r:
    assert r.headers["Content-Type"].startswith("text/plain; version=0.0.4"), r.headers
    text = r.read().decode()
assert "# TYPE" in text and "repro_" in text, text[:400]
with urlopen(f"http://127.0.0.1:{port}/metrics", timeout=10) as r:
    assert r.headers["Content-Type"].startswith("application/json")
print("prometheus exposition scrape ok")
PY
python -m repro.cli top --url "http://127.0.0.1:$PORT" --once | grep -q "state: serving"
kill -TERM "$SERVER_PID"
wait "$SERVER_PID"
echo "observability smoke: prometheus scrape + repro top ok, drain clean"
