"""End-to-end benchmark of the paths users run, split by layer.

Usage (from the repository root)::

    python3 e2ebench/run.py --workload cli-ordered --seed 1 --seconds 15 --trace 0

The benchmark drives the real entry points from outside, as
subprocesses, with ``PYTHONPATH=src``:

* set-up: ``repro synth`` -> ``clean`` -> ``split`` (7:1:2) -> ``repro
  train`` on the train split, while the compiled decode kernels build
  into a kernel cache under ``.e2ebench/``; for ``serve-mixed`` also
  ``repro serve`` until ``/healthz`` answers.  Set-up runs
  :data:`SETUP_REPEATS` times, each from its own seed derived from
  ``--seed``, and ``setup_s`` is the median; a seed must train the same
  checkpoint bytes in every run (``.e2ebench/ledger.json``).
* ``cli-*`` workloads: ``repro generate`` campaigns with journaling on
  (the default) and ``--workers 1``, one at a time.  One *whole*
  campaign, untimed, runs straight through; then, for ``--seconds``,
  *split* campaigns stop at half with ``--max-guesses`` (exit 3) and
  finish with ``--resume``, on each set-up's model in turn.  Beside
  them, one process calls ``repro evaluate`` on the whole campaign's
  guesses against the held-out test split every
  :data:`SCORE_INTERVAL_S` (the CLI's scoring path, timed per call).
* ``serve-mixed``: an open loop against a live ``repro serve --fleet 2``
  from this process over at most two connections: generate jobs
  (submit, poll, fetch the stream) and synchronous ``POST /score``
  requests, from several tenants, each sent at a due time fixed before
  the run.  Afterwards the server is drained with SIGTERM and restarted
  on its state directory until ``/healthz`` answers, :data:`SERVE`
  ``restarts`` times (``resume_s``).

``--trace 0`` prints the end-to-end metrics of ``BENCHMARK.json``.
``--trace 1`` prints the per-layer metrics instead: it runs the same
campaigns (or load) once untraced and once through ``entry.py``, which
wraps repro's public functions (``tracer.py``) and writes spans at
exit, and, for CLI workloads, once more under ``--profile`` to check
that the profiler names the same largest layer as the trace.

Every run checks its outputs and prints ``correct: false`` when a check
fails: streams of one (strategy, n, model, seed) are byte-identical
within a run, across runs of one seed (the ledger), between resumed and
whole campaigns, and between the server and ``repro generate``; scores
returned by the server match a local computation; deterministic counts
repeat across runs; the load generator kept to its schedule.

The last line of stdout is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics`` (``{name: {"value", "unit"}}``).  Timings
are medians over the run's samples; tails are nearest-rank percentiles
of the raw samples, never histogram estimates.

End-to-end timings count CPU seconds, not wall time, at a reference CPU
speed.  On a small shared host, steal and neighbours moved the wall
time of identical campaigns by 10-50% between runs, and the speed of
the CPU itself moved by up to 3x within an hour, the same on both
cores, which no number of repeats inside one run averages out.  So a
probe (``probe.py``) times a fixed task of the benchmark's own beside
every run, and each CPU time is scaled by how much slower or faster
than its reference the probe ran at that moment.  Waits (fsync, I/O)
are not in the times.  On CLI workloads ``guesses_per_s``,
``resume_s`` and ``job_p50_ms`` use the user + system time of the
``repro generate`` processes, and the score figures the CPU time of
``repro evaluate`` calls.  On ``serve-mixed`` ``job_p50_ms`` and
``guesses_per_s`` use the CPU time each generate job spends on its
fleet thread, the score figures the CPU time of the whole server while
a ``/score`` request was the only one in flight, and ``resume_s`` the
CPU time of a restarted server until it is ready.  ``setup_s`` is wall
time, scaled the same way.  The probe's median reading goes to stderr,
and so do each timed CLI campaign's raw CPU times; the traced run
reports the probe's median as ``host.probe_ms`` and the clients' wall
latencies from due time as ``client.*``.
"""

from __future__ import annotations

import argparse
import asyncio
import hashlib
import json
import os
import random
import re
import shutil
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import analysis  # noqa: E402
import probe  # noqa: E402
import tracer  # noqa: E402

PY = sys.executable
ENTRY = str(HERE / "entry.py")

SETUP_REPEATS = 3
#: Leak size and checkpoint shape.  A dim-64, 2-layer model decodes at
#: the cost the workloads were sized for; one epoch keeps set-up short.
SETUP = {"entries": 3000, "dim": 64, "layers": 2, "heads": 4, "epochs": 1}

#: CLI workloads.  A run makes one whole campaign, untimed, then times
#: campaigns stopped at half with ``--max-guesses`` and finished with
#: ``--resume``.
CLI = {
    # D&C-GEN on the compiled kernels: short campaigns, so process
    # start-up and load are a visible share.
    "cli-dcgen-compiled": {
        "n": 20000, "args": ["--strategy", "dcgen", "--backend", "compiled"],
    },
    # Ordered (SOPG) with a frontier snapshot every round: journaling the
    # frontier is the largest layer at this size (about half of the self
    # time), and resume reads it all back.
    "cli-ordered": {
        "n": 20,
        "args": ["--strategy", "ordered", "--max-frontier", "2500", "--snapshot-every", "1"],
    },
}

#: serve-mixed: arrivals per second (evenly spaced) and the exact share
#: of each kind; the seed shuffles the order and draws job seeds and
#: tenants.  One size per kind and two job seeds, so requests share the
#: warm per-slot model and prompt cache, and most jobs are of one kind,
#: so the median job falls inside one cost class on every seed.  Jobs are
#: few and small so the load stays well below saturation: at higher job
#: rates the GIL shared by the event loop and both fleet slots made
#: latencies swing by 2x between runs of one seed on a 2-CPU host.
SERVE = {
    "rate": 14.0,
    "mix": (("sampled", 0.11), ("dcgen", 0.04), ("score", 0.85)),
    "sizes": {"sampled": (50,), "dcgen": (50,)},
    "tenants": ("alpha", "beta", "gamma"),
    "score_guesses": 300,
    "connections": 2,
    "poll_s": 0.005,
    "job_timeout_s": 30.0,
    "late_limit_ms": 100.0,
    "restarts": 5,
}

#: Tail quantiles: at ``--seconds 15`` a serve-mixed run has 31 jobs and
#: 178 scores (about 170 of them alone in flight), so p50 and p90 each
#: keep ten samples beyond them.
JOB_TAIL, SCORE_TAIL = 0.5, 0.9
#: A CLI run's score samples: ``repro evaluate`` calls in an open loop, one
#: every SCORE_INTERVAL_S, beside the timed campaigns.  Calls made back to
#: back in one process drift together by up to 30%; paced ones hold to a
#: few percent.
SCORE_INTERVAL_S = 0.1
PROCESS_TIMEOUT_S = 60.0
#: Seconds between two samples of the CPU speed probe (``probe.py``); not
#: a multiple of SCORE_INTERVAL_S, so the two do not keep falling due at
#: the same moments.
PROBE_INTERVAL_S = 0.07


# ----------------------------------------------------------------------
# Processes
# ----------------------------------------------------------------------

class Env:
    """Paths and environment shared by every process of one run."""

    def __init__(self, root: Path, workload: str, seed: int) -> None:
        self.base = root / ".e2ebench"
        self.dir = self.base / f"{workload}-{seed}-{os.getpid()}"
        shutil.rmtree(self.dir, ignore_errors=True)
        self.dir.mkdir(parents=True)
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = str(root / "src")
        self.env.pop("REPRO_BACKEND", None)
        self.env.pop("REPRO_FAULT", None)
        self.env.pop("E2E_TRACE", None)
        # One BLAS thread per process: on a small shared host, idle BLAS
        # threads spin against the fleet threads and neighbours, which
        # makes timings erratic.
        for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
            self.env[name] = "1"
        self.log = self.dir / "stderr.log"
        #: Every server started in this run, stopped before exit.
        self.servers: list = []
        self.probe = None
        self.samples: list = []

    def start_probe(self) -> None:
        """Start the CPU speed probe (``probe.py``) beside the run."""
        with open(self.log, "ab") as log:
            self.probe = subprocess.Popen(
                [PY, str(HERE / "probe.py"), str(PROBE_INTERVAL_S), str(self.dir / "probe.json")],
                env=self.env, cwd=self.dir, stdin=subprocess.PIPE,
                stdout=subprocess.DEVNULL, stderr=log)

    def stop_probe(self) -> list:
        """Stop the probe, once, and return its ``[start, cpu_s]`` samples."""
        if self.probe is not None:
            if finish(self.probe) != 0:
                raise RuntimeError(f"CPU speed probe failed; see {self.log}")
            self.samples = json.loads((self.dir / "probe.json").read_text())
            self.probe = None
        return self.samples

    def at_reference(self, seconds: float, t0: float, t1: float) -> float:
        """``seconds`` measured over ``[t0, t1]``, scaled to the reference
        CPU speed; stops the probe, so call it once measuring is over."""
        return seconds * probe.scale(self.stop_probe(), t0, t1)


def finish(proc) -> int:
    """Close the stdin of a process that runs until it does; its exit code."""
    proc.stdin.close()
    try:
        return proc.wait(timeout=PROCESS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        return -9


def spawn(env: Env, argv, expect=0, extra_env=None, cwd=None) -> dict:
    """Run one process to exit: wall and CPU seconds (user + system, from
    spawn to exit, so import and load are in them) and its peak RSS."""
    t0 = time.monotonic()
    penv = dict(env.env, E2E_SPAWN=repr(t0), **(extra_env or {}))
    with open(env.log, "ab") as log:
        proc = subprocess.Popen(argv, env=penv, cwd=cwd or env.dir,
                                stdout=subprocess.DEVNULL, stderr=log)
    timer = threading.Timer(PROCESS_TIMEOUT_S, proc.kill)
    timer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        timer.cancel()
    t1 = time.monotonic()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {"wall": t1 - t0, "span": (t0, t1), "cpu": usage.ru_utime + usage.ru_stime,
            "rss_kb": usage.ru_maxrss, "ok": proc.returncode == expect}


def repro(*args) -> list:
    return [PY, "-m", "repro.cli", *map(str, args)]


def digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def read_lines(path: Path) -> list:
    return path.read_text(encoding="utf-8").splitlines()


# ----------------------------------------------------------------------
# Set-up
# ----------------------------------------------------------------------

def setup_once(env: Env, seed: int, index: int) -> dict:
    d = env.dir / f"setup{index}"
    d.mkdir()
    s = SETUP
    t0 = time.monotonic()
    kernels = subprocess.Popen(
        [PY, ENTRY, "--kernels", str(s["dim"]), str(s["layers"]), str(s["heads"]),
         str(d / "kernels.json")],
        env=dict(env.env, REPRO_KERNEL_CACHE=str(d / "kernels")), cwd=d,
        stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
    )
    try:
        steps = [
            repro("synth", "--site", "rockyou", "--entries", s["entries"],
                  "--seed", seed, "--out", d / "leak.txt"),
            repro("clean", "--input", d / "leak.txt", "--out", d / "cleaned.txt"),
            repro("split", "--input", d / "cleaned.txt", "--prefix", d / "data",
                  "--seed", seed),
            repro("train", "--input", d / "data.train.txt", "--out", d / "model.npz",
                  "--dim", s["dim"], "--layers", s["layers"], "--heads", s["heads"],
                  "--epochs", s["epochs"], "--seed", seed),
        ]
        ok = all(spawn(env, argv, cwd=d)["ok"] for argv in steps)
    finally:
        ok = kernels.wait(timeout=PROCESS_TIMEOUT_S) == 0 and ok
    if not ok:
        raise RuntimeError(f"set-up failed; see {env.log}")
    compile_s = json.loads((d / "kernels.json").read_text())["compile_s"]
    return {"dir": d, "seed": seed, "span": (t0, time.monotonic()), "compile_s": compile_s,
            "checkpoint": d / "model.npz", "test": d / "data.test.txt",
            "train": d / "data.train.txt", "kernels": d / "kernels",
            "model_digest": digest(d / "model.npz")}


# ----------------------------------------------------------------------
# CLI campaigns
# ----------------------------------------------------------------------

class CliRun:
    def __init__(self, env: Env, workload: str, seed: int, setup: dict) -> None:
        self.env = env
        self.spec = CLI[workload]
        self.seed = seed
        self.setup = setup
        self.count = 0
        self.extra_env = {"REPRO_KERNEL_CACHE": str(setup["kernels"])}

    def campaign(self, kind: str, mode: str = "plain") -> dict:
        """One campaign; ``mode`` is ``plain``, ``traced`` or ``profiled``."""
        self.count += 1
        cid = f"c{self.count:03d}"
        out = self.setup["dir"] / f"{cid}.txt"
        n = self.spec["n"]
        base = ["generate", "--checkpoint", str(self.setup["checkpoint"]), "-n", str(n),
                "--seed", str(self.seed), "--workers", "1", *self.spec["args"],
                "--out", str(out)]
        steps = [(base, 0)] if kind == "whole" else [
            (base + ["--max-guesses", str(n // 2)], 3), (base + ["--resume"], 0)]
        result = {"id": cid, "kind": kind, "model": self.setup["seed"], "walls": [], "cpus": [],
                  "spans": [], "rss_kb": 0, "ok": True, "traces": [], "profiles": []}
        for i, (argv, expect) in enumerate(steps):
            extra = dict(self.extra_env)
            cmd = [PY, "-m", "repro.cli", *argv]
            if mode == "traced":
                trace = self.setup["dir"] / f"{cid}.{i}.trace.json"
                extra.update(E2E_TRACE=str(trace), E2E_TAG=cid)
                cmd = [PY, ENTRY, *argv]
                result["traces"].append(trace)
            elif mode == "profiled":
                profile = self.setup["dir"] / f"{cid}.{i}.folded"
                cmd = cmd + ["--profile", str(profile)]
                result["profiles"].append(profile)
            r = spawn(self.env, cmd, expect=expect, extra_env=extra)
            result["walls"].append(r["wall"])
            result["cpus"].append(r["cpu"])
            result["spans"].append(r["span"])
            result["rss_kb"] = max(result["rss_kb"], r["rss_kb"])
            result["ok"] = result["ok"] and r["ok"]
            if not r["ok"]:
                break
        if result["ok"]:
            result["stream"] = read_lines(out)
            result["digest"] = digest(out)
            result["path"] = out
        return result


class Scorer:
    """``repro evaluate`` of one guess file, called in an open loop every
    :data:`SCORE_INTERVAL_S` by one process that runs beside the
    campaigns until :meth:`stop`."""

    def __init__(self, env: Env, guesses: Path, test: Path) -> None:
        self.batch = env.dir / "score.json"
        self.out = env.dir / "score-cpu.json"
        self.batch.write_text(json.dumps(
            ["evaluate", "--guesses", str(guesses), "--test", str(test)]))
        with open(env.log, "ab") as log:
            self.proc = subprocess.Popen(
                [PY, ENTRY, "--score-loop", str(self.batch), str(SCORE_INTERVAL_S),
                 str(self.out)],
                env=env.env, cwd=env.dir, stdin=subprocess.PIPE,
                stdout=subprocess.DEVNULL, stderr=log)

    def stop(self) -> list:
        """``[start, cpu_s]`` of every call made; ``cpu_s`` is None for a
        call that failed."""
        if finish(self.proc) != 0:
            return [[time.monotonic(), None]]
        return json.loads(self.out.read_text())


def stream_checks(campaigns, n: int, strategy: str) -> list:
    """Failures: mismatched digests or a wrong number of guesses."""
    failures = []
    done = [c for c in campaigns if c["ok"]]
    digests = {c["digest"] for c in done}
    if len(digests) > 1:
        failures.append(f"streams differ across campaigns of one seed: {sorted(digests)}")
    for c in done:
        count = len(c["stream"])
        if count < n or (strategy != "dcgen" and count != n):
            failures.append(f"{c['id']}: {count} guesses for n={n}")
    return failures


# ----------------------------------------------------------------------
# serve-mixed
# ----------------------------------------------------------------------

class Server:
    """A ``repro serve`` subprocess on an ephemeral port, started through
    ``entry.py`` so it records each job's CPU seconds on its fleet thread."""

    def __init__(self, env: Env, checkpoint: Path, state: Path, trace=None) -> None:
        self.state = state
        stem = state.parent / f"{state.name}.{time.monotonic_ns()}"
        self.log = Path(f"{stem}.log")
        self.jobs_path = Path(f"{stem}.jobs.json")
        argv = ["serve", "--checkpoint", str(checkpoint), "--state-dir", str(state),
                "--port", "0", "--fleet", "2"]
        extra = {"E2E_JOBS": str(self.jobs_path)}
        if trace is not None:
            extra.update(E2E_TRACE=str(trace), E2E_TAG="server")
        self.t0 = time.monotonic()
        with open(self.log, "wb") as log:
            self.proc = subprocess.Popen(
                [PY, ENTRY, *argv], env=dict(env.env, E2E_SPAWN=repr(self.t0), **extra),
                cwd=env.dir, stdout=subprocess.DEVNULL, stderr=log,
            )
        self.port = None
        env.servers.append(self)

    def cpu_s(self) -> float:
        """CPU seconds all of the server's threads have run so far."""
        tasks = Path(f"/proc/{self.proc.pid}/task")
        total = 0
        for task in tasks.iterdir():
            try:
                total += int((task / "schedstat").read_text().split()[0])
            except FileNotFoundError:  # the thread ended meanwhile
                pass
        return total / 1e9

    def jobs(self) -> list:
        """``[kind, n, cpu_s]`` per finished job; call after :meth:`stop`."""
        return json.loads(self.jobs_path.read_text())

    def wait_ready(self, timeout: float = 60.0) -> float:
        """Seconds from spawn until ``/healthz`` answers 200."""
        deadline = self.t0 + timeout
        while time.monotonic() < deadline:
            if self.proc.poll() is not None:
                raise RuntimeError(f"server exited early; see {self.log}")
            if self.port is None:
                found = re.search(rb"serving on http://[^:]+:(\d+)", self.log.read_bytes())
                if found:
                    self.port = int(found.group(1))
            if self.port is not None:
                try:
                    status, _ = asyncio.run(request(self.port, "GET", "/healthz"))
                    if status == 200:
                        return time.monotonic() - self.t0
                except OSError:
                    pass
            time.sleep(0.005)
        raise RuntimeError("server did not become ready")

    def peak_rss_kb(self) -> int:
        text = Path(f"/proc/{self.proc.pid}/status").read_text()
        return int(re.search(r"VmHWM:\s+(\d+)", text).group(1))

    def stop(self) -> int:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
        try:
            return self.proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
            return -9


async def request(port: int, method: str, path: str, body=None):
    """One HTTP/1.1 request on a fresh connection; the server closes it."""
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    try:
        data = b"" if body is None else json.dumps(body).encode()
        writer.write(
            f"{method} {path} HTTP/1.1\r\nHost: 127.0.0.1\r\n"
            f"Content-Type: application/json\r\nContent-Length: {len(data)}\r\n"
            f"Connection: close\r\n\r\n".encode() + data
        )
        await writer.drain()
        raw = await reader.read()
    finally:
        writer.close()
    head, _, payload = raw.partition(b"\r\n\r\n")
    return int(head.split(b" ", 2)[1]), payload


def schedule(seed: int, seconds: float, train: list) -> list:
    """The run's arrivals, fixed before the first request is sent."""
    rng = random.Random(seed)
    count = int(seconds * SERVE["rate"])
    # Exact counts of every (kind, size), so the work offered is the same
    # for every seed; the seed decides order, tenants and job seeds.
    kinds = []
    for kind, share in SERVE["mix"]:
        sizes = SERVE["sizes"].get(kind, (None,))
        kinds += [(kind, sizes[i % len(sizes)]) for i in range(round(count * share))]
    rng.shuffle(kinds)
    out = []
    for i, (kind, n) in enumerate(kinds):
        item = {"due": i / SERVE["rate"], "kind": kind,
                "tenant": rng.choice(SERVE["tenants"])}
        if kind == "score":
            start = rng.randrange(len(train) - SERVE["score_guesses"])
            item["guesses"] = train[start:start + SERVE["score_guesses"]]
        else:
            item["n"] = n
            item["seed"] = seed + rng.randrange(2)
        out.append(item)
    return out


async def drive(server: Server, arrivals: list, test: list) -> list:
    """Send every arrival at its due time; returns one record per arrival.

    A score request that no other request overlapped also gets
    ``cpu_ms``: the CPU the whole server spent while it was in flight.
    """
    gate = asyncio.Semaphore(SERVE["connections"])
    polls = SERVE["poll_s"]
    active: list = []

    async def call(method, path, body=None):
        async with gate:
            return await request(server.port, method, path, body)

    async def one(item, start):
        due = start + item["due"]
        await asyncio.sleep(max(0.0, due - time.monotonic()))
        rec = {"item": item, "due": due, "sent": time.monotonic(), "ok": False, "polls": 0,
               "alone": not active}
        for other in active:
            other["alone"] = False
        active.append(rec)
        try:
            if item["kind"] == "score":
                cpu0 = server.cpu_s()
                status, body = await call("POST", "/score", {
                    "tenant": item["tenant"], "guesses": item["guesses"], "test": test})
                cpu1 = server.cpu_s()
                rec["status"] = status
                if status == 200:
                    rec["reply"] = json.loads(body)
                    rec["ok"] = True
                    rec["cpu_ms"] = (cpu1 - cpu0) * 1000.0
            else:
                status, body = await call("POST", "/campaigns", {
                    "tenant": item["tenant"], "strategy": item["kind"],
                    "n": item["n"], "seed": item["seed"]})
                rec["status"] = status
                if status != 202:
                    return rec
                job = json.loads(body)["id"]
                while time.monotonic() - due < SERVE["job_timeout_s"]:
                    await asyncio.sleep(polls)
                    status, body = await call("GET", f"/campaigns/{job}")
                    rec["polls"] += 1
                    state = json.loads(body)["state"] if status == 200 else "failed"
                    if state == "done":
                        t0 = time.monotonic()
                        status, stream = await call("GET", f"/campaigns/{job}/guesses")
                        rec["fetch_ms"] = (time.monotonic() - t0) * 1000.0
                        rec["ok"] = status == 200
                        rec["stream"] = stream
                        break
                    if state in ("failed", "interrupted"):
                        break
        except (OSError, ValueError, KeyError) as exc:
            rec["error"] = repr(exc)
        finally:
            rec["end"] = time.monotonic()
            active.remove(rec)
        return rec

    start = time.monotonic() + 0.05
    return await asyncio.gather(*(one(item, start) for item in arrivals))


def serve_load(env: Env, setup: dict, seed: int, seconds: float, server=None,
               trace=None) -> dict:
    """Drive the schedule against ``server`` (or a fresh one), then drain it."""
    if server is None:
        server = Server(env, setup["checkpoint"], env.dir / "state-traced", trace=trace)
        server.wait_ready()
    state = server.state
    test = read_lines(setup["test"])
    arrivals = schedule(seed, seconds, read_lines(setup["train"]))
    records = asyncio.run(drive(server, arrivals, test))
    _, metrics = asyncio.run(request(server.port, "GET", "/metrics"))
    counters = json.loads(metrics)["counters"]
    rss = server.peak_rss_kb()
    code = server.stop()
    return {"records": records, "rss_kb": rss, "exit": code, "state": state,
            "jobs": server.jobs() if code == 0 else [],
            "rejected": counters.get("server.rejected", 0), "test": test,
            "journal_bytes": (state / "requests.journal.jsonl").stat().st_size}


def restart(env: Env, setup: dict, state: Path, trace=None) -> tuple:
    """A server restarted on ``state``, once ready; the CPU seconds it used
    to get there (import, load, and replay of the request journal); and
    the span of time that took."""
    server = Server(env, setup["checkpoint"], state, trace=trace)
    server.wait_ready()
    return server, server.cpu_s(), (server.t0, time.monotonic())


def reference_streams(env: Env, setup: dict, configs) -> dict:
    """``{(strategy, n, seed): digest}`` from ``repro generate`` itself."""
    commands, paths = [], {}
    for i, (strategy, n, seed) in enumerate(sorted(configs)):
        out = env.dir / f"ref{i}.txt"
        paths[(strategy, n, seed)] = out
        commands.append(["generate", "--checkpoint", str(setup["checkpoint"]), "-n", str(n),
                         "--seed", str(seed), "--strategy", strategy, "--out", str(out)])
    batch = env.dir / "ref.json"
    batch.write_text(json.dumps(commands))
    if not spawn(env, [PY, ENTRY, "--batch", str(batch)])["ok"]:
        raise RuntimeError("reference generate failed")
    return {key: digest(path) for key, path in paths.items()}


def serve_checks(load: dict, setup: dict, env: Env) -> tuple:
    """Failures plus the distinct streams of a finished load."""
    failures = []
    if load["exit"] != 0:
        failures.append(f"server exited {load['exit']} on drain")
    streams = {}
    for rec in load["records"]:
        item = rec["item"]
        if not rec["ok"]:
            continue
        if item["kind"] == "score":
            g = set(item["guesses"])
            t = set(load["test"])
            expect_hit = len(g & t) / len(t)
            expect_rep = 1.0 - len(g) / len(item["guesses"])
            reply = rec["reply"]
            if reply["hit_rate"] != expect_hit or reply["repeat_rate"] != expect_rep:
                failures.append(f"score reply {reply} != local ({expect_hit}, {expect_rep})")
            continue
        key = (item["kind"], item["n"], item["seed"])
        d = hashlib.sha256(rec["stream"]).hexdigest()
        if streams.setdefault(key, (d, rec["stream"]))[0] != d:
            failures.append(f"served streams differ for {key}")
    if streams:
        reference = reference_streams(env, setup, streams)
        for key, (d, _) in streams.items():
            if reference[key] != d:
                failures.append(f"served stream for {key} != repro generate stream")
        failures += ledger_check(env, f"serve-mixed/{setup['seed']}",
                                 {"/".join(map(str, k)): d for k, d in reference.items()})
    late = analysis.lateness_ms([r["due"] for r in load["records"]],
                                [r["sent"] for r in load["records"]])
    if max(late) > SERVE["late_limit_ms"]:
        failures.append(f"load generator fell behind: {max(late):.1f} ms late")
    return failures, streams, late


def latencies(records, kind_is_score: bool) -> list:
    out = []
    for rec in records:
        if (rec["item"]["kind"] == "score") != kind_is_score:
            continue
        out.append((rec["end"] - rec["due"]) * 1000.0 if rec["ok"] else analysis.FAILED_MS)
    return out


# ----------------------------------------------------------------------
# Ledger: what earlier runs of one seed in this checkout saw
# ----------------------------------------------------------------------

def ledger_check(env: Env, key: str, entry: dict) -> list:
    path = env.base / "ledger.json"
    ledger = json.loads(path.read_text()) if path.exists() else {}
    seen = ledger.setdefault(key, {})
    failures = []
    for field, value in entry.items():
        if field in seen and seen[field] != value:
            failures.append(f"{key} {field}: {value} != earlier run's {seen[field]}")
        seen.setdefault(field, value)
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps(ledger, indent=1, sort_keys=True))
    os.replace(tmp, path)
    return failures


# ----------------------------------------------------------------------
# Per-layer figures from spans
# ----------------------------------------------------------------------

def campaign_counts(spans) -> dict:
    """Per-layer figures of one campaign (or job) from its spans."""
    own = analysis.self_times(spans)
    by = {}
    for span in spans:
        by.setdefault(span[2], []).append(span)

    def total(name):
        return sum(s[5] - s[4] for s in by.get(name, ()))

    records = by.get("journal.record", ())
    fsync_s = total("journal.fsync")
    steps = by.get("inference.decode", ())
    rows = sum(s[8]["rows"] for s in steps)
    lookups = by.get("prompt_cache.lookup", ())
    replays = [s for s in by.get("journal.attach", ()) if s[8]["replay_bytes"]]
    out = {
        "generation.self_s": sum(own[s[0]] for s in spans if s[3] == "generation"
                                 and s[2] != "model.load"),
        "sampler.sample_s": total("sampler.sample"),
        "sampler.calls": len(by.get("sampler.sample", ())),
        "inference.prime_s": total("inference.prime"),
        "inference.decode_s": total("inference.decode"),
        "inference.gather_s": total("inference.gather"),
        "inference.calls": len(by.get("inference.prime", ())) + len(steps),
        "inference.rows": rows,
        "prompt_cache.hit_ratio": (sum(s[8]["hit"] for s in lookups) / len(lookups)
                                   if lookups else 0.0),
        "journal.write_s": total("journal.record") - fsync_s,
        "journal.fsync_s": fsync_s,
        "journal.records": len(records),
        "journal.bytes": sum(s[8]["bytes"] for s in by.get("journal.write_line", ())),
        "journal.fsyncs": len(by.get("journal.fsync", ())),
        "journal.replay_s": sum(s[5] - s[4] for s in replays),
        "journal.replay_bytes": sum(s[8]["replay_bytes"] for s in replays),
        "cli.output_write_s": total("output.write"),
    }
    # Strategy-specific figures exist only where the strategy ran, so a
    # median over mixed jobs covers the jobs that have them.
    if steps:
        out["inference.rows_per_call"] = rows / len(steps)
        out["inference.decode_us_per_row"] = total("inference.decode") / rows * 1e6
    dcgen = by.get("dcgen.generate", ())
    if dcgen:
        last = max(dcgen, key=lambda s: s[5])[8]
        out["dcgen.plan_s"] = total("dcgen.plan")
        out["dcgen.overgen_ratio"] = last["rows"] / last["requested"]
    ordered = by.get("ordered.generate", ())
    if ordered:
        stats = max(ordered, key=lambda s: s[5])[8]
        seqs = [s[8]["seq"] for s in records if s[8]["kind"] == "frontier"]
        out["ordered.pops"] = stats["pops"]
        out["ordered.emitted_per_pop"] = stats["emitted"] / stats["pops"]
        out["ordered.truncated_share"] = stats["truncated"] / max(seqs) if seqs else 0.0
    return out


#: Counts that repeat exactly across runs of one seed, compared per
#: campaign kind through the ledger.
DETERMINISTIC = ("inference.calls", "inference.rows", "journal.records", "journal.bytes",
                 "journal.fsyncs", "ordered.pops")

PER_LAYER = [
    "cli.startup_s", "cli.output_write_s", "generation.self_s", "dcgen.plan_s",
    "sampler.sample_s", "sampler.calls", "dcgen.overgen_ratio", "ordered.pops",
    "ordered.emitted_per_pop", "ordered.truncated_share", "inference.prime_s",
    "inference.decode_s", "inference.gather_s", "inference.calls",
    "inference.rows_per_call", "inference.decode_us_per_row", "prompt_cache.hit_ratio",
    "backend.compile_s", "journal.write_s", "journal.fsync_s", "journal.records",
    "journal.bytes", "journal.fsyncs", "journal.replay_s", "journal.replay_bytes",
    "server.admit_ms", "server.queue_wait_ms", "server.run_ms", "server.fetch_ms",
    "server.rejected", "server.journal_bytes", "client.job_p50_ms", "client.score_p50_ms",
    "client.score_p90_ms", "client.polls_per_job", "client.late_ms",
    "trace.overhead_share", "hit_rate", "repeat_rate", "failed_share", "host.probe_ms",
]


def median_of(dicts, key) -> float:
    """Median of ``key`` over the dicts that have it; 0.0 where none does
    (a layer the workload does not use)."""
    values = [d[key] for d in dicts if key in d]
    return analysis.median(values) if values else 0.0


def startup_s(trace) -> float:
    loads = [s for s in trace["spans"] if s[2] == "model.load"]
    return min(s[5] for s in loads) - trace["meta"]["spawn"] if loads else 0.0


def quality(streams, test) -> dict:
    t = set(test)
    union = set().union(*(set(s) for s in streams))
    return {"hit_rate": len(union & t) / len(t),
            "repeat_rate": analysis.median(1.0 - len(set(s)) / len(s) for s in streams)}


# ----------------------------------------------------------------------
# Workload runs
# ----------------------------------------------------------------------

def run_setups(env: Env, seed: int, repeats: int, server: bool) -> tuple:
    """Set up ``repeats`` times; with ``server`` the last one's server keeps
    running (``setups[-1]["server"]``) to take the load.

    Set-up ``i`` uses the seed ``seed * SETUP_REPEATS + i``, so a run
    trains models from several seeds and a CLI run's figures do not rest
    on one model's quirks; the ledger checks that a seed trains the same
    checkpoint bytes in every run.
    """
    setups, failures = [], []
    for i in range(repeats):
        s = setup_once(env, seed * SETUP_REPEATS + i, i)
        failures += ledger_check(env, f"setup/{s['seed']}", {"model": s["model_digest"]})
        if server:
            s["server"] = Server(env, s["checkpoint"], s["dir"] / "state")
            s["server"].wait_ready()
            s["span"] = (s["span"][0], time.monotonic())
            if i < repeats - 1 and s["server"].stop() != 0:
                failures.append("set-up server did not drain cleanly")
        setups.append(s)
    return setups, failures


def setup_s(env: Env, setups) -> float:
    """Median wall seconds of the set-ups, at the reference CPU speed."""
    return analysis.median(env.at_reference(t1 - t0, t0, t1)
                           for t0, t1 in (s["span"] for s in setups))


def cli_untraced(env: Env, workload: str, seed: int, seconds: float) -> dict:
    spec = CLI[workload]
    setups, failures = run_setups(env, seed, SETUP_REPEATS, server=False)
    runs = [CliRun(env, workload, seed, setup) for setup in setups]
    # An untimed whole campaign on the first model warms the page cache
    # and gives the stream its resumed campaigns must repeat, and the
    # guesses the scorer reads.
    warmup = runs[0].campaign("whole")
    # Timed: split campaigns on each model in turn until half of one no
    # longer fits, while ``repro evaluate`` calls on the warm-up's
    # guesses run beside them (reads beside writes, as on the server).
    timed = []
    scorer = Scorer(env, warmup["path"], setups[0]["test"]) if warmup["ok"] else None
    start = time.monotonic()
    try:
        while True:
            timed.append(runs[len(timed) % len(runs)].campaign("split"))
            elapsed = time.monotonic() - start
            if elapsed + elapsed / len(timed) / 2 >= seconds:
                break
    finally:
        scores = scorer.stop() if scorer else [[time.monotonic(), None]]
    campaigns = [warmup, *timed]
    for setup in setups:
        mine = [c for c in campaigns if c["model"] == setup["seed"] and c["ok"]]
        failures += stream_checks(mine, spec["n"], spec["args"][1])
        if mine:
            failures += ledger_check(env, f"{workload}/{setup['seed']}",
                                     {"digest": mine[0]["digest"]})
    failed = (sum(not c["ok"] for c in campaigns)
              + sum(cpu is None for _, cpu in scores))
    # CPU seconds of each process of a timed campaign, at reference speed.
    for c in timed:
        c["ref"] = [env.at_reference(cpu, *span) for cpu, span in zip(c["cpus"], c["spans"])]
        print(f"campaign {c['model']}/{c['id']}: cpu {c['cpus']} probe ms "
              f"{[probe.task_s(env.samples, *span) * 1e3 for span in c['spans']]} "
              f"at reference speed {c['ref']}", file=sys.stderr)
    done = [c for c in timed if c["ok"]]
    if not done:
        failures.append("no timed campaign finished")
        done = [{"stream": [], "ref": [analysis.FAILED_MS] * 2, "rss_kb": 0}]
    jobs = [sum(c["ref"]) * 1000.0 if c["ok"] else analysis.FAILED_MS for c in timed]
    scores = [analysis.FAILED_MS if cpu is None
              else env.at_reference(cpu, t, t + cpu) * 1000.0 for t, cpu in scores]
    metrics = {
        "setup_s": (setup_s(env, setups), "s"),
        "guesses_per_s": (analysis.median(len(c["stream"]) / sum(c["ref"]) for c in done),
                          "1/s"),
        "resume_s": (analysis.median(c["ref"][1] for c in done), "s"),
        "peak_rss_mb": (analysis.median(c["rss_kb"] / 1024.0 for c in done), "MB"),
        **latency_metrics(jobs, scores),
    }
    return {"failures": failures, "attempted": len(campaigns) + len(scores),
            "failed": failed, "metrics": metrics}


def latency_metrics(jobs: list, scores: list) -> dict:
    """Median and tail of the raw job and score latencies, in ms."""
    out = {}
    for name, samples, q in (("job", jobs, JOB_TAIL), ("score", scores, SCORE_TAIL)):
        if not analysis.supports(len(samples), q):
            print(f"note: {len(samples)} {name} samples leave fewer than ten beyond "
                  f"p{q * 100:g}", file=sys.stderr)
        out[f"{name}_p50_ms"] = (analysis.median(samples), "ms")
        if q != 0.5:
            out[f"{name}_p{q * 100:g}_ms"] = (analysis.percentile(samples, q), "ms")
    return out


def cli_traced(env: Env, workload: str, seed: int, seconds: float) -> dict:
    spec = CLI[workload]
    setups, failures = run_setups(env, seed, 1, server=False)
    setup = setups[0]
    run = CliRun(env, workload, seed, setup)
    kinds = ("whole", "split")
    plain = [run.campaign(k) for k in kinds]
    traced = [run.campaign(k, "traced") for k in kinds]
    profiled = run.campaign(kinds[0], "profiled")
    everything = plain + traced + [profiled]
    strategy = spec["args"][1]
    failures += stream_checks(everything, spec["n"], strategy)
    done = [c for c in everything if c["ok"]]
    if done:
        failures += ledger_check(env, f"{workload}/{setup['seed']}",
                                 {"digest": done[0]["digest"]})
    failed = sum(not c["ok"] for c in everything)
    if failed:
        failures.append(f"{failed} campaign(s) failed")
        return {"failures": failures, "attempted": len(everything), "failed": failed,
                "metrics": {k: (0.0, unit_of(k)) for k in PER_LAYER}}

    per_campaign, all_spans = [], []
    for c in traced:
        loaded = [json.loads(path.read_text()) for path in c["traces"]]
        spans = [s for t in loaded for s in t["spans"]]
        all_spans.append(spans)
        counts = campaign_counts(spans)
        counts["cli.startup_s"] = analysis.median(startup_s(t) for t in loaded)
        per_campaign.append(counts)
        failures += ledger_check(env, f"{workload}/{setup['seed']}/{c['kind']}",
                                 {k: counts.get(k, 0) for k in DETERMINISTIC})
    if len(per_campaign) == 2:  # a resumed campaign redoes no journaled work
        for key in ("inference.rows", "journal.records", "journal.bytes"):
            if per_campaign[0][key] != per_campaign[1][key]:
                failures.append(f"{key}: whole {per_campaign[0][key]} != "
                                f"resumed {per_campaign[1][key]}")

    layers = ("generation", "nn", "runtime")
    traced_self = {}
    for spans in all_spans:
        for layer, value in analysis.layer_self(spans, skip=("cli.main",)).items():
            traced_self[layer] = traced_self.get(layer, 0.0) + value
    sampled = {}
    frames = tracer.frame_layers()
    for path in profiled["profiles"]:
        for layer, count in analysis.profile_layers(path.read_text(), frames).items():
            sampled[layer] = sampled.get(layer, 0) + count
    top_trace = analysis.largest(traced_self, layers)
    top_profile = analysis.largest(sampled, layers)
    if top_trace != top_profile:
        failures.append(f"largest layer: trace says {top_trace}, profile says {top_profile}")

    plain_wall = sum(sum(c["walls"]) for c in plain)
    traced_wall = sum(sum(c["walls"]) for c in traced)
    stream = done[0]["stream"]
    # The timed campaigns of an untraced run are split ones.
    resumed = [counts for c, counts in zip(traced, per_campaign) if c["kind"] == "split"]
    metrics = {k: median_of(resumed, k) for k in PER_LAYER}
    metrics.update({
        "backend.compile_s": setup["compile_s"],
        "trace.overhead_share": traced_wall / plain_wall - 1.0,
        **quality([stream], read_lines(setup["test"])),
    })
    print(f"largest self-time layer: {top_trace} (trace {traced_self}, profile {sampled})",
          file=sys.stderr)
    return {"failures": failures, "attempted": len(everything), "failed": 0,
            "metrics": {k: (v, unit_of(k)) for k, v in metrics.items()}}


def serve_untraced(env: Env, seed: int, seconds: float) -> dict:
    setups, failures = run_setups(env, seed, SETUP_REPEATS, server=True)
    setup = setups[-1]
    load = serve_load(env, setup, seed, seconds, server=setup["server"])
    checks, _, _ = serve_checks(load, setup, env)
    failures += checks
    resumes = []
    for _ in range(SERVE["restarts"]):
        server, cpu, span = restart(env, setup, load["state"])
        resumes.append((cpu, span))
        if server.stop() != 0:
            failures.append("restarted server did not drain cleanly")
    records = load["records"]
    failed = sum(not rec["ok"] for rec in records)
    # A request the client saw fail counts as missing every limit.
    missed = {kind: [analysis.FAILED_MS] * sum(not r["ok"] for r in records
                                               if (r["item"]["kind"] == "score") == kind)
              for kind in (False, True)}
    # CPU times at the reference speed: (n, seconds) per generate job.
    jobs = [(n, env.at_reference(cpu, t0, t1)) for kind, n, cpu, t0, t1 in load["jobs"]
            if kind == "generate"]
    scores = [env.at_reference(r["cpu_ms"], r["sent"], r["end"]) for r in records
              if r["ok"] and r["alone"] and "cpu_ms" in r]
    metrics = {
        "setup_s": (setup_s(env, setups), "s"),
        "guesses_per_s": (analysis.median(n / cpu for n, cpu in jobs), "1/s"),
        "resume_s": (analysis.median(env.at_reference(cpu, *span) for cpu, span in resumes),
                     "s"),
        "peak_rss_mb": (load["rss_kb"] / 1024.0, "MB"),
        **latency_metrics([cpu * 1000.0 for _, cpu in jobs] + missed[False],
                          scores + missed[True]),
    }
    return {"failures": failures, "attempted": len(records), "failed": failed,
            "metrics": metrics}


def serve_traced(env: Env, seed: int, seconds: float) -> dict:
    setups, failures = run_setups(env, seed, 1, server=True)
    setup = setups[0]
    half = seconds / 2.0
    plain = serve_load(env, setup, seed, half, server=setup["server"])
    trace_path = env.dir / "server.trace.json"
    traced = serve_load(env, setup, seed, half, trace=trace_path)
    replay_path = env.dir / "restart.trace.json"
    replayed, *_ = restart(env, setup, traced["state"], trace=replay_path)
    if replayed.stop() != 0:
        failures.append("restarted server did not drain cleanly")
    streams = {}
    for load in (plain, traced):
        checks, found, _ = serve_checks(load, setup, env)
        failures += checks
        streams.update(found)
    records = traced["records"]
    failed = sum(not rec["ok"] for rec in plain["records"] + records)

    trace = json.loads(trace_path.read_text())
    spans = trace["spans"]
    jobs = {}
    for span in spans:
        if isinstance(span[7], int):
            jobs.setdefault(span[7], []).append(span)
    per_job = [campaign_counts(s) for s in jobs.values()
               if any(x[2] in ("model.generate", "dcgen.generate") for x in s)]
    admitted = {s[8]["job"]: s[5] for s in spans if s[2] == "server.admit"}
    waits, generate = [], set()
    for s in spans:
        if s[2] == "server.set_state" and s[8]["state"] in ("done", "failed", "interrupted"):
            started = s[8]["started_at"]
            if started is not None and s[8]["job"] in admitted:
                waits.append((started - admitted[s[8]["job"]]) * 1000.0)
            if s[8]["kind"] == "generate":
                generate.add(s[8]["job"])
    runs = [(s[5] - s[4]) * 1000.0 for s in spans if s[2] == "server.run" and s[7] in generate]
    replay = campaign_counts(json.loads(replay_path.read_text())["spans"])
    metrics = {k: median_of(per_job, k) for k in PER_LAYER}
    ok_jobs = [r for r in records if r["ok"] and r["item"]["kind"] != "score"]
    late = analysis.lateness_ms([r["due"] for r in records], [r["sent"] for r in records])
    plain_ms = [(r["end"] - r["due"]) for r in plain["records"] if r["ok"]]
    traced_ms = [(r["end"] - r["due"]) for r in records if r["ok"]]
    client_jobs = latencies(plain["records"], kind_is_score=False)
    client_scores = latencies(plain["records"], kind_is_score=True)
    metrics.update({
        "client.job_p50_ms": analysis.median(client_jobs),
        "client.score_p50_ms": analysis.median(client_scores),
        "client.score_p90_ms": analysis.percentile(client_scores, SCORE_TAIL),
        "cli.startup_s": startup_s(trace),
        "backend.compile_s": setup["compile_s"],
        "journal.replay_s": replay["journal.replay_s"],
        "journal.replay_bytes": replay["journal.replay_bytes"],
        "server.admit_ms": analysis.median(
            (s[5] - s[4]) * 1000.0 for s in spans if s[2] == "server.admit"),
        "server.queue_wait_ms": analysis.median(waits),
        "server.run_ms": analysis.median(runs),
        "server.fetch_ms": analysis.median(r["fetch_ms"] for r in ok_jobs),
        "server.rejected": traced["rejected"],
        "server.journal_bytes": traced["journal_bytes"],
        "client.polls_per_job": sum(r["polls"] for r in ok_jobs) / len(ok_jobs),
        "client.late_ms": max(late),
        "trace.overhead_share": analysis.median(traced_ms) / analysis.median(plain_ms) - 1.0,
        "failed_share": analysis.failed_share(len(records), failed),
        **quality([s.decode().splitlines() for _, s in streams.values()], traced["test"]),
    })
    return {"failures": failures,
            "attempted": len(plain["records"]) + len(records), "failed": failed,
            "metrics": {k: (v, unit_of(k)) for k, v in metrics.items()}}


def unit_of(name: str) -> str:
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("_s"):
        return "s"
    if name.endswith("_us_per_row"):
        return "us"
    if name.endswith("bytes"):
        return "bytes"
    if name.endswith(("ratio", "share", "rate", "per_pop", "per_call", "per_job")):
        return "ratio"
    return "count"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*CLI, "serve-mixed"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "repro" / "cli.py").is_file():
        print(f"error: no repro sources under {root / 'src'}; run from the repository root",
              file=sys.stderr)
        return 2
    env = Env(root, args.workload, args.seed)
    # SIGTERM unwinds through the ``finally`` below, which stops servers
    # and the probe.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    env.start_probe()
    try:
        if args.workload == "serve-mixed":
            fn = serve_traced if args.trace else serve_untraced
            result = fn(env, args.seed, args.seconds)
        else:
            fn = cli_traced if args.trace else cli_untraced
            result = fn(env, args.workload, args.seed, args.seconds)
    finally:
        for server in env.servers:
            server.stop()
        samples = env.stop_probe()
    probe_ms = analysis.median(cpu for _, cpu in samples) * 1000.0
    print(f"probe: median task {probe_ms:.4f} ms over {len(samples)} samples "
          f"(reference {probe.REFERENCE_S * 1000.0:g} ms)", file=sys.stderr)
    if args.trace:
        result["metrics"]["host.probe_ms"] = (probe_ms, "ms")
    for failure in result["failures"]:
        print(f"check failed: {failure}", file=sys.stderr)
    print(json.dumps({
        "correct": not result["failures"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in result["metrics"].items()},
    }))
    shutil.rmtree(env.dir, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
