"""Randomized chaos harness: crash anywhere, resume exactly.

The fault-tolerance tests exercise hand-picked fault sites; this module
generalises them into a *property*: for a seeded random schedule of
faults — process crashes, wedged workers, torn journal tails, disk
exhaustion, SIGTERM — injected at random sites and counts, across every
generation strategy and worker count, an interrupted-then-resumed
campaign must produce a guess stream **byte-identical** to an
undisturbed golden run, with ``telemetry summarize --check`` holding on
the resumed leg.  ``repro chaos`` runs the harness from the CLI and the
CI smoke pins a fixed seed.

Each :class:`ChaosCase` is three in-process CLI legs (the same
``cli.main`` the operator runs, so signal handling, exit codes, and
telemetry behave exactly as in production):

1. **golden** — undisturbed run, captures the expected output bytes;
2. **chaos** — same campaign with a one-shot fault directive armed (and,
   for ``corrupt`` cases, the surviving journal's tail torn afterwards,
   then ``verify --repair`` run over it — an unrepairable journal is
   deleted, which is the documented operator flow);
3. **resume** — fault cleared, ``--resume`` into a fresh telemetry dir;
   must exit 0, match the golden bytes, and pass ``summarize --check``.

Faults fire via the :mod:`repro.runtime.faults` environment directives
with a state directory, so every directive is one-shot — exactly one
disturbance per schedule, at a seeded random site/count.  Hangs are
shortened via ``REPRO_FAULT_HANG_SECONDS`` and paired with a short
``REPRO_TASK_TIMEOUT`` watchdog so a chaos run takes seconds, not
minutes.
"""

from __future__ import annotations

import asyncio
import http.client
import json
import os
import random
import signal as _stdlib_signal
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Optional

from ..generation.strategies import STRATEGIES
from . import faults, signals
from .atomic import DiskFullError
from .faults import FAULT_ENV, FAULT_STATE_ENV, HANG_SECONDS_ENV, InjectedFault, corrupt_file
from .journal import RunJournal, sidecar_paths
from .retry import TASK_TIMEOUT_ENV

#: Default guesses per strategy — enough journaled units for the random
#: fault count to land at several distinct boundaries, small enough that
#: a full sweep stays CI-sized.
DEFAULT_N = {"sampled": 1200, "dcgen": 800, "ordered": 200}

#: Exit codes a chaos leg may legitimately end with (see docs/API.md):
#: 0 completed (hangs are survivable), 1 runtime failure (disk full),
#: 3 deadline/budget, 4 signal.
_ACCEPTABLE_CHAOS_EXITS = {0, 1, 3, 4}


@dataclass(frozen=True)
class ChaosCase:
    """One seeded schedule: a campaign shape plus a fault to inject."""

    case_id: int
    strategy: str  # sampled | dcgen | ordered
    workers: int
    seed: int  # campaign seed (feeds --seed)
    fault: str  # REPRO_FAULT directive, or "corrupt_tail" (harness-applied)

    def describe(self) -> str:
        return (
            f"case {self.case_id}: {self.strategy} workers={self.workers} "
            f"seed={self.seed} fault={self.fault}"
        )


@dataclass
class CaseResult:
    case: ChaosCase
    chaos_outcome: str = ""  # "exit:N" or "raise:ExcName"
    resume_exit: Optional[int] = None
    identical: bool = False
    check_ok: bool = False
    repair_exit: Optional[int] = None
    failure: Optional[str] = None  # None = invariant held

    @property
    def ok(self) -> bool:
        return self.failure is None

    def to_dict(self) -> dict:
        return {
            "case_id": self.case.case_id,
            "strategy": self.case.strategy,
            "workers": self.case.workers,
            "seed": self.case.seed,
            "fault": self.case.fault,
            "chaos_outcome": self.chaos_outcome,
            "repair_exit": self.repair_exit,
            "resume_exit": self.resume_exit,
            "identical": self.identical,
            "check_ok": self.check_ok,
            "failure": self.failure,
        }


@dataclass
class ChaosReport:
    cases: list[CaseResult] = field(default_factory=list)

    @property
    def failures(self) -> list[CaseResult]:
        return [r for r in self.cases if not r.ok]

    @property
    def ok(self) -> bool:
        return not self.failures

    def to_dict(self) -> dict:
        return {
            "total": len(self.cases),
            "failed": len(self.failures),
            "ok": self.ok,
            "cases": [r.to_dict() for r in self.cases],
        }


def _fault_menu(strategy: str, workers: int) -> list[str]:
    """Fault directives applicable to a campaign shape.

    Site choice follows where the strategy journals: ``free_chunk`` /
    ``leaf_batch`` / ``frontier`` are the parent-side durable boundaries,
    ``journal`` is the disk-full site, ``worker`` only exists on the pool
    path (``workers > 1``).  ``corrupt_tail`` is applied by the harness
    to the journal a crash leaves behind.
    """
    site = STRATEGIES[strategy].record
    menu = [
        f"crash:{site}:K",
        f"signal:{site}:K",
        "disk_full:journal:K",
        "corrupt_tail",
    ]
    if workers > 1:
        menu.append("hang:worker:K")
        menu.append("crash:worker:K")
    return menu


def build_schedule(
    base_seed: int,
    strategies: list[str],
    workers_list: list[int],
    per_strategy: int,
) -> list[ChaosCase]:
    """The deterministic case list a seed expands to.

    Every (strategy, workers) pair gets ``per_strategy`` cases; faults
    and counts are drawn from ``random.Random(base_seed)``, so the same
    seed always replays the same schedule (the CI smoke and a failing
    case's repro command depend on this).
    """
    rng = random.Random(base_seed)
    cases: list[ChaosCase] = []
    for strategy in strategies:
        for workers in workers_list:
            if strategy == "ordered" and workers > 1:
                continue  # ordered enumeration is serial by design
            for _ in range(per_strategy):
                fault = rng.choice(_fault_menu(strategy, workers))
                fault = fault.replace(":K", f":{rng.randrange(0, 3)}")
                cases.append(
                    ChaosCase(
                        case_id=len(cases),
                        strategy=strategy,
                        workers=workers,
                        seed=rng.randrange(0, 1_000_000),
                        fault=fault,
                    )
                )
    return cases


class _env:
    """Set environment variables for a block, restoring them after."""

    def __init__(self, **values: Optional[str]) -> None:
        self.values = values
        self.saved: dict[str, Optional[str]] = {}

    def __enter__(self) -> "_env":
        for key, value in self.values.items():
            self.saved[key] = os.environ.get(key)
            if value is None:
                os.environ.pop(key, None)
            else:
                os.environ[key] = value
        return self

    def __exit__(self, *exc) -> None:
        for key, old in self.saved.items():
            if old is None:
                os.environ.pop(key, None)
            else:
                os.environ[key] = old


def _run_cli(argv: list[str]) -> tuple[Optional[int], Optional[BaseException]]:
    """One in-process CLI leg; returns ``(exit_code, exception)``.

    Injected faults and ENOSPC deliberately escape ``cli.main`` the way
    a real crash would escape the process; everything else is an exit
    code.  Fault counters and any pending signal state are reset after
    the leg so legs stay independent.
    """
    from .. import cli  # lazy: cli imports this package

    try:
        return cli.main(argv), None
    except (InjectedFault, DiskFullError) as exc:
        return None, exc
    finally:
        faults.reset()
        signals.reset()


def run_case(
    case: ChaosCase,
    checkpoint: str | Path,
    workdir: Path,
    n: Optional[int] = None,
    hang_seconds: float = 0.5,
    task_timeout: float = 2.0,
    golden_cache: Optional[dict] = None,
) -> CaseResult:
    """Execute one chaos case end to end; never raises for a held/failed
    invariant (the verdict lives in the returned :class:`CaseResult`)."""
    result = CaseResult(case)
    n = n if n is not None else DEFAULT_N[case.strategy]
    casedir = workdir / f"case-{case.case_id}"
    casedir.mkdir(parents=True, exist_ok=True)

    common = [
        "generate", "--checkpoint", str(checkpoint), "-n", str(n),
        "--seed", str(case.seed), "--strategy", case.strategy,
        "--workers", str(case.workers),
    ]
    if case.strategy == "dcgen":
        common += ["--threshold", "32"]
    if case.strategy == "ordered":
        common += ["--beam-width", "8", "--max-frontier", "4000", "--snapshot-every", "2"]

    # Leg 1: golden run (cached per campaign shape — the fault draw does
    # not change what the undisturbed output should be).
    golden_key = (case.strategy, case.workers, case.seed, n)
    golden_bytes = (golden_cache or {}).get(golden_key)
    if golden_bytes is None:
        golden_out = casedir / "golden.txt"
        code, exc = _run_cli(common + ["--out", str(golden_out)])
        if exc is not None or code != 0:
            result.failure = f"golden run failed: exit={code} exc={exc!r}"
            return result
        golden_bytes = golden_out.read_bytes()
        if golden_cache is not None:
            golden_cache[golden_key] = golden_bytes

    # Leg 2: the same campaign with one fault armed.
    out = casedir / "out.txt"
    journal = casedir / "run.journal.jsonl"
    state_dir = casedir / "fault-state"
    directive = None if case.fault == "corrupt_tail" else case.fault
    if case.fault == "corrupt_tail":
        # Tear the tail of whatever journal a crash leaves behind: crash
        # first (deterministic site), then corrupt the file.
        directive = f"crash:{STRATEGIES[case.strategy].record}:1"
    with _env(**{
        FAULT_ENV: directive,
        FAULT_STATE_ENV: str(state_dir),
        HANG_SECONDS_ENV: str(hang_seconds),
        TASK_TIMEOUT_ENV: str(task_timeout),
    }):
        code, exc = _run_cli(
            common + ["--out", str(out), "--journal", str(journal)]
        )
    result.chaos_outcome = f"raise:{type(exc).__name__}" if exc is not None else f"exit:{code}"
    if exc is None and code not in _ACCEPTABLE_CHAOS_EXITS:
        result.failure = f"chaos leg ended with unexpected exit code {code}"
        return result

    completed_clean = exc is None and code == 0  # e.g. a survived hang
    if completed_clean:
        # Nothing to resume; the disturbed run itself must match golden.
        result.resume_exit = 0
        result.identical = out.read_bytes() == golden_bytes
        result.check_ok = True
        if not result.identical:
            result.failure = "survived-fault output differs from golden run"
        return result

    if case.fault == "corrupt_tail" and journal.exists():
        corrupt_file(journal, keep_fraction=0.7)
        result.repair_exit, _ = _run_cli(["verify", str(journal), "--repair"])
        if result.repair_exit == 2:
            # Unrepairable (tear reached the header): the documented
            # operator flow is to discard the journal and rerun.
            RunJournal.discard(journal)

    # Leg 3: resume with the fault cleared; fresh telemetry dir so the
    # summarize --check accounting covers exactly the resumed process.
    tele = casedir / "tele-resume"
    with _env(**{
        FAULT_ENV: None,
        FAULT_STATE_ENV: None,
        HANG_SECONDS_ENV: None,
        TASK_TIMEOUT_ENV: str(task_timeout),
    }):
        code, exc = _run_cli(
            common
            + ["--out", str(out), "--journal", str(journal), "--resume",
               "--telemetry", str(tele)]
        )
    result.resume_exit = code
    if exc is not None or code != 0:
        result.failure = f"resume leg failed: exit={code} exc={exc!r}"
        return result

    result.identical = out.read_bytes() == golden_bytes
    check_code, _ = _run_cli(["telemetry", "summarize", str(tele), "--check"])
    result.check_ok = check_code == 0
    if not result.identical:
        result.failure = "resumed output differs from golden run"
    elif not result.check_ok:
        result.failure = "telemetry summarize --check failed on the resume leg"
    elif journal.exists() or sidecar_paths(journal):
        result.failure = "spent journal not cleaned up after successful resume"
    return result


def run_chaos(
    checkpoint: str | Path,
    workdir: str | Path,
    base_seed: int = 0,
    strategies: Optional[list[str]] = None,
    workers_list: Optional[list[int]] = None,
    per_strategy: int = 2,
    n: Optional[int] = None,
    log: Optional[Callable[[str], None]] = None,
) -> ChaosReport:
    """Run a full seeded chaos sweep; returns the per-case report.

    ``per_strategy`` cases are run for every (strategy, workers) shape —
    the acceptance sweep uses ≥ 20, the CI smoke 1-2.  ``n`` overrides
    the per-strategy guess budget (tests use tiny budgets).
    """
    strategies = strategies or list(STRATEGIES)
    workers_list = workers_list or [1, 2]
    workdir = Path(workdir)
    workdir.mkdir(parents=True, exist_ok=True)
    cases = build_schedule(base_seed, strategies, workers_list, per_strategy)
    report = ChaosReport()
    golden_cache: dict = {}
    for case in cases:
        if log is not None:
            log(case.describe())
        result = run_case(
            case, checkpoint, workdir, n=n, golden_cache=golden_cache
        )
        report.cases.append(result)
        if log is not None:
            verdict = "ok" if result.ok else f"FAIL ({result.failure})"
            log(f"  -> {result.chaos_outcome}, resume={result.resume_exit}: {verdict}")
    return report


# ----------------------------------------------------------------------
# Server soak: chaos against a live campaign server
# ----------------------------------------------------------------------
#
# The per-campaign chaos cases above prove the *engine* resumes exactly;
# the soak proves the *service* does.  One seeded schedule: concurrent
# clients submit campaigns to a live ``CampaignServer`` (retrying
# through 429/503 backpressure), a worker-crash fault is armed, and a
# SIGTERM drain lands mid-run.  A second server over the same state
# directory must then recover every accepted request and finish it with
# a guess stream byte-identical to an undisturbed reference run — zero
# lost, zero duplicated — with ``telemetry summarize --check`` holding
# on every completed request's per-job session.


@dataclass
class SoakOutcome:
    """Verdict for one accepted request after the full soak."""

    job_id: int
    shape: dict
    state: str = ""
    detail: dict = field(default_factory=dict)
    identical: Optional[bool] = None  # None until the stream is compared
    check_ok: Optional[bool] = None
    failure: Optional[str] = None

    @property
    def ok(self) -> bool:
        return self.failure is None

    def to_dict(self) -> dict:
        return {
            "job_id": self.job_id,
            "shape": self.shape,
            "state": self.state,
            "detail": self.detail,
            "identical": self.identical,
            "check_ok": self.check_ok,
            "ok": self.ok,
            "failure": self.failure,
        }


@dataclass
class SoakReport:
    """What ``repro chaos --server`` writes to ``soak-report.json``."""

    outcomes: list = field(default_factory=list)
    #: 429/503 responses the clients retried through (backpressure is
    #: expected under a tiny tenant-queue cap; losing a request is not).
    rejections: int = 0
    drains: list = field(default_factory=list)  # one summary per server life
    harness_failures: list = field(default_factory=list)

    @property
    def failures(self) -> list[str]:
        out = list(self.harness_failures)
        for outcome in self.outcomes:
            if not outcome.ok:
                out.append(f"request {outcome.job_id} ({outcome.shape}): {outcome.failure}")
        return out

    @property
    def ok(self) -> bool:
        return bool(self.outcomes) and not self.failures

    def to_dict(self) -> dict:
        return {
            "ok": self.ok,
            "rejections": self.rejections,
            "drains": self.drains,
            "outcomes": [o.to_dict() for o in self.outcomes],
            "failures": self.failures,
        }


class _ServerThread:
    """One server lifetime on a background thread with its own loop."""

    def __init__(self, config) -> None:
        from ..server import CampaignServer  # lazy: server imports runtime

        self.server = CampaignServer(config)
        self.summary: Optional[dict] = None
        self.error: Optional[BaseException] = None
        self.thread = threading.Thread(
            target=self._run, daemon=True, name="soak-server"
        )

    def _run(self) -> None:
        try:
            self.summary = asyncio.run(self.server.serve_forever())
        except BaseException as exc:  # noqa: BLE001 — surfaced by start()/join()
            self.error = exc

    def start(self, timeout: float = 60.0) -> int:
        self.thread.start()
        deadline = time.monotonic() + timeout
        while not self.server.ready.is_set():
            if not self.thread.is_alive():
                raise RuntimeError(f"server died during startup: {self.error!r}")
            if time.monotonic() > deadline:
                raise RuntimeError("server failed to become ready in time")
            time.sleep(0.02)
        return int(self.server.port)

    def join(self, timeout: float = 300.0) -> dict:
        self.thread.join(timeout)
        if self.thread.is_alive():
            raise RuntimeError("server did not drain in time")
        if self.error is not None:
            raise self.error
        return self.summary or {}

    def drain(self, timeout: float = 300.0) -> dict:
        self.server.request_drain()
        return self.join(timeout)


def _http_request(port: int, method: str, path: str, payload=None, timeout=30.0):
    """One request against the soak server; returns (status, bytes, retry_after)."""
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=timeout)
    try:
        body = None if payload is None else json.dumps(payload).encode("utf-8")
        headers = {"Content-Type": "application/json"} if body else {}
        conn.request(method, path, body=body, headers=headers)
        response = conn.getresponse()
        data = response.read()
        return response.status, data, response.getheader("Retry-After")
    finally:
        conn.close()


def _http_json(port: int, method: str, path: str, payload=None):
    status, data, retry_after = _http_request(port, method, path, payload)
    return status, json.loads(data.decode("utf-8") or "null"), retry_after


def _soak_shapes(rng: random.Random, n_requests: int, n: int) -> list[dict]:
    """Seeded request shapes; shape 0 hosts the worker-crash fault site."""
    shapes = [
        {"strategy": "dcgen", "workers": 2, "threshold": 32,
         "n": n, "seed": rng.randrange(1_000_000)}
    ]
    menu = [("sampled", 1), ("sampled", 2), ("dcgen", 1)]
    while len(shapes) < n_requests:
        strategy, workers = menu[rng.randrange(len(menu))]
        shape = {"strategy": strategy, "workers": workers,
                 "n": n, "seed": rng.randrange(1_000_000)}
        if strategy == "dcgen":
            shape["threshold"] = 32
        shapes.append(shape)
    return shapes


def _soak_reference(checkpoint, workdir: Path, shape: dict, cache: dict) -> bytes:
    """Undisturbed CLI run of one shape: the byte-exact expected stream."""
    key = tuple(sorted(shape.items()))
    if key in cache:
        return cache[key]
    out = workdir / f"reference-{len(cache)}.txt"
    argv = [
        "generate", "--checkpoint", str(checkpoint), "-n", str(shape["n"]),
        "--seed", str(shape["seed"]), "--strategy", shape["strategy"],
        "--workers", str(shape["workers"]), "--out", str(out),
    ]
    if shape["strategy"] == "dcgen":
        argv += ["--threshold", str(shape["threshold"])]
    code, exc = _run_cli(argv)
    if exc is not None or code != 0:
        raise RuntimeError(f"reference run failed for {shape}: exit={code} exc={exc!r}")
    cache[key] = out.read_bytes()
    return cache[key]


def _soak_submit(port, assignments, accepted, rejections, errors, lock) -> None:
    """One client thread: submit its requests, retrying through 429/503."""
    for shape_index, payload in assignments:
        for _attempt in range(50):
            try:
                status, obj, retry_after = _http_json(port, "POST", "/campaigns", payload)
            except OSError as exc:
                with lock:
                    errors.append(f"submit failed for shape {shape_index}: {exc}")
                return
            if status == 202:
                with lock:
                    accepted[int(obj["id"])] = shape_index
                break
            if status in (429, 503):
                with lock:
                    rejections[0] += 1
                # Honour Retry-After, capped so the soak stays CI-sized.
                time.sleep(min(float(retry_after or 1.0), 0.2))
                continue
            with lock:
                errors.append(f"unexpected status {status} for shape {shape_index}: {obj}")
            return
        else:
            with lock:
                errors.append(f"submission retries exhausted for shape {shape_index}")


def run_server_soak(
    checkpoint: str | Path,
    workdir: str | Path,
    base_seed: int = 0,
    n_requests: int = 5,
    clients: int = 2,
    n: int = 250,
    worker_fault: str = "crash:worker:0",
    log: Optional[Callable[[str], None]] = None,
) -> SoakReport:
    """Soak a live campaign server under faults, backpressure, and drain.

    Phase 1 serves with ``worker_fault`` armed (one-shot) and a tiny
    per-tenant queue cap, while ``clients`` threads submit ``n_requests``
    seeded campaign shapes; once the first request completes, a SIGTERM
    stop request drains the server mid-run.  Phase 2 starts a fresh
    server over the same state directory, which must recover and finish
    every accepted request.  Each request must end ``done`` with a
    byte-identical stream and a clean ``summarize --check``, or as a
    typed failure — never lost, never duplicated.
    """
    from ..server import ServerConfig  # lazy: server imports runtime

    def say(message: str) -> None:
        if log is not None:
            log(message)

    workdir = Path(workdir)
    workdir.mkdir(parents=True, exist_ok=True)
    rng = random.Random(base_seed)
    clients = max(1, min(clients, n_requests))
    shapes = _soak_shapes(rng, n_requests, n)
    report = SoakReport()

    say(f"server soak: {n_requests} request(s), {clients} client(s), "
        f"fault {worker_fault}, seed {base_seed}")
    reference_cache: dict = {}
    references = [
        _soak_reference(checkpoint, workdir, shape, reference_cache)
        for shape in shapes
    ]
    say(f"  references: {len(reference_cache)} distinct shape(s)")

    state_dir = workdir / "state"
    config = dict(
        checkpoint=str(checkpoint),
        state_dir=str(state_dir),
        port=0,
        job_telemetry=True,  # forces fleet=1; per-job sessions are audited
        max_tenant_queue=2,  # small on purpose: clients must absorb 429s
        rate=1000.0,
        burst=1000.0,
        poll_interval=0.02,
    )

    # ------------------------------------------------------------- phase 1
    accepted: dict[int, int] = {}  # job id -> shape index
    errors: list[str] = []
    rejections = [0]
    lock = threading.Lock()
    runner = _ServerThread(ServerConfig(**config))
    with _env(**{
        FAULT_ENV: worker_fault,
        FAULT_STATE_ENV: str(workdir / "fault-state"),
        HANG_SECONDS_ENV: "0.5",
        TASK_TIMEOUT_ENV: "2.0",
    }):
        try:
            port = runner.start()
            say(f"  phase 1: serving on port {port}")
            threads = []
            for client in range(clients):
                assignments = [
                    (i, {"tenant": f"tenant-{client}", **shapes[i]})
                    for i in range(client, n_requests, clients)
                ]
                thread = threading.Thread(
                    target=_soak_submit,
                    args=(port, assignments, accepted, rejections, errors, lock),
                    name=f"soak-client-{client}",
                )
                thread.start()
                threads.append(thread)
            for thread in threads:
                thread.join(60.0)
            # Drain mid-run: wait until the first request reaches a
            # terminal state, then deliver the stop request SIGTERM sets.
            deadline = time.monotonic() + 120.0
            while time.monotonic() < deadline:
                try:
                    _, status_obj, _ = _http_json(port, "GET", "/status")
                except OSError:
                    break
                jobs = status_obj["jobs"]
                if jobs["done"] + jobs["failed"] + jobs["interrupted"] >= 1:
                    break
                time.sleep(0.05)
            signals.request(_stdlib_signal.SIGTERM)
            summary = runner.join()
            report.drains.append(summary)
            say(f"  phase 1: drained ({summary.get('reason')}) "
                f"jobs={summary.get('jobs')}")
        finally:
            faults.reset()
            signals.reset()
    report.rejections = rejections[0]
    report.harness_failures.extend(errors)
    if len(accepted) != n_requests:
        report.harness_failures.append(
            f"accepted {len(accepted)} of {n_requests} submissions"
        )

    # ------------------------------------------------------------- phase 2
    with _env(**{
        FAULT_ENV: None,
        FAULT_STATE_ENV: None,
        HANG_SECONDS_ENV: None,
        TASK_TIMEOUT_ENV: "2.0",
    }):
        runner = _ServerThread(ServerConfig(**config))
        try:
            port = runner.start()
            say(f"  phase 2: recovered server on port {port}")
            deadline = time.monotonic() + 300.0
            settled = False
            while time.monotonic() < deadline:
                _, status_obj, _ = _http_json(port, "GET", "/status")
                jobs = status_obj["jobs"]
                if jobs["queued"] == 0 and jobs["running"] == 0:
                    settled = True
                    break
                time.sleep(0.05)
            if not settled:
                report.harness_failures.append(
                    "phase 2 timed out waiting for recovered jobs to settle"
                )
            # The synchronous scoring path must serve while campaigns do.
            status, score, _ = _http_json(
                port, "POST", "/score",
                {"guesses": ["password", "hunter2"], "test": ["password", "zzz"]},
            )
            if status != 200 or "hit_rate" not in score:
                report.harness_failures.append(
                    f"score request failed: status={status} body={score}"
                )
            # No phantom requests: the server's journal must list exactly
            # the accepted campaign submissions (plus the score job).
            _, listing, _ = _http_json(port, "GET", "/campaigns")
            journaled = sorted(
                entry["id"] for entry in listing["requests"]
                if entry["kind"] == "generate"
            )
            if journaled != sorted(accepted):
                report.harness_failures.append(
                    f"journaled requests {journaled} != accepted {sorted(accepted)}"
                )
            for job_id, shape_index in sorted(accepted.items()):
                outcome = _soak_verdict(
                    port, state_dir, job_id, shapes[shape_index],
                    references[shape_index],
                )
                report.outcomes.append(outcome)
                say(f"  request {job_id}: {outcome.state} "
                    f"{'ok' if outcome.ok else 'FAIL (' + str(outcome.failure) + ')'}")
            summary = runner.drain()
            report.drains.append(summary)
            say(f"  phase 2: drained ({summary.get('reason')})")
        except BaseException as exc:
            report.harness_failures.append(f"phase 2 harness error: {exc!r}")
            try:
                runner.drain(timeout=30.0)
            except BaseException:
                pass
        finally:
            signals.reset()
    return report


def _soak_verdict(port, state_dir: Path, job_id, shape, reference: bytes) -> SoakOutcome:
    """Judge one recovered request against the soak's acceptance bar."""
    outcome = SoakOutcome(job_id, shape)
    _, job, _ = _http_json(port, "GET", f"/campaigns/{job_id}")
    outcome.state = job["state"]
    outcome.detail = job.get("detail", {})
    if job["state"] == "done":
        status, data, _ = _http_request(port, "GET", f"/campaigns/{job_id}/guesses")
        outcome.identical = status == 200 and data == reference
        if not outcome.identical:
            outcome.failure = (
                f"guess stream differs from the reference run "
                f"(status {status}, {len(data)} vs {len(reference)} bytes)"
            )
            return outcome
        tele = state_dir / "jobs" / f"{job_id:06d}" / "tele"
        check_code, check_exc = _run_cli(
            ["telemetry", "summarize", str(tele), "--check"]
        )
        outcome.check_ok = check_exc is None and check_code == 0
        if not outcome.check_ok:
            outcome.failure = "telemetry summarize --check failed for the job session"
    elif job["state"] == "failed" and outcome.detail.get("error"):
        pass  # a typed failure is an acceptable (reported) outcome
    else:
        outcome.failure = (
            f"request ended {job['state']!r} with detail {outcome.detail!r} "
            f"instead of done or a typed failure"
        )
    return outcome
