"""Strategy parity: every strategy x model family x entry point agrees.

The registry (:data:`repro.generation.STRATEGIES`) is the one place the
library, ``repro generate`` and the campaign server learn how to run a
strategy.  For each (strategy, family) cell the three entry points must
emit the same stream bytes, or refuse the same way: ``ValueError`` from
the library, exit 2 from the CLI, HTTP 400 ``invalid_request`` from the
server.  Models are the fixed-seed untrained references of
``tests/goldens.py``, so the whole matrix stays fast.  The PagPassGPT
reference gets short patterns: on near-uniform untrained weights the
ordered enumerator must exhaust every shallower prefix before its
first complete guess, which for the golden 6-8 character patterns
takes minutes under the server's default frontier.
"""

from __future__ import annotations

import json
import time

import pytest

from repro.cli import EXIT_CORRUPT, build_parser, main
from repro.generation import FAMILIES, STRATEGIES, CampaignOptions, load_model
from repro.runtime import Budget, CampaignInterrupted, chaos
from repro.server import ServerConfig
from repro.server.core import JOB_JOURNAL

from tests.goldens import build_model, build_passgpt

N = {"sampled": 600, "dcgen": 300, "ordered": 8}
SEED = 5
THRESHOLD = 48


@pytest.fixture(scope="module")
def checkpoints(tmp_path_factory):
    directory = tmp_path_factory.mktemp("registry")
    pagpassgpt = build_model()
    pagpassgpt.pattern_probs = {"N3": 0.6, "L1N2": 0.4}
    paths = {}
    for family, model in zip(FAMILIES, (pagpassgpt, build_passgpt())):
        paths[family] = str(directory / f"{family}.npz")
        model.save(paths[family])
    return paths


@pytest.fixture(scope="module")
def server(checkpoints, tmp_path_factory):
    state = tmp_path_factory.mktemp("registry-server")
    runner = chaos._ServerThread(ServerConfig(
        checkpoint=checkpoints["PagPassGPT"], state_dir=str(state), port=0, fleet=1,
        poll_interval=0.02,
    ))
    port = runner.start()
    yield runner, port
    runner.drain(timeout=120.0)


def _library(path: str, strategy: str, **options) -> list[str]:
    options = {"seed": SEED, "threshold": THRESHOLD, **options}
    guesses, _ = STRATEGIES[strategy].run(
        load_model(path), N[strategy], CampaignOptions(**options)
    )
    return guesses


def _cli(path: str, strategy: str, out, *extra: str) -> int:
    return main([
        "generate", "--checkpoint", path, "-n", str(N[strategy]), "--seed", str(SEED),
        "--strategy", strategy, "--threshold", str(THRESHOLD), "--out", str(out), *extra,
    ])


def _submit(port: int, path: str, strategy: str, **fields):
    return chaos._http_json(port, "POST", "/campaigns", {
        "n": N[strategy], "seed": SEED, "strategy": strategy, "threshold": THRESHOLD,
        "checkpoint": path, **fields,
    })


def _wait_terminal(port: int, job_id: int, timeout: float = 120.0) -> dict:
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        _, job, _ = chaos._http_json(port, "GET", f"/campaigns/{job_id}")
        if job["state"] in ("done", "failed", "interrupted"):
            return job
        time.sleep(0.05)
    raise AssertionError(f"request {job_id} never reached a terminal state")


def _bytes(guesses: list[str]) -> bytes:
    return ("\n".join(guesses) + "\n").encode()


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("strategy", list(STRATEGIES))
def test_entry_points_agree(strategy, family, checkpoints, server, tmp_path):
    path = checkpoints[family]
    _, port = server
    out = tmp_path / "out.txt"
    if family not in STRATEGIES[strategy].families:
        with pytest.raises(ValueError, match=f"strategy {strategy} requires"):
            _library(path, strategy)
        assert _cli(path, strategy, out) == EXIT_CORRUPT
        assert not out.exists()
        status, body, _ = _submit(port, path, strategy)
        assert status == 400
        assert body["error"] == "invalid_request"
        assert f"strategy {strategy} requires" in body["message"]
        return

    expected = _bytes(_library(path, strategy))
    assert _cli(path, strategy, out) == 0
    assert out.read_bytes() == expected

    status, obj, _ = _submit(port, path, strategy)
    assert status == 202
    job = _wait_terminal(port, obj["id"])
    assert job["state"] == "done", job
    status, data, _ = chaos._http_request(port, "GET", f"/campaigns/{obj['id']}/guesses")
    assert status == 200
    assert data == expected


@pytest.mark.parametrize(
    "strategy,family", [(s, f) for s in STRATEGIES for f in STRATEGIES[s].families]
)
def test_journal_carries_the_registry_kinds(strategy, family, checkpoints, tmp_path):
    """Each campaign journals under its registry kind and record kind."""
    journal = tmp_path / "run.journal.jsonl"
    seen = []
    _library(
        checkpoints[family], strategy, journal=journal,
        progress=lambda done, total: seen.append((done, total)),
    )
    lines = [json.loads(line) for line in journal.read_text().splitlines()]
    assert lines[0]["payload"]["kind"] == STRATEGIES[strategy].kind
    assert {rec["kind"] for rec in lines[1:]} == {STRATEGIES[strategy].record}
    assert seen[-1][0] >= N[strategy]


def test_passgpt_sampled_expired_deadline_interrupts_then_resumes(
    checkpoints, server, tmp_path
):
    """A spent deadline stops a PassGPT job before its first chunk; the
    journal it leaves resumes into the uninterrupted stream."""
    path = checkpoints["PassGPT"]
    runner, port = server
    expected = _bytes(_library(path, "sampled"))

    status, obj, _ = _submit(port, path, "sampled", deadline=1e-6)
    assert status == 202
    job = _wait_terminal(port, obj["id"])
    assert job["state"] == "interrupted", job
    assert job["detail"]["reason"] == "deadline"
    journal = runner.server.store.jobs_dir / f"{obj['id']:06d}" / JOB_JOURNAL
    assert journal.exists()

    out = tmp_path / "resumed.txt"
    assert _cli(path, "sampled", out, "--journal", str(journal), "--resume") == 0
    assert out.read_bytes() == expected


def test_library_budget_and_resume_on_passgpt(checkpoints, tmp_path):
    path = checkpoints["PassGPT"]
    clean = _library(path, "sampled")
    journal = tmp_path / "run.journal.jsonl"
    budget = Budget(wall_seconds=1e-6)
    time.sleep(0.01)
    with pytest.raises(CampaignInterrupted) as info:
        _library(path, "sampled", journal=journal, budget=budget)
    assert info.value.reason == "deadline"
    assert _library(path, "sampled", journal=journal, resume=True, workers=2) == clean


def test_cli_and_protocol_offer_exactly_the_registry():
    from repro.server import CampaignSpec, RequestError

    parser = build_parser()
    base = ["generate", "--checkpoint", "m.npz", "--out", "o.txt", "--strategy"]
    for name in STRATEGIES:
        assert parser.parse_args(base + [name]).strategy == name
        assert CampaignSpec.from_payload({"n": 1, "strategy": name}, "generate").strategy == name
    with pytest.raises(SystemExit):
        parser.parse_args(base + ["beam"])
    with pytest.raises(RequestError):
        CampaignSpec.from_payload({"n": 1, "strategy": "beam"}, "generate")
