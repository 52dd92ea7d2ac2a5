"""Golden-stream regression: optimisations must not change a single byte.

The committed fixture ``tests/golden/streams.json`` was produced by
``tests/goldens.py`` *before* the inference fast path landed; these tests
assert the current code reproduces it exactly — for serial and parallel
execution, several batch widths, and journaled resume.  A failure here
means an "optimisation" changed what the generators sample.
"""

import hashlib
import json

import numpy as np
import pytest

from repro.generation import DCGenConfig, DCGenerator, plan_digest
from repro.nn.backend import compiler_available
from repro.runtime import faults
from repro.runtime.faults import InjectedFault

from tests.goldens import (
    GOLDEN_PATH,
    PASSGPT_SPEC,
    SPEC,
    build_model,
    generate_ordered_stream,
    generate_passgpt_streams,
)


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN_PATH.read_text())


def _dcgen_stream(workers: int, gen_batch: int, journal=None, resume=False):
    model = build_model()
    dc = SPEC["dcgen"]
    gen = DCGenerator(
        model,
        DCGenConfig(threshold=dc["threshold"], gen_batch=gen_batch, workers=workers),
    )
    stream = gen.generate(dc["total"], seed=dc["seed"], journal=journal, resume=resume)
    return stream, plan_digest(gen.leaf_tasks)


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("gen_batch", [37, 256])
def test_dcgen_stream_byte_identical(golden, workers, gen_batch):
    stream, digest = _dcgen_stream(workers, gen_batch)
    assert digest == golden["plan_digest"]
    assert stream == golden["dcgen"]
    assert hashlib.sha256("\n".join(stream).encode()).hexdigest() == golden["dcgen_sha256"]


@pytest.mark.parametrize("workers", [1, 2])
def test_free_stream_byte_identical(golden, workers):
    model = build_model()
    stream = model.generate(SPEC["free"]["n"], seed=SPEC["free"]["seed"], workers=workers)
    assert stream == golden["free"]
    assert hashlib.sha256("\n".join(stream).encode()).hexdigest() == golden["free_sha256"]


def test_journaled_resume_validates_plan_digest(golden, tmp_path):
    """A journaled run resumes against the same plan digest and stream."""
    journal = tmp_path / "run.jsonl"
    first, digest = _dcgen_stream(1, 256, journal=journal)
    assert digest == golden["plan_digest"]
    header = json.loads(journal.read_text().splitlines()[0])
    assert header["payload"]["plan"] == golden["plan_digest"]
    # Resume replays the journaled batches and must emit the same bytes.
    resumed, _ = _dcgen_stream(1, 256, journal=journal, resume=True)
    assert resumed == first == golden["dcgen"]


@pytest.mark.parametrize("snapshot_every", [1, 4])
def test_ordered_stream_byte_identical(golden, snapshot_every):
    """The best-first stream is deterministic for any journal cadence."""
    stream = generate_ordered_stream(snapshot_every=snapshot_every)
    assert stream == golden["ordered"]
    digest = hashlib.sha256("\n".join(stream).encode()).hexdigest()
    assert digest == golden["ordered_sha256"]


@pytest.mark.parametrize("snapshot_every", [2, 5])
def test_ordered_crash_resume_byte_identical(golden, snapshot_every, tmp_path, monkeypatch):
    """A crashed-and-resumed ordered campaign reproduces the golden bytes.

    Two snapshot intervals exercise different crash points in the
    enumeration; both must splice back into the identical stream.
    """
    journal = tmp_path / "run.jsonl"
    monkeypatch.setenv(faults.FAULT_ENV, "crash:frontier:2")
    faults.reset()
    with pytest.raises(InjectedFault):
        generate_ordered_stream(snapshot_every=snapshot_every, journal=journal)
    monkeypatch.delenv(faults.FAULT_ENV)
    faults.reset()
    assert journal.exists()
    snapshots = len(journal.read_text().splitlines()) - 1  # minus header
    assert snapshots == 2  # the fault fired after exactly two clean writes
    resumed = generate_ordered_stream(
        snapshot_every=snapshot_every, journal=journal, resume=True
    )
    assert resumed == golden["ordered"]


@pytest.mark.parametrize("workers", [1, 2])
def test_passgpt_streams_byte_identical(golden, workers):
    """The PassGPT baseline's sampled and ordered campaigns are pinned too."""
    streams = generate_passgpt_streams(workers)
    assert streams["sampled"] == golden["passgpt_sampled"]
    assert streams["ordered"] == golden["passgpt_ordered"]


def test_fixture_self_consistent(golden):
    assert golden["spec"] == SPEC  # fixture was built from the current spec
    assert golden["passgpt_spec"] == PASSGPT_SPEC
    for key in ("dcgen", "free", "ordered", "passgpt_sampled", "passgpt_ordered"):
        digest = hashlib.sha256("\n".join(golden[key]).encode()).hexdigest()
        assert digest == golden[f"{key}_sha256"]


@pytest.mark.skipif(not compiler_available(), reason="no C compiler available")
class TestCompiledBackendGolden:
    """The compiled decode backend is held to the same fixture bytes.

    ``REPRO_BACKEND=compiled`` swaps the seq==1 decode kernel for the
    fused C path (``repro.nn.backend``); every strategy must still emit
    the identical golden stream, serial and multi-process (forked
    workers inherit the loaded kernel library copy-on-write).
    """

    @pytest.fixture(autouse=True)
    def _compiled_backend(self, monkeypatch):
        monkeypatch.setenv("REPRO_BACKEND", "compiled")

    @pytest.mark.parametrize("workers", [1, 2])
    def test_dcgen_stream_byte_identical(self, golden, workers):
        model = build_model()
        assert model.inference.backend_name == "compiled", "backend fell back"
        dc = SPEC["dcgen"]
        gen = DCGenerator(model, DCGenConfig(threshold=dc["threshold"], workers=workers))
        stream = gen.generate(dc["total"], seed=dc["seed"])
        assert stream == golden["dcgen"]

    @pytest.mark.parametrize("workers", [1, 2])
    def test_free_stream_byte_identical(self, golden, workers):
        model = build_model()
        assert model.inference.backend_name == "compiled", "backend fell back"
        stream = model.generate(SPEC["free"]["n"], seed=SPEC["free"]["seed"], workers=workers)
        assert stream == golden["free"]

    def test_ordered_stream_byte_identical(self, golden):
        stream = generate_ordered_stream(snapshot_every=4)
        assert stream == golden["ordered"]
