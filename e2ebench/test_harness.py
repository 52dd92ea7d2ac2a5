"""Self-tests of the benchmark harness.

Run from the repository root::

    PYTHONPATH=src python3 -m pytest -q e2ebench/test_harness.py
"""

from __future__ import annotations

import importlib
import inspect
import shutil
import sys
import threading
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import analysis  # noqa: E402
import probe  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402


def span(sid, parent, t0, t1, layer="nn", name="x"):
    return (sid, parent, name, layer, t0, t1, 0, "", None)


class TestSelfTime:
    def test_children_are_subtracted(self):
        spans = [span(1, 0, 0.0, 10.0, "generation"), span(2, 1, 1.0, 3.0),
                 span(3, 1, 5.0, 6.0), span(4, 2, 1.5, 2.0, "runtime")]
        own = analysis.self_times(spans)
        assert own == pytest.approx({1: 7.0, 2: 1.5, 3: 1.0, 4: 0.5})
        assert analysis.layer_self(spans) == pytest.approx(
            {"generation": 7.0, "nn": 2.5, "runtime": 0.5})

    def test_overlapping_and_outlying_children_count_once(self):
        spans = [span(1, 0, 0.0, 4.0), span(2, 1, 1.0, 3.0), span(3, 1, 2.0, 5.0)]
        assert analysis.self_times(spans)[1] == pytest.approx(1.0)

    def test_skip_leaves_out_named_spans(self):
        spans = [span(1, 0, 0.0, 4.0, "cli", "cli.main"), span(2, 1, 1.0, 2.0)]
        assert analysis.layer_self(spans, skip=("cli.main",)) == pytest.approx({"nn": 1.0})


class TestPercentile:
    def test_nearest_rank_stays_within_samples(self):
        samples = [3.0, 1.0, 2.0, 2990.0]
        for q in (0.01, 0.5, 0.9, 0.99, 1.0):
            assert analysis.percentile(samples, q) in samples
        assert analysis.percentile([2990.0], 0.5) == 2990.0
        assert analysis.percentile(range(1, 101), 0.9) == 90.0

    def test_ten_samples_beyond(self):
        assert analysis.beyond(100, 0.9) == 10
        assert analysis.supports(100, 0.9)
        assert not analysis.supports(99, 0.9)
        assert analysis.supports(56, 0.75) and analysis.supports(104, 0.9)
        assert not analysis.supports(19, 0.5)
        assert not analysis.supports(0, 0.5)

    def test_serve_schedule_supports_its_tails(self):
        arrivals = run.schedule(1, 10.0, [f"pw{i}" for i in range(400)])
        jobs = sum(a["kind"] != "score" for a in arrivals)
        assert analysis.supports(jobs, run.JOB_TAIL)
        assert analysis.supports(len(arrivals) - jobs, run.SCORE_TAIL)

    def test_failures_miss_every_limit(self):
        samples = [10.0] * 95 + [analysis.FAILED_MS] * 5
        assert analysis.percentile(samples, 0.5) == 10.0
        assert analysis.percentile(samples, 0.99) == analysis.FAILED_MS


class TestAccounting:
    def test_failed_share(self):
        assert analysis.failed_share(160, 0) == 0.0
        assert analysis.failed_share(160, 4) == pytest.approx(0.025)
        with pytest.raises(ValueError):
            analysis.failed_share(0, 0)

    def test_lateness_is_measured_from_due_time(self):
        late = analysis.lateness_ms([1.0, 2.0, 3.0], [1.0005, 1.999, 3.2])
        assert late == pytest.approx([0.5, 0.0, 200.0])


class TestSchedule:
    def test_fixed_by_seed(self):
        train = [f"pw{i}" for i in range(400)]
        assert run.schedule(7, 5.0, train) == run.schedule(7, 5.0, train)
        assert run.schedule(7, 5.0, train) != run.schedule(8, 5.0, train)

    def test_rate_and_mix_are_exact(self):
        arrivals = run.schedule(3, 10.0, [f"pw{i}" for i in range(400)])
        assert len(arrivals) == int(10.0 * run.SERVE["rate"])
        gaps = {round(b["due"] - a["due"], 9) for a, b in zip(arrivals, arrivals[1:])}
        assert gaps == {round(1.0 / run.SERVE["rate"], 9)}
        for kind, share in run.SERVE["mix"]:
            assert sum(a["kind"] == kind for a in arrivals) == round(len(arrivals) * share)


class TestProbe:
    def test_median_near_the_interval(self):
        samples = [[t * 0.1, 0.002] for t in range(100)]
        samples += [[5.0, 0.009], [5.05, 0.009]]  # two disturbed samples
        assert probe.task_s(samples, 5.0, 5.1) == pytest.approx(0.002)
        assert probe.scale(samples, 5.0, 5.1) == pytest.approx(probe.REFERENCE_S / 0.002)

    def test_only_samples_within_the_margin_count(self):
        far = 3 * probe.MARGIN_S
        samples = [[0.0, 0.004], [far, 0.001]]
        assert probe.task_s(samples, 0.5, 0.6) == 0.004
        assert probe.task_s(samples, far - 0.1, far) == 0.001
        with pytest.raises(ValueError):
            probe.task_s(samples, far / 2, far / 2 + 0.1)

    def test_the_task_is_fixed_work(self):
        assert probe.task() == probe.task()


class TestProfileAttribution:
    def test_innermost_wrapped_frame_wins(self):
        frames = tracer.frame_layers()
        folded = "\n".join([
            "span:-;cli.py:main;ordered.py:OrderedGenerator.generate;"
            "journal.py:RunJournal.record;encoder.py:iterencode 7",
            "span:-;cli.py:main;ordered.py:OrderedGenerator.generate;ordered.py:_expand 3",
            "span:-;cli.py:main;cli.py:cmd_generate 1",
        ])
        assert analysis.profile_layers(folded, frames) == {
            "runtime": 7, "generation": 3, "cli": 1}

    def test_frame_labels_match_the_profiler(self):
        pytest.importorskip("repro")
        from repro.telemetry.profiler import _format_frame

        class Code:
            pass

        for module_name, attr, _name, layer, _home in tracer.TARGETS:
            owner_name, _, fn_name = attr.rpartition(".")
            module = importlib.import_module(module_name)
            owner = getattr(module, owner_name) if owner_name else module
            fn = inspect.unwrap(getattr(owner, fn_name))
            fn = getattr(fn, "__func__", fn)
            frame = Code()
            frame.f_code = fn.__code__
            label = _format_frame(frame)
            if owner_name:
                assert tracer.frame_layers()[label] == layer
            else:  # free functions are patched where their caller looks them up
                assert label.rpartition(":")[2] == fn_name


class TestRecorder:
    def test_parents_tags_and_threads(self):
        recorder = tracer.Recorder(tag="c1")

        def leaf():
            return 1

        def outer():
            return wrapped_leaf() + 1

        wrapped_leaf = recorder.wrap(leaf, "leaf", "nn")
        wrapped_outer = recorder.wrap(outer, "outer", "generation")
        with recorder.span("cli.main", "cli"):
            assert wrapped_outer() == 2
        worker = threading.Thread(target=wrapped_leaf)
        worker.start()
        worker.join(timeout=10)
        assert not worker.is_alive()
        by_name = {}
        for s in recorder.spans:
            by_name.setdefault(s[2], []).append(s)
        root, = by_name["cli.main"]
        outer_span, = by_name["outer"]
        assert outer_span[1] == root[0]
        nested, alone = sorted(by_name["leaf"], key=lambda s: s[1] == 0)
        assert nested[1] == outer_span[0] and alone[1] == 0
        assert alone[6] != nested[6]
        assert {s[7] for s in recorder.spans} == {"c1"}
        assert len({s[0] for s in recorder.spans}) == len(recorder.spans)


@pytest.mark.skipif(not (HERE.parent / "src" / "repro").is_dir(), reason="needs repro sources")
def test_two_seeds_give_different_streams_that_pass_the_same_checks(monkeypatch):
    """End to end on a tiny set-up: seeds change the stream, not the checks."""
    monkeypatch.setattr(run, "SETUP", {"entries": 800, "dim": 16, "layers": 1,
                                       "heads": 2, "epochs": 1})
    monkeypatch.setitem(run.CLI, "cli-dcgen-compiled", dict(run.CLI["cli-dcgen-compiled"], n=300))
    digests = []
    for seed in (1, 2):
        env = run.Env(HERE.parent, "selftest", seed)
        try:
            setup = run.setup_once(env, seed, 0)
            cli = run.CliRun(env, "cli-dcgen-compiled", seed, setup)
            campaigns = [cli.campaign("whole"), cli.campaign("split")]
            assert run.stream_checks(campaigns, 300, "dcgen") == []
            digests.append(campaigns[0]["digest"])
        finally:
            shutil.rmtree(env.dir, ignore_errors=True)
    assert digests[0] != digests[1]


if __name__ == "__main__":
    sys.exit(pytest.main([__file__, "-q"]))
