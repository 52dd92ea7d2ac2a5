"""Run-journal format, torn-tail recovery, and resume identity checks."""

import hashlib
import json

import numpy as np
import pytest

from repro import telemetry
from repro.runtime import JournalError, RunJournal, file_digest
from repro.runtime.journal import SIDECAR_KEY, sidecar_path, sidecar_paths

HEADER = {"kind": "dcgen", "seed": 7, "total": 100, "plan": "abc123"}


def make_journal(path, n_records=3):
    journal = RunJournal.create(path, HEADER)
    for i in range(n_records):
        journal.record("leaf_batch", i, {"guesses": [f"pw{i}"], "model_calls": i})
    journal.close()
    return path


class TestRoundtrip:
    def test_create_record_reopen(self, tmp_path):
        path = make_journal(tmp_path / "run.jsonl")
        journal = RunJournal.open(path)
        assert journal.header == HEADER
        assert journal.recovered_tail == 0
        done = journal.completed("leaf_batch")
        assert set(done) == {0, 1, 2}
        assert done[1] == {"guesses": ["pw1"], "model_calls": 1}
        journal.close()

    def test_kinds_are_separate(self, tmp_path):
        journal = RunJournal.create(tmp_path / "run.jsonl", HEADER)
        journal.record("leaf_batch", 0, {"a": 1})
        journal.record("epoch", 0, {"b": 2})
        assert journal.completed("leaf_batch") == {0: {"a": 1}}
        assert journal.completed("epoch") == {0: {"b": 2}}
        journal.close()

    def test_create_truncates_previous_run(self, tmp_path):
        path = make_journal(tmp_path / "run.jsonl")
        journal = RunJournal.create(path, HEADER)
        assert journal.completed("leaf_batch") == {}
        journal.close()

    def test_remove_deletes_file(self, tmp_path):
        path = make_journal(tmp_path / "run.jsonl")
        journal = RunJournal.open(path)
        journal.remove()
        assert not path.exists()


class TestTornTail:
    def test_partial_last_line_is_dropped(self, tmp_path):
        path = make_journal(tmp_path / "run.jsonl")
        with open(path, "a", encoding="utf-8") as fh:
            fh.write('{"kind": "leaf_batch", "task_id": 3, "payl')  # torn append
        journal = RunJournal.open(path)
        assert set(journal.completed("leaf_batch")) == {0, 1, 2}
        assert journal.recovered_tail == 1
        journal.close()

    def test_digest_mismatch_stops_reading(self, tmp_path):
        path = make_journal(tmp_path / "run.jsonl")
        lines = path.read_text().splitlines()
        tampered = json.loads(lines[2])
        tampered["payload"]["guesses"] = ["evil"]  # digest no longer matches
        lines[2] = json.dumps(tampered)
        path.write_text("\n".join(lines) + "\n")
        journal = RunJournal.open(path)
        # Record 0 (line 1) is still trusted; the tampered line and
        # everything after it are recomputed.
        assert set(journal.completed("leaf_batch")) == {0}
        assert journal.recovered_tail == 2
        journal.close()

    def test_multi_record_tear_drops_everything_after_first_bad_line(self, tmp_path):
        """Several corrupted trailing lines: recovery keeps only the
        prefix before the first bad record, even when later lines are
        individually valid."""
        path = make_journal(tmp_path / "run.jsonl", n_records=6)
        lines = path.read_text().splitlines()
        lines[2] = lines[2][:-8]  # tear record 1 (line 3)
        lines[4] = "not json at all"  # and record 3
        path.write_text("\n".join(lines) + "\n")
        journal = RunJournal.open(path)
        assert set(journal.completed("leaf_batch")) == {0}
        assert journal.recovered_tail == 5
        journal.close()

    def test_recovered_journal_accepts_new_records(self, tmp_path):
        path = make_journal(tmp_path / "run.jsonl", n_records=3)
        with open(path, "a", encoding="utf-8") as fh:
            fh.write('{"torn')
        journal = RunJournal.open(path)
        journal.record("leaf_batch", 9, {"guesses": ["new"], "model_calls": 0})
        journal.close()
        reopened = RunJournal.open(path)
        assert set(reopened.completed("leaf_batch")) == {0, 1, 2, 9}
        reopened.close()

    def test_missing_header_raises(self, tmp_path):
        path = tmp_path / "run.jsonl"
        path.write_text('{"not": "a header"}\n')
        with pytest.raises(JournalError):
            RunJournal.open(path)

    def test_empty_file_raises(self, tmp_path):
        path = tmp_path / "run.jsonl"
        path.write_text("")
        with pytest.raises(JournalError, match="no readable header"):
            RunJournal.open(path)


class TestAttach:
    def test_resume_reuses_matching_journal(self, tmp_path):
        path = make_journal(tmp_path / "run.jsonl")
        journal = RunJournal.attach(path, HEADER, resume=True)
        assert set(journal.completed("leaf_batch")) == {0, 1, 2}
        journal.close()

    def test_resume_header_mismatch_raises(self, tmp_path):
        path = make_journal(tmp_path / "run.jsonl")
        other = dict(HEADER, seed=8)
        with pytest.raises(JournalError, match="belongs to a different run"):
            RunJournal.attach(path, other, resume=True)

    def test_header_mismatch_message_names_the_fields(self, tmp_path):
        """The error pinpoints which identity fields differ and how."""
        path = make_journal(tmp_path / "run.jsonl")
        other = dict(HEADER, seed=8, plan="zzz999")
        with pytest.raises(JournalError) as info:
            RunJournal.attach(path, other, resume=True)
        message = str(info.value)
        assert "mismatched header fields" in message
        assert "seed: journal=7 != run=8" in message
        assert "plan: journal='abc123' != run='zzz999'" in message
        assert "total" not in message  # matching fields are not listed

    def test_resume_without_file_starts_fresh(self, tmp_path):
        journal = RunJournal.attach(tmp_path / "new.jsonl", HEADER, resume=True)
        assert journal.completed("leaf_batch") == {}
        journal.close()

    def test_no_resume_truncates(self, tmp_path):
        path = make_journal(tmp_path / "run.jsonl")
        journal = RunJournal.attach(path, HEADER, resume=False)
        assert journal.completed("leaf_batch") == {}
        journal.close()


class TestSidecars:
    ROWS = np.arange(12, dtype=np.float64)

    def test_record_writes_verified_sidecar(self, tmp_path):
        journal = RunJournal.create(tmp_path / "run.jsonl", HEADER)
        journal.record("frontier", 0, {"seq": 3}, sidecar=self.ROWS)
        side = sidecar_path(journal.path, "frontier", 0)
        assert side.name == "run.jsonl.frontier-0.npy"
        payload = journal.completed("frontier")[0]
        assert payload == {"seq": 3, SIDECAR_KEY: hashlib.sha256(side.read_bytes()).hexdigest()}
        journal.close()
        reopened = RunJournal.open(journal.path)
        np.testing.assert_array_equal(reopened.load_sidecar("frontier", 0), self.ROWS)
        reopened.close()

    def test_new_sidecar_supersedes_the_last(self, tmp_path):
        journal = RunJournal.create(tmp_path / "run.jsonl", HEADER)
        for task_id in range(3):
            journal.record("frontier", task_id, {"seq": task_id}, sidecar=self.ROWS + task_id)
            assert sidecar_paths(journal.path) == [sidecar_path(journal.path, "frontier", task_id)]
        assert journal.load_sidecar("frontier", 1) is None  # superseded and deleted
        journal.close()

    def test_unusable_sidecar_loads_as_none(self, tmp_path):
        journal = RunJournal.create(tmp_path / "run.jsonl", HEADER)
        journal.record("leaf_batch", 0, {"guesses": []})
        journal.record("frontier", 1, {"seq": 1}, sidecar=self.ROWS)
        assert journal.load_sidecar("leaf_batch", 0) is None  # record has none
        assert journal.load_sidecar("frontier", 7) is None  # no such record
        side = sidecar_path(journal.path, "frontier", 1)
        side.write_bytes(side.read_bytes()[:-1] + b"\0")
        assert journal.load_sidecar("frontier", 1) is None  # fails its digest
        side.unlink()
        assert journal.load_sidecar("frontier", 1) is None  # gone
        journal.close()

    def test_reset_keeps_header_and_drops_the_rest(self, tmp_path):
        journal = RunJournal.create(tmp_path / "run.jsonl", HEADER)
        journal.record("frontier", 0, {"seq": 0}, sidecar=self.ROWS)
        journal.reset()
        assert journal.completed("frontier") == {}
        assert sidecar_paths(journal.path) == []
        journal.record("frontier", 0, {"seq": 1})
        journal.close()
        reopened = RunJournal.open(journal.path)
        assert reopened.header == HEADER
        assert reopened.completed("frontier") == {0: {"seq": 1}}
        reopened.close()

    def test_create_and_discard_delete_sidecars(self, tmp_path):
        path = tmp_path / "run.jsonl"
        journal = RunJournal.create(path, HEADER)
        journal.record("frontier", 0, {"seq": 0}, sidecar=self.ROWS)
        journal.close()
        RunJournal.create(path, HEADER).close()  # a fresh run: stale sidecar gone
        assert sidecar_paths(path) == []
        journal = RunJournal.open(path)
        journal.record("frontier", 0, {"seq": 0}, sidecar=self.ROWS)
        journal.remove()
        assert not path.exists() and sidecar_paths(path) == []
        RunJournal.discard(path)  # nothing left: a no-op

    def test_sidecars_of_a_longer_named_journal_are_not_ours(self, tmp_path):
        other = RunJournal.create(tmp_path / "run.jsonl.bak", HEADER)
        other.record("frontier", 0, {"seq": 0}, sidecar=self.ROWS)
        other.close()
        RunJournal.discard(tmp_path / "run.jsonl")
        assert sidecar_paths(tmp_path / "run.jsonl") == []
        assert len(sidecar_paths(other.path)) == 1

    def test_io_counters_include_sidecars(self, tmp_path):
        registry = telemetry.get_registry()
        before = (registry.counter("journal.bytes").value,
                  registry.counter("journal.fsyncs").value)
        path = tmp_path / "run.jsonl"
        journal = RunJournal.create(path, HEADER)
        journal.record("frontier", 0, {"seq": 0}, sidecar=self.ROWS)
        journal.close()
        side = sidecar_path(path, "frontier", 0)
        assert registry.counter("journal.bytes").value - before[0] == (
            path.stat().st_size + side.stat().st_size
        )
        # header + record lines, plus the sidecar file and its directory
        assert registry.counter("journal.fsyncs").value - before[1] == 4


class TestFileDigest:
    def test_digest_changes_with_content(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        a.write_bytes(b"one")
        b.write_bytes(b"two")
        assert file_digest(a) != file_digest(b)
        b.write_bytes(b"one")
        assert file_digest(a) == file_digest(b)
