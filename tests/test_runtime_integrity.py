"""Artifact integrity: journal scan/repair, manifests, checkpoint checks."""

import json

import numpy as np
import pytest

from repro.runtime import (
    Finding,
    RunJournal,
    repair_journal,
    scan_journal,
    verify_manifest,
    verify_paths,
    write_manifest,
)
from repro.runtime.integrity import journal_header_digest, verify_checkpoint
from repro.runtime.journal import sidecar_path, sidecar_paths

HEADER = {"kind": "dcgen", "seed": 7, "total": 100, "plan": "abc123"}


def make_journal(path, n_records=5):
    journal = RunJournal.create(path, HEADER)
    for i in range(n_records):
        journal.record("leaf_batch", i, {"guesses": [f"pw{i}"], "model_calls": i})
    journal.close()
    return path


def make_sidecar_journal(path, n_records=3):
    """A journal whose records each carry a sidecar (only the last stays)."""
    journal = RunJournal.create(path, HEADER)
    for i in range(n_records):
        journal.record("frontier", i, {"seq": i}, sidecar=np.arange(8.0) + i)
    journal.close()
    return path


def kinds(findings):
    return [f.kind for f in findings]


class TestFinding:
    def test_rejects_unknown_severity(self):
        with pytest.raises(ValueError):
            Finding("fatal", "torn_tail", "x", "nope")

    def test_to_dict_is_json_serialisable(self):
        f = Finding("error", "torn_tail", "j.jsonl", "torn", {"valid_bytes": 10})
        assert json.loads(json.dumps(f.to_dict()))["kind"] == "torn_tail"


class TestScanJournal:
    def test_clean_journal_yields_nothing(self, tmp_path):
        path = make_journal(tmp_path / "run.journal.jsonl")
        assert scan_journal(path) == []

    def test_missing_file(self, tmp_path):
        assert kinds(scan_journal(tmp_path / "none.jsonl")) == ["missing_file"]

    def test_partial_last_line(self, tmp_path):
        path = make_journal(tmp_path / "run.journal.jsonl")
        with open(path, "a", encoding="utf-8") as fh:
            fh.write('{"kind": "leaf_batch", "task_id": 9, "payl')
        findings = scan_journal(path)
        assert kinds(findings) == ["torn_tail"]
        assert findings[0].data["dropped_lines"] == 1
        assert findings[0].data["valid_records"] == 5

    def test_multi_record_tear(self, tmp_path):
        """A tear can take several trailing records; all are untrusted."""
        path = make_journal(tmp_path / "run.journal.jsonl", n_records=6)
        lines = path.read_text().splitlines()
        tampered = json.loads(lines[3])
        tampered["payload"]["guesses"] = ["evil"]  # digest mismatch on line 4
        lines[3] = json.dumps(tampered)
        path.write_text("\n".join(lines) + "\n")
        findings = scan_journal(path)
        assert kinds(findings) == ["torn_tail"]
        # Line 4 and the 3 lines after it are all dropped, even though
        # those later lines are individually valid.
        assert findings[0].data["first_bad_line"] == 3
        assert findings[0].data["dropped_lines"] == 4
        assert findings[0].data["valid_records"] == 2

    def test_headerless_file_is_bad_header(self, tmp_path):
        path = tmp_path / "run.journal.jsonl"
        path.write_text('{"not": "a header"}\n')
        assert kinds(scan_journal(path)) == ["bad_header"]

    def test_expected_header_conflict(self, tmp_path):
        path = make_journal(tmp_path / "run.journal.jsonl")
        findings = scan_journal(path, expected_header=dict(HEADER, seed=8))
        assert kinds(findings) == ["header_conflict"]


class TestRepairJournal:
    def test_repair_truncates_to_last_valid_record(self, tmp_path):
        path = make_journal(tmp_path / "run.journal.jsonl")
        good = path.read_bytes()
        with open(path, "a", encoding="utf-8") as fh:
            fh.write('{"torn')
        findings = repair_journal(path)
        assert kinds(findings) == ["repaired"]
        assert path.read_bytes() == good
        # The repaired journal opens cleanly with every record intact.
        journal = RunJournal.open(path)
        assert set(journal.completed("leaf_batch")) == {0, 1, 2, 3, 4}
        assert journal.recovered_tail == 0
        journal.close()

    def test_repair_multi_record_tear(self, tmp_path):
        path = make_journal(tmp_path / "run.journal.jsonl", n_records=6)
        lines = path.read_text().splitlines()
        lines[4] = lines[4][:-10]  # truncate a middle-ish record
        path.write_text("\n".join(lines) + "\n")
        assert kinds(repair_journal(path)) == ["repaired"]
        journal = RunJournal.open(path)
        assert set(journal.completed("leaf_batch")) == {0, 1, 2}
        journal.close()

    def test_clean_journal_untouched(self, tmp_path):
        path = make_journal(tmp_path / "run.journal.jsonl")
        before = path.read_bytes()
        assert repair_journal(path) == []
        assert path.read_bytes() == before

    def test_headerless_is_unrepairable(self, tmp_path):
        path = tmp_path / "run.journal.jsonl"
        path.write_text("garbage\n")
        findings = repair_journal(path)
        assert kinds(findings) == ["unrepairable"]
        assert findings[0].severity == "error"


class TestSidecarFindings:
    def test_clean_sidecar_journal_yields_nothing(self, tmp_path):
        path = make_sidecar_journal(tmp_path / "run.journal.jsonl")
        assert scan_journal(path) == []
        assert repair_journal(path) == []

    def test_missing_newest_sidecar(self, tmp_path):
        path = make_sidecar_journal(tmp_path / "run.journal.jsonl")
        sidecar_path(path, "frontier", 2).unlink()
        findings = scan_journal(path)
        assert kinds(findings) == ["missing_sidecar"]
        assert findings[0].severity == "warning"  # a resume restarts, output intact
        assert findings[0].data["task_id"] == 2

    def test_corrupt_newest_sidecar(self, tmp_path):
        path = make_sidecar_journal(tmp_path / "run.journal.jsonl")
        side = sidecar_path(path, "frontier", 2)
        side.write_bytes(side.read_bytes()[:-1] + b"\0")
        assert kinds(scan_journal(path)) == ["sidecar_mismatch"]

    def test_repair_deletes_orphans_only(self, tmp_path):
        path = make_sidecar_journal(tmp_path / "run.journal.jsonl")
        orphan = sidecar_path(path, "frontier", 9)
        orphan.write_bytes(b"left behind by a crash")
        assert kinds(scan_journal(path)) == ["orphan_sidecar"]
        assert kinds(repair_journal(path)) == ["repaired"]
        assert sidecar_paths(path) == [sidecar_path(path, "frontier", 2)]
        assert scan_journal(path) == []

    def test_torn_tail_orphans_the_live_sidecar(self, tmp_path):
        """A tear that takes the newest record leaves its sidecar with no
        record, and the surviving newest record without one."""
        path = make_sidecar_journal(tmp_path / "run.journal.jsonl")
        lines = path.read_text().splitlines(keepends=True)
        path.write_text("".join(lines[:-1]) + lines[-1][:20])
        assert kinds(scan_journal(path)) == ["torn_tail", "missing_sidecar", "orphan_sidecar"]
        findings = verify_paths([path], repair=True)
        assert kinds(findings) == ["repaired", "missing_sidecar", "repaired", "checked"]
        assert sidecar_paths(path) == []
        assert kinds(scan_journal(path)) == ["missing_sidecar"]

    def test_directory_walk_does_not_list_sidecars(self, tmp_path):
        make_sidecar_journal(tmp_path / "run.journal.jsonl")
        findings = verify_paths([tmp_path])
        assert kinds(findings) == ["checked"]


class TestManifest:
    def make_tree(self, tmp_path):
        out = tmp_path / "guesses.txt"
        out.write_text("hunter2\npassword\n")
        journal = make_journal(tmp_path / "run.journal.jsonl")
        manifest = tmp_path / "MANIFEST.json"
        write_manifest(manifest, [out, journal], run={"seed": 7})
        return out, journal, manifest

    def test_roundtrip_verifies_clean(self, tmp_path):
        *_, manifest = self.make_tree(tmp_path)
        assert verify_manifest(manifest) == []

    def test_digest_mismatch_is_flagged_not_accepted(self, tmp_path):
        out, _, manifest = self.make_tree(tmp_path)
        out.write_text("hunter2\nTAMPERED\n")  # same byte count
        findings = verify_manifest(manifest)
        assert "digest_mismatch" in kinds(findings)
        assert all(f.severity == "error" for f in findings)

    def test_size_mismatch(self, tmp_path):
        out, _, manifest = self.make_tree(tmp_path)
        out.write_text("short\n")
        assert "size_mismatch" in kinds(verify_manifest(manifest))

    def test_missing_file(self, tmp_path):
        out, _, manifest = self.make_tree(tmp_path)
        out.unlink()
        assert kinds(verify_manifest(manifest)) == ["missing_file"]

    def test_swapped_journal_is_a_run_identity_conflict(self, tmp_path):
        _, journal, manifest = self.make_tree(tmp_path)
        # Replace the journal with one from a *different* run; the file
        # is internally consistent, so only the header pin catches it.
        journal.unlink()
        other = RunJournal.create(journal, dict(HEADER, seed=999))
        other.record("leaf_batch", 0, {"guesses": ["x"], "model_calls": 0})
        other.close()
        findings = verify_manifest(manifest)
        assert "header_conflict" in kinds(findings)

    def test_header_digest_distinguishes_runs(self, tmp_path):
        a = make_journal(tmp_path / "a.journal.jsonl")
        b = RunJournal.create(tmp_path / "b.journal.jsonl", dict(HEADER, seed=8))
        b.close()
        assert journal_header_digest(a) != journal_header_digest(b.path)


class TestVerifyCheckpoint:
    def test_corrupt_npz_is_flagged(self, tmp_path):
        bad = tmp_path / "model.npz"
        bad.write_bytes(b"PK\x03\x04 definitely not a checkpoint")
        assert kinds(verify_checkpoint(bad)) == ["unreadable_checkpoint"]

    def test_missing_checkpoint(self, tmp_path):
        assert kinds(verify_checkpoint(tmp_path / "no.npz")) == ["missing_file"]


class TestVerifyPaths:
    def test_directory_walk_covers_all_artifact_types(self, tmp_path):
        make_journal(tmp_path / "run.journal.jsonl")
        (tmp_path / "model.npz").write_bytes(b"junk")
        findings = verify_paths([tmp_path])
        assert kinds(findings).count("checked") == 2
        assert "unreadable_checkpoint" in kinds(findings)

    def test_repair_flag_repairs_journals(self, tmp_path):
        path = make_journal(tmp_path / "run.journal.jsonl")
        with open(path, "a", encoding="utf-8") as fh:
            fh.write('{"torn')
        without = verify_paths([path])
        assert "torn_tail" in kinds(without)  # scan only, no mutation
        with_repair = verify_paths([path], repair=True)
        assert "repaired" in kinds(with_repair)
        assert scan_journal(path) == []

    def test_unknown_file_is_skipped_info(self, tmp_path):
        other = tmp_path / "notes.txt"
        other.write_text("hello\n")
        findings = verify_paths([other])
        assert kinds(findings) == ["skipped"]
        assert findings[0].severity == "info"

    def test_journal_detected_by_content_not_just_name(self, tmp_path):
        # Operators name journals freely (the README uses run.jsonl):
        # the header line, not the filename, marks a journal.
        path = make_journal(tmp_path / "run.jsonl")
        with open(path, "a", encoding="utf-8") as fh:
            fh.write('{"torn')
        findings = verify_paths([path])
        assert "torn_tail" in kinds(findings)
        assert "skipped" not in kinds(findings)

    def test_non_journal_jsonl_still_skipped(self, tmp_path):
        # A telemetry stream is .jsonl but has no header record.
        path = tmp_path / "telemetry.jsonl"
        path.write_text('{"event": "campaign_plan", "fields": {}}\n')
        findings = verify_paths([path])
        assert kinds(findings) == ["skipped"]
