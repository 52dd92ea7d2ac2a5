"""Append-only JSONL run journal: the unit of crash-safe progress.

A journal records one line per completed unit of work — a D&C-GEN leaf
batch, a free-generation chunk, a training epoch — keyed by a stable
``task_id`` and guarded by a content digest.  An interrupted run resumes
by reopening its journal, skipping every journaled task, and re-executing
only the rest; because every task draws its randomness from
``(base_seed, task_id)``, the merged result is byte-identical to an
uninterrupted run.

File format (one JSON object per line)::

    {"kind": "header", "format": 1, "payload": {...run identity...}, "digest": "…"}
    {"kind": "leaf_batch", "task_id": 0, "payload": {...}, "digest": "…"}
    ...

Records are flushed and fsynced as they are appended.  On open, reading
stops at the first unparsable or digest-mismatched line (the torn tail a
crash mid-append can leave); everything before it is trusted, everything
after it is discarded and will be recomputed.

Sidecars
--------

A record may carry one numpy array too large to belong in a JSON line
(the ordered enumerator's frontier).  :meth:`RunJournal.record` writes it
as a binary ``.npy`` *sidecar* next to the journal, named
``<journal>.<kind>-<task_id>.npy``, and stores the file's sha256 in the
record payload under :data:`SIDECAR_KEY`.  A journal keeps one live
sidecar: each new one supersedes the last.  The write order makes every
crash point safe::

    write sidecar K (atomic)  ->  append + fsync record K  ->  delete sidecar K-1

so at most two sidecars exist, and two only between the append and the
delete.  :meth:`RunJournal.load_sidecar` returns an array only when the
file exists and matches its recorded digest; the caller decides what a
missing or damaged sidecar means.  :meth:`RunJournal.discard` deletes a
journal together with its sidecars.

The header pins the run's identity (seed, totals, a digest of the task
plan).  Resuming against a journal whose header differs raises
:class:`JournalError` — silently merging two different runs would corrupt
the output.  Worker count is deliberately *not* part of the identity: a
campaign may crash on 4 workers and resume on 1.
"""

from __future__ import annotations

import glob
import hashlib
import io
import json
import os
import re
from pathlib import Path
from typing import Any, Optional

import numpy as np

from .atomic import AppendStream, atomic_write_bytes

FORMAT_VERSION = 1

#: Payload key holding the sha256 of a record's sidecar.
SIDECAR_KEY = "sidecar"


class JournalError(RuntimeError):
    """Raised for unusable journals: bad header, or header/run mismatch."""


def _digest(obj: Any) -> str:
    payload = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode()).hexdigest()[:16]


def file_digest(path: str | Path) -> str:
    """Short sha256 digest of a file's bytes (journaled with checkpoints)."""
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()[:16]


def sidecar_path(path: str | Path, kind: str, task_id: int) -> Path:
    """Where the journal at ``path`` keeps the sidecar of one record."""
    path = Path(path)
    return path.with_name(f"{path.name}.{kind}-{int(task_id)}.npy")


def sidecar_paths(path: str | Path) -> list[Path]:
    """Every sidecar file of the journal at ``path`` that is on disk."""
    path = Path(path)
    # Exact names only: another journal's name may start with this one's.
    own = re.compile(rf"{re.escape(path.name)}\.\w+-\d+\.npy")
    return sorted(
        side for side in path.parent.glob(f"{glob.escape(path.name)}.*.npy")
        if own.fullmatch(side.name)
    )


def _count_io(nbytes: int, fsyncs: int) -> None:
    from .. import telemetry  # lazy: telemetry's logger builds on runtime.atomic

    registry = telemetry.get_registry()
    registry.counter("journal.bytes").inc(nbytes)
    registry.counter("journal.fsyncs").inc(fsyncs)


class RunJournal:
    """One run's append-only journal. Use :meth:`attach` / :meth:`open`."""

    def __init__(self, path: Path, header: dict, records: dict, recovered: int) -> None:
        self.path = path
        #: Run-identity dict written as the first line.
        self.header = header
        #: Lines dropped on open because of a torn/corrupt tail.
        self.recovered_tail = recovered
        self._records: dict[tuple[str, int], Any] = records
        #: Sidecars on disk; all but the newest go once it is durable.
        self._sidecars: set[Path] = set(sidecar_paths(path))
        # AppendStream appends each record with a single O_APPEND write(2)
        # and rolls back partial lines on ENOSPC, so a full disk can stop
        # the journal at a record boundary but never tear it.
        self._stream = AppendStream(path)

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def create(cls, path: str | Path, header: dict) -> "RunJournal":
        """Start a fresh journal at ``path``: any existing file is
        truncated and its sidecars deleted."""
        path = Path(path)
        cls._write_header(path, header)
        return cls(path, header, {}, recovered=0)

    @classmethod
    def _write_header(cls, path: Path, header: dict) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        for stale in sidecar_paths(path):
            stale.unlink(missing_ok=True)
        line = cls._encode({"kind": "header", "format": FORMAT_VERSION, "payload": header})
        data = line.encode("utf-8")
        with open(path, "wb") as fh:
            fh.write(data)
            fh.flush()
            os.fsync(fh.fileno())
        _count_io(len(data), 1)

    @classmethod
    def open(cls, path: str | Path) -> "RunJournal":
        """Reopen an existing journal, recovering a torn tail if present.

        Recovery is physical, not just logical: the torn bytes are
        truncated away before the journal is reopened for appending, so
        a new record can never concatenate onto a partial line (which
        would silently invalidate it on the *next* open).
        """
        path = Path(path)
        raw = path.read_bytes()
        lines = raw.split(b"\n")
        if lines and lines[-1] == b"":
            lines.pop()
        header: Optional[dict] = None
        records: dict[tuple[str, int], Any] = {}
        good = 0
        valid_bytes = 0
        offset = 0
        for line in lines:
            line_end = offset + len(line) + 1  # +1 for the newline
            rec = cls._decode(line.decode("utf-8", errors="replace"))
            if rec is None:
                break  # torn/corrupt tail: trust nothing from here on
            if good == 0:
                if rec.get("kind") != "header" or rec.get("format") != FORMAT_VERSION:
                    raise JournalError(f"{path} does not start with a format-{FORMAT_VERSION} header")
                header = rec["payload"]
            else:
                records[(rec["kind"], int(rec["task_id"]))] = rec["payload"]
            good += 1
            valid_bytes = min(line_end, len(raw))
            offset = line_end
        if header is None:
            raise JournalError(f"{path} has no readable header")
        if valid_bytes < len(raw):
            with open(path, "r+b") as fh:
                fh.truncate(valid_bytes)
                fh.flush()
                os.fsync(fh.fileno())
        return cls(path, header, records, recovered=len(lines) - good)

    #: Header key reserved for the pinned telemetry trace.  It names the
    #: *observation* of a run, not its identity: a resumed process has a
    #: fresh trace ref (or none, if re-run without telemetry), yet must
    #: still attach — it then *adopts* the stored trace so its spans
    #: rejoin the original tree (:func:`repro.telemetry.rejoin_trace`).
    TRACE_HEADER_KEY = "trace"

    @classmethod
    def attach(cls, path: str | Path, header: dict, resume: bool = False) -> "RunJournal":
        """Open-and-validate when resuming, otherwise start fresh.

        On resume the stored header must equal ``header`` exactly
        (excluding :data:`TRACE_HEADER_KEY`); a mismatch means the
        journal belongs to a different run.
        """
        path = Path(path)

        def identity(h: dict) -> dict:
            return {k: v for k, v in h.items() if k != cls.TRACE_HEADER_KEY}

        if resume and path.exists():
            journal = cls.open(path)
            if identity(journal.header) != identity(header):
                stored = journal.header
                journal.close()
                keys = sorted(set(identity(stored)) | set(identity(header)))
                diffs = ", ".join(
                    f"{k}: journal={stored.get(k)!r} != run={header.get(k)!r}"
                    for k in keys
                    if stored.get(k) != header.get(k)
                )
                raise JournalError(
                    f"cannot resume from {path}: journal belongs to a different run "
                    f"(mismatched header fields — {diffs})"
                )
            return journal
        return cls.create(path, header)

    # ------------------------------------------------------------------
    # Record I/O
    # ------------------------------------------------------------------
    @staticmethod
    def _encode(rec: dict) -> str:
        rec = dict(rec)
        rec["digest"] = _digest([rec.get("kind"), rec.get("task_id"), rec.get("payload")])
        return json.dumps(rec, sort_keys=True, separators=(",", ":")) + "\n"

    @staticmethod
    def _decode(line: str) -> Optional[dict]:
        try:
            rec = json.loads(line)
        except json.JSONDecodeError:
            return None
        if not isinstance(rec, dict):
            return None
        expected = _digest([rec.get("kind"), rec.get("task_id"), rec.get("payload")])
        if rec.get("digest") != expected:
            return None
        return rec

    def record(
        self, kind: str, task_id: int, payload: Any, sidecar: Optional[np.ndarray] = None
    ) -> None:
        """Append one completed task; durable once this returns.

        A full disk (real or injected via ``disk_full:journal``) raises
        :class:`~repro.runtime.atomic.DiskFullError` *before* any bytes
        land, or rolls a partial line back — either way the journal stays
        valid and the unit of work is simply not recorded, so a resumed
        run re-executes it.

        ``sidecar`` (with a dict ``payload``) is written first as this
        record's ``.npy`` file, its sha256 goes into the journaled
        payload, and once the record is durable the previous sidecar is
        deleted.
        """
        from .. import telemetry  # lazy: telemetry's logger builds on runtime.atomic
        from . import faults

        task_id = int(task_id)
        with telemetry.trace("journal.record", level="debug", kind=kind, task_id=task_id):
            faults.maybe_disk_full("journal")
            if sidecar is not None:
                buffer = io.BytesIO()
                np.save(buffer, sidecar, allow_pickle=False)
                data = buffer.getvalue()
                side = sidecar_path(self.path, kind, task_id)
                atomic_write_bytes(side, data)  # fsyncs the file and its directory
                _count_io(len(data), 2)
                payload = {**payload, SIDECAR_KEY: hashlib.sha256(data).hexdigest()}
            written = self._stream.write_line(
                self._encode({"kind": kind, "task_id": task_id, "payload": payload})
            )
            self._stream.fsync()
            _count_io(written, 1)
            if sidecar is not None:
                for old in self._sidecars - {side}:
                    old.unlink(missing_ok=True)
                self._sidecars = {side}
        telemetry.get_registry().counter("journal.records").inc()
        self._records[(kind, task_id)] = payload

    def load_sidecar(self, kind: str, task_id: int) -> Optional[np.ndarray]:
        """The array a record's sidecar holds, or ``None`` when the record
        has no sidecar, the file is gone, or its bytes fail the digest."""
        payload = self._records.get((kind, int(task_id)))
        expected = payload.get(SIDECAR_KEY) if isinstance(payload, dict) else None
        if expected is None:
            return None
        try:
            data = sidecar_path(self.path, kind, task_id).read_bytes()
        except OSError:
            return None
        if hashlib.sha256(data).hexdigest() != expected:
            return None
        try:
            return np.load(io.BytesIO(data), allow_pickle=False)
        except ValueError:
            return None

    def completed(self, kind: str) -> dict[int, Any]:
        """``task_id -> payload`` for every journaled task of ``kind``."""
        return {tid: payload for (k, tid), payload in self._records.items() if k == kind}

    # ------------------------------------------------------------------
    def close(self) -> None:
        if not self._stream.closed:
            self._stream.close()

    def reset(self) -> None:
        """Start over in place: the same header, no records, no sidecars."""
        self.close()
        self._write_header(self.path, self.header)
        self._records = {}
        self._sidecars = set()
        self._stream = AppendStream(self.path)

    def remove(self) -> None:
        """Close and delete the journal and its sidecars (call after a
        successful run)."""
        self.close()
        self.discard(self.path)

    @staticmethod
    def discard(path: str | Path) -> None:
        """Delete the journal at ``path`` and its sidecars, if present."""
        for side in sidecar_paths(path):
            side.unlink(missing_ok=True)
        Path(path).unlink(missing_ok=True)

    def __enter__(self) -> "RunJournal":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
