"""The journaled run registry: crash-safe memory of completed cells.

A :class:`RunRegistry` is an append-only JSONL journal.  Every record
is one line of strict JSON, written with a single ``write`` call,
flushed, and ``fsync``'d before the append returns — after a crash the
journal contains every acknowledged record plus at most one torn final
line.  Loading tolerates exactly that: a final line that does not parse
(or whose payload fails its checksum) is dropped with a warning and
truncated from the file — it is the signature of a process killed
mid-append, and truncating keeps later appends from gluing a fresh
record onto the torn partial line.  Damage anywhere *else* is not a
crash artifact, and is salvaged on load by
:func:`~repro.exec.scrub.scrub_journal`: the damaged records are
preserved in a ``.quarantine`` sidecar with byte offsets, the clean
journal is atomically rewritten, and the load continues — resuming
re-executes exactly the cells whose records were lost.

Records are keyed by the deterministic cell fingerprint
(:mod:`repro.exec.fingerprint`); completed cells carry their result as
a base64 pickle with a SHA-256 checksum, so resuming a grid
re-materializes bit-identical objects without re-running anything.
Every record is wrapped in a per-record CRC32 envelope
(:func:`~repro.exec.journal.frame_line`), so a flipped bit anywhere in
a record — even one that still parses — is *detected* instead of being
replayed as quietly wrong data, and a line without an envelope is
damage like any other.

Long-lived journals (the service layer appends for the lifetime of a
process, not one grid) are kept bounded by **compaction**:
:meth:`RunRegistry.compact` rewrites the journal down to the latest
record per fingerprint via the atomic snapshot-then-swap primitive of
:class:`~repro.exec.journal.JsonlJournal`, and
:meth:`RunRegistry.maybe_compact` rotates automatically past a size
threshold.  A crash mid-compaction leaves the old journal intact (the
snapshot is staged in a temporary sibling and ``os.replace``'d), so
recovery never depends on a compaction having finished.
"""

from __future__ import annotations

import base64
import hashlib
import os
import pickle
import time
from dataclasses import dataclass, field
from typing import Any

from repro.errors import RegistryCorruptionError
from repro.exec.journal import JsonlJournal, frame_obj, unframe_line
from repro.exec.scrub import ScrubReport, scrub_journal

__all__ = [
    "RECORD_VERSION",
    "RunRecord",
    "RunRegistry",
    "resume_enabled",
]

RECORD_VERSION = 1

#: Record statuses a journal line may carry.
STATUS_COMPLETED = "completed"
STATUS_FAILED = "failed"


def resume_enabled(default: bool = True) -> bool:
    """Whether grids should skip journaled cells (``REPRO_RESUME``).

    ``REPRO_RESUME=0`` (or ``false``/``no``/``off``) is the escape
    hatch: every cell re-runs and the journal is re-written entry by
    entry as cells complete.
    """
    env = os.environ.get("REPRO_RESUME")
    if env is None or env == "":
        return default
    return env.strip().lower() not in ("0", "false", "no", "off")


@dataclass(frozen=True)
class RunRecord:
    """One journaled cell outcome."""

    fingerprint: str
    experiment: str
    status: str  # STATUS_COMPLETED | STATUS_FAILED
    key: Any = None
    payload: bytes | None = None  # raw pickle of the result (completed only)
    error: str | None = None  # exception class name (failed only)
    message: str | None = None
    attempts: int = 1
    timestamp: float = 0.0
    version: int = RECORD_VERSION
    meta: dict = field(default_factory=dict)

    @property
    def completed(self) -> bool:
        return self.status == STATUS_COMPLETED

    def result(self) -> Any:
        """Re-materialize the journaled result object."""
        if self.payload is None:
            raise RegistryCorruptionError(
                f"record {self.fingerprint} has status {self.status!r} "
                "and carries no result payload"
            )
        return pickle.loads(self.payload)


def _record_to_wire(record: RunRecord) -> dict:
    data: dict[str, Any] = {
        "v": record.version,
        "fp": record.fingerprint,
        "experiment": record.experiment,
        "status": record.status,
        "attempts": record.attempts,
        "ts": record.timestamp,
    }
    if record.key is not None:
        data["key"] = record.key
    if record.payload is not None:
        data["payload"] = base64.b64encode(record.payload).decode("ascii")
        data["sha"] = hashlib.sha256(record.payload).hexdigest()
    if record.error is not None:
        data["error"] = record.error
    if record.message is not None:
        data["message"] = record.message
    if record.meta:
        data["meta"] = record.meta
    return data


def _record_from_dict(data: dict) -> RunRecord:
    payload = None
    if "payload" in data:
        payload = base64.b64decode(data["payload"])
        sha = hashlib.sha256(payload).hexdigest()
        if sha != data.get("sha"):
            raise ValueError("payload checksum mismatch")
    version = int(data.get("v", -1))
    if version != RECORD_VERSION:
        raise ValueError(f"record version {version} not supported")
    return RunRecord(
        fingerprint=str(data["fp"]),
        experiment=str(data.get("experiment", "")),
        status=str(data["status"]),
        key=data.get("key"),
        payload=payload,
        error=data.get("error"),
        message=data.get("message"),
        attempts=int(data.get("attempts", 1)),
        timestamp=float(data.get("ts", 0.0)),
        version=version,
        meta=data.get("meta", {}),
    )


@dataclass
class RegistryState:
    """The journal as loaded: last record per fingerprint wins."""

    completed: dict[str, RunRecord] = field(default_factory=dict)
    failed: dict[str, RunRecord] = field(default_factory=dict)
    n_records: int = 0
    #: what the load's scrub pass found (``None`` before any load).
    salvage: ScrubReport | None = None

    @property
    def dropped_partial(self) -> bool:
        """Whether the load dropped a torn final record."""
        return self.salvage is not None and self.salvage.dropped_partial

    @property
    def salvaged_records(self) -> int:
        """Damaged records quarantined by this load (0 when clean)."""
        return 0 if self.salvage is None else len(self.salvage.quarantined)

    def add(self, record: RunRecord) -> None:
        """Fold one replayed record in: the last record per fingerprint
        wins, except that a later failure does not un-complete a cell."""
        self.n_records += 1
        if record.completed:
            self.completed[record.fingerprint] = record
            self.failed.pop(record.fingerprint, None)
        elif record.fingerprint not in self.completed:
            self.failed[record.fingerprint] = record

    def record_for(self, fingerprint: str) -> RunRecord | None:
        return self.completed.get(fingerprint) or self.failed.get(fingerprint)


class RunRegistry:
    """Append-only JSONL journal of grid-cell outcomes at one path."""

    def __init__(self, path) -> None:
        self.path = os.fspath(path)
        self._journal = JsonlJournal(self.path)

    def exists(self) -> bool:
        return self._journal.exists()

    def size_bytes(self) -> int:
        """Current journal size in bytes (0 when absent)."""
        return self._journal.size_bytes()

    # ------------------------------------------------------------------
    # Writing
    # ------------------------------------------------------------------
    def append(self, record: RunRecord) -> None:
        """Durably append one record (single write + flush + fsync).

        Raises :class:`~repro.errors.JournalWriteError` when the
        filesystem refuses the write; the record is then **not**
        acknowledged and no torn state is left behind that a later
        append or load cannot repair.  The record is wrapped in a
        CRC32 envelope so bit rot at rest is detected on load.
        """
        self._journal.append_line(frame_obj(_record_to_wire(record)))

    def mark_completed(
        self,
        fingerprint: str,
        experiment: str,
        result: Any,
        key: Any = None,
        attempts: int = 1,
        meta: dict | None = None,
    ) -> RunRecord:
        record = RunRecord(
            fingerprint=fingerprint,
            experiment=experiment,
            status=STATUS_COMPLETED,
            key=key,
            payload=pickle.dumps(result, protocol=4),
            attempts=attempts,
            timestamp=time.time(),
            meta=meta or {},
        )
        self.append(record)
        return record

    def mark_failed(
        self,
        fingerprint: str,
        experiment: str,
        error: str,
        message: str,
        key: Any = None,
        attempts: int = 1,
        meta: dict | None = None,
    ) -> RunRecord:
        record = RunRecord(
            fingerprint=fingerprint,
            experiment=experiment,
            status=STATUS_FAILED,
            key=key,
            error=error,
            message=message,
            attempts=attempts,
            timestamp=time.time(),
            meta=meta or {},
        )
        self.append(record)
        return record

    # ------------------------------------------------------------------
    # Reading
    # ------------------------------------------------------------------
    @staticmethod
    def _decode_line(line: bytes) -> RunRecord:
        """Verify one journal line (envelope CRC + schema + payload SHA)."""
        return _record_from_dict(unframe_line(line))

    def load(self) -> RegistryState:
        """Replay the journal into its latest per-fingerprint state.

        A torn final line is dropped (with a warning).  Mid-journal
        damage — a failed envelope CRC, a payload SHA mismatch, an
        undecodable record — is quarantined to the ``.quarantine``
        sidecar, the clean journal is atomically rewritten, and the
        load warns and keeps going, so resuming re-executes only the
        lost cells (the count is on ``state.salvaged_records``).
        """
        state = RegistryState()
        state.salvage = scrub_journal(self.path, self._decode_line,
                                      apply=state.add, label="run registry")
        return state

    def clear(self) -> None:
        """Delete the journal (a fresh grid starts from nothing)."""
        self._journal.clear()

    # ------------------------------------------------------------------
    # Compaction / rotation
    # ------------------------------------------------------------------
    def compact(self) -> None:
        """Rewrite the journal down to the latest record per fingerprint.

        Long-lived journals accumulate superseded records (failures
        later completed, re-run cells, service job churn); compaction
        replays the journal and atomically replaces it with one record
        per fingerprint — completed records first, then still-standing
        failures, both in stable fingerprint order.  The swap goes
        through :meth:`JsonlJournal.rewrite` (snapshot into a temporary,
        fsync, ``os.replace``), so a crash at any point leaves either
        the full old journal or the full compacted one; a stale
        temporary from an interrupted compaction is discarded on the
        next append or compaction and never read.
        """
        state = self.load()
        records = [
            state.completed[fp] for fp in sorted(state.completed)
        ] + [
            state.failed[fp] for fp in sorted(state.failed)
        ]
        self._journal.rewrite(frame_obj(_record_to_wire(r)) for r in records)

    def maybe_compact(self, max_bytes: int) -> None:
        """Compact when the journal exceeds ``max_bytes`` (rotation;
        ``max_bytes <= 0`` never compacts).

        The size check is one ``stat`` call, so callers can invoke this
        after every append.
        """
        if max_bytes > 0 and self.size_bytes() > max_bytes:
            self.compact()
