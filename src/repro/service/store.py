"""Crash-safe persistence of session/job lifecycle: the ``SessionStore``.

The store is the service's single source of truth, built on the same
journal mechanics as the grid :class:`~repro.exec.RunRegistry` (one
fsync'd JSONL line per acknowledged state change, torn-tail tolerance,
snapshot-then-swap compaction via :class:`~repro.exec.JsonlJournal`).
The discipline is **journal first, apply second**: a state transition
is written and fsync'd before the in-memory state (or any client
response) reflects it, so a SIGKILL at any instant loses at most a
change that was never acknowledged.  Every journaled transition doubles
as a client-visible :class:`~repro.service.model.Event`, which is what
makes recovery exact: replaying the journal rebuilds both the state
*and* the event stream clients were consuming.

Every append — including the compaction snapshot and its retained
event tail — is wrapped in a per-record CRC32 envelope
(:func:`~repro.exec.journal.frame_line`), so bit rot that still parses
as JSON is *detected* on replay instead of resurrecting quietly wrong
state; a line without an envelope is damage too, and mid-journal damage
is always quarantined and salvaged on :meth:`SessionStore.open` by
:func:`~repro.exec.scrub.scrub_journal` rather than killing the
service.

Long-lived services rotate the journal with :meth:`SessionStore.compact`:
the current state (all sessions, all jobs, a bounded tail of events per
live session) is staged as one ``snapshot`` record plus the retained
event lines and atomically swapped in.  Sequence numbers are preserved
across compaction, so client event cursors keep working.  A crash
mid-compaction leaves the old journal intact — recovery never depends
on a compaction having finished.
"""

from __future__ import annotations

import time
from collections import deque

from repro.exec.journal import JsonlJournal, frame_obj, unframe_line
from repro.exec.scrub import ScrubReport, scrub_journal
from repro.service.model import (
    SESSION_OPEN,
    Event,
    JobRecord,
    SessionRecord,
)

__all__ = ["SessionStore", "STORE_VERSION"]

STORE_VERSION = 1

#: Events kept per live session when compacting (the replayable tail a
#: late or re-attaching client can still see).
DEFAULT_KEEP_EVENTS = 64

#: Events kept in memory across all sessions (older ones are served
#: only until evicted; clients are expected to poll promptly).
DEFAULT_EVENT_BUFFER = 8192


class SessionStore:
    """Journaled, replayable session/job state at one path."""

    def __init__(self, path) -> None:
        self._journal = JsonlJournal(path)
        self.sessions: dict[str, SessionRecord] = {}
        self.jobs: dict[str, JobRecord] = {}
        self.events: deque[Event] = deque(maxlen=DEFAULT_EVENT_BUFFER)
        self.next_seq = 1
        self.recovered = False  # True when open() replayed an existing journal
        self.salvage_report: ScrubReport | None = None
        self.synthesized_sessions = 0  # sessions rebuilt from surviving jobs

    @property
    def salvaged_records(self) -> int:
        """Damaged records quarantined by the last open() (0 when clean)."""
        if self.salvage_report is None:
            return 0
        return len(self.salvage_report.quarantined)

    @property
    def path(self) -> str:
        return self._journal.path

    def size_bytes(self) -> int:
        return self._journal.size_bytes()

    # ------------------------------------------------------------------
    # Recovery
    # ------------------------------------------------------------------
    @staticmethod
    def _decode_line(line: bytes) -> dict:
        """Verify one journal line (envelope CRC + store-record shape)."""
        record = unframe_line(line)
        if "kind" not in record:
            raise ValueError("not a store record")
        return record

    def open(self) -> "SessionStore":
        """Replay the journal (if any) into memory; returns ``self``.

        A torn final line — the signature of a crash mid-append — is
        dropped with a warning and truncated.  Mid-journal damage (a
        failed envelope CRC, an undecodable or unappliable record) is
        quarantined to the ``.quarantine`` sidecar, the clean journal is
        atomically rewritten, and the replay warns and keeps going — a
        session whose own record was lost but whose jobs survived is
        re-synthesized from them so recovery stays consistent.
        """
        self.sessions.clear()
        self.jobs.clear()
        self.events.clear()
        self.next_seq = 1
        self.synthesized_sessions = 0
        self.salvage_report = scrub_journal(
            self.path, self._decode_line, apply=self._apply,
            label="session store",
        )
        if self.salvage_report.quarantined:
            self._synthesize_orphan_sessions()
        self.recovered = self.salvage_report.n_records > 0
        return self

    def _synthesize_orphan_sessions(self) -> None:
        """Rebuild sessions whose own record was quarantined.

        Jobs carry their session id and tenant, so a surviving job
        whose session record was lost to bit rot is enough to stand the
        session back up (open, attached) — recovery and quota
        accounting then proceed as if only the damaged record itself
        were missing.
        """
        for job in self.jobs.values():
            if job.session_id and job.session_id not in self.sessions:
                self.sessions[job.session_id] = SessionRecord(
                    session_id=job.session_id,
                    tenant=job.tenant,
                    state=SESSION_OPEN,
                )
                self.synthesized_sessions += 1

    # ------------------------------------------------------------------
    # Writing
    # ------------------------------------------------------------------
    def record(
        self,
        kind: str,
        session_id: str,
        data: dict | None = None,
        session: SessionRecord | None = None,
        job: JobRecord | None = None,
        ts: float | None = None,
    ) -> Event:
        """Durably journal one state transition, then apply it.

        The line is fsync'd before anything mutates: when the append
        raises (:class:`~repro.errors.JournalWriteError` under disk
        pressure), the in-memory state is untouched and the caller must
        not acknowledge the transition.  Returns the resulting event.
        """
        record: dict = {
            "v": STORE_VERSION,
            "seq": self.next_seq,
            "kind": kind,
            "sid": session_id,
            "ts": time.time() if ts is None else ts,
        }
        if data:
            record["data"] = data
        if session is not None:
            record["session"] = session.to_wire()
        if job is not None:
            record["job"] = job.to_wire()
        self._journal.append_line(frame_obj(record))
        return self._apply(record)

    def _apply(self, record: dict) -> Event:
        """Fold one journal record into the in-memory state."""
        if record["kind"] == "snapshot":
            self._apply_snapshot(record)
            return Event(
                seq=int(record["seq"]), session_id="", kind="snapshot",
                data={}, ts=float(record.get("ts", 0.0)),
            )
        seq = int(record["seq"])
        self.next_seq = max(self.next_seq, seq + 1)
        if "session" in record:
            session = SessionRecord.from_wire(record["session"])
            self.sessions[session.session_id] = session
        if "job" in record:
            job = JobRecord.from_wire(record["job"])
            self.jobs[job.job_id] = job
        event = Event(
            seq=seq,
            session_id=str(record.get("sid", "")),
            kind=str(record["kind"]),
            data=dict(record.get("data", {})),
            ts=float(record.get("ts", 0.0)),
        )
        self.events.append(event)
        return event

    def _apply_snapshot(self, record: dict) -> None:
        state = record.get("data", {})
        self.sessions = {
            s["session_id"]: SessionRecord.from_wire(s)
            for s in state.get("sessions", [])
        }
        self.jobs = {
            j["job_id"]: JobRecord.from_wire(j) for j in state.get("jobs", [])
        }
        self.next_seq = max(self.next_seq, int(record["seq"]) + 1)

    # ------------------------------------------------------------------
    # Reading
    # ------------------------------------------------------------------
    def events_after(
        self, session_id: str, after: int = 0, limit: int | None = None
    ) -> list[Event]:
        """The session's events with ``seq > after``, oldest first."""
        out = [
            e for e in self.events
            if e.session_id == session_id and e.seq > after
        ]
        return out if limit is None else out[:limit]

    def jobs_for(self, session_id: str) -> list[JobRecord]:
        return [j for j in self.jobs.values() if j.session_id == session_id]

    # ------------------------------------------------------------------
    # Compaction / rotation
    # ------------------------------------------------------------------
    def compact(self) -> None:
        """Atomically rewrite the journal as snapshot + retained events.

        Keeps every session and job record (jobs are the durable audit
        of quota spend) but drops the raw event history down to the
        last :data:`DEFAULT_KEEP_EVENTS` events of each live session.
        Crash-safe: the swap is :meth:`JsonlJournal.rewrite` — old
        journal or new, never a mix, and sequence numbers continue
        where they left off.
        """
        snapshot: dict = {
            "v": STORE_VERSION,
            "seq": self.next_seq - 1,
            "kind": "snapshot",
            "sid": "",
            "ts": time.time(),
            "data": {
                "sessions": [s.to_wire() for s in self.sessions.values()],
                "jobs": [j.to_wire() for j in self.jobs.values()],
            },
        }
        retained = self._retained_events()
        lines: list[str] = [frame_obj(snapshot)]
        for event in retained:
            rec: dict = {
                "v": STORE_VERSION,
                "seq": event.seq,
                "kind": event.kind,
                "sid": event.session_id,
                "ts": event.ts,
            }
            if event.data:
                rec["data"] = event.data
            lines.append(frame_obj(rec))
        self._journal.rewrite(lines)
        self.events = deque(retained, maxlen=self.events.maxlen)

    def _retained_events(self) -> list[Event]:
        keep: dict[str, deque[Event]] = {}
        for event in self.events:
            session = self.sessions.get(event.session_id)
            if session is None or not session.live:
                continue
            keep.setdefault(
                event.session_id, deque(maxlen=DEFAULT_KEEP_EVENTS)
            ).append(event)
        merged: list[Event] = [e for tail in keep.values() for e in tail]
        merged.sort(key=lambda e: e.seq)
        return merged

    def maybe_compact(self, max_bytes: int) -> None:
        """Compact when the journal has grown past ``max_bytes``
        (``max_bytes <= 0`` never compacts)."""
        if max_bytes > 0 and self.size_bytes() > max_bytes:
            self.compact()

    def clear(self) -> None:
        self._journal.clear()
