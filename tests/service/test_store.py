"""Tests for the journaled session store: replay, cursors, compaction."""

import json

import pytest

from repro.exec.journal import canonical_json, unframe_line, unframe_obj
from repro.service.model import (
    JOB_COMPLETED,
    JOB_QUEUED,
    SESSION_CLOSED,
    JobRecord,
    SessionRecord,
)
from repro.service.store import SessionStore


def make_session(sid="s1", tenant="alice", **kw):
    return SessionRecord(session_id=sid, tenant=tenant, **kw)


def make_job(jid="j1", sid="s1", tenant="alice", **kw):
    kw.setdefault("payload", {"kind": "probe", "seed": jid})
    return JobRecord(job_id=jid, session_id=sid, tenant=tenant, **kw)


@pytest.fixture
def store(tmp_path):
    return SessionStore(tmp_path / "sessions.jsonl").open()


class TestRoundTrip:
    def test_empty_store_opens_empty(self, store):
        assert store.sessions == {} and store.jobs == {}
        assert store.next_seq == 1 and not store.recovered

    def test_replay_rebuilds_sessions_jobs_and_events(self, store):
        store.record("session-created", "s1", session=make_session())
        store.record("job-queued", "s1", data={"job_id": "j1"}, job=make_job())
        job_done = make_job(state=JOB_COMPLETED, result={"value": 7})
        store.record("job-completed", "s1", data={"job_id": "j1"}, job=job_done)

        replayed = SessionStore(store.path).open()
        assert replayed.recovered
        assert replayed.sessions["s1"].to_wire() == make_session().to_wire()
        assert replayed.jobs["j1"].to_wire() == job_done.to_wire()
        assert [e.kind for e in replayed.events] == [
            "session-created", "job-queued", "job-completed",
        ]
        assert replayed.next_seq == store.next_seq

    def test_seq_is_strictly_increasing(self, store):
        events = [
            store.record("session-created", "s1", session=make_session()),
            store.record("job-queued", "s1", job=make_job()),
            store.record("session-closed", "s1",
                         session=make_session(state=SESSION_CLOSED)),
        ]
        seqs = [e.seq for e in events]
        assert seqs == sorted(seqs) and len(set(seqs)) == len(seqs)
        assert store.next_seq == seqs[-1] + 1

    def test_last_record_wins_per_entity(self, store):
        store.record("job-queued", "s1", job=make_job(state=JOB_QUEUED))
        store.record("job-completed", "s1",
                     job=make_job(state=JOB_COMPLETED, result={"v": 1}))
        replayed = SessionStore(store.path).open()
        assert replayed.jobs["j1"].state == JOB_COMPLETED
        assert replayed.jobs["j1"].result == {"v": 1}


class TestEventCursor:
    def test_events_after_filters_by_session_and_seq(self, store):
        store.record("session-created", "s1", session=make_session("s1"))
        store.record("session-created", "s2",
                     session=make_session("s2", tenant="bob"))
        e3 = store.record("job-queued", "s1", job=make_job())
        assert [e.seq for e in store.events_after("s1", after=0)] == [1, e3.seq]
        assert store.events_after("s1", after=e3.seq) == []
        assert [e.session_id for e in store.events_after("s2", after=0)] == ["s2"]

    def test_limit_truncates_oldest_first(self, store):
        store.record("session-created", "s1", session=make_session())
        for i in range(5):
            store.record("job-queued", "s1", job=make_job(jid=f"j{i}"))
        got = store.events_after("s1", after=0, limit=2)
        assert [e.seq for e in got] == [1, 2]


class TestCorruption:
    def test_torn_final_line_dropped_with_warning(self, store):
        store.record("session-created", "s1", session=make_session())
        store.record("job-queued", "s1", job=make_job())
        with open(store.path, "ab") as fh:
            fh.write(b'{"v":1,"seq":3,"kind":"job-com')
        with pytest.warns(RuntimeWarning, match="torn final"):
            replayed = SessionStore(store.path).open()
        assert set(replayed.jobs) == {"j1"}
        # The tail was truncated: a fresh append cannot glue onto it.
        replayed.record("job-completed", "s1",
                        job=make_job(state=JOB_COMPLETED))
        clean = SessionStore(store.path).open()
        assert clean.jobs["j1"].state == JOB_COMPLETED

    def _damage_mid_file(self, store):
        """Append garbage mid-journal; return its byte offset."""
        store.record("session-created", "s1", session=make_session())
        offset = len(open(store.path, "rb").read())
        with open(store.path, "ab") as fh:
            fh.write(b"not json\n")
        store.record("job-queued", "s1", job=make_job())
        return offset

    def test_mid_file_garbage_is_salvaged_by_default(self, store):
        offset = self._damage_mid_file(store)
        with pytest.warns(RuntimeWarning, match="quarantined 1 damaged"):
            replayed = SessionStore(store.path).open()
        # Every intact transition survived the scrub.
        assert set(replayed.sessions) == {"s1"}
        assert set(replayed.jobs) == {"j1"}
        assert replayed.salvaged_records == 1
        assert replayed.salvage_report.quarantined[0].offset == offset
        # The sidecar records provenance; the clean journal reloads
        # silently (the damage is gone, not hidden).
        sidecar = open(f"{store.path}.quarantine", "rb").readline()
        assert unframe_line(sidecar)["offset"] == offset
        clean = SessionStore(store.path).open()
        assert clean.salvaged_records == 0

    def test_unframed_line_is_damage(self, store):
        # A record without its CRC32 envelope is quarantined mid-file
        # and dropped as a torn tail, like any other damaged line.
        store.record("session-created", "s1", session=make_session())
        store.record("job-queued", "s1", job=make_job("j1"))
        store.record("job-queued", "s1", job=make_job("j2"))
        lines = open(store.path, "rb").read().splitlines(keepends=True)
        bare = [canonical_json(unframe_obj(json.loads(line))).encode()
                for line in lines]
        lines[1] = bare[1] + b"\n"
        lines[2] = bare[2]  # unterminated: a torn tail
        open(store.path, "wb").write(b"".join(lines))
        with pytest.warns(RuntimeWarning) as caught:
            replayed = SessionStore(store.path).open()
        assert any("torn final" in str(w.message) for w in caught)
        assert set(replayed.sessions) == {"s1"} and replayed.jobs == {}
        (damaged,) = replayed.salvage_report.quarantined
        assert damaged.raw == bare[1] and "envelope" in damaged.reason
        assert open(store.path, "rb").read() == lines[0]

    def test_open_is_idempotent(self, store):
        store.record("session-created", "s1", session=make_session())
        store.open()
        store.open()
        assert set(store.sessions) == {"s1"}
        assert store.next_seq == 2


class TestCompaction:
    def _grow(self, store, n_jobs=20):
        store.record("session-created", "s1", session=make_session())
        for i in range(n_jobs):
            job = make_job(jid=f"j{i}")
            store.record("job-queued", "s1", job=job)
            store.record(
                "job-completed", "s1", data={"job_id": job.job_id},
                job=make_job(jid=f"j{i}", state=JOB_COMPLETED,
                             result={"i": i}),
            )

    def test_compact_shrinks_and_preserves_state(self, store):
        self._grow(store)
        before = store.size_bytes()
        seq_before = store.next_seq
        wire_before = {j: r.to_wire() for j, r in store.jobs.items()}
        store.compact()
        assert store.size_bytes() < before
        replayed = SessionStore(store.path).open()
        assert {j: r.to_wire() for j, r in replayed.jobs.items()} == wire_before
        assert replayed.sessions["s1"].to_wire() == store.sessions["s1"].to_wire()
        assert replayed.next_seq == seq_before

    def test_cursor_survives_compaction(self, store):
        self._grow(store, n_jobs=5)
        cursor = store.events_after("s1", after=0)[-3].seq
        store.compact()
        replayed = SessionStore(store.path).open()
        after = replayed.events_after("s1", after=cursor)
        assert after and all(e.seq > cursor for e in after)
        # New records continue the sequence, never reuse a number.
        event = replayed.record("session-closed", "s1",
                                session=make_session(state=SESSION_CLOSED))
        assert event.seq > cursor

    def test_compaction_drops_dead_session_events_keeps_live_tail(self, tmp_path):
        store = SessionStore(tmp_path / "s.jsonl",
                             keep_events_per_session=2).open()
        store.record("session-created", "dead",
                     session=make_session("dead", state=SESSION_CLOSED))
        store.record("session-created", "live", session=make_session("live"))
        for i in range(6):
            store.record("job-queued", "live",
                         job=make_job(jid=f"j{i}", sid="live"))
        store.compact()
        replayed = SessionStore(store.path,
                                keep_events_per_session=2).open()
        assert replayed.events_after("dead", after=0) == []
        live = replayed.events_after("live", after=0)
        assert len(live) == 2  # bounded tail, newest retained
        assert [e.kind for e in live] == ["job-queued", "job-queued"]
        # State (unlike events) is never dropped.
        assert set(replayed.sessions) == {"dead", "live"}
        assert len(replayed.jobs) == 6

    def test_crash_mid_compaction_leaves_old_journal_intact(self, store):
        self._grow(store, n_jobs=3)
        wire = {j: r.to_wire() for j, r in store.jobs.items()}
        # A crash between staging and the atomic swap leaves a stale
        # temporary next to the untouched journal.
        with open(store._journal.rewrite_path, "wb") as fh:
            fh.write(b'{"v":1,"seq":1,"kind":"snapshot","partial')
        replayed = SessionStore(store.path).open()
        assert {j: r.to_wire() for j, r in replayed.jobs.items()} == wire
        # The next append discards the stale temporary.
        replayed.record("session-closed", "s1",
                        session=make_session(state=SESSION_CLOSED))
        import os
        assert not os.path.exists(store._journal.rewrite_path)

    def test_maybe_compact_thresholds(self, store):
        self._grow(store, n_jobs=10)
        assert not store.maybe_compact(max_bytes=10 ** 9)
        assert store.maybe_compact(max_bytes=64)
        assert not store.maybe_compact(max_bytes=0)  # disabled

    def test_journal_lines_are_canonical_json(self, store):
        store.record("session-created", "s1", session=make_session())
        for raw in open(store.path, "rb").read().splitlines():
            envelope = json.loads(raw)
            # Every line is a CRC32-framed envelope around the event.
            assert envelope["v"] == 1 and "crc" in envelope
            record = unframe_obj(envelope)
            assert "seq" in record and "kind" in record
