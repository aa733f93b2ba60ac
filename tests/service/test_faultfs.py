"""Fault injection: the service under disk-full and permission-denied.

Write failures are injected into the session-store journal via
:class:`~tests.conftest.FailingFS`; the contract under test is the
degraded-mode one: structured ``overloaded`` rejections (never silent
drops or torn state), in-memory state untouched by unacknowledged
transitions, and full recovery once writes succeed again.
"""

import errno
import time

import pytest

from tests.conftest import FailingFS
from repro.service import ServiceOverloadedError, TuningService
from repro.service.model import JOB_COMPLETED, JOB_QUEUED
from repro.service.store import SessionStore


@pytest.fixture
def service(tmp_path):
    svc = TuningService(tmp_path / "svc", n_workers=1,
                        degraded_cooldown=0.05).open()
    yield svc
    svc.stop()


class TestDiskFull:
    def test_submit_during_disk_full_rejected_structured(self, service,
                                                         monkeypatch):
        session = service.create_session("alice")
        fs = FailingFS(monkeypatch, service.store.path, err=errno.ENOSPC)
        fs.arm()
        with pytest.raises(ServiceOverloadedError) as excinfo:
            service.submit(session.session_id, {"kind": "probe", "seed": 1})
        payload = excinfo.value.to_payload()
        assert payload["reason"] == "overloaded"
        assert payload["retry_after"] > 0
        # The transition was never acknowledged: no job exists, in
        # memory or on disk.
        assert service.store.jobs == {}
        assert SessionStore(service.store.path).open().jobs == {}

    def test_degraded_window_then_full_recovery(self, service, monkeypatch):
        session = service.create_session("alice")
        fs = FailingFS(monkeypatch, service.store.path, err=errno.ENOSPC)
        fs.arm()
        with pytest.raises(ServiceOverloadedError):
            service.submit(session.session_id, {"kind": "probe", "seed": 1})
        assert service.health()["ok"] is False
        # While degraded, even valid requests shed immediately (no
        # doomed journal writes are attempted).
        with pytest.raises(ServiceOverloadedError):
            service.create_session("bob")
        # Space returns; after the cooldown the same request succeeds.
        fs.disarm()
        time.sleep(0.06)
        job = service.submit(session.session_id,
                             {"kind": "probe", "seed": 1, "work": 8})
        assert job.state == JOB_QUEUED
        assert service.health()["ok"] is True
        service.pump()
        assert service.job(job.job_id).state == JOB_COMPLETED
        # The journal replays cleanly: no torn or phantom records.
        replayed = SessionStore(service.store.path).open()
        assert replayed.jobs[job.job_id].state == JOB_COMPLETED

    def test_torn_write_never_acknowledged_and_repaired(self, service,
                                                        monkeypatch):
        session = service.create_session("alice")
        fs = FailingFS(monkeypatch, service.store.path, err=errno.ENOSPC,
                       partial=True)
        fs.arm()
        with pytest.raises(ServiceOverloadedError):
            service.submit(session.session_id, {"kind": "probe", "seed": 1})
        fs.disarm()
        # The half-written line is a torn tail: dropped on replay with
        # a warning, exactly like a crash mid-append.
        with pytest.warns(RuntimeWarning, match="torn final"):
            replayed = SessionStore(service.store.path).open()
        assert replayed.jobs == {}
        assert set(replayed.sessions) == {session.session_id}
        # And a later append (post-repair) cannot glue onto it.
        time.sleep(0.06)
        job = service.submit(session.session_id,
                             {"kind": "probe", "seed": 2, "work": 8})
        clean = SessionStore(service.store.path).open()
        assert set(clean.jobs) == {job.job_id}


class TestPermissionDenied:
    def test_eacces_is_the_same_contract(self, service, monkeypatch):
        session = service.create_session("alice")
        fs = FailingFS(monkeypatch, service.store.path, err=errno.EACCES)
        fs.arm()
        with pytest.raises(ServiceOverloadedError):
            service.submit(session.session_id, {"kind": "probe", "seed": 1})
        assert fs.failures > 0
        fs.disarm()
        time.sleep(0.06)
        job = service.submit(session.session_id,
                             {"kind": "probe", "seed": 1, "work": 8})
        service.pump()
        assert service.job(job.job_id).state == JOB_COMPLETED


class TestDispatchUnderFailure:
    def test_journal_failure_at_completion_requeues_not_corrupts(
            self, service, monkeypatch):
        session = service.create_session("alice")
        job = service.submit(session.session_id,
                             {"kind": "probe", "seed": 3, "work": 8})
        fs = FailingFS(monkeypatch, service.store.path, err=errno.ENOSPC)

        # Fail the store journal only once the batch tries to record
        # job-running; the pump must back off without corrupting state.
        fs.arm()
        assert service.pump() == 0
        assert service.health()["ok"] is False
        current = service.job(job.job_id)
        assert current.state == JOB_QUEUED  # never falsely "running"
        fs.disarm()
        time.sleep(0.06)
        assert service.pump() == 1
        assert service.job(job.job_id).state == JOB_COMPLETED
        replayed = SessionStore(service.store.path).open()
        assert replayed.jobs[job.job_id].state == JOB_COMPLETED
