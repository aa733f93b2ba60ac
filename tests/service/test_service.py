"""Tests for the TuningService core: lifecycle, dispatch, backpressure."""

from collections import deque

import numpy as np
import pytest

from repro.exec.executor import SupervisedExecutor
from repro.service import (
    QueueFullError,
    QuotaExceededError,
    ServiceHandler,
    SessionClosedError,
    SessionNotFoundError,
    TenantQuota,
    TuningService,
)
from repro.service.model import (
    JOB_CANCELLED,
    JOB_COMPLETED,
    JOB_EXPIRED,
    JOB_FAILED,
    JOB_QUEUED,
    JOB_SHED,
    SESSION_CANCELLED,
)


@pytest.fixture
def service(tmp_path):
    # n_workers=1 is the in-process serial executor.
    svc = TuningService(tmp_path / "svc", n_workers=1, batch_size=4).open()
    yield svc
    svc.stop()


def probe(seed, **kw):
    return {"kind": "probe", "seed": seed, "work": 8, **kw}


class TestSessionLifecycle:
    def test_create_submit_pump_complete(self, service):
        session = service.create_session("alice", meta={"note": "hi"})
        job = service.submit(session.session_id, probe(1))
        assert job.state == JOB_QUEUED and job.fingerprint
        assert service.pump() == 1
        done = service.job(job.job_id)
        assert done.state == JOB_COMPLETED
        assert done.result["kind"] == "probe"
        kinds = [e.kind for e in service.events(session.session_id)]
        assert kinds == ["session-created", "job-queued", "job-running",
                         "job-completed"]

    def test_attach_detach_round_trip(self, service):
        session = service.create_session("alice")
        service.detach(session.session_id)
        assert not service.store.sessions[session.session_id].attached
        view = service.attach(session.session_id)
        assert view["session"]["attached"] is True
        assert view["cursor"] >= 1
        assert view["jobs"] == []

    def test_tenant_scoping_hides_foreign_sessions(self, service):
        session = service.create_session("alice")
        with pytest.raises(SessionNotFoundError):
            service.attach(session.session_id, tenant="bob")

    def test_cancel_session_cancels_queued_jobs(self, service):
        session = service.create_session("alice")
        j1 = service.submit(session.session_id, probe(1))
        j2 = service.submit(session.session_id, probe(2))
        assert service.cancel_session(session.session_id) == 2
        assert service.job(j1.job_id).state == JOB_CANCELLED
        assert service.job(j2.job_id).state == JOB_CANCELLED
        state = service.store.sessions[session.session_id].state
        assert state == SESSION_CANCELLED
        assert service.pump() == 0  # nothing left to run

    def test_submit_to_closed_session_rejected(self, service):
        session = service.create_session("alice")
        service.close_session(session.session_id)
        with pytest.raises(SessionClosedError):
            service.submit(session.session_id, probe(1))

    def test_closed_session_frees_quota_slot(self, tmp_path):
        svc = TuningService(
            tmp_path / "svc", n_workers=1,
            default_quota=TenantQuota(max_live_sessions=1),
        ).open()
        first = svc.create_session("alice")
        with pytest.raises(QuotaExceededError):
            svc.create_session("alice")
        svc.close_session(first.session_id)
        svc.create_session("alice")  # no raise


class TestDispatch:
    def test_priority_order_tenant_then_job(self, tmp_path):
        svc = TuningService(
            tmp_path / "svc", n_workers=1, batch_size=1,
            quotas={"vip": TenantQuota(priority=10)},
        ).open()
        low = svc.create_session("norm")
        high = svc.create_session("vip")
        j_low = svc.submit(low.session_id, probe("low"), priority=99)
        j_high = svc.submit(high.session_id, probe("high"), priority=0)
        svc.pump(max_batches=1)
        assert svc.job(j_high.job_id).state == JOB_COMPLETED
        assert svc.job(j_low.job_id).state == JOB_QUEUED
        svc.pump(max_batches=1)
        assert svc.job(j_low.job_id).state == JOB_COMPLETED

    def test_expired_deadline_never_runs(self, service):
        session = service.create_session("alice")
        job = service.submit(session.session_id, probe(1),
                             deadline_seconds=-0.1)
        service.pump()
        done = service.job(job.job_id)
        assert done.state == JOB_EXPIRED
        assert done.error["kind"] == "expired"
        assert done.result is None

    def test_failing_job_surfaces_structured_error(self, service):
        session = service.create_session("alice")
        job = service.submit(session.session_id, probe(1, fail=True))
        service.pump()
        done = service.job(job.job_id)
        assert done.state == JOB_FAILED
        assert done.error["error"] == "ReproError"
        assert "fail" in done.error["message"]

    def test_unknown_job_kind_fails_cleanly(self, service):
        session = service.create_session("alice")
        job = service.submit(session.session_id, {"kind": "nope"})
        service.pump()
        assert service.job(job.job_id).state == JOB_FAILED

    def test_cancel_job_before_dispatch(self, service):
        session = service.create_session("alice")
        job = service.submit(session.session_id, probe(1))
        assert service.cancel_job(job.job_id).state == JOB_CANCELLED
        assert service.pump() == 0

    def test_deterministic_results_across_instances(self, tmp_path):
        results = []
        for instance in range(2):
            svc = TuningService(tmp_path / f"svc{instance}", n_workers=1).open()
            session = svc.create_session("alice")
            job = svc.submit(session.session_id, probe(42))
            svc.pump()
            results.append(svc.job(job.job_id).result)
        assert results[0] == results[1]


class TestExecutorSettings:
    def test_executor_and_n_workers_are_exclusive(self, tmp_path):
        executor = SupervisedExecutor(n_workers=2)
        with pytest.raises(ValueError, match="either executor or n_workers"):
            TuningService(tmp_path / "svc", n_workers=2, executor=executor)
        assert not (tmp_path / "svc").exists()  # refused before any I/O
        assert TuningService(tmp_path / "svc", executor=executor).executor \
            is executor


class TestBackpressure:
    def test_queue_full_rejects_with_retry_after(self, tmp_path):
        svc = TuningService(
            tmp_path / "svc", n_workers=1, max_total_queued=2,
            default_quota=TenantQuota(max_queued_jobs=100),
        ).open()
        session = svc.create_session("alice")
        svc.submit(session.session_id, probe(1))
        svc.submit(session.session_id, probe(2))
        with pytest.raises(QueueFullError) as excinfo:
            svc.submit(session.session_id, probe(3))
        assert excinfo.value.retry_after > 0

    def test_higher_priority_sheds_lowest_with_journaled_verdict(self, tmp_path):
        svc = TuningService(
            tmp_path / "svc", n_workers=1, max_total_queued=1,
            quotas={"vip": TenantQuota(priority=5)},
        ).open()
        low = svc.create_session("norm")
        high = svc.create_session("vip")
        victim = svc.submit(low.session_id, probe("victim"))
        winner = svc.submit(high.session_id, probe("winner"))
        shed = svc.job(victim.job_id)
        assert shed.state == JOB_SHED
        assert shed.error["kind"] == "shed"
        # The eviction is a journaled, client-visible event — never silent.
        kinds = [e.kind for e in svc.events(low.session_id)]
        assert "job-shed" in kinds
        svc.pump()
        assert svc.job(winner.job_id).state == JOB_COMPLETED
        # A shed job's cost is refunded (not charged to the victim).
        spent = svc.admission.evals_spent(svc.store, "norm")
        assert spent == 0


class TestEventStream:
    def test_stream_yields_terminal_state(self, service):
        session = service.create_session("alice")
        service.submit(session.session_id, probe(1))
        kinds = [e.kind for e in service.stream(session.session_id, timeout=5.0)]
        assert kinds[0] == "session-created"
        assert kinds[-1] == "job-completed"

    def test_stream_resumes_from_cursor(self, service):
        session = service.create_session("alice")
        events = list(service.stream(session.session_id, timeout=5.0))
        cursor = events[0].seq
        rest = list(service.stream(session.session_id, after=cursor,
                                   timeout=5.0))
        assert [e.seq for e in rest] == [e.seq for e in events[1:]]


class TestBackgroundPump:
    def test_start_stop_completes_jobs(self, tmp_path):
        svc = TuningService(tmp_path / "svc", n_workers=1,
                            poll_interval=0.01).open()
        try:
            svc.start()
            session = svc.create_session("alice")
            jobs = [svc.submit(session.session_id, probe(i)) for i in range(3)]
            deadline = __import__("time").monotonic() + 10.0
            while __import__("time").monotonic() < deadline:
                if all(svc.job(j.job_id).terminal for j in jobs):
                    break
                __import__("time").sleep(0.02)
            assert all(svc.job(j.job_id).state == JOB_COMPLETED for j in jobs)
        finally:
            svc.stop()

    def test_start_is_idempotent(self, tmp_path):
        svc = TuningService(tmp_path / "svc", n_workers=1).open()
        try:
            assert svc.start() is svc.start()
        finally:
            svc.stop()


class TestStats:
    def test_stats_shape_and_counts(self, service):
        session = service.create_session("alice")
        service.submit(session.session_id, probe(1))
        service.pump()
        stats = service.stats()
        assert stats["ok"] is True
        assert stats["sessions"] == {"total": 1, "live": 1}
        assert stats["jobs"] == {"completed": 1}
        assert stats["tenants"]["alice"]["evals_spent"] == 1
        assert stats["queued_total"] == 0
        assert stats["store_bytes"] > 0
        assert "tasks_completed" in stats["executor"]
        assert service.health()["ok"] is True

    def test_store_journal_rotates_under_churn(self, tmp_path):
        svc = TuningService(tmp_path / "svc", n_workers=1,
                            store_max_bytes=2048).open()
        session = svc.create_session("alice")
        for i in range(24):
            svc.submit(session.session_id, probe(i))
            svc.pump()
        # Compaction kept the journal near the cap, and state is whole.
        assert svc.store.size_bytes() < 10 * 2048
        replayed = TuningService(tmp_path / "svc", n_workers=1).open()
        done = [j for j in replayed.store.jobs.values()
                if j.state == JOB_COMPLETED]
        assert len(done) == 24


class TestLoadContract:
    """A bounded mixed load from eight tenants under quota pressure.

    Every request is answered: accepted jobs reach a journaled terminal
    state and rejections carry a structured reason and ``retry_after``.
    Memory and disk stay bounded: the event buffer keeps its cap and the
    store journal is rotated by compaction.
    """

    N_TENANTS = 8
    N_REQUESTS = 400
    STORE_MAX_BYTES = 32 * 1024
    EVENT_BUFFER = 64

    def test_mixed_load_keeps_the_contract(self, tmp_path):
        svc = TuningService(
            tmp_path / "svc",
            n_workers=1,
            batch_size=16,
            max_total_queued=24,
            default_quota=TenantQuota(max_live_sessions=2, max_queued_jobs=4),
            store_max_bytes=self.STORE_MAX_BYTES,
        ).open()
        # A small event buffer, so this load overflows it.
        svc.store.events = deque(maxlen=self.EVENT_BUFFER)
        handler = ServiceHandler(svc)
        tenants = [f"tenant-{i}" for i in range(self.N_TENANTS)]
        sessions = {
            t: handler.handle({"op": "create_session", "tenant": t})
            ["session"]["session_id"]
            for t in tenants
        }
        cursors = dict.fromkeys(tenants, 0)
        submitted, rejections, other_errors = [], [], []
        max_store_bytes = 0
        ops = np.random.default_rng(0).choice(
            ["submit", "events", "job", "stats"], size=self.N_REQUESTS,
            p=[0.5, 0.3, 0.15, 0.05],
        )
        for i, op in enumerate(ops):
            tenant = tenants[i % self.N_TENANTS]
            sid = sessions[tenant]
            if op == "submit":
                request = {"op": "submit", "session": sid, "tenant": tenant,
                           "payload": probe(i)}
            elif op == "events":
                request = {"op": "events", "session": sid,
                           "after": cursors[tenant]}
            elif op == "job" and submitted:
                request = {"op": "job", "job": submitted[-1]}
            else:
                request = {"op": "stats"}
            response = handler.handle(request)
            if request["op"] == "submit":
                if response["ok"]:
                    submitted.append(response["job"]["job_id"])
                else:
                    rejections.append(response["error"])
            elif not response["ok"]:
                other_errors.append(response["error"])
            elif request["op"] == "events" and response["events"]:
                cursors[tenant] = response["events"][-1]["seq"]
            if i % 40 == 39:  # interleave dispatch, as a pump thread would
                svc.pump(max_batches=1)
                max_store_bytes = max(max_store_bytes, svc.store.size_bytes())
        while svc.pump():
            max_store_bytes = max(max_store_bytes, svc.store.size_bytes())

        assert not other_errors
        assert rejections, "expected quota/queue rejections under this load"
        for error in rejections:
            assert error["reason"] in ("quota-exceeded", "queue-full",
                                       "overloaded")
            assert error["retry_after"] > 0
        assert all(svc.job(job_id).terminal for job_id in submitted)
        assert any(svc.job(job_id).state == JOB_COMPLETED
                   for job_id in submitted)
        assert svc.store.events.maxlen == self.EVENT_BUFFER
        assert len(svc.store.events) <= svc.store.events.maxlen
        assert svc.store.next_seq > self.EVENT_BUFFER  # the buffer overflowed
        # Uncompacted, this load writes about 250 KiB of journal.
        assert max_store_bytes < 4 * self.STORE_MAX_BYTES
        assert svc.stats()["ok"] is True
        svc.stop()
