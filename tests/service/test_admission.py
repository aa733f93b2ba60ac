"""Tests for admission control: quotas, budgets, shedding, backpressure."""

import pytest

from repro.service.errors import QueueFullError, QuotaExceededError
from repro.service.model import (
    JOB_CANCELLED,
    JOB_COMPLETED,
    JOB_QUEUED,
    JOB_SHED,
    SESSION_CLOSED,
    JobRecord,
    SessionRecord,
    TenantQuota,
)
from repro.service.quota import BASE_RETRY_AFTER, AdmissionController
from repro.service.store import SessionStore


@pytest.fixture
def store(tmp_path):
    return SessionStore(tmp_path / "sessions.jsonl").open()


def add_session(store, sid, tenant, state="open"):
    session = SessionRecord(session_id=sid, tenant=tenant, state=state)
    store.record("session-created", sid, session=session)
    return session


def add_job(store, jid, tenant, state=JOB_QUEUED, cost=1, priority=0, ts=0.0):
    job = JobRecord(job_id=jid, session_id=f"s-{tenant}", tenant=tenant,
                    payload={}, cost=cost, priority=priority, state=state,
                    submitted_ts=ts)
    store.record("job-queued", job.session_id, job=job)
    return job


class TestSessionQuota:
    def test_under_quota_admits(self, store):
        ctrl = AdmissionController(
            default_quota=TenantQuota(max_live_sessions=2))
        add_session(store, "s1", "alice")
        ctrl.admit_session(store, "alice")  # no raise

    def test_at_quota_rejects_with_retry_after(self, store):
        ctrl = AdmissionController(
            default_quota=TenantQuota(max_live_sessions=1))
        add_session(store, "s1", "alice")
        with pytest.raises(QuotaExceededError) as excinfo:
            ctrl.admit_session(store, "alice")
        assert excinfo.value.retry_after > 0
        assert excinfo.value.tenant == "alice"
        assert excinfo.value.to_payload()["reason"] == "quota-exceeded"

    def test_closed_sessions_free_the_slot(self, store):
        ctrl = AdmissionController(
            default_quota=TenantQuota(max_live_sessions=1))
        add_session(store, "s1", "alice", state=SESSION_CLOSED)
        ctrl.admit_session(store, "alice")  # no raise

    def test_quotas_are_per_tenant(self, store):
        ctrl = AdmissionController(
            default_quota=TenantQuota(max_live_sessions=1))
        add_session(store, "s1", "alice")
        ctrl.admit_session(store, "bob")  # no raise


class TestJobQuota:
    def test_queued_job_quota(self, store):
        ctrl = AdmissionController(
            default_quota=TenantQuota(max_queued_jobs=2))
        add_job(store, "j1", "alice")
        add_job(store, "j2", "alice")
        with pytest.raises(QuotaExceededError):
            ctrl.admit_job(store, "alice", cost=1)
        # Dispatched (non-queued) jobs don't count against the queue quota.
        store.record("job-completed", "s-alice",
                     job=JobRecord(job_id="j1", session_id="s-alice",
                                   tenant="alice", payload={},
                                   state=JOB_COMPLETED))
        ctrl.admit_job(store, "alice", cost=1)  # no raise

    def test_eval_budget_counts_lifetime_spend(self, store):
        ctrl = AdmissionController(
            default_quota=TenantQuota(max_queued_jobs=100, eval_budget=10))
        add_job(store, "j1", "alice", state=JOB_COMPLETED, cost=6)
        ctrl.admit_job(store, "alice", cost=4)  # exactly at budget: fine
        with pytest.raises(QuotaExceededError, match="budget"):
            ctrl.admit_job(store, "alice", cost=5)

    def test_cancelled_and_shed_work_is_refunded(self, store):
        ctrl = AdmissionController(
            default_quota=TenantQuota(max_queued_jobs=100, eval_budget=10))
        add_job(store, "j1", "alice", state=JOB_CANCELLED, cost=6)
        add_job(store, "j2", "alice", state=JOB_SHED, cost=6)
        ctrl.admit_job(store, "alice", cost=10)  # no raise: full refund


class TestSheddingAndBackpressure:
    def test_no_victim_needed_below_capacity(self, store):
        ctrl = AdmissionController(max_total_queued=4)
        add_job(store, "j1", "alice")
        assert ctrl.select_shed_victim(store, "bob", priority=0) is None

    def test_higher_priority_arrival_evicts_lowest(self, store):
        ctrl = AdmissionController(
            quotas={"vip": TenantQuota(priority=5)}, max_total_queued=2)
        add_job(store, "j1", "alice", priority=0, ts=1.0)
        add_job(store, "j2", "alice", priority=1, ts=2.0)
        victim = ctrl.select_shed_victim(store, "vip", priority=0)
        assert victim is not None and victim.job_id == "j1"

    def test_newest_of_equal_lowest_priority_is_shed(self, store):
        ctrl = AdmissionController(
            quotas={"vip": TenantQuota(priority=5)}, max_total_queued=2)
        add_job(store, "j1", "alice", priority=0, ts=1.0)
        add_job(store, "j2", "alice", priority=0, ts=2.0)
        victim = ctrl.select_shed_victim(store, "vip", priority=0)
        assert victim.job_id == "j2"

    def test_equal_priority_arrival_is_rejected_not_shed(self, store):
        ctrl = AdmissionController(max_total_queued=2)
        add_job(store, "j1", "alice")
        add_job(store, "j2", "alice")
        with pytest.raises(QueueFullError) as excinfo:
            ctrl.select_shed_victim(store, "bob", priority=0)
        payload = excinfo.value.to_payload()
        assert payload["reason"] == "queue-full"
        assert payload["retry_after"] > 0

    def test_tenant_priority_beats_job_priority(self, store):
        ctrl = AdmissionController(
            quotas={"vip": TenantQuota(priority=1)}, max_total_queued=1)
        add_job(store, "j1", "alice", priority=99)
        victim = ctrl.select_shed_victim(store, "vip", priority=0)
        assert victim.job_id == "j1"

    def test_retry_after_scales_with_pressure(self):
        ctrl = AdmissionController()
        assert ctrl._retry_after(0.0) == BASE_RETRY_AFTER
        assert ctrl._retry_after(1.0) > ctrl._retry_after(0.5) > 0
