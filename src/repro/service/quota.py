"""Admission control: per-tenant quotas, global bounds, priority shedding.

The controller is pure policy over the store's current state — it owns
no state of its own, so crash recovery gets admission accounting back
for free by replaying the journal.  Decisions:

* **session admission** — a tenant may hold at most
  ``max_live_sessions`` open sessions;
* **job admission** — at most ``max_queued_jobs`` queued (not yet
  dispatched) jobs per tenant, and a total ``eval_budget`` across the
  tenant's lifetime spend (queued + running + finished jobs all charge
  their ``cost``; cancelled/expired/shed work is refunded);
* **global backpressure** — at most ``max_total_queued`` queued jobs
  service-wide.  At capacity the service degrades by *priority*: an
  arriving job that outranks the lowest-priority queued job evicts it
  (the victim is journaled as ``shed``, never silently dropped); one
  that does not is rejected with a structured
  :class:`~repro.service.errors.QueueFullError` and a ``retry_after``
  hint scaled to queue pressure.

Every rejection is an :class:`~repro.service.errors.AdmissionError`
subclass carrying ``reason``/``retry_after``/``tenant`` — the
backpressure contract clients program against.
"""

from __future__ import annotations

from repro.service.errors import QueueFullError, QuotaExceededError
from repro.service.model import (
    JOB_CANCELLED,
    JOB_EXPIRED,
    JOB_QUEUED,
    JOB_SHED,
    JobRecord,
    TenantQuota,
)
from repro.service.store import SessionStore

__all__ = ["AdmissionController"]

#: Seconds a rejected client is told to wait when the service is idle;
#: the hint grows with load from there.
BASE_RETRY_AFTER = 0.5

#: Job states whose cost is refunded to the tenant's eval budget: the
#: work never ran (or was evicted by the service, which must not charge
#: the victim for its own load shedding).
_REFUNDED_STATES = frozenset({JOB_CANCELLED, JOB_EXPIRED, JOB_SHED})


class AdmissionController:
    """Quota bookkeeping and shedding policy over one store's state."""

    def __init__(
        self,
        quotas: dict[str, TenantQuota] | None = None,
        default_quota: TenantQuota | None = None,
        max_total_queued: int = 64,
    ) -> None:
        self.quotas = dict(quotas or {})
        self.default_quota = default_quota or TenantQuota()
        self.max_total_queued = max_total_queued

    def quota_for(self, tenant: str) -> TenantQuota:
        return self.quotas.get(tenant, self.default_quota)

    def priority_of(self, job: JobRecord) -> tuple[int, int]:
        """Effective priority: tenant priority first, then job priority."""
        return (self.quota_for(job.tenant).priority, job.priority)

    # ------------------------------------------------------------------
    # Accounting over store state
    # ------------------------------------------------------------------
    def live_sessions(self, store: SessionStore, tenant: str) -> int:
        return sum(
            1 for s in store.sessions.values()
            if s.tenant == tenant and s.live
        )

    def queued_jobs(self, store: SessionStore, tenant: str) -> int:
        return sum(
            1 for j in store.jobs.values()
            if j.tenant == tenant and j.state == JOB_QUEUED
        )

    def total_queued(self, store: SessionStore) -> int:
        return sum(1 for j in store.jobs.values() if j.state == JOB_QUEUED)

    def evals_spent(self, store: SessionStore, tenant: str) -> int:
        return sum(
            j.cost for j in store.jobs.values()
            if j.tenant == tenant and j.state not in _REFUNDED_STATES
        )

    def _retry_after(self, pressure: float) -> float:
        """Backoff hint growing with load (bounded, never zero)."""
        return round(BASE_RETRY_AFTER * (1.0 + max(0.0, pressure)), 3)

    # ------------------------------------------------------------------
    # Decisions
    # ------------------------------------------------------------------
    def admit_session(self, store: SessionStore, tenant: str) -> None:
        quota = self.quota_for(tenant)
        live = self.live_sessions(store, tenant)
        if live >= quota.max_live_sessions:
            raise QuotaExceededError(
                f"tenant {tenant!r} already holds {live} live session(s) "
                f"(quota {quota.max_live_sessions}); detach or cancel one",
                retry_after=self._retry_after(live / quota.max_live_sessions),
                tenant=tenant,
            )

    def admit_job(self, store: SessionStore, tenant: str, cost: int) -> None:
        """Per-tenant checks for one submission of ``cost`` evaluations."""
        quota = self.quota_for(tenant)
        queued = self.queued_jobs(store, tenant)
        if queued >= quota.max_queued_jobs:
            raise QuotaExceededError(
                f"tenant {tenant!r} has {queued} queued job(s) "
                f"(quota {quota.max_queued_jobs}); wait for dispatch",
                retry_after=self._retry_after(queued / quota.max_queued_jobs),
                tenant=tenant,
            )
        if quota.eval_budget is not None:
            spent = self.evals_spent(store, tenant)
            if spent + cost > quota.eval_budget:
                raise QuotaExceededError(
                    f"tenant {tenant!r} would spend {spent + cost} of its "
                    f"{quota.eval_budget}-evaluation budget",
                    retry_after=self._retry_after(1.0),
                    tenant=tenant,
                )

    def select_shed_victim(
        self, store: SessionStore, tenant: str, priority: int
    ) -> JobRecord | None:
        """Global-capacity decision for one arriving job.

        Returns ``None`` while the global queue has room.  At capacity,
        returns the queued job to evict when the arrival strictly
        outranks it, and raises :class:`QueueFullError` when it does
        not — so overload always degrades from the lowest priority up,
        and nothing ever disappears without a journaled verdict.
        """
        total = self.total_queued(store)
        if total < self.max_total_queued:
            return None
        queued = [j for j in store.jobs.values() if j.state == JOB_QUEUED]
        victim = min(
            queued,
            key=lambda j: (self.priority_of(j), -j.submitted_ts),
            default=None,
        )
        arriving = (self.quota_for(tenant).priority, priority)
        if victim is not None and arriving > self.priority_of(victim):
            return victim
        raise QueueFullError(
            f"global queue at capacity ({total}/{self.max_total_queued}) and "
            f"tenant {tenant!r} (priority {arriving}) does not outrank any "
            "queued work",
            retry_after=self._retry_after(total / self.max_total_queued),
            tenant=tenant,
        )
