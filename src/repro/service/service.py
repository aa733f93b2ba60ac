"""The multi-tenant tuning service: sessions, jobs, events, recovery.

:class:`TuningService` is the importable core of autotuning-as-a-
service.  One instance owns:

* a :class:`~repro.service.store.SessionStore` — the fsync'd journal
  every lifecycle transition goes through *before* it is acknowledged;
* a :class:`~repro.exec.RunRegistry` — the result journal
  ``run_grid`` fills as job cells complete;
* one shared :class:`~repro.exec.SupervisedExecutor` — all tenants'
  jobs run on the same supervised worker pool;
* an :class:`~repro.service.quota.AdmissionController` — per-tenant
  quotas, global bounds, priority shedding.

**Crash safety.**  The service process may be SIGKILLed at any instant.
On :meth:`open`, the store journal is replayed; jobs journaled
``running`` (or still ``queued``) are reconciled against the run
registry: a fingerprint with a journaled result is finalized without
re-execution, everything else is re-queued.  Because job payloads are
pure and fingerprinted, a resumed service converges to byte-identical
results with zero re-executed completed cells.

**Degradation.**  A failed journal write
(:class:`~repro.errors.JournalWriteError` — disk full, permission
lost) never corrupts state: the transition is simply not acknowledged,
the service enters a degraded window in which mutating requests are
rejected with structured ``retry_after`` backpressure, and normal
operation resumes as soon as a journal write succeeds again.

Two driving modes: :meth:`pump` runs pending work synchronously (tests,
embedding); :meth:`start`/:meth:`stop` run the same loop on a
background thread for a long-lived service process.
"""

from __future__ import annotations

import dataclasses
import os
import shutil
import threading
import time

from repro.errors import JournalWriteError
from repro.exec.executor import CellFailure, SupervisedExecutor
from repro.exec.registry import RunRegistry
from repro.service.errors import (
    ServiceOverloadedError,
    SessionClosedError,
    SessionNotFoundError,
    JobNotFoundError,
)
from repro.service.jobs import Dispatcher, job_fingerprint
from repro.service.model import (
    JOB_CANCELLED,
    JOB_COMPLETED,
    JOB_EXPIRED,
    JOB_FAILED,
    JOB_QUEUED,
    JOB_RUNNING,
    JOB_SHED,
    SESSION_CANCELLED,
    SESSION_CLOSED,
    SESSION_OPEN,
    Event,
    JobRecord,
    SessionRecord,
    TenantQuota,
)
from repro.service.quota import AdmissionController
from repro.service.store import SessionStore

__all__ = ["TuningService"]

#: Default cost (evaluation-budget charge) per job kind when the
#: payload does not carry an ``nmax``.
_DEFAULT_COSTS = {"probe": 1, "search": 20, "transfer": 30}

#: Seconds the background pump (and a blocking stream) waits between
#: polls when no work is ready.
POLL_INTERVAL = 0.02


def _job_cost(payload: dict) -> int:
    nmax = payload.get("nmax")
    if nmax is not None:
        return int(nmax)
    return _DEFAULT_COSTS.get(str(payload.get("kind", "")), 1)


class TuningService:
    """A long-lived, multi-tenant, crash-safe tuning service core.

    Jobs run on ``executor`` when one is given; otherwise the service
    builds a :class:`SupervisedExecutor` with ``n_workers`` workers
    (default 1).  The two are exclusive: a given executor already fixes
    its worker count.
    """

    def __init__(
        self,
        root,
        quotas: dict[str, TenantQuota] | None = None,
        default_quota: TenantQuota | None = None,
        max_total_queued: int = 64,
        batch_size: int = 8,
        n_workers: int | None = None,
        executor: SupervisedExecutor | None = None,
        store_max_bytes: int = 1_000_000,
        degraded_cooldown: float = 2.0,
        min_free_bytes: int = 0,
    ) -> None:
        if executor is not None and n_workers is not None:
            raise ValueError(
                "pass either executor or n_workers, not both: the executor "
                "already fixes its worker count"
            )
        self.root = os.fspath(root)
        os.makedirs(self.root, exist_ok=True)
        self.store = SessionStore(os.path.join(self.root, "sessions.jsonl"))
        self.registry = RunRegistry(os.path.join(self.root, "runs.jsonl"))
        self.admission = AdmissionController(
            quotas=quotas,
            default_quota=default_quota,
            max_total_queued=max_total_queued,
        )
        self.executor = executor or SupervisedExecutor(n_workers=n_workers or 1)
        self.dispatcher = Dispatcher(
            self.executor,
            self.registry,
            self.admission,
            batch_size=batch_size,
        )
        self.store_max_bytes = store_max_bytes
        self.degraded_cooldown = degraded_cooldown
        self.min_free_bytes = min_free_bytes
        self._lock = threading.RLock()
        self._degraded_until = 0.0
        self._recovered_jobs = 0
        self._journal_failures = 0
        self._watermark_rejections = 0
        self._thread: threading.Thread | None = None
        self._stop = threading.Event()

    # ------------------------------------------------------------------
    # Lifecycle / recovery
    # ------------------------------------------------------------------
    def open(self) -> "TuningService":
        """Replay the journals and reconcile in-flight work; idempotent.

        Every session is rebuilt exactly as journaled.  Jobs are
        reconciled against the run registry: ``running``/``queued``
        jobs whose fingerprint already has a journaled result are
        finalized from it (zero re-execution, bit-identical payloads);
        ``running`` jobs without one go back to ``queued`` — their
        worker died with the service.
        """
        with self._lock:
            self.store.open()
            state = self.registry.load() if self.registry.exists() else None
            self._recovered_jobs = 0
            for job in list(self.store.jobs.values()):
                if job.state not in (JOB_QUEUED, JOB_RUNNING):
                    continue
                record = state.record_for(job.fingerprint) if state else None
                if record is not None and record.completed:
                    self._finish_job(job, record.result(), recovered=True)
                    self._recovered_jobs += 1
                elif job.state == JOB_RUNNING:
                    job = self._update_job(
                        job, "job-requeued", state=JOB_QUEUED,
                        data={"reason": "service-restart"},
                    )
                    self._recovered_jobs += 1
        return self

    def close(self) -> None:
        """Stop the background pump (if running).  State is on disk."""
        self.stop()

    # ------------------------------------------------------------------
    # Internal helpers
    # ------------------------------------------------------------------
    def _now(self) -> float:
        return time.time()

    def _check_available(self, tenant: str | None = None) -> None:
        now = self._now()
        if now < self._degraded_until:
            raise ServiceOverloadedError(
                "service is degraded (journal writes failing); "
                "retry after the cooldown",
                retry_after=round(self._degraded_until - now, 3),
                tenant=tenant,
            )
        self._check_watermark(tenant)

    def _check_watermark(self, tenant: str | None = None) -> None:
        """Resource-exhaustion guard: refuse *before* the append.

        A journal append on a nearly full disk fails mid-write — a torn
        tail the next replay has to repair.  With ``min_free_bytes`` set
        the service instead measures free space up front and enters the
        same structured degraded mode a failed write would trigger,
        while the disk still has headroom for in-flight appends.
        """
        if self.min_free_bytes <= 0:
            return
        free = shutil.disk_usage(self.root).free
        if free < self.min_free_bytes:
            self._watermark_rejections += 1
            self._degraded_until = self._now() + self.degraded_cooldown
            raise ServiceOverloadedError(
                f"disk low-watermark: {free} bytes free under {self.root} "
                f"(< {self.min_free_bytes} required); journal appends "
                "suspended",
                retry_after=self.degraded_cooldown,
                tenant=tenant,
            )

    def _record(self, *args, tenant: str | None = None, **kwargs) -> Event:
        """Journal one transition; journal failure => degraded window."""
        self._check_watermark(tenant)
        try:
            event = self.store.record(*args, **kwargs)
        except JournalWriteError as exc:
            self._journal_failures += 1
            self._degraded_until = self._now() + self.degraded_cooldown
            raise ServiceOverloadedError(
                f"state journal write failed ({exc}); transition not "
                "acknowledged",
                retry_after=self.degraded_cooldown,
                tenant=tenant,
            ) from exc
        self._degraded_until = 0.0
        return event

    def _get_session(self, session_id: str, tenant: str | None = None) -> SessionRecord:
        session = self.store.sessions.get(session_id)
        if session is None or (tenant is not None and session.tenant != tenant):
            raise SessionNotFoundError(f"no session {session_id!r}")
        return session

    def _update_job(self, job: JobRecord, kind: str, state: str,
                    data: dict | None = None, result: dict | None = None,
                    error: dict | None = None) -> JobRecord:
        updated = dataclasses.replace(
            job,
            state=state,
            result=result if result is not None else job.result,
            error=error if error is not None else job.error,
            finished_ts=(self._now()
                         if state in (JOB_COMPLETED, JOB_FAILED, JOB_CANCELLED,
                                      JOB_EXPIRED, JOB_SHED)
                         else job.finished_ts),
        )
        payload = {"job_id": job.job_id, "state": state, **(data or {})}
        self._record(kind, job.session_id, data=payload, job=updated,
                     tenant=job.tenant)
        return updated

    def _finish_job(self, job: JobRecord, result: dict,
                    recovered: bool = False) -> JobRecord:
        data = {"recovered": True} if recovered else None
        return self._update_job(job, "job-completed", JOB_COMPLETED,
                                data=data, result=result)

    # ------------------------------------------------------------------
    # Session lifecycle
    # ------------------------------------------------------------------
    def create_session(self, tenant: str, meta: dict | None = None) -> SessionRecord:
        """Open a session for ``tenant`` (admission-controlled)."""
        with self._lock:
            self._check_available(tenant)
            self.admission.admit_session(self.store, tenant)
            session_id = f"s{self.store.next_seq:06d}-{tenant}"
            session = SessionRecord(
                session_id=session_id,
                tenant=tenant,
                state=SESSION_OPEN,
                attached=True,
                meta=meta or {},
                created_ts=self._now(),
            )
            self._record("session-created", session_id,
                         data={"tenant": tenant}, session=session,
                         tenant=tenant)
            return session

    def attach(self, session_id: str, tenant: str | None = None) -> dict:
        """Re-attach to a session: current state plus an event cursor."""
        with self._lock:
            session = self._get_session(session_id, tenant)
            if not session.attached:
                session = dataclasses.replace(session, attached=True)
                self._record("session-attached", session_id, session=session,
                             tenant=session.tenant)
            jobs = self.store.jobs_for(session_id)
            return {
                "session": session.to_wire(),
                "jobs": [j.to_wire() for j in jobs],
                "cursor": self.store.next_seq - 1,
            }

    def detach(self, session_id: str, tenant: str | None = None) -> None:
        """Detach the client; the session and its jobs keep running."""
        with self._lock:
            session = self._get_session(session_id, tenant)
            if session.attached:
                session = dataclasses.replace(session, attached=False)
                self._record("session-detached", session_id, session=session,
                             tenant=session.tenant)

    def cancel_session(self, session_id: str, tenant: str | None = None) -> int:
        """Cancel a session and every queued job in it; returns the
        number of jobs cancelled.  Running cells finish (their results
        are journaled) but no new work is dispatched."""
        with self._lock:
            session = self._get_session(session_id, tenant)
            cancelled = 0
            for job in self.store.jobs_for(session_id):
                if job.state == JOB_QUEUED:
                    self._update_job(job, "job-cancelled", JOB_CANCELLED)
                    cancelled += 1
            if session.state == SESSION_OPEN:
                session = dataclasses.replace(session, state=SESSION_CANCELLED,
                                              attached=False)
                self._record("session-cancelled", session_id, session=session,
                             tenant=session.tenant)
            return cancelled

    def close_session(self, session_id: str, tenant: str | None = None) -> None:
        """Close a finished session (frees its live-session quota slot)."""
        with self._lock:
            session = self._get_session(session_id, tenant)
            if session.state == SESSION_OPEN:
                session = dataclasses.replace(session, state=SESSION_CLOSED,
                                              attached=False)
                self._record("session-closed", session_id, session=session,
                             tenant=session.tenant)

    # ------------------------------------------------------------------
    # Jobs
    # ------------------------------------------------------------------
    def submit(
        self,
        session_id: str,
        payload: dict,
        priority: int = 0,
        deadline_seconds: float | None = None,
        tenant: str | None = None,
    ) -> JobRecord:
        """Queue one job; returns its record or raises a structured
        admission error (quota, budget, queue-full, overload)."""
        with self._lock:
            session = self._get_session(session_id, tenant)
            if session.state != SESSION_OPEN:
                raise SessionClosedError(
                    f"session {session_id!r} is {session.state}; no further "
                    "submissions"
                )
            self._check_available(session.tenant)
            cost = _job_cost(payload)
            self.admission.admit_job(self.store, session.tenant, cost)
            victim = self.admission.select_shed_victim(
                self.store, session.tenant, priority
            )
            if victim is not None:
                self._update_job(
                    victim, "job-shed", JOB_SHED,
                    data={"shed_for": session.tenant},
                    error={"kind": "shed",
                           "message": "evicted under overload by a higher-"
                                      "priority submission"},
                )
            now = self._now()
            job_id = f"j{self.store.next_seq:06d}"
            job = JobRecord(
                job_id=job_id,
                session_id=session_id,
                tenant=session.tenant,
                payload=dict(payload),
                priority=priority,
                deadline=None if deadline_seconds is None else now + deadline_seconds,
                cost=cost,
                state=JOB_QUEUED,
                fingerprint=job_fingerprint(job_id, session_id, dict(payload)),
                submitted_ts=now,
            )
            self._record("job-queued", session_id,
                         data={"job_id": job_id, "state": JOB_QUEUED},
                         job=job, tenant=session.tenant)
            return job

    def job(self, job_id: str) -> JobRecord:
        record = self.store.jobs.get(job_id)
        if record is None:
            raise JobNotFoundError(f"no job {job_id!r}")
        return record

    def cancel_job(self, job_id: str) -> JobRecord:
        with self._lock:
            job = self.job(job_id)
            if job.state == JOB_QUEUED:
                job = self._update_job(job, "job-cancelled", JOB_CANCELLED)
            return job

    # ------------------------------------------------------------------
    # Events
    # ------------------------------------------------------------------
    def events(self, session_id: str, after: int = 0,
               limit: int | None = None) -> list[Event]:
        """Poll the session's events with ``seq > after`` (a cursor)."""
        self._get_session(session_id)
        return self.store.events_after(session_id, after=after, limit=limit)

    def stream(self, session_id: str, after: int = 0, timeout: float = 10.0):
        """Generator of events until the session has no pending work.

        Polls the store (pumping synchronously when no background
        thread is running), yields events in order, and returns when
        the session reaches a terminal state with no queued or running
        jobs — or when ``timeout`` seconds pass without progress.
        """
        cursor = after
        deadline = time.monotonic() + timeout
        while True:
            batch = self.events(session_id, after=cursor)
            for event in batch:
                cursor = event.seq
                yield event
            if batch:
                deadline = time.monotonic() + timeout
            with self._lock:
                session = self._get_session(session_id)
                pending = any(
                    j.state in (JOB_QUEUED, JOB_RUNNING)
                    for j in self.store.jobs_for(session_id)
                )
            if not pending and (not session.live or not session.attached):
                return
            if not pending and self._thread is None:
                return
            if time.monotonic() > deadline:
                return
            if self._thread is None:
                if self.pump(max_batches=1) == 0:
                    return
            else:
                time.sleep(POLL_INTERVAL)

    # ------------------------------------------------------------------
    # Dispatch
    # ------------------------------------------------------------------
    def pump(self, max_batches: int | None = None) -> int:
        """Run pending work now; returns how many jobs were processed.

        Each batch: expire deadline-passed jobs, journal the survivors
        ``running``, execute them on the shared executor (results are
        registry-journaled as cells finish), then journal the final
        states and rotate the journals.  A journal failure mid-pump
        requeues the batch in memory and opens the degraded window —
        nothing is lost, nothing is corrupted.
        """
        processed = 0
        batches = 0
        while max_batches is None or batches < max_batches:
            with self._lock:
                if self._now() < self._degraded_until:
                    break
                now = self._now()
                batch, expired = self.dispatcher.ready_jobs(
                    self.store.jobs.values(), now
                )
                journaled: list[JobRecord] = []
                try:
                    for job in expired:
                        self._update_job(
                            job, "job-expired", JOB_EXPIRED,
                            error={"kind": "expired",
                                   "message": "deadline passed before "
                                              "dispatch"},
                        )
                    for job in batch:
                        journaled.append(
                            self._update_job(job, "job-running", JOB_RUNNING)
                        )
                    batch = journaled
                except ServiceOverloadedError:
                    # Partial running-journal: revert in memory so the
                    # batch redispatches after the degraded window (the
                    # journal's "running" means exactly that on replay).
                    for job in journaled:
                        self._requeue_in_memory(job)
                    break
            if not batch:
                break
            try:
                results = self.dispatcher.run_batch(batch, now)
            except JournalWriteError:
                # Registry journaling failed mid-batch (disk pressure).
                # Completed-but-unjournaled cells will simply re-run;
                # requeue in memory and back off.
                with self._lock:
                    self._journal_failures += 1
                    self._degraded_until = self._now() + self.degraded_cooldown
                    for job in batch:
                        self._requeue_in_memory(job)
                break
            with self._lock:
                try:
                    for job in batch:
                        result = results.get(job.job_id)
                        current = self.store.jobs.get(job.job_id, job)
                        if current.state != JOB_RUNNING:
                            continue  # cancelled/shed while running
                        if isinstance(result, CellFailure):
                            self._update_job(
                                current, "job-failed", JOB_FAILED,
                                error=Dispatcher.failure_payload(result),
                            )
                        else:
                            self._finish_job(current, result)
                    self.store.maybe_compact(self.store_max_bytes)
                except (ServiceOverloadedError, JournalWriteError):
                    # Results are safe in the run registry; requeueing
                    # in memory lets the post-recovery redispatch merge
                    # them back instantly from the fingerprint cache.
                    self._degraded_until = self._now() + self.degraded_cooldown
                    for job in batch:
                        self._requeue_in_memory(job)
                    break
            processed += len(batch)
            batches += 1
        return processed

    def _requeue_in_memory(self, job: JobRecord) -> None:
        """Best-effort requeue when the journal itself is failing.

        The journal still says ``running`` — which is exactly what
        recovery treats as "requeue" — so mutating only the in-memory
        state keeps both views convergent without requiring a write
        that would just fail again.
        """
        current = self.store.jobs.get(job.job_id)
        if current is not None and current.state == JOB_RUNNING:
            self.store.jobs[job.job_id] = dataclasses.replace(
                current, state=JOB_QUEUED
            )

    # ------------------------------------------------------------------
    # Background driving
    # ------------------------------------------------------------------
    def start(self) -> "TuningService":
        """Run the pump loop on a background thread until :meth:`stop`."""
        with self._lock:
            if self._thread is not None:
                return self
            self._stop.clear()
            self._thread = threading.Thread(
                target=self._run_loop, name="repro-service-pump", daemon=True
            )
            self._thread.start()
        return self

    def _run_loop(self) -> None:
        while not self._stop.is_set():
            if self.pump() == 0:
                self._stop.wait(POLL_INTERVAL)

    def stop(self) -> None:
        thread = self._thread
        if thread is None:
            return
        self._stop.set()
        thread.join(timeout=10.0)
        self._thread = None

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def stats(self) -> dict:
        """The health endpoint's body: queues, tenants, executor, disk."""
        with self._lock:
            jobs = list(self.store.jobs.values())
            sessions = list(self.store.sessions.values())
            by_state: dict[str, int] = {}
            for job in jobs:
                by_state[job.state] = by_state.get(job.state, 0) + 1
            tenants: dict[str, dict] = {}
            for tenant in sorted({s.tenant for s in sessions}):
                tenants[tenant] = {
                    "live_sessions": self.admission.live_sessions(
                        self.store, tenant),
                    "queued_jobs": self.admission.queued_jobs(
                        self.store, tenant),
                    "evals_spent": self.admission.evals_spent(
                        self.store, tenant),
                }
            executor_stats = self.executor.stats()
            return {
                "ok": self._now() >= self._degraded_until,
                "degraded_for": max(0.0, self._degraded_until - self._now()),
                "sessions": {
                    "total": len(sessions),
                    "live": sum(1 for s in sessions if s.live),
                },
                "jobs": by_state,
                "queued_total": self.admission.total_queued(self.store),
                "recovered_jobs": self._recovered_jobs,
                "tenants": tenants,
                "executor": dataclasses.asdict(executor_stats),
                "store_bytes": self.store.size_bytes(),
                "registry_bytes": self.registry.size_bytes(),
                "chaos": {
                    "journal_write_failures": self._journal_failures,
                    "watermark_rejections": self._watermark_rejections,
                    "min_free_bytes": self.min_free_bytes,
                    "chaos_kills": executor_stats.chaos_kills,
                    "worker_deaths": executor_stats.worker_deaths,
                },
            }

    def health(self) -> dict:
        """Cheap liveness body: ok flag + degraded window remaining."""
        now = self._now()
        return {
            "ok": now >= self._degraded_until,
            "degraded_for": max(0.0, self._degraded_until - now),
        }
