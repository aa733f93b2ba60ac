"""Autotuning-as-a-service: the multi-tenant session layer.

This package turns the repo's crash-safe execution stack into a
long-lived service: tenants open **sessions**, submit tuning **jobs**
(probe / search / transfer payloads), and consume a journaled **event
stream** — all multiplexed onto one shared supervised worker pool.

Layering (transport down to domain)::

    transport.ServiceHandler               dict-shaped requests
      service.TuningService                lifecycle, recovery, pump loop
        quota.AdmissionController          per-tenant quotas, shedding
        jobs.Dispatcher                    batching, deadlines -> run_grid
        store.SessionStore                 fsync'd journal of all state
          exec.JsonlJournal / RunRegistry  shared crash-safe substrate
            worker.execute_job             the domain: SearchEngine et al.

Robustness properties, each covered by tests:

* **crash-safe** — every acknowledged transition is fsync'd before it
  is applied; a SIGKILLed service recovers every session, re-executes
  zero completed cells, and reproduces byte-identical results;
* **bounded** — per-tenant quotas (live sessions, queued jobs, eval
  budget) and a global queue cap; overload sheds the lowest-priority
  work with a journaled verdict, never a silent drop;
* **backpressured** — every rejection is a structured
  :class:`~repro.service.errors.AdmissionError` with a ``retry_after``
  hint;
* **degradable** — when the journal itself cannot be written (disk
  full, permission lost) the service rejects mutations with
  ``overloaded`` instead of corrupting state, and resumes when writes
  succeed again.

Quick start::

    from repro.service import TuningService

    svc = TuningService("/tmp/tuning-svc").open()
    session = svc.create_session("alice")
    job = svc.submit(session.session_id,
                     {"kind": "search", "kernel": "mm", "nmax": 10})
    svc.pump()
    print(svc.job(job.job_id).result)
"""

from repro.service.errors import (
    AdmissionError,
    JobNotFoundError,
    QueueFullError,
    QuotaExceededError,
    ServiceError,
    ServiceOverloadedError,
    SessionClosedError,
    SessionNotFoundError,
)
from repro.service.jobs import Dispatcher, job_fingerprint
from repro.service.model import (
    Event,
    JobRecord,
    SessionRecord,
    TenantQuota,
)
from repro.service.quota import AdmissionController
from repro.service.service import TuningService
from repro.service.store import SessionStore
from repro.service.transport import ServiceHandler
from repro.service.worker import execute_job, trace_digest

__all__ = [
    "AdmissionController",
    "AdmissionError",
    "Dispatcher",
    "Event",
    "JobNotFoundError",
    "JobRecord",
    "QueueFullError",
    "QuotaExceededError",
    "ServiceError",
    "ServiceHandler",
    "ServiceOverloadedError",
    "SessionClosedError",
    "SessionNotFoundError",
    "SessionRecord",
    "SessionStore",
    "TenantQuota",
    "TuningService",
    "execute_job",
    "job_fingerprint",
    "trace_digest",
]
