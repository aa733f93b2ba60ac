"""Job scheduling and dispatch onto the shared supervised executor.

The :class:`Dispatcher` turns queued :class:`~repro.service.model.JobRecord`
batches into :func:`~repro.exec.run_grid` calls against **one** shared
:class:`~repro.exec.SupervisedExecutor` and **one** shared
:class:`~repro.exec.RunRegistry`:

* **ordering** — ready jobs run highest effective priority first
  (tenant priority, then job priority), FIFO within a priority class;
* **deadline propagation** — a job's absolute deadline becomes the
  batch's per-task wall-clock budget on the executor (the same
  watchdog mechanism ``task_timeout`` feeds), so a job that blows its
  deadline is killed and surfaced, not left running;
* **crash safety for free** — every job is fingerprinted from its
  identity + payload, and ``run_grid`` journals each completed cell
  into the registry as it finishes; a killed service finds completed
  work by fingerprint on restart and re-executes nothing;
* **rotation** — the registry journal is compacted past a size
  threshold after each batch, so a long-lived service's journal stays
  bounded.
"""

from __future__ import annotations

from typing import Any

from repro.exec.executor import CellFailure, SupervisedExecutor, run_grid
from repro.exec.fingerprint import cell_fingerprint
from repro.exec.registry import RunRegistry
from repro.service.model import JOB_QUEUED, JobRecord
from repro.service.quota import AdmissionController
from repro.service.worker import execute_job

__all__ = ["Dispatcher", "job_key", "job_fingerprint"]

#: Registry experiment name every service job is journaled under.
EXPERIMENT = "service-jobs"

#: Registry size in bytes past which the dispatcher compacts it after
#: a batch.
REGISTRY_MAX_BYTES = 8_000_000


def job_key(job_id: str, session_id: str, payload: dict) -> dict:
    """The registry cell key of one job — identity plus payload.

    Folding the ids in keeps two jobs with identical payloads (the same
    tenant re-running a study) distinguishable in the registry; the key
    is deterministic across restarts because ids are journaled.
    """
    return {"job": job_id, "session": session_id, "payload": payload}


def job_fingerprint(job_id: str, session_id: str, payload: dict) -> str:
    """The fingerprint ``run_grid`` will derive for this job's cell."""
    return cell_fingerprint(EXPERIMENT, job_key(job_id, session_id, payload))


class Dispatcher:
    """Batches ready jobs onto the shared executor, registry-journaled."""

    def __init__(
        self,
        executor: SupervisedExecutor,
        registry: RunRegistry,
        admission: AdmissionController,
        batch_size: int = 8,
    ) -> None:
        self.executor = executor
        self.registry = registry
        self.admission = admission
        self.batch_size = batch_size

    # ------------------------------------------------------------------
    def ready_jobs(self, jobs, now: float) -> tuple[list[JobRecord], list[JobRecord]]:
        """Split queued jobs into ``(ready_batch, expired)`` at ``now``.

        Expired jobs (deadline already passed) never reach a worker —
        they are returned for the service to journal as ``expired``.
        The ready batch is at most ``batch_size`` jobs, highest
        effective priority first, FIFO within a class.
        """
        queued = [j for j in jobs if j.state == JOB_QUEUED]
        expired = [
            j for j in queued if j.deadline is not None and j.deadline <= now
        ]
        live = [j for j in queued if j not in expired]
        live.sort(
            key=lambda j: (
                tuple(-p for p in self.admission.priority_of(j)),
                j.submitted_ts,
                j.job_id,
            )
        )
        return live[: self.batch_size], expired

    def _batch_timeout(self, batch: list[JobRecord], now: float) -> float | None:
        """The per-task wall-clock budget for this batch.

        The tightest remaining deadline in the batch, clamped by the
        executor's own configured budget (``task_timeout``) —
        deadline propagation ends at the same watchdog that kills hung
        cells.
        """
        remaining = [
            j.deadline - now for j in batch if j.deadline is not None
        ]
        candidates = [r for r in remaining if r > 0]
        base = self.executor.task_timeout
        if base is not None:
            candidates.append(base)
        return min(candidates) if candidates else None

    # ------------------------------------------------------------------
    def run_batch(self, batch: list[JobRecord], now: float) -> dict[str, Any]:
        """Execute one batch; returns ``job_id -> result dict | CellFailure``.

        Completed cells are journaled into the registry *as they
        finish* (inside ``run_grid``), so a SIGKILL mid-batch loses at
        most cells that never completed; a re-dispatched job whose
        fingerprint is already journaled is merged back without
        re-execution.
        """
        if not batch:
            return {}
        keys = [job_key(j.job_id, j.session_id, j.payload) for j in batch]
        base_timeout = self.executor.task_timeout
        self.executor.task_timeout = self._batch_timeout(batch, now)
        try:
            outcome = run_grid(
                EXPERIMENT,
                execute_job,
                [j.payload for j in batch],
                keys=keys,
                registry=self.registry,
                executor=self.executor,
            )
        finally:
            self.executor.task_timeout = base_timeout
        self.registry.maybe_compact(REGISTRY_MAX_BYTES)
        return {
            job.job_id: result
            for job, result in zip(batch, outcome.results)
        }

    @staticmethod
    def failure_payload(failure: CellFailure) -> dict:
        """A JSON-safe error body for a permanently failed cell."""
        return {
            "kind": failure.kind,
            "error": failure.error,
            "message": failure.message,
            "attempts": failure.attempts,
        }
