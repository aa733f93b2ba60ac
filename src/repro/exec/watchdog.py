"""Heartbeat bookkeeping and hang detection for supervised workers.

The supervisor side of the executor is event-driven (it blocks on the
workers' pipes), so hang detection cannot rely on a worker *saying*
anything — a frozen or ``SIGSTOP``'d process says nothing forever.
The :class:`Watchdog` keeps, per worker slot, when the current task was
assigned and when the worker last heartbeat, and answers one question:
*which workers should be killed right now, and why?*

Two independent triggers:

* **timeout** — the task has been running longer than the per-task
  wall-clock budget.  Long-running is not the same as stuck, but a grid
  cell that blows its budget by definition cannot be waited on.
* **stalled** — the worker's heartbeat thread has been silent for
  ``stall_factor`` heartbeat intervals.  A healthy worker beats even
  while its main thread computes (the beat comes from a daemon thread);
  silence means the *process* is frozen, stopped, or swapping to death.

All methods take ``now`` explicitly so the logic is a pure function of
its inputs and unit-testable without sleeping.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["Overdue", "Watchdog"]

#: Default heartbeat period (seconds) for worker heartbeat threads.
DEFAULT_HEARTBEAT_INTERVAL = 0.2

#: A worker is considered stalled after this many missed heartbeats.
DEFAULT_STALL_FACTOR = 10.0

#: Never declare a stall faster than this, whatever the interval — a
#: loaded machine can legitimately delay a beat by a scheduler quantum.
MIN_STALL_GRACE = 2.0


@dataclass(frozen=True)
class Overdue:
    """One worker the supervisor should kill, and the evidence."""

    slot: int
    task_id: int
    reason: str  # "timeout" | "stalled"
    elapsed: float  # seconds since the task was assigned


@dataclass
class _Assignment:
    task_id: int
    assigned_at: float
    last_beat: float


class Watchdog:
    """Track per-slot task assignments, heartbeats, and deadlines."""

    def __init__(
        self,
        task_timeout: float | None = None,
        heartbeat_interval: float | None = DEFAULT_HEARTBEAT_INTERVAL,
        stall_factor: float = DEFAULT_STALL_FACTOR,
    ) -> None:
        if task_timeout is not None and task_timeout <= 0:
            raise ValueError(f"task_timeout must be positive, got {task_timeout}")
        if heartbeat_interval is not None and heartbeat_interval <= 0:
            raise ValueError(
                f"heartbeat_interval must be positive, got {heartbeat_interval}"
            )
        self.task_timeout = task_timeout
        self.heartbeat_interval = heartbeat_interval
        self.stall_factor = float(stall_factor)
        self._assignments: dict[int, _Assignment] = {}

    # ------------------------------------------------------------------
    @property
    def stall_grace(self) -> float | None:
        """Silence (seconds) after which a worker counts as stalled."""
        if self.heartbeat_interval is None:
            return None
        return max(self.heartbeat_interval * self.stall_factor, MIN_STALL_GRACE)

    def assign(self, slot: int, task_id: int, now: float) -> None:
        self._assignments[slot] = _Assignment(task_id, now, now)

    def beat(self, slot: int, task_id: int, now: float) -> None:
        """Record a heartbeat; beats for a stale task are ignored."""
        assignment = self._assignments.get(slot)
        if assignment is not None and assignment.task_id == task_id:
            assignment.last_beat = now

    def clear(self, slot: int) -> None:
        self._assignments.pop(slot, None)

    # ------------------------------------------------------------------
    def overdue(self, now: float) -> list[Overdue]:
        """Workers that should be killed at time ``now`` (slot order)."""
        verdicts = []
        grace = self.stall_grace
        for slot in sorted(self._assignments):
            assignment = self._assignments[slot]
            elapsed = now - assignment.assigned_at
            if self.task_timeout is not None and elapsed > self.task_timeout:
                verdicts.append(Overdue(slot, assignment.task_id, "timeout", elapsed))
            elif grace is not None and now - assignment.last_beat > grace:
                verdicts.append(Overdue(slot, assignment.task_id, "stalled", elapsed))
        return verdicts
