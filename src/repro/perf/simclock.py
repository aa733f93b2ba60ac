"""Simulated wall-clock accounting for autotuning searches.

The paper's search-time speedup compares the *elapsed tuning time* of
two searches — dominated by compiling and running candidate variants.
A :class:`SimClock` accumulates those simulated costs and can enforce a
budget, modelling the paper's X-Gene situation where compile/run times
were too high to finish data collection.
"""

from __future__ import annotations

from repro.errors import BudgetExhaustedError

__all__ = ["SimClock"]


class SimClock:
    """An advancing simulated clock with an optional hard budget."""

    def __init__(self, budget_seconds: float | None = None) -> None:
        if budget_seconds is not None and budget_seconds <= 0:
            raise ValueError(f"budget must be positive, got {budget_seconds}")
        self._now = 0.0
        self.budget_seconds = budget_seconds

    @property
    def now(self) -> float:
        """Elapsed simulated seconds."""
        return self._now

    @property
    def remaining(self) -> float:
        """Seconds left in the budget (``inf`` when unbudgeted)."""
        if self.budget_seconds is None:
            return float("inf")
        return max(0.0, self.budget_seconds - self._now)

    def advance(self, seconds: float) -> float:
        """Advance the clock; raises :class:`BudgetExhaustedError` when
        the advance would cross the budget."""
        if seconds < 0:
            raise ValueError(f"cannot advance the clock by {seconds} s")
        if self.budget_seconds is not None and self._now + seconds > self.budget_seconds:
            raise BudgetExhaustedError(
                f"advancing {seconds:.3g}s would exceed the {self.budget_seconds:.3g}s "
                f"budget (elapsed {self._now:.3g}s)"
            )
        self._now += seconds
        return self._now

    # ------------------------------------------------------------------
    # Checkpoint support (repro.reliability.checkpoint)
    # ------------------------------------------------------------------
    def state_dict(self) -> dict:
        """JSON-serializable snapshot of the clock."""
        return {"now": self._now, "budget_seconds": self.budget_seconds}

    def load_state(self, state: dict) -> None:
        """Restore a snapshot taken with :meth:`state_dict`."""
        self._now = float(state["now"])
        self.budget_seconds = state["budget_seconds"]

    def __repr__(self) -> str:
        budget = "unbounded" if self.budget_seconds is None else f"{self.budget_seconds:g}s"
        return f"SimClock(now={self._now:g}s, budget={budget})"
