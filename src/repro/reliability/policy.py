"""The retry policy for resilient evaluation.

It is a *simulated-time* citizen: backoff intervals are expressed in
the same simulated seconds the :class:`repro.perf.simclock.SimClock`
accounts, so choosing an aggressive retry policy visibly costs search
time — exactly how the paper's search-time speedup metric would see it
on real hardware.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import SearchError

__all__ = ["RetryPolicy"]


@dataclass(frozen=True)
class RetryPolicy:
    """Exponential backoff: retry ``k`` waits ``backoff * factor**k``."""

    max_retries: int = 3
    backoff_seconds: float = 1.0
    backoff_factor: float = 2.0
    max_backoff_seconds: float = 300.0

    def __post_init__(self) -> None:
        if self.max_retries < 0:
            raise SearchError(f"max_retries must be >= 0, got {self.max_retries}")
        if self.backoff_seconds < 0:
            raise SearchError(f"backoff_seconds must be >= 0, got {self.backoff_seconds}")
        if self.backoff_factor < 1.0:
            raise SearchError(f"backoff_factor must be >= 1, got {self.backoff_factor}")

    def backoff(self, retry: int) -> float:
        """Simulated seconds to wait before retry number ``retry`` (0-based)."""
        if retry < 0:
            raise SearchError(f"retry index must be >= 0, got {retry}")
        return min(
            self.backoff_seconds * self.backoff_factor**retry,
            self.max_backoff_seconds,
        )

    @classmethod
    def none(cls) -> "RetryPolicy":
        """The no-retry policy (fail fast, degrade immediately)."""
        return cls(max_retries=0, backoff_seconds=0.0)
