"""Counters describing how much reliability machinery actually worked."""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = ["ReliabilityStats"]


@dataclass
class ReliabilityStats:
    """Aggregated evaluation-pipeline health for one search run."""

    attempts: int = 0  # inner evaluate() calls issued
    successes: int = 0  # evaluations that returned a real measurement
    retries: int = 0  # re-attempts after a recoverable failure
    degraded: int = 0  # configs recorded as failed instead of raising
    censored: int = 0  # degraded configs carrying a censored bound
    backoff_seconds: float = 0.0  # simulated wait charged by retries
    outage_wait_seconds: float = 0.0  # simulated wait for machine recovery
    failures_by_mode: dict = field(default_factory=dict)

    def record_failure_mode(self, mode: str) -> None:
        self.failures_by_mode[mode] = self.failures_by_mode.get(mode, 0) + 1

    def as_dict(self) -> dict:
        return {
            "attempts": self.attempts,
            "successes": self.successes,
            "retries": self.retries,
            "degraded": self.degraded,
            "censored": self.censored,
            "backoff_seconds": self.backoff_seconds,
            "outage_wait_seconds": self.outage_wait_seconds,
            "failures_by_mode": dict(self.failures_by_mode),
        }

    def load_state(self, state: dict) -> None:
        self.attempts = int(state["attempts"])
        self.successes = int(state["successes"])
        self.retries = int(state["retries"])
        self.degraded = int(state["degraded"])
        self.censored = int(state["censored"])
        self.backoff_seconds = float(state["backoff_seconds"])
        self.outage_wait_seconds = float(state["outage_wait_seconds"])
        self.failures_by_mode = {k: int(v) for k, v in state["failures_by_mode"].items()}
