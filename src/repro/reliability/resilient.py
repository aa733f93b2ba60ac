"""Resilient evaluation: retry, back off, degrade.

A :class:`ResilientEvaluator` wraps any evaluator following the
:class:`repro.orio.evaluator.OrioEvaluator` protocol and turns the
recoverable :class:`~repro.errors.EvaluationFailure` exceptions into
policy-driven behavior:

* **transient glitches** are retried with exponential backoff, every
  backoff interval charged to the :class:`~repro.perf.simclock.SimClock`
  (robustness is not free — it shows up in search-time speedups);
* **machine outages** are waited out (clock-charged) up to the retry
  budget;
* **timeouts** yield a *censored* result — the runtime cap is a lower
  bound on the true runtime — and are not retried;
* **compile crashes** are deterministic per configuration and are not
  retried.

When recovery fails, the evaluator *degrades gracefully*: instead of
raising, it returns a :class:`FailedMeasurement` so the search records
the configuration as failed and keeps walking its stream — one bad
configuration no longer kills an RS/RSp/RSb run or desynchronizes the
common-random-numbers comparison.  Only
:class:`~repro.errors.BudgetExhaustedError` still propagates: when the
simulated budget is gone, the search is over.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import (
    BudgetExhaustedError,
    CompileCrashError,
    EvaluationTimeout,
    MachineOutageError,
    TransientEvaluationError,
)
from repro.reliability.policy import RetryPolicy
from repro.reliability.stats import ReliabilityStats
from repro.searchspace.space import Configuration

__all__ = ["FailedMeasurement", "ResilientEvaluator"]


@dataclass(frozen=True)
class FailedMeasurement:
    """A gracefully degraded evaluation outcome.

    Mirrors :class:`repro.orio.evaluator.Measurement` closely enough for
    the search layer (``runtime_seconds``, ``evaluation_cost``) while
    flagging itself via ``failed=True``.  ``runtime_seconds`` is the
    censored bound for timeouts and ``inf`` otherwise (a failed
    configuration can never look attractive); the
    cost of the failed attempts was already charged to the clock when
    they happened, so ``evaluation_cost`` is zero.
    """

    config: Configuration
    runtime_seconds: float
    fault: str  # which failure mode ended the attempt sequence
    attempts: int  # how many evaluation attempts were made
    censored: bool = False
    compile_seconds: float = 0.0
    repetitions: int = 0
    failed: bool = True

    @property
    def evaluation_cost(self) -> float:
        return 0.0


class ResilientEvaluator:
    """Wrap an evaluator with retry and degradation.

    Parameters
    ----------
    evaluator:
        The wrapped evaluator (typically an
        :class:`~repro.reliability.faults.FaultyEvaluator` in tests and
        ablations, or a real evaluator in production use).
    retry:
        Backoff policy for transient failures and outage waits; defaults
        to 3 retries at 1 s doubling.  Use :meth:`RetryPolicy.none` to
        fail fast.
    """

    def __init__(self, evaluator, retry: RetryPolicy | None = None) -> None:
        self.evaluator = evaluator
        self.retry = retry if retry is not None else RetryPolicy()
        self.stats = ReliabilityStats()

    # Pass-through surface of the evaluator protocol -------------------
    @property
    def clock(self):
        return self.evaluator.clock

    def __getattr__(self, name: str):
        return getattr(self.evaluator, name)

    def measure(self, config):
        return self.evaluator.measure(config)

    # ------------------------------------------------------------------
    def _degrade(
        self, config, fault: str, attempts: int, censored_at: float | None = None
    ) -> FailedMeasurement:
        self.stats.degraded += 1
        self.stats.record_failure_mode(fault)
        if censored_at is not None:
            self.stats.censored += 1
        return FailedMeasurement(
            config=config,
            runtime_seconds=float("inf") if censored_at is None else censored_at,
            fault=fault,
            attempts=attempts,
            censored=censored_at is not None,
        )

    def evaluate(self, config):
        """Evaluate with recovery; returns a measurement, never raises a
        recoverable failure (only :class:`BudgetExhaustedError` and
        genuine programming errors propagate)."""
        retries_used = 0
        attempts = 0
        while True:
            attempts += 1
            self.stats.attempts += 1
            try:
                measurement = self.evaluator.evaluate(config)
            except BudgetExhaustedError:
                raise
            except EvaluationTimeout as exc:
                return self._degrade(
                    config, "timeout", attempts, censored_at=exc.censored_at
                )
            except CompileCrashError:
                return self._degrade(config, "compile-crash", attempts)
            except MachineOutageError as exc:
                if retries_used >= self.retry.max_retries:
                    return self._degrade(config, "outage", attempts)
                # Wait out the recovery horizon on the simulated clock;
                # an unaffordable wait exhausts the budget for real.
                self.clock.advance(exc.retry_after)
                self.stats.outage_wait_seconds += exc.retry_after
                self.stats.retries += 1
                retries_used += 1
            except TransientEvaluationError:
                if retries_used >= self.retry.max_retries:
                    return self._degrade(config, "transient", attempts)
                backoff = self.retry.backoff(retries_used)
                self.clock.advance(backoff)
                self.stats.backoff_seconds += backoff
                self.stats.retries += 1
                retries_used += 1
            else:
                self.stats.successes += 1
                return measurement

    def __call__(self, config) -> float:
        return self.evaluate(config).runtime_seconds

    # ------------------------------------------------------------------
    # Checkpoint support
    # ------------------------------------------------------------------
    def reliability_state(self) -> dict:
        state: dict = {"stats": self.stats.as_dict()}
        inner = getattr(self.evaluator, "reliability_state", None)
        if callable(inner):
            state["inner"] = inner()
        return state

    def load_reliability_state(self, state: dict) -> None:
        self.stats.load_state(state["stats"])
        inner = getattr(self.evaluator, "load_reliability_state", None)
        if callable(inner) and "inner" in state:
            inner(state["inner"])
