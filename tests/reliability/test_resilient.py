"""Retry/backoff accounting and graceful degradation."""

from dataclasses import dataclass

import pytest

from repro.errors import (
    BudgetExhaustedError,
    CompileCrashError,
    EvaluationTimeout,
    MachineOutageError,
    SearchError,
    TransientEvaluationError,
)
from repro.machines import SANDYBRIDGE
from repro.orio.evaluator import OrioEvaluator
from repro.perf.simclock import SimClock
from repro.reliability import (
    FaultSpec,
    FaultyEvaluator,
    ResilientEvaluator,
    RetryPolicy,
)
from repro.search.biasing import biased_search
from repro.spec import PoolSpec, TunerSpec


def _pool(size):
    """The default spec with a pool of ``size`` configurations."""
    return TunerSpec(pool=PoolSpec(size=size))


@dataclass(frozen=True)
class FakeMeasurement:
    config: object
    runtime_seconds: float
    compile_seconds: float = 0.5
    repetitions: int = 1

    @property
    def evaluation_cost(self) -> float:
        return 2.0


class ScriptedEvaluator:
    """Raise the scripted exceptions in order, then measure cleanly."""

    def __init__(self, clock, script=(), runtime=1.0, cost=2.0):
        self.clock = clock
        self.script = list(script)
        self.runtime = runtime
        self.cost = cost
        self.calls = 0

    def evaluate(self, config):
        self.calls += 1
        if self.script:
            raise self.script.pop(0)
        self.clock.advance(self.cost)
        return FakeMeasurement(config=config, runtime_seconds=self.runtime)


class TestRetryPolicy:
    def test_exponential_schedule(self):
        policy = RetryPolicy(max_retries=4, backoff_seconds=1.5, backoff_factor=2.0)
        assert [policy.backoff(k) for k in range(4)] == [1.5, 3.0, 6.0, 12.0]

    def test_backoff_cap(self):
        policy = RetryPolicy(
            max_retries=4, backoff_seconds=100.0, backoff_factor=10.0,
            max_backoff_seconds=300.0,
        )
        assert ([policy.backoff(k) for k in range(4)]
                == [100.0, 300.0, 300.0, 300.0])

    def test_none_policy(self):
        policy = RetryPolicy.none()
        assert policy.max_retries == 0

    def test_validation(self):
        with pytest.raises(SearchError):
            RetryPolicy(max_retries=-1)
        with pytest.raises(SearchError):
            RetryPolicy(backoff_factor=0.5)
        with pytest.raises(SearchError):
            RetryPolicy().backoff(-1)


class TestRetryClockAccounting:
    def test_exhausted_retries_charge_exact_backoff(self):
        # N retries at backoff b, factor f must advance the clock by
        # exactly b + b*f + ... + b*f^(N-1): robustness is paid in
        # simulated seconds, nothing more, nothing less.
        clock = SimClock()
        policy = RetryPolicy(max_retries=3, backoff_seconds=1.0, backoff_factor=2.0)
        inner = ScriptedEvaluator(
            clock, script=[TransientEvaluationError("glitch")] * 4
        )
        resilient = ResilientEvaluator(inner, retry=policy)
        m = resilient.evaluate(config=None)
        assert m.failed and m.fault == "transient" and m.attempts == 4
        assert m.runtime_seconds == float("inf")
        assert clock.now == pytest.approx(1.0 + 2.0 + 4.0)
        assert resilient.stats.retries == 3
        assert resilient.stats.backoff_seconds == pytest.approx(7.0)

    def test_recovery_charges_only_used_backoffs(self):
        clock = SimClock()
        inner = ScriptedEvaluator(
            clock, script=[TransientEvaluationError("glitch")] * 2
        )
        resilient = ResilientEvaluator(
            inner, retry=RetryPolicy(max_retries=3, backoff_seconds=1.0)
        )
        m = resilient.evaluate(config=None)
        assert not getattr(m, "failed", False)
        assert m.runtime_seconds == pytest.approx(1.0)
        # Two backoffs (1 + 2) plus the successful evaluation's cost.
        assert clock.now == pytest.approx(1.0 + 2.0 + 2.0)
        assert resilient.stats.successes == 1
        assert resilient.stats.retries == 2

    def test_outage_wait_charged(self):
        clock = SimClock()
        inner = ScriptedEvaluator(
            clock, script=[MachineOutageError("down", retry_after=600.0)]
        )
        resilient = ResilientEvaluator(inner, retry=RetryPolicy())
        m = resilient.evaluate(config=None)
        assert not getattr(m, "failed", False)
        assert clock.now == pytest.approx(600.0 + 2.0)
        assert resilient.stats.outage_wait_seconds == pytest.approx(600.0)

    def test_unaffordable_wait_kills_the_budget(self):
        clock = SimClock(budget_seconds=100.0)
        inner = ScriptedEvaluator(
            clock, script=[MachineOutageError("down", retry_after=600.0)]
        )
        resilient = ResilientEvaluator(inner, retry=RetryPolicy())
        with pytest.raises(BudgetExhaustedError):
            resilient.evaluate(config=None)


class TestDegradation:
    def test_timeout_degrades_to_censored(self):
        clock = SimClock()
        inner = ScriptedEvaluator(
            clock, script=[EvaluationTimeout("cap", censored_at=120.0)]
        )
        m = ResilientEvaluator(inner, retry=RetryPolicy()).evaluate(config=None)
        assert m.failed and m.censored
        assert m.runtime_seconds == pytest.approx(120.0)
        assert m.fault == "timeout" and m.attempts == 1
        assert m.evaluation_cost == 0.0  # the cost was charged in-flight

    def test_compile_crash_not_retried(self):
        clock = SimClock()
        inner = ScriptedEvaluator(clock, script=[CompileCrashError("segfault")])
        m = ResilientEvaluator(inner, retry=RetryPolicy()).evaluate(config=None)
        assert m.failed and not m.censored
        assert m.fault == "compile-crash"
        assert inner.calls == 1  # retrying a deterministic crash is useless

    def test_outage_fail_fast(self):
        clock = SimClock()
        inner = ScriptedEvaluator(
            clock, script=[MachineOutageError("down", retry_after=600.0)] * 2
        )
        m = ResilientEvaluator(inner, retry=RetryPolicy.none()).evaluate(
            config=None
        )
        assert m.failed and m.fault == "outage"
        assert clock.now == 0.0  # no wait was charged


class TestReliabilityState:
    def test_state_with_circuit_breaker_keys_loads(self):
        # A checkpoint written by a version with a circuit breaker
        # carries its state and a "short_circuited" counter; loading it
        # ignores both.
        writer = ResilientEvaluator(
            ScriptedEvaluator(SimClock(), script=[TransientEvaluationError("x")])
        )
        writer.evaluate(config=None)
        state = writer.reliability_state()
        state["stats"]["short_circuited"] = 0
        state["circuit"] = {"consecutive_failures": 1, "open_until": 0.0,
                            "n_trips": 0}
        reader = ResilientEvaluator(ScriptedEvaluator(SimClock()))
        reader.load_reliability_state(state)
        assert reader.stats == writer.stats
        assert reader.stats.retries == 1


class TestSearchUnderFaults:
    def test_rsb_completes_at_ten_percent_faults(self, kernel, surrogate):
        # The issue's acceptance scenario: 10% fault rate, retries on —
        # the search must finish all evaluations without raising.
        resilient = ResilientEvaluator(
            FaultyEvaluator(
                OrioEvaluator(kernel, SANDYBRIDGE, clock=SimClock()),
                FaultSpec.uniform(0.10, seed="accept"),
            ),
            retry=RetryPolicy(),
        )
        trace = biased_search(resilient, kernel.space, surrogate, nmax=40,
                              spec=_pool(500))
        assert trace.n_evaluations == 40
        assert trace.best_runtime > 0
        assert resilient.stats.attempts >= 40

    def test_failures_marked_distinctly(self, kernel, surrogate):
        # Fail fast at a high fault rate: the trace must separate failed
        # records from successes and never pick a failure as best.
        resilient = ResilientEvaluator(
            FaultyEvaluator(
                OrioEvaluator(kernel, SANDYBRIDGE, clock=SimClock()),
                FaultSpec.uniform(0.30, seed="marked"),
            ),
            retry=RetryPolicy.none(),
        )
        trace = biased_search(resilient, kernel.space, surrogate, nmax=40,
                              spec=_pool(500))
        assert trace.n_failures > 0
        assert len(trace.successes()) + len(trace.failures()) == 40
        assert all(r.failed for r in trace.failures())
        assert not trace.best().failed
        best_so_far = trace.best_so_far()[1]
        assert all(v < float("inf") for v in best_so_far)
