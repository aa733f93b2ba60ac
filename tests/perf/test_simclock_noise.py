"""Tests for the simulated clock and noise models."""

import numpy as np
import pytest

from repro.errors import BudgetExhaustedError
from repro.perf.noise import machine_quirk, measurement_noise
from repro.perf.simclock import SimClock


class TestSimClock:
    def test_starts_at_zero(self):
        assert SimClock().now == 0.0

    def test_advance_accumulates(self):
        clock = SimClock()
        clock.advance(1.5)
        clock.advance(2.5)
        assert clock.now == pytest.approx(4.0)

    def test_negative_advance_rejected(self):
        with pytest.raises(ValueError):
            SimClock().advance(-1.0)

    def test_budget_enforced(self):
        clock = SimClock(budget_seconds=10.0)
        clock.advance(8.0)
        with pytest.raises(BudgetExhaustedError):
            clock.advance(3.0)
        # Failed advance leaves the clock unchanged.
        assert clock.now == pytest.approx(8.0)

    def test_remaining_and_afford(self):
        clock = SimClock(budget_seconds=10.0)
        clock.advance(4.0)
        assert clock.remaining == pytest.approx(6.0)

    def test_unbudgeted_remaining_infinite(self):
        assert SimClock().remaining == float("inf")

    def test_invalid_budget(self):
        with pytest.raises(ValueError):
            SimClock(budget_seconds=0.0)


class TestNoise:
    def test_deterministic(self):
        assert measurement_noise(0.1, "m", "k", 3) == measurement_noise(0.1, "m", "k", 3)
        assert machine_quirk(0.1, "m", "k") == machine_quirk(0.1, "m", "k")

    def test_rep_changes_measurement_not_quirk(self):
        a = measurement_noise(0.1, "m", "k", 0)
        b = measurement_noise(0.1, "m", "k", 1)
        assert a != b

    def test_zero_sigma_is_identity(self):
        assert measurement_noise(0.0, "m", "k") == 1.0
        assert machine_quirk(0.0, "m", "k") == 1.0

    def test_negative_sigma_rejected(self):
        with pytest.raises(ValueError):
            measurement_noise(-0.1, "m", "k")
        with pytest.raises(ValueError):
            machine_quirk(-0.1, "m", "k")

    def test_lognormal_statistics(self):
        vals = np.array([machine_quirk(0.2, "m", i) for i in range(3000)])
        logs = np.log(vals)
        assert abs(logs.mean()) < 0.02
        assert abs(logs.std() - 0.2) < 0.02

    def test_machines_get_independent_quirks(self):
        a = np.log([machine_quirk(0.3, "m1", i) for i in range(500)])
        b = np.log([machine_quirk(0.3, "m2", i) for i in range(500)])
        assert abs(np.corrcoef(a, b)[0, 1]) < 0.15
