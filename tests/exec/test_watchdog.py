"""Tests for the watchdog's pure deadline/heartbeat logic."""

import pytest

from repro.exec.watchdog import MIN_STALL_GRACE, Watchdog


class TestTimeouts:
    def test_task_within_budget_is_not_overdue(self):
        wd = Watchdog(task_timeout=10.0, heartbeat_interval=None)
        wd.assign(0, 7, now=100.0)
        assert wd.overdue(now=105.0) == []

    def test_blown_budget_is_overdue(self):
        wd = Watchdog(task_timeout=10.0, heartbeat_interval=None)
        wd.assign(0, 7, now=100.0)
        verdicts = wd.overdue(now=110.5)
        assert len(verdicts) == 1
        v = verdicts[0]
        assert (v.slot, v.task_id, v.reason) == (0, 7, "timeout")
        assert v.elapsed == pytest.approx(10.5)

    def test_no_timeout_configured_never_times_out(self):
        wd = Watchdog(task_timeout=None, heartbeat_interval=None)
        wd.assign(0, 7, now=0.0)
        assert wd.overdue(now=1e9) == []

    def test_clear_removes_assignment(self):
        wd = Watchdog(task_timeout=1.0, heartbeat_interval=None)
        wd.assign(0, 7, now=0.0)
        wd.clear(0)
        assert wd.overdue(now=100.0) == []


class TestHeartbeats:
    def test_beating_worker_is_not_stalled(self):
        wd = Watchdog(task_timeout=None, heartbeat_interval=1.0, stall_factor=3.0)
        wd.assign(0, 7, now=0.0)
        for t in range(1, 50):
            wd.beat(0, 7, now=float(t))
        assert wd.overdue(now=50.0) == []

    def test_silent_worker_stalls(self):
        wd = Watchdog(task_timeout=None, heartbeat_interval=1.0, stall_factor=3.0)
        wd.assign(0, 7, now=0.0)
        wd.beat(0, 7, now=1.0)
        verdicts = wd.overdue(now=1.0 + 3.0 + 0.1)
        assert [v.reason for v in verdicts] == ["stalled"]

    def test_stale_task_beats_are_ignored(self):
        wd = Watchdog(task_timeout=None, heartbeat_interval=1.0, stall_factor=3.0)
        wd.assign(0, 7, now=0.0)
        wd.beat(0, 99, now=3.9)  # beat for a task this slot no longer runs
        assert [v.reason for v in wd.overdue(now=4.1)] == ["stalled"]

    def test_minimum_grace_floor(self):
        wd = Watchdog(task_timeout=None, heartbeat_interval=0.01, stall_factor=2.0)
        assert wd.stall_grace == MIN_STALL_GRACE

    def test_timeout_wins_over_stall(self):
        wd = Watchdog(task_timeout=5.0, heartbeat_interval=1.0, stall_factor=3.0)
        wd.assign(0, 7, now=0.0)
        assert [v.reason for v in wd.overdue(now=6.0)] == ["timeout"]


class TestValidation:
    def test_rejects_nonpositive_budgets(self):
        with pytest.raises(ValueError):
            Watchdog(task_timeout=0.0)
        with pytest.raises(ValueError):
            Watchdog(heartbeat_interval=-1.0)
