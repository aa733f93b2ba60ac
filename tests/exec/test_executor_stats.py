"""Tests for executor introspection (stats) and teardown draining."""

import time

import pytest

from repro.exec import ExecutorStats
from repro.exec import executor as executor_mod
from repro.exec.executor import CellFailure, SupervisedExecutor


def _double(x):
    return x * 2


def _fail(x):
    raise ValueError(f"bad {x}")


def _slowish(x):
    time.sleep(0.05)
    return x + 1


class TestStats:
    def test_fresh_executor_reports_zeroes(self):
        stats = SupervisedExecutor(n_workers=1).stats()
        assert stats == ExecutorStats(
            live_workers=0, busy_workers=0, queue_depth=0,
            tasks_completed=0, retries=0, quarantined=0,
            worker_deaths=0, timeouts=0,
        )

    def test_serial_map_counts_completions(self):
        ex = SupervisedExecutor(n_workers=1)
        assert ex.map(_double, [1, 2, 3]) == [2, 4, 6]
        stats = ex.stats()
        assert stats.tasks_completed == 3
        assert stats.live_workers == 0  # nothing in flight now

    def test_serial_quarantine_counts(self):
        ex = SupervisedExecutor(n_workers=1)
        results = ex.map(_fail, [1, 2])
        assert all(isinstance(r, CellFailure) for r in results)
        assert ex.stats().quarantined == 2

    def test_counters_accumulate_across_map_calls(self):
        ex = SupervisedExecutor(n_workers=1)
        ex.map(_double, [1])
        ex.map(_double, [2])
        assert ex.stats().tasks_completed == 2

    def test_multiprocess_map_counts_completions(self):
        ex = SupervisedExecutor(n_workers=2, heartbeat_interval=None)
        assert ex.map(_double, [1, 2, 3, 4]) == [2, 4, 6, 8]
        stats = ex.stats()
        assert stats.tasks_completed == 4
        assert stats.live_workers == 0  # fleet torn down after map

    def test_stats_snapshot_during_run(self):
        """stats() taken from a hook mid-map sees the live fleet."""
        ex = SupervisedExecutor(n_workers=2, heartbeat_interval=None)
        seen = []

        def hook(index, result, attempts):
            seen.append(ex.stats())

        ex.map(_slowish, [1, 2, 3, 4], on_result=hook)
        assert any(s.live_workers > 0 for s in seen)


class TestTeardownDrain:
    def test_interrupt_salvages_in_flight_results(self, monkeypatch):
        """A loop exit at an arbitrary point must not drop results that
        workers already finished: teardown drains them first, so the
        journaling hook fires for every completed cell."""
        journaled = []
        real_loop = executor_mod._Supervision._loop

        def hijacked_loop(self):
            # Hand out tasks, give workers time to finish and write
            # their results into the pipes, then die like a SIGTERM.
            self._assign(time.monotonic())
            deadline = time.monotonic() + 10.0
            while time.monotonic() < deadline:
                busy = [w for w in self.workers.values()
                        if w.task_id is not None]
                if busy and all(w.conn.poll(0) for w in busy):
                    break
                time.sleep(0.01)
            raise KeyboardInterrupt("simulated SIGTERM")

        monkeypatch.setattr(executor_mod._Supervision, "_loop", hijacked_loop)
        monkeypatch.setattr(executor_mod, "DRAIN_GRACE", 5.0)
        ex = SupervisedExecutor(n_workers=2, heartbeat_interval=None)
        with pytest.raises(KeyboardInterrupt):
            ex.map(_double, [10, 20],
                   on_result=lambda i, r, a: journaled.append((i, r)))
        assert sorted(journaled) == [(0, 20), (1, 40)]
        monkeypatch.setattr(executor_mod._Supervision, "_loop", real_loop)

    def test_zero_drain_grace_still_tears_down(self, monkeypatch):
        def dying_loop(self):
            raise KeyboardInterrupt("immediate")

        monkeypatch.setattr(executor_mod._Supervision, "_loop", dying_loop)
        monkeypatch.setattr(executor_mod, "DRAIN_GRACE", 0.0)
        ex = SupervisedExecutor(n_workers=2, heartbeat_interval=None)
        with pytest.raises(KeyboardInterrupt):
            ex.map(_double, [1, 2])
        assert ex.stats().live_workers == 0
