"""Chaos injection: deterministic worker kills exercise supervision.

Chaos is an argument (``chaos=ChaosConfig(...)``), never read from the
environment.  The recovery tests below run at a moderate pressure and
at :data:`GAUNTLET`, a heavy kill-and-hang one, so the same assertions
hold under both.
"""

from repro.exec import CellFailure, ChaosConfig, SupervisedExecutor, run_grid
from repro.exec.executor import CHAOS_EXITCODE


def _square(x):
    return x * x


def _chaos_executor(chaos, **kwargs):
    kwargs.setdefault("n_workers", 3)
    kwargs.setdefault("retry_backoff_seconds", 0.01)
    kwargs.setdefault("poll_interval", 0.02)
    return SupervisedExecutor(chaos=chaos, **kwargs)


class TestChaosConfig:
    def test_decisions_are_deterministic(self):
        a = ChaosConfig(kill_rate=0.5, seed=7)
        b = ChaosConfig(kill_rate=0.5, seed=7)
        decisions = [(t, r) for t in range(20) for r in range(3)]
        assert [a.should_kill(t, r) for t, r in decisions] == [
            b.should_kill(t, r) for t, r in decisions
        ]

    def test_retries_draw_fresh_decisions(self):
        chaos = ChaosConfig(kill_rate=0.5, seed=7)
        draws = {chaos.should_kill(3, attempt) for attempt in range(32)}
        assert draws == {True, False}  # not stuck on one verdict

    def test_rate_zero_never_kills_rate_one_always(self):
        never = ChaosConfig(kill_rate=0.0, seed=1)
        always = ChaosConfig(kill_rate=1.0, seed=1)
        assert not any(never.should_kill(t, 0) for t in range(50))
        assert all(always.should_kill(t, 0) for t in range(50))

    def test_environment_is_not_read(self, monkeypatch):
        # Chaos is the chaos= argument; the retired REPRO_CHAOS_*
        # variables are inert.
        monkeypatch.setenv("REPRO_CHAOS_RATE", "1.0")
        assert not hasattr(ChaosConfig, "from_env")
        assert SupervisedExecutor().chaos is None


class TestChaosHang:
    def test_hang_decisions_deterministic_and_independent_of_kills(self):
        a = ChaosConfig(kill_rate=0.0, hang_rate=0.5, seed=7)
        b = ChaosConfig(kill_rate=1.0, hang_rate=0.5, seed=7)
        decisions = [(t, r) for t in range(20) for r in range(3)]
        assert [a.should_hang(t, r) for t, r in decisions] == [
            b.should_hang(t, r) for t, r in decisions
        ]
        assert {a.should_hang(3, r) for r in range(32)} == {True, False}

    def test_rate_zero_never_hangs_rate_one_always(self):
        never = ChaosConfig(kill_rate=0.0, hang_rate=0.0, seed=1)
        always = ChaosConfig(kill_rate=0.0, hang_rate=1.0, seed=1)
        assert not any(never.should_hang(t, 0) for t in range(50))
        assert all(always.should_hang(t, 0) for t in range(50))

    def test_short_hangs_delay_but_results_are_exact(self):
        import time as _time

        chaos = ChaosConfig(kill_rate=0.0, hang_rate=1.0, hang_seconds=0.2,
                            seed=1)
        started = _time.monotonic()
        results = _chaos_executor(chaos, n_workers=2).map(_square, [1, 2, 3, 4])
        assert results == [1, 4, 9, 16]
        assert _time.monotonic() - started >= 0.2  # the hangs really ran

    def test_hang_past_the_deadline_is_killed_as_timeout(self):
        # The hang swallows the whole wall-clock budget without a single
        # heartbeat; the watchdog must kill the worker, not wait it out.
        chaos = ChaosConfig(kill_rate=0.0, hang_rate=1.0, hang_seconds=30.0,
                            seed=1)
        results = _chaos_executor(
            chaos, n_workers=2, task_timeout=0.4, max_task_retries=0
        ).map(_square, [5, 6])
        assert all(isinstance(r, CellFailure) for r in results)
        assert {r.kind for r in results} == {"timeout"}


#: Heavy pressure: half of all dispatches kill their worker and,
#: independently, a fifth hang it.
GAUNTLET = ChaosConfig(kill_rate=0.5, hang_rate=0.2, seed=7)


class TestChaosRecovery:
    def test_grid_survives_injected_kills_bitwise_equal_to_serial(self):
        # Generous retries: recovery, not attrition, is what this test
        # measures.
        items = list(range(12))
        for chaos in (ChaosConfig(kill_rate=0.35, seed=2), GAUNTLET):
            results = _chaos_executor(chaos, max_task_retries=10).map(
                _square, items
            )
            assert results == [x * x for x in items], chaos

    def test_certain_death_quarantines_with_chaos_exitcode(self):
        chaos = ChaosConfig(kill_rate=1.0, seed=0)
        results = _chaos_executor(chaos, max_task_retries=1, n_workers=2).map(
            _square, [1, 2, 3]
        )
        assert all(isinstance(r, CellFailure) for r in results)
        assert {r.kind for r in results} == {"crash"}
        assert {r.exitcode for r in results} == {CHAOS_EXITCODE}
        assert {r.attempts for r in results} == {2}

    def test_chaotic_grid_journals_and_resumes(self, tmp_path):
        items = list(range(10))
        for i, chaos in enumerate((ChaosConfig(kill_rate=0.35, seed=3),
                                   GAUNTLET)):
            journal = tmp_path / f"journal{i}.jsonl"
            first = run_grid(
                "chaos-grid",
                _square,
                items,
                registry=journal,
                executor=SupervisedExecutor(
                    n_workers=3, max_task_retries=10, chaos=chaos
                ),
            )
            assert first.ok and first.executed == 10, chaos
            assert list(first.results) == [x * x for x in items]
            second = run_grid(
                "chaos-grid",
                _square,
                items,
                registry=journal,
                executor=SupervisedExecutor(n_workers=3, chaos=chaos),
            )
            assert second.cached == 10 and second.executed == 0, chaos
            assert list(second.results) == list(first.results)


class TestChaosKillsAreRetriedNotRaised:
    def test_kills_are_retried_not_quarantined(self):
        chaos = ChaosConfig(kill_rate=0.35, seed=5)
        items = list(range(8))
        ex = _chaos_executor(chaos, max_task_retries=10)
        results = ex.map(_square, items)
        assert not any(isinstance(r, CellFailure) for r in results)
        assert results == [x * x for x in items]
        stats = ex.stats()
        assert stats.chaos_kills > 0 and stats.quarantined == 0

    def test_serial_path_ignores_chaos(self):
        # n_workers=1 runs in-process: chaos would kill the test runner.
        chaos = ChaosConfig(kill_rate=1.0, seed=0)
        ex = SupervisedExecutor(n_workers=1, chaos=chaos)
        assert ex.map(_square, [1, 2, 3]) == [1, 4, 9]
