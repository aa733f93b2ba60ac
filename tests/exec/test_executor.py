"""Integration tests for the supervised executor.

Worker functions live at module level so they survive both fork and
spawn start methods.  Crash/hang cells are selected by value, and
"recover on retry" behaviour is driven through marker files passed in
the spec — the executor itself stays deterministic.
"""

import functools
import multiprocessing as mp
import os
import time

import pytest

from repro.errors import TaskTimeoutError, WorkerCrashError
from repro.exec import CellFailure, SupervisedExecutor
from repro.exec.executor import default_workers


def _square(x):
    return x * x


def _crash_on_three(x):
    if x == 3:
        os._exit(1)
    return x * x


def _crash_once(x, marker):
    """Die on cell 3 the first time only; the retry finds the marker."""
    if x == 3 and not os.path.exists(marker):
        with open(marker, "w"):
            pass
        os._exit(1)
    return x * x


def _hang_on_three(x):
    if x == 3:
        time.sleep(60.0)
    return x * x


def _raise_on_three(x):
    if x == 3:
        raise ValueError("boom on 3")
    return x * x


def _fast_executor(**kwargs):
    kwargs.setdefault("n_workers", 3)
    kwargs.setdefault("task_timeout", None)
    kwargs.setdefault("retry_backoff_seconds", 0.01)
    kwargs.setdefault("poll_interval", 0.02)
    return SupervisedExecutor(**kwargs)


ITEMS = list(range(8))
SERIAL = [x * x for x in ITEMS]


class TestHappyPath:
    def test_parallel_matches_serial(self):
        assert _fast_executor().map(_square, ITEMS) == SERIAL

    def test_empty(self):
        executor = _fast_executor()
        assert executor.map(_square, []) == []
        assert executor.map(_square, [], chunksize=7) == []

    def test_generator_input(self):
        executor = _fast_executor()
        assert executor.map(_square, (x for x in ITEMS)) == SERIAL
        items = list(range(50))
        assert executor.map(_square, iter(items), chunksize=7) == [
            x * x for x in items
        ]

    def test_on_result_sees_every_completion(self):
        seen = {}
        _fast_executor().map(
            _square, ITEMS, on_result=lambda i, r, attempts: seen.setdefault(i, r)
        )
        assert seen == {i: x * x for i, x in enumerate(ITEMS)}

    def test_chunked_dispatch_preserves_order(self):
        items = list(range(50))
        assert _fast_executor().map(_square, items, chunksize=7) == [
            x * x for x in items
        ]


class TestCrashRecovery:
    def test_deterministic_crash_is_quarantined_others_bitwise_equal(self):
        results = _fast_executor(max_task_retries=1).map(
            _crash_on_three, ITEMS, on_failure="quarantine"
        )
        failure = results[3]
        assert isinstance(failure, CellFailure)
        assert failure.kind == "crash"
        assert failure.error == "WorkerCrashError"
        assert failure.exitcode == 1
        assert failure.attempts == 2  # first run + one retry
        assert failure.index == 3 and failure.key == 3
        expected = [x * x for x in ITEMS]
        assert [r for i, r in enumerate(results) if i != 3] == [
            v for i, v in enumerate(expected) if i != 3
        ]

    def test_transient_crash_recovers_on_retry(self, tmp_path):
        marker = str(tmp_path / "crashed-once")
        func = functools.partial(_crash_once, marker=marker)
        results = _fast_executor(max_task_retries=2).map(
            func, ITEMS, on_failure="quarantine"
        )
        assert results == SERIAL  # no holes: the retry succeeded
        assert os.path.exists(marker)

    def test_exhausted_retries_raise_worker_crash_error(self):
        with pytest.raises(WorkerCrashError) as excinfo:
            _fast_executor(max_task_retries=0).map(_crash_on_three, ITEMS)
        assert excinfo.value.exitcode == 1

    def test_crash_does_not_invoke_on_result(self):
        seen = []
        _fast_executor(max_task_retries=0).map(
            _crash_on_three,
            ITEMS,
            on_failure="quarantine",
            on_result=lambda i, r, a: seen.append(i),
        )
        assert 3 not in seen
        assert sorted(seen) == [i for i in range(len(ITEMS)) if i != 3]


class TestHangRecovery:
    def test_hung_cell_is_killed_and_quarantined_as_timeout(self):
        results = _fast_executor(task_timeout=0.4, max_task_retries=1).map(
            _hang_on_three, ITEMS, on_failure="quarantine"
        )
        failure = results[3]
        assert isinstance(failure, CellFailure)
        assert failure.kind == "timeout"
        assert failure.error == "TaskTimeoutError"
        assert failure.attempts == 2
        assert [r for i, r in enumerate(results) if i != 3] == [
            v for i, v in enumerate(SERIAL) if i != 3
        ]

    def test_hung_cell_raises_after_retries_in_raise_mode(self):
        with pytest.raises(TaskTimeoutError) as excinfo:
            _fast_executor(task_timeout=0.4, max_task_retries=0).map(
                _hang_on_three, ITEMS
            )
        assert excinfo.value.elapsed is not None
        assert excinfo.value.elapsed >= 0.4

    def test_env_task_timeout_is_honoured(self, monkeypatch):
        monkeypatch.setenv("REPRO_TASK_TIMEOUT", "0.4")
        ex = _fast_executor(task_timeout="env", max_task_retries=0)
        assert ex.task_timeout == 0.4
        with pytest.raises(TaskTimeoutError):
            ex.map(_hang_on_three, ITEMS)


class TestApplicationErrors:
    def test_app_exception_is_never_retried(self):
        results = _fast_executor(max_task_retries=5).map(
            _raise_on_three, ITEMS, on_failure="quarantine"
        )
        failure = results[3]
        assert isinstance(failure, CellFailure)
        assert failure.kind == "error"
        assert failure.error == "ValueError"
        assert failure.message == "boom on 3"
        assert failure.attempts == 1  # deterministic: retrying is pointless

    def test_raise_mode_preserves_exception_type_and_remote_traceback(self):
        with pytest.raises(ValueError, match="boom on 3") as excinfo:
            _fast_executor().map(_raise_on_three, ITEMS)
        assert "_raise_on_three" in str(excinfo.value.__cause__)


class TestTeardown:
    def _assert_no_exec_children(self):
        deadline = time.monotonic() + 3.0
        while time.monotonic() < deadline:
            leaked = [
                p for p in mp.active_children() if p.name.startswith("repro-exec-")
            ]
            if not leaked:
                return
            time.sleep(0.05)
        raise AssertionError(f"leaked worker processes: {leaked}")

    def test_no_workers_leak_after_success(self):
        _fast_executor().map(_square, ITEMS)
        self._assert_no_exec_children()

    def test_no_workers_leak_after_raise(self):
        with pytest.raises(ValueError):
            _fast_executor().map(_raise_on_three, ITEMS)
        self._assert_no_exec_children()

    def test_no_workers_leak_after_crash(self):
        with pytest.raises(WorkerCrashError):
            _fast_executor(max_task_retries=0).map(_crash_on_three, ITEMS)
        self._assert_no_exec_children()


class TestValidation:
    def test_misaligned_keys_rejected(self):
        with pytest.raises(ValueError, match="must align"):
            _fast_executor().map(_square, ITEMS, keys=[1, 2])

    def test_unknown_failure_mode_rejected(self):
        with pytest.raises(ValueError, match="on_failure"):
            _fast_executor().map(_square, ITEMS, on_failure="ignore")

    def test_quarantine_requires_unit_chunks(self):
        with pytest.raises(ValueError, match="chunksize=1"):
            _fast_executor().map(
                _square, ITEMS, chunksize=4, on_failure="quarantine"
            )

    def test_negative_retries_rejected(self):
        with pytest.raises(ValueError, match="max_task_retries"):
            SupervisedExecutor(max_task_retries=-1)

    def test_serial_fallback_quarantines_app_errors(self):
        results = SupervisedExecutor(n_workers=1).map(
            _raise_on_three, ITEMS, on_failure="quarantine"
        )
        assert isinstance(results[3], CellFailure)
        assert results[3].kind == "error"
        assert [r for i, r in enumerate(results) if i != 3] == [
            v for i, v in enumerate(SERIAL) if i != 3
        ]


class TestWorkerOverride:
    def test_default_workers_bounds(self):
        w = default_workers()
        assert 1 <= w <= 8
        assert w <= (os.cpu_count() or 1)

    def test_env_override(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "3")
        assert default_workers() == 3

    def test_env_override_floors_at_one(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "0")
        assert default_workers() == 1

    def test_env_override_rejects_garbage(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "many")
        with pytest.raises(ValueError):
            default_workers()

    def test_garbage_message_names_variable_and_value(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "many")
        with pytest.raises(
            ValueError, match=r"REPRO_WORKERS must be an integer, got 'many'"
        ) as excinfo:
            default_workers()
        # The int() parse failure is implementation detail, not context:
        # the re-raise uses `from None` so the traceback shows exactly
        # one error, not "During handling ... another exception".
        assert excinfo.value.__cause__ is None
        assert excinfo.value.__suppress_context__
