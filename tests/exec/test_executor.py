"""Integration tests for the supervised executor.

Worker functions live at module level so they survive both fork and
spawn start methods.  Crash/hang cells are selected by value, and
"recover on retry" behaviour is driven through marker files passed in
the spec — the executor itself stays deterministic.
"""

import functools
import multiprocessing as mp
import os
import signal
import subprocess
import sys
import time

import pytest

import repro
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


def _sleep_then_square(x):
    time.sleep(0.1)
    return x * x


def _raise_on_three(x):
    if x == 3:
        raise ValueError("boom on 3")
    return x * x


def _fast_executor(**kwargs):
    kwargs.setdefault("n_workers", 3)
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

    def test_generator_input(self):
        executor = _fast_executor()
        assert executor.map(_square, (x for x in ITEMS)) == SERIAL
        items = list(range(50))
        assert executor.map(_square, iter(items)) == [x * x for x in items]

    def test_on_result_sees_every_completion(self):
        seen = {}
        _fast_executor().map(
            _square, ITEMS, on_result=lambda i, r, attempts: seen.setdefault(i, r)
        )
        assert seen == {i: x * x for i, x in enumerate(ITEMS)}


class TestCrashRecovery:
    def test_deterministic_crash_is_quarantined_others_bitwise_equal(self):
        results = _fast_executor(max_task_retries=1).map(
            _crash_on_three, ITEMS
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
            func, ITEMS
        )
        assert results == SERIAL  # no holes: the retry succeeded
        assert os.path.exists(marker)

    def test_exhausted_retries_quarantine_as_crash(self):
        results = _fast_executor(max_task_retries=0).map(_crash_on_three, ITEMS)
        failure = results[3]
        assert isinstance(failure, CellFailure)
        assert failure.kind == "crash"
        assert failure.error == "WorkerCrashError"
        assert failure.exitcode == 1
        assert failure.attempts == 1  # no retries allowed

    def test_crash_does_not_invoke_on_result(self):
        seen = []
        _fast_executor(max_task_retries=0).map(
            _crash_on_three,
            ITEMS,
            on_result=lambda i, r, a: seen.append(i),
        )
        assert 3 not in seen
        assert sorted(seen) == [i for i in range(len(ITEMS)) if i != 3]


class TestHangRecovery:
    def test_hung_cell_is_killed_and_quarantined_as_timeout(self):
        results = _fast_executor(task_timeout=0.4, max_task_retries=1).map(
            _hang_on_three, ITEMS
        )
        failure = results[3]
        assert isinstance(failure, CellFailure)
        assert failure.kind == "timeout"
        assert failure.error == "TaskTimeoutError"
        assert failure.attempts == 2
        assert [r for i, r in enumerate(results) if i != 3] == [
            v for i, v in enumerate(SERIAL) if i != 3
        ]

    def test_hung_cell_without_retries_is_quarantined_as_timeout(self):
        results = _fast_executor(task_timeout=0.4, max_task_retries=0).map(
            _hang_on_three, ITEMS
        )
        failure = results[3]
        assert isinstance(failure, CellFailure)
        assert (failure.kind, failure.error) == ("timeout", "TaskTimeoutError")
        assert failure.attempts == 1
        # The message reports how long the cell ran before the kill.
        ran = float(failure.message.split("(ran ")[1].split("s)")[0])
        assert ran >= 0.4

    def test_task_timeout_is_an_argument_only(self, monkeypatch):
        # REPRO_TASK_TIMEOUT is not read: without task_timeout= a slow
        # cell runs to completion however small the variable says.
        monkeypatch.setenv("REPRO_TASK_TIMEOUT", "0.01")
        ex = SupervisedExecutor(n_workers=2, max_task_retries=0,
                                poll_interval=0.02)
        assert ex.task_timeout is None
        assert ex.map(_sleep_then_square, [1, 2, 3]) == [1, 4, 9]


class TestApplicationErrors:
    def test_app_exception_is_never_retried(self):
        results = _fast_executor(max_task_retries=5).map(
            _raise_on_three, ITEMS
        )
        failure = results[3]
        assert isinstance(failure, CellFailure)
        assert failure.kind == "error"
        assert failure.error == "ValueError"
        assert failure.message == "boom on 3"
        assert failure.attempts == 1  # deterministic: retrying is pointless


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
        results = _fast_executor().map(_raise_on_three, ITEMS)
        assert results[3].kind == "error"
        self._assert_no_exec_children()

    def test_no_workers_leak_after_crash(self):
        results = _fast_executor(max_task_retries=0).map(_crash_on_three, ITEMS)
        assert results[3].kind == "crash"
        self._assert_no_exec_children()


_ORPHAN_CHILD = """
import os, time
from repro.exec import SupervisedExecutor

def _report_and_sleep(x):
    os.write(1, b"%d\\n" % os.getpid())  # one write: workers never interleave
    time.sleep(60.0)
    return x

SupervisedExecutor(n_workers=2, heartbeat_interval=None).map(_report_and_sleep, [0, 1])
"""


def _running(pid):
    """Whether ``pid`` exists and is not a zombie (reads /proc)."""
    try:
        with open(f"/proc/{pid}/stat") as f:
            stat = f.read()
    except OSError:  # gone, possibly while being read
        return False
    return stat.rsplit(")", 1)[1].split()[0] != "Z"


@pytest.mark.skipif(not os.path.isdir("/proc"), reason="reads /proc")
class TestSupervisorDeath:
    def test_workers_exit_when_supervisor_is_sigkilled(self):
        """A SIGKILLed supervisor gets no teardown; its workers must
        still exit on their own, mid-task and without heartbeats."""
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (os.path.dirname(os.path.dirname(repro.__file__)),
                        env.get("PYTHONPATH", "")) if p
        )
        proc = subprocess.Popen([sys.executable, "-c", _ORPHAN_CHILD],
                                stdout=subprocess.PIPE, text=True, env=env)
        try:
            pids = [int(proc.stdout.readline()) for _ in range(2)]
            os.kill(proc.pid, signal.SIGKILL)
            proc.wait(timeout=10.0)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait(timeout=10.0)
            proc.stdout.close()
        deadline = time.monotonic() + 5.0
        while any(map(_running, pids)) and time.monotonic() < deadline:
            time.sleep(0.05)
        survivors = [pid for pid in pids if _running(pid)]
        for pid in survivors:  # leave nothing behind for later tests
            os.kill(pid, signal.SIGKILL)
        assert not survivors, f"workers outlived their supervisor: {survivors}"


class TestValidation:
    def test_misaligned_keys_rejected(self):
        with pytest.raises(ValueError, match="must align"):
            _fast_executor().map(_square, ITEMS, keys=[1, 2])

    def test_negative_retries_rejected(self):
        with pytest.raises(ValueError, match="max_task_retries"):
            SupervisedExecutor(max_task_retries=-1)

    def test_serial_fallback_quarantines_app_errors(self):
        results = SupervisedExecutor(n_workers=1).map(
            _raise_on_three, ITEMS
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
