"""Fault injection: the run registry under disk-full and permission-denied."""

import errno

import pytest

from repro.chaos.faultfs import FailingFS
from repro.errors import CheckpointError, JournalWriteError
from repro.exec import RunRegistry


@pytest.fixture
def registry(tmp_path):
    return RunRegistry(tmp_path / "journal.jsonl")


class TestDiskFull:
    def test_append_failure_is_structured_and_unacknowledged(
            self, registry, monkeypatch):
        registry.mark_completed("aa" * 16, "exp", 1)
        fs = FailingFS(monkeypatch, registry.path, err=errno.ENOSPC)
        fs.arm()
        with pytest.raises(JournalWriteError) as excinfo:
            registry.mark_completed("bb" * 16, "exp", 2)
        assert excinfo.value.path == registry.path
        assert excinfo.value.errno == errno.ENOSPC
        assert isinstance(excinfo.value, CheckpointError)
        # The journal is whole: only the acknowledged record replays.
        fs.disarm()
        assert set(registry.load().completed) == {"aa" * 16}

    def test_registry_survives_once_space_returns(self, registry, monkeypatch):
        fs = FailingFS(monkeypatch, registry.path, err=errno.ENOSPC)
        registry.mark_completed("aa" * 16, "exp", 1)
        fs.arm()
        for attempt in range(3):
            with pytest.raises(JournalWriteError):
                registry.mark_completed("bb" * 16, "exp", 2)
        fs.disarm()
        registry.mark_completed("bb" * 16, "exp", 2)
        state = registry.load()
        assert state.completed["aa" * 16].result() == 1
        assert state.completed["bb" * 16].result() == 2
        assert not state.dropped_partial  # no torn lines left behind

    def test_partial_write_leaves_recoverable_torn_tail(
            self, registry, monkeypatch):
        registry.mark_completed("aa" * 16, "exp", 1)
        fs = FailingFS(monkeypatch, registry.path, err=errno.ENOSPC,
                       partial=True)
        fs.arm()
        with pytest.raises(JournalWriteError):
            registry.mark_completed("bb" * 16, "exp", 2)
        fs.disarm()
        # The half-written record is a torn tail: dropped with a
        # warning, like any crash mid-append.
        with pytest.warns(RuntimeWarning, match="torn final record"):
            state = registry.load()
        assert set(state.completed) == {"aa" * 16}
        # The next append repairs the tail rather than gluing onto it.
        registry.mark_completed("cc" * 16, "exp", 3)
        assert set(registry.load().completed) == {"aa" * 16, "cc" * 16}

    def test_compaction_failure_keeps_old_journal(self, registry, monkeypatch):
        for i in range(4):
            registry.mark_completed(f"{i:02d}" + "a" * 30, "exp", i)
        before = open(registry.path, "rb").read()
        fs = FailingFS(monkeypatch, registry.path + ".tmp",
                       err=errno.ENOSPC)
        fs.arm()
        with pytest.raises(JournalWriteError):
            registry.compact()
        fs.disarm()
        assert open(registry.path, "rb").read() == before
        assert len(registry.load().completed) == 4


class TestPermissionDenied:
    def test_eacces_same_contract_as_enospc(self, registry, monkeypatch):
        registry.mark_completed("aa" * 16, "exp", 1)
        fs = FailingFS(monkeypatch, registry.path, err=errno.EACCES)
        fs.arm()
        with pytest.raises(JournalWriteError) as excinfo:
            registry.mark_completed("bb" * 16, "exp", 2)
        assert excinfo.value.errno == errno.EACCES
        fs.disarm()
        registry.mark_completed("bb" * 16, "exp", 2)
        assert len(registry.load().completed) == 2
