"""The shared atomic write: every durable replace fsyncs its directory."""

import os
import stat

import pytest

import repro.exec.journal as journal_mod
from repro.exec.journal import JsonlJournal
from repro.reliability import CheckpointManager
from repro.search.result import SearchTrace


class _RecordingOs:
    """Delegates to :mod:`os`, noting whether each fsync hit a directory."""

    def __init__(self) -> None:
        self.fsynced_dirs: list[bool] = []

    def fsync(self, fd):
        self.fsynced_dirs.append(stat.S_ISDIR(os.fstat(fd).st_mode))
        return os.fsync(fd)

    def __getattr__(self, name):
        return getattr(os, name)


@pytest.fixture
def recorded(monkeypatch):
    proxy = _RecordingOs()
    monkeypatch.setattr(journal_mod, "os", proxy)
    return proxy.fsynced_dirs


class TestDirectoryFsync:
    def test_checkpoint_save_fsyncs_its_directory(self, tmp_path, recorded):
        CheckpointManager(tmp_path / "ck.json").save(
            SearchTrace(algorithm="RS"), position=1
        )
        assert any(recorded)

    def test_journal_rewrite_fsyncs_its_directory(self, tmp_path, recorded):
        JsonlJournal(tmp_path / "grid.jsonl").rewrite(['{"n":1}'])
        assert any(recorded)
