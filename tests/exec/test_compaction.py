"""Tests for run-registry journal compaction and rotation."""

import os

import pytest

from repro.errors import JournalWriteError
from repro.exec import RunRegistry


@pytest.fixture
def registry(tmp_path):
    return RunRegistry(tmp_path / "journal.jsonl")


def fill(registry, n=10, retries=0):
    """n completed cells, each preceded by `retries` failure records."""
    for i in range(n):
        fp = f"{i:02d}" + "f" * 30
        for _ in range(retries):
            registry.mark_failed(fp, "exp", error="Crash", message="died")
        registry.mark_completed(fp, "exp", {"cell": i}, key=["k", i])


class TestCompact:
    def test_compact_preserves_state_bitwise(self, registry):
        fill(registry, n=8, retries=2)
        registry.mark_failed("ff" * 16, "exp", error="X", message="gone")
        before = registry.load()
        registry.compact()
        after = registry.load()
        assert set(after.completed) == set(before.completed)
        for fp in before.completed:
            assert after.completed[fp].result() == before.completed[fp].result()
            assert after.completed[fp].attempts == before.completed[fp].attempts
        assert set(after.failed) == set(before.failed)
        assert after.n_records == len(after.completed) + len(after.failed)

    def test_compact_drops_superseded_records(self, registry):
        fill(registry, n=6, retries=3)  # 24 records, 6 survivors
        assert registry.load().n_records == 24
        size_before = registry.size_bytes()
        registry.compact()
        assert registry.load().n_records == 6
        assert registry.size_bytes() < size_before

    def test_compact_empty_registry_is_a_noop(self, registry):
        registry.compact()
        assert registry.load().n_records == 0
        assert registry.size_bytes() == 0

    def test_append_after_compact_keeps_working(self, registry):
        fill(registry, n=3, retries=1)
        registry.compact()
        registry.mark_completed("aa" * 16, "exp", "late")
        state = registry.load()
        assert state.completed["aa" * 16].result() == "late"
        assert len(state.completed) == 4

    def test_maybe_compact_thresholds(self, registry):
        fill(registry, n=5, retries=2)  # 15 records, 5 survivors
        size = registry.size_bytes()
        registry.maybe_compact(max_bytes=10 ** 9)
        assert registry.size_bytes() == size
        assert registry.load().n_records == 15
        registry.maybe_compact(max_bytes=64)
        assert registry.size_bytes() < size
        assert registry.load().n_records == 5
        registry.mark_failed("ee" * 16, "exp", error="X", message="late")
        registry.mark_failed("ee" * 16, "exp", error="X", message="again")
        registry.maybe_compact(max_bytes=0)  # disabled
        assert registry.load().n_records == 7


class TestTornSnapshot:
    def test_stale_rewrite_tmp_is_ignored_and_discarded(self, registry):
        """A crash between staging and the swap leaves the old journal
        authoritative and a stale temporary that must never be read."""
        fill(registry, n=4)
        before = registry.load()
        tmp = registry.path + ".tmp"
        with open(tmp, "wb") as fh:
            fh.write(b'{"v":1,"fp":"torn-snapshot-partial')
        state = registry.load()
        assert set(state.completed) == set(before.completed)
        registry.mark_completed("bb" * 16, "exp", 1)
        assert not os.path.exists(tmp)  # discarded by the next append
        assert len(registry.load().completed) == 5

    def test_failed_swap_leaves_old_journal_intact(self, registry, monkeypatch):
        fill(registry, n=4)
        before_bytes = open(registry.path, "rb").read()
        import repro.exec.journal as journal_mod

        def boom(src, dst):
            raise OSError(5, "I/O error")

        monkeypatch.setattr(journal_mod.os, "replace", boom)
        with pytest.raises(JournalWriteError):
            registry.compact()
        monkeypatch.undo()
        assert open(registry.path, "rb").read() == before_bytes
        assert len(registry.load().completed) == 4
