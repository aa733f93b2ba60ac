"""FaultFS: every failure mode, budgets, arm/disarm, clean uninstall.

Exercised directly against :class:`~repro.exec.journal.JsonlJournal`
— the primitive both the run registry and the session store are built
on — so each mode's on-disk aftermath (torn tail, unacknowledged
complete write, stale rewrite temporary) is asserted at the byte level.
"""

import errno
import json
import os

import pytest

import repro.exec.journal as journal_mod
from repro.chaos.faultfs import (
    CORRUPT_MODES,
    FAULTFS_MODES,
    FaultFS,
    FaultRule,
    corrupt_file,
)
from repro.errors import JournalWriteError
from repro.exec.journal import JsonlJournal, canonical_json


def _records(journal: JsonlJournal) -> list[dict]:
    """Complete (newline-terminated) records currently on disk."""
    if not journal.exists():
        return []
    with open(journal.path, "rb") as fh:
        blob = fh.read()
    complete = blob[: blob.rfind(b"\n") + 1]
    return [json.loads(line) for line in complete.splitlines() if line]


@pytest.fixture
def journal(tmp_path):
    return JsonlJournal(tmp_path / "journal.jsonl")


class TestFaultRule:
    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError, match="unknown faultfs mode"):
            FaultRule(path="/x", mode="explode")

    def test_budget_counts_down_and_auto_disarms(self):
        rule = FaultRule(path="/x", budget=2)
        assert rule.active
        rule.consume()
        assert rule.active and rule.budget == 1
        rule.consume()
        assert not rule.active and not rule.armed
        assert rule.failures == 2

    def test_unlimited_budget_stays_active(self):
        rule = FaultRule(path="/x", budget=None)
        for _ in range(10):
            rule.consume()
        assert rule.active and rule.failures == 10


class TestRefuseMode:
    def test_refuses_then_recovers_when_budget_exhausts(self, journal):
        fs = FaultFS()
        fs.add_rule(journal.path, mode="refuse", budget=2)
        with fs:
            for _ in range(2):
                with pytest.raises(JournalWriteError) as exc_info:
                    journal.append_line(canonical_json({"n": 1}))
                assert exc_info.value.errno == errno.ENOSPC
            journal.append_line(canonical_json({"n": 2}))  # budget spent: space came back
        assert _records(journal) == [{"n": 2}]
        assert fs.failures == 2

    def test_carries_the_configured_errno(self, journal):
        fs = FaultFS()
        fs.add_rule(journal.path, mode="refuse", err=errno.EACCES, budget=1)
        with fs:
            with pytest.raises(JournalWriteError) as exc_info:
                journal.append_line(canonical_json({"n": 1}))
        assert exc_info.value.errno == errno.EACCES

    def test_reads_keep_working_while_writes_are_down(self, journal):
        journal.append_line(canonical_json({"n": 1}))
        fs = FaultFS()
        fs.add_rule(journal.path, mode="refuse")
        with fs:
            with pytest.raises(JournalWriteError):
                journal.append_line(canonical_json({"n": 2}))
            assert [json.loads(line) for _, line, _ in journal.iter_lines()] \
                == [{"n": 1}]


class TestPartialMode:
    def test_leaves_a_torn_tail_repaired_by_the_next_append(self, journal):
        journal.append_line(canonical_json({"n": 1}))
        fs = FaultFS()
        fs.add_rule(journal.path, mode="partial", budget=1)
        with fs:
            with pytest.raises(JournalWriteError):
                journal.append_line(canonical_json({"n": 2, "pad": "x" * 64}))
            with open(journal.path, "rb") as fh:
                assert not fh.read().endswith(b"\n")  # genuine torn tail
            journal.append_line(canonical_json({"n": 3}))
        # The unacknowledged record was truncated away, never glued onto.
        assert _records(journal) == [{"n": 1}, {"n": 3}]


class TestFsyncMode:
    def test_complete_but_unacknowledged_write(self, journal):
        fs = FaultFS()
        fs.add_rule(journal.path, mode="fsync", budget=1)
        with fs:
            with pytest.raises(JournalWriteError):
                journal.append_line(canonical_json({"n": 1}))
            # The nastiest shape: the bytes are all there, but the caller
            # was told the write failed — so a crash-safe caller retries,
            # and replay must be last-record-wins to absorb the duplicate.
            assert _records(journal) == [{"n": 1}]
            journal.append_line(canonical_json({"n": 1}))
        assert _records(journal) == [{"n": 1}, {"n": 1}]


class TestRenameMode:
    def test_rewrite_fails_and_discards_the_stale_temporary(self, journal):
        journal.append_line(canonical_json({"n": 1}))
        journal.append_line(canonical_json({"n": 2}))
        fs = FaultFS()
        fs.add_rule(journal.path, mode="rename", budget=1)
        with fs:
            with pytest.raises(JournalWriteError):
                journal.rewrite(['{"n":2}'])
            assert not os.path.exists(journal.rewrite_path)
            assert _records(journal) == [{"n": 1}, {"n": 2}]  # old intact
            journal.rewrite(['{"n":2}'])  # budget spent: swap succeeds
        assert _records(journal) == [{"n": 2}]

    def test_rename_rules_do_not_affect_appends(self, journal):
        fs = FaultFS()
        fs.add_rule(journal.path, mode="rename")
        with fs:
            journal.append_line(canonical_json({"n": 1}))
        assert _records(journal) == [{"n": 1}]


class TestScheduling:
    def test_only_ruled_paths_fail(self, tmp_path):
        ruled = JsonlJournal(tmp_path / "ruled.jsonl")
        other = JsonlJournal(tmp_path / "other.jsonl")
        fs = FaultFS()
        fs.add_rule(ruled.path, mode="refuse")
        with fs:
            other.append_line(canonical_json({"n": 1}))
            with pytest.raises(JournalWriteError):
                ruled.append_line(canonical_json({"n": 1}))
        assert _records(other) == [{"n": 1}]

    def test_arm_disarm_windows(self, journal):
        fs = FaultFS()
        rule = fs.add_rule(journal.path, mode="refuse", armed=False)
        with fs:
            journal.append_line(canonical_json({"n": 1}))  # disarmed: passes
            fs.arm(journal.path)
            with pytest.raises(JournalWriteError):
                journal.append_line(canonical_json({"n": 2}))
            rule.armed = False
            journal.append_line(canonical_json({"n": 3}))
        assert _records(journal) == [{"n": 1}, {"n": 3}]

    def test_counts_per_mode(self, tmp_path):
        a = JsonlJournal(tmp_path / "a.jsonl")
        b = JsonlJournal(tmp_path / "b.jsonl")
        fs = FaultFS()
        fs.add_rule(a.path, mode="refuse", budget=2)
        fs.add_rule(b.path, mode="fsync", budget=1)
        with fs:
            for journal in (a, a, b):
                with pytest.raises(JournalWriteError):
                    journal.append_line(canonical_json({"n": 0}))
        assert fs.counts() == {"refuse": 2, "partial": 0, "fsync": 1,
                               "rename": 0, "bitflip": 0, "truncate": 0}
        assert fs.failures == 3
        assert set(fs.counts()) == set(FAULTFS_MODES + CORRUPT_MODES)


class TestCorruptFile:
    def _fill(self, journal, n=5):
        for i in range(n):
            journal.append_line(canonical_json({"n": i, "pad": "x" * 24}))
        with open(journal.path, "rb") as fh:
            return fh.read()

    def test_unknown_mode_rejected(self, journal):
        with pytest.raises(ValueError, match="corruption mode"):
            corrupt_file(journal.path, "explode")

    def test_bitflip_changes_exactly_one_byte(self, journal):
        before = self._fill(journal)
        damage = corrupt_file(journal.path, "bitflip", seed="s")
        with open(journal.path, "rb") as fh:
            after = fh.read()
        assert damage == 1
        assert len(after) == len(before)
        diffs = [i for i, (a, b) in enumerate(zip(before, after)) if a != b]
        assert len(diffs) == 1
        assert after.count(b"\n") == before.count(b"\n")  # no line split

    def test_damage_site_is_deterministic(self, journal):
        self._fill(journal)
        blob = open(journal.path, "rb").read()
        corrupt_file(journal.path, "bitflip", seed="s", index=3)
        first = open(journal.path, "rb").read()
        open(journal.path, "wb").write(blob)
        corrupt_file(journal.path, "bitflip", seed="s", index=3)
        assert open(journal.path, "rb").read() == first

    def test_truncate_counts_every_lost_line(self, journal):
        self._fill(journal, n=6)
        spans_before = len(_records(journal))
        damage = corrupt_file(journal.path, "truncate", seed="s", torn=False)
        survivors = _records(journal)
        assert damage >= 1
        assert len(survivors) == spans_before - damage
        # Aligned cut: the survivors are intact records, no torn glue.
        assert open(journal.path, "rb").read().endswith(b"\n")

    def test_torn_truncate_leaves_a_partial_line(self, journal):
        self._fill(journal, n=4)
        damage = corrupt_file(journal.path, "truncate", seed="s", torn=True)
        assert damage >= 1
        assert not open(journal.path, "rb").read().endswith(b"\n")

    def test_final_line_protected_by_default(self, journal):
        self._fill(journal, n=4)
        final = open(journal.path, "rb").read().splitlines()[-1]
        for index in range(8):
            corrupt_file(journal.path, "bitflip", seed="s", index=index)
        assert open(journal.path, "rb").read().splitlines()[-1] == final

    def test_first_line_protected_on_request(self, journal):
        self._fill(journal, n=4)
        first = open(journal.path, "rb").read().splitlines()[0]
        for index in range(8):
            corrupt_file(journal.path, "bitflip", seed="s", index=index,
                         protect_first_line=True)
        assert open(journal.path, "rb").read().splitlines()[0] == first

    def test_too_small_files_are_left_alone(self, journal):
        journal.append_line(canonical_json({"n": 1}))  # single line: final-line protection
        before = open(journal.path, "rb").read()
        assert corrupt_file(journal.path, "bitflip", seed="s") == 0
        assert open(journal.path, "rb").read() == before
        assert corrupt_file(str(journal.path) + ".missing", "bitflip") == 0

    def test_single_document_corruptible_when_unprotected(self, journal):
        journal.append_line(canonical_json({"n": 1}))
        assert corrupt_file(journal.path, "bitflip", seed="s",
                            protect_final_line=False) == 1


class TestCorruptionRules:
    def test_on_replace_requires_a_corrupt_mode(self):
        with pytest.raises(ValueError, match="on_replace"):
            FaultRule(path="/x", mode="refuse", on_replace=True)
        FaultRule(path="/x", mode="bitflip", on_replace=True)  # fine

    def test_bitflip_fires_on_append_open_and_spares_the_append(self, journal):
        for i in range(4):
            journal.append_line(canonical_json({"n": i, "pad": "y" * 24}))
        fs = FaultFS()
        rule = fs.add_rule(journal.path, mode="bitflip", budget=1, seed="s")
        with fs:
            journal.append_line(canonical_json({"n": 99}))
        records = _records(journal)
        # The in-flight append survived; one *prior* record was damaged.
        assert {"n": 99} in records or any(r.get("n") == 99 for r in records)
        assert rule.damage == 1 and rule.failures == 1 and not rule.active
        assert fs.damage_records == 1
        assert fs.counts()["bitflip"] == 1

    def test_budget_not_consumed_when_nothing_to_damage(self, journal):
        fs = FaultFS()
        rule = fs.add_rule(journal.path, mode="bitflip", budget=1, seed="s")
        with fs:
            journal.append_line(canonical_json({"n": 0}))  # file empty at open: nothing to rot
        assert rule.damage == 0 and rule.failures == 0 and rule.active

    def test_truncate_in_open_keeps_the_cut_aligned(self, journal):
        for i in range(5):
            journal.append_line(canonical_json({"n": i, "pad": "z" * 24}))
        fs = FaultFS()
        rule = fs.add_rule(journal.path, mode="truncate", budget=1, seed="s")
        with fs:
            journal.append_line(canonical_json({"n": 99}))
        records = _records(journal)
        # The acknowledged append is intact after the aligned cut, so
        # lost records == counted damage exactly.
        assert records[-1] == {"n": 99}
        assert len(records) == 5 - rule.damage + 1

    def test_on_replace_rots_the_freshly_swapped_file(self, journal):
        for i in range(4):
            journal.append_line(canonical_json({"n": i, "pad": "w" * 24}))
        clean_lines = [
            line.decode() for _, line, _ in journal.iter_lines()
        ]
        fs = FaultFS()
        rule = fs.add_rule(journal.path, mode="bitflip", budget=1,
                           seed="s", on_replace=True)
        with fs:
            journal.append_line(canonical_json({"n": 4}))  # plain append: on_replace idle
            assert rule.damage == 0
            journal.rewrite(clean_lines)  # compaction: the snapshot rots
        assert rule.damage == 1
        blob = open(journal.path, "rb").read()
        assert blob != ("\n".join(clean_lines) + "\n").encode()


class TestInstallation:
    def test_install_shadows_and_uninstall_restores(self):
        saved_open = getattr(journal_mod, "open", None)
        saved_os = journal_mod.os
        fs = FaultFS()
        fs.install()
        fs.install()  # idempotent
        assert journal_mod.open == fs._open
        assert journal_mod.os is not saved_os
        fs.uninstall()
        fs.uninstall()  # idempotent
        assert getattr(journal_mod, "open", None) is saved_open
        assert journal_mod.os is saved_os

    def test_context_manager_uninstalls_on_error(self, journal):
        fs = FaultFS()
        fs.add_rule(journal.path, mode="refuse")
        saved_os = journal_mod.os
        with pytest.raises(JournalWriteError):
            with fs:
                journal.append_line(canonical_json({"n": 1}))
                raise AssertionError("append should have failed")
        assert journal_mod.os is saved_os
        journal.append_line(canonical_json({"n": 2}))  # world restored
        assert _records(journal) == [{"n": 2}]
