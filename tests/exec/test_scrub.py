"""Scrub-and-salvage: scan, quarantine, rewrite, report, CLI."""

import base64
import json
import os

import pytest

from repro.exec.journal import JsonlJournal, canonical_json, frame_obj, unframe_line
from repro.exec.scrub import (
    QUARANTINE_SUFFIX,
    main,
    scan_journal,
    scrub_journal,
)
from repro.reliability import CheckpointManager
from repro.search.result import SearchTrace

@pytest.fixture
def journal(tmp_path):
    return JsonlJournal(tmp_path / "journal.jsonl")


def _write_framed(journal, n=4):
    for i in range(n):
        journal.append_line(frame_obj({"n": i, "pad": "x" * 16}))


class TestScanJournal:
    def test_clean_framed_journal(self, journal):
        _write_framed(journal)
        clean, damaged, torn = scan_journal(journal)
        assert [s.record["n"] for s in clean] == [0, 1, 2, 3]
        assert not damaged and torn is None

    def test_unframed_lines_are_damage(self, journal):
        # Valid JSON records without an envelope: mid-file it is
        # damage, as an unterminated final line a torn tail.
        journal.append_line(canonical_json({"n": 0}))
        journal.append_line(frame_obj({"n": 1}))
        with open(journal.path, "ab") as fh:
            fh.write(canonical_json({"n": 2}).encode())
        clean, damaged, torn = scan_journal(journal, repair_tail=False)
        assert [s.record for s in clean] == [{"n": 1}]
        assert [d.raw for d in damaged] == [b'{"n":0}']
        assert "envelope" in damaged[0].reason
        assert torn is not None and torn.raw == b'{"n":2}'

    def test_missing_journal_scans_empty(self, journal):
        assert scan_journal(journal) == ([], [], None)

    def test_mid_file_garbage_is_damage_not_torn(self, journal):
        _write_framed(journal, n=2)
        with open(journal.path, "ab") as fh:
            fh.write(b"}}garbage{{\n")
        journal.append_line(frame_obj({"n": 99}))
        clean, damaged, torn = scan_journal(journal)
        assert len(clean) == 3 and torn is None
        assert len(damaged) == 1
        assert damaged[0].raw == b"}}garbage{{"

    def test_crc_mismatch_is_damage(self, journal):
        _write_framed(journal, n=3)
        lines = open(journal.path, "rb").read().splitlines(keepends=True)
        envelope = json.loads(lines[0])
        envelope["rec"]["n"] = 777  # silent in-place mutation
        lines[0] = (canonical_json(envelope) + "\n").encode()
        open(journal.path, "wb").write(b"".join(lines))
        clean, damaged, torn = scan_journal(journal)
        assert len(clean) == 2 and torn is None
        assert len(damaged) == 1 and "checksum" in damaged[0].reason

    def test_torn_final_line_repaired_by_default(self, journal):
        _write_framed(journal, n=2)
        whole = open(journal.path, "rb").read()
        with open(journal.path, "ab") as fh:
            fh.write(b'{"crc":1,"rec":{"n"')
        clean, damaged, torn = scan_journal(journal)
        assert len(clean) == 2 and not damaged
        assert torn is not None
        # The tail was truncated off the file (crash-artifact repair).
        assert open(journal.path, "rb").read() == whole

    def test_repair_tail_false_leaves_the_tail(self, journal):
        _write_framed(journal, n=2)
        with open(journal.path, "ab") as fh:
            fh.write(b'{"torn')
        before = open(journal.path, "rb").read()
        _clean, _damaged, torn = scan_journal(journal, repair_tail=False)
        assert torn is not None
        assert open(journal.path, "rb").read() == before


class TestScrubJournal:
    def test_clean_journal_is_untouched(self, journal):
        _write_framed(journal)
        before = open(journal.path, "rb").read()
        report = scrub_journal(journal.path)
        assert report.ok and report.n_records == 4
        assert not report.rewritten
        assert open(journal.path, "rb").read() == before

    def test_salvage_quarantines_and_rewrites(self, journal):
        _write_framed(journal, n=3)
        offset = len(open(journal.path, "rb").read())
        with open(journal.path, "ab") as fh:
            fh.write(b"rotten\n")
        journal.append_line(frame_obj({"n": 99}))
        survivors = [
            line for line in open(journal.path, "rb").read().splitlines()
            if line != b"rotten"
        ]

        report = scrub_journal(journal.path)
        assert not report.ok and report.rewritten
        assert [d.offset for d in report.quarantined] == [offset]
        assert report.quarantine_path == str(journal.path) + QUARANTINE_SUFFIX
        # Sidecar preserves the exact damaged bytes with provenance.
        entry = unframe_line(open(report.quarantine_path, "rb").readline())
        assert base64.b64decode(entry["raw"]) == b"rotten"
        assert entry["offset"] == offset and entry["path"] == journal.path
        # The rewrite kept every surviving line byte-for-byte.
        assert open(journal.path, "rb").read().splitlines() == survivors
        assert scrub_journal(journal.path).ok

    def test_sidecar_scrubs_clean_by_name(self, journal):
        _write_framed(journal, n=2)
        with open(journal.path, "ab") as fh:
            fh.write(b"rotten\n")
        journal.append_line(frame_obj({"n": 99}))
        sidecar = scrub_journal(journal.path).quarantine_path
        before = open(sidecar, "rb").read()

        report = scrub_journal(sidecar)
        assert report.ok and report.n_records == 1
        assert not report.rewritten
        assert open(sidecar, "rb").read() == before
        assert not os.path.exists(sidecar + QUARANTINE_SUFFIX)

    def test_check_mode_modifies_nothing(self, journal):
        _write_framed(journal, n=2)
        with open(journal.path, "ab") as fh:
            fh.write(b"rotten\n")
        before = open(journal.path, "rb").read()
        report = scrub_journal(journal.path, salvage=False)
        assert not report.ok and not report.rewritten
        assert report.quarantine_path is None
        assert open(journal.path, "rb").read() == before

    def test_payload_sha_checked_behind_valid_crc(self, journal):
        payload = base64.b64encode(b"not what the sha says").decode()
        journal.append_line(frame_obj({"payload": payload, "sha": "0" * 64}))
        _write_framed(journal, n=2)
        report = scrub_journal(journal.path, salvage=False)
        assert len(report.quarantined) == 1
        assert "checksum" in report.quarantined[0].reason

    def test_report_quarantines_unframed_records(self, journal):
        journal.append_line(canonical_json({"n": 0}))
        journal.append_line(frame_obj({"n": 1}))
        report = scrub_journal(journal.path)
        assert report.n_records == 1 and len(report.quarantined) == 1
        assert report.rewritten
        assert report.summary().endswith(
            "1 record(s); 1 quarantined at byte offset(s) 0; salvaged to "
            f"{report.quarantine_path}"
        )
        assert open(journal.path).read() == frame_obj({"n": 1}) + "\n"


class TestScrubCheckpoint:
    """Checkpoints are journals: the scrub treats them like any other."""

    def _save(self, tmp_path, saves=1):
        manager = CheckpointManager(tmp_path / "search.ckpt.json", every=1)
        for position in range(1, saves + 1):
            manager.save(SearchTrace(algorithm="RS"), position=position)
        return manager.path

    def test_clean_checkpoint(self, tmp_path):
        report = scrub_journal(self._save(tmp_path))
        assert report.ok and report.n_records == 1

    def test_missing_checkpoint_is_empty_report(self, tmp_path):
        report = scrub_journal(tmp_path / "absent.json")
        assert report.ok and report.n_records == 0


class TestCli:
    def test_clean_tree_exits_zero(self, tmp_path, capsys):
        journal = JsonlJournal(tmp_path / "a" / "grid.jsonl")
        _write_framed(journal)
        assert main([str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "clean" in out and "4 clean record(s)" in out

    def test_damage_exits_one_and_salvages(self, tmp_path, capsys):
        journal = JsonlJournal(tmp_path / "grid.jsonl")
        _write_framed(journal, n=2)
        with open(journal.path, "ab") as fh:
            fh.write(b"rotten\n")
        journal.append_line(frame_obj({"n": 9}))
        assert main([str(tmp_path)]) == 1
        assert "DAMAGED" in capsys.readouterr().out
        # The salvage landed: a second pass is clean.
        assert main([str(tmp_path)]) == 0

    def test_check_flag_verifies_without_rewriting(self, tmp_path, capsys):
        journal = JsonlJournal(tmp_path / "grid.jsonl")
        _write_framed(journal, n=2)
        with open(journal.path, "ab") as fh:
            fh.write(b"rotten\n")
        before = open(journal.path, "rb").read()
        assert main(["--check", str(journal.path)]) == 1
        assert main(["--check", "--quiet", str(journal.path)]) == 1
        assert open(journal.path, "rb").read() == before
        capsys.readouterr()

    def test_explicit_non_jsonl_is_checkpoint(self, tmp_path, capsys):
        path = tmp_path / "search.ckpt.json"
        path.write_text(frame_obj({"cursor": 1}) + "\n")
        assert main([str(path)]) == 0
        capsys.readouterr()

    def test_check_reports_damaged_checkpoint_line_offset(self, tmp_path,
                                                         capsys):
        manager = CheckpointManager(tmp_path / "search.ckpt", every=1)
        for position in range(1, 4):
            manager.save(SearchTrace(algorithm="RS"), position=position)
        path = manager.path
        blob = open(path, "rb").read()
        second = blob.index(b"\n") + 1  # byte offset of line 2 of 3
        damaged = bytearray(blob)
        damaged[blob.index(b'"position"', second) + 2] ^= 0x01
        open(path, "wb").write(bytes(damaged))
        assert main(["--check", path]) == 1
        out = capsys.readouterr().out
        assert f"1 quarantined at byte offset(s) {second}" in out
        assert open(path, "rb").read() == bytes(damaged)
