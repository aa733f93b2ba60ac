"""Scrub-and-salvage: verify journals, quarantine damage, keep going.

The journal layer defends against *torn tails* (a crash mid-append) by
construction; this module handles everything else that can happen to
bytes at rest — a flipped bit, a truncated middle, a corrupted
compaction — without turning one bad record into a dead campaign:

* :func:`scan_journal` verifies every line of a journal (envelope CRC,
  payload SHA-256, caller-supplied decoding) and partitions it into
  clean lines and :class:`DamagedLine` findings with byte-offset
  provenance;
* :func:`quarantine_and_rewrite` moves damaged lines to a sidecar
  ``<journal>.quarantine`` file (JSONL: path, offset, length, reason,
  base64 raw bytes, timestamp — nothing is silently discarded) and
  atomically rewrites the journal with only the surviving lines, each
  byte-for-byte as read;
* :func:`scrub_journal` wraps both into a :class:`ScrubReport` for one
  file, and :func:`main` exposes the pass as
  ``python -m repro.exec.scrub`` (``make scrub``).

:func:`scrub_journal` is also the one salvage-on-load path:
:class:`~repro.exec.RunRegistry`, the service
:class:`~repro.service.store.SessionStore` and the search and session
checkpoints of :mod:`repro.reliability.checkpoint` replay their
journals through it (``apply=`` folds each clean record into the
caller's state, ``label=`` turns on the load warnings), so all of them
quarantine damage and redo only what was actually lost.  The
sidecar keeps every damaged byte with its offset, and ``--check`` is
the read-only audit that modifies nothing.
"""

from __future__ import annotations

import argparse
import base64
import hashlib
import os
import sys
import time
import warnings
from dataclasses import dataclass
from typing import Callable

from repro.errors import JournalWriteError
from repro.exec.journal import JsonlJournal, frame_obj, unframe_line

__all__ = [
    "QUARANTINE_SUFFIX",
    "DamagedLine",
    "ScannedLine",
    "ScrubReport",
    "scan_journal",
    "quarantine_and_rewrite",
    "scrub_journal",
    "main",
]

#: Sidecar suffix damaged records are preserved under.
QUARANTINE_SUFFIX = ".quarantine"


@dataclass(frozen=True)
class DamagedLine:
    """One journal line that failed verification, with provenance."""

    offset: int  # byte offset of the line start
    raw: bytes  # the damaged bytes, exactly as read
    reason: str  # what the decoder/verifier rejected

    @property
    def length(self) -> int:
        return len(self.raw)

    def to_wire(self, path: str) -> dict:
        return {
            "path": path,
            "offset": self.offset,
            "length": self.length,
            "reason": self.reason,
            "raw": base64.b64encode(self.raw).decode("ascii"),
            "ts": time.time(),
        }


@dataclass(frozen=True)
class ScannedLine:
    """One journal line that verified clean."""

    offset: int
    line: str  # the line exactly as read (rewrites preserve it verbatim)
    record: object  # whatever the decoder produced


@dataclass(frozen=True)
class ScrubReport:
    """What one scrub pass over one file found and did."""

    path: str
    n_records: int = 0  # records that verified clean
    quarantined: tuple[DamagedLine, ...] = ()
    torn: DamagedLine | None = None  # a torn final line that was dropped
    rewritten: bool = False  # the clean journal was swapped in
    quarantine_path: str | None = None

    @property
    def dropped_partial(self) -> bool:
        return self.torn is not None

    @property
    def ok(self) -> bool:
        return not self.quarantined and not self.dropped_partial

    def to_wire(self) -> dict:
        return {
            "path": self.path,
            "n_records": self.n_records,
            "quarantined": [
                {"offset": d.offset, "length": d.length, "reason": d.reason}
                for d in self.quarantined
            ],
            "dropped_partial": self.dropped_partial,
            "rewritten": self.rewritten,
            "quarantine_path": self.quarantine_path,
        }

    def summary(self) -> str:
        verdict = "clean" if self.ok else "DAMAGED"
        parts = [f"{self.path}: {verdict} — {self.n_records} record(s)"]
        if self.quarantined:
            offsets = ", ".join(str(d.offset) for d in self.quarantined)
            parts.append(
                f"{len(self.quarantined)} quarantined at byte offset(s) "
                f"{offsets}"
            )
            if self.rewritten:
                parts.append(f"salvaged to {self.quarantine_path}")
        if self.dropped_partial:
            parts.append("torn final line dropped")
        return "; ".join(parts)


def _verify_payload_sha(record: object) -> None:
    """Deep-check a registry-style base64 payload against its SHA-256."""
    if isinstance(record, dict) and "payload" in record:
        payload = base64.b64decode(record["payload"])
        if hashlib.sha256(payload).hexdigest() != record.get("sha"):
            raise ValueError("payload checksum mismatch")


def _decode_generic(line: bytes) -> object:
    """Default decoder: envelope/CRC verification plus payload SHA."""
    record = unframe_line(line)
    _verify_payload_sha(record)
    return record


def scan_journal(
    journal: JsonlJournal,
    decode: Callable[[bytes], object] = _decode_generic,
    repair_tail: bool = True,
) -> tuple[list[ScannedLine], list[DamagedLine], DamagedLine | None]:
    """Verify every journal line; partition clean from damaged.

    ``decode`` maps raw line bytes to a record and raises
    ``ValueError``/``KeyError``/``TypeError`` on anything unacceptable.
    Returns ``(clean, damaged, torn)`` where ``torn`` is a final line
    that failed to decode — the crash-mid-append signature, truncated
    from the file when ``repair_tail`` is set — and ``damaged`` holds
    every *mid-journal* failure, which is never a crash artifact.
    """
    clean: list[ScannedLine] = []
    damaged: list[DamagedLine] = []
    torn: DamagedLine | None = None
    if not journal.exists():
        return clean, damaged, torn
    for offset, line, is_final in journal.iter_lines():
        try:
            record = decode(line)
        except (ValueError, KeyError, TypeError) as exc:
            if is_final:
                torn = DamagedLine(offset=offset, raw=bytes(line),
                                   reason=str(exc))
                if repair_tail:
                    try:
                        journal.repair_tail()
                    except OSError:
                        pass  # read-only journal: drop in memory only
                break
            damaged.append(DamagedLine(offset=offset, raw=bytes(line),
                                       reason=str(exc)))
            continue
        clean.append(ScannedLine(
            offset=offset, line=line.decode("utf-8"), record=record,
        ))
    return clean, damaged, torn


def quarantine_and_rewrite(
    journal: JsonlJournal,
    clean: list[ScannedLine],
    damaged: list[DamagedLine],
) -> tuple[str | None, bool]:
    """Preserve damaged lines in the sidecar, swap in the clean journal.

    Both steps are best-effort: salvage must never be blocked by the
    same failing disk that caused the damage, so a sidecar append or
    rewrite refusal leaves the in-memory salvage intact and returns
    what actually happened — ``(quarantine_path_or_None, rewritten)``.
    The rewrite preserves surviving lines byte-for-byte as read.
    """
    quarantine_path: str | None = journal.path + QUARANTINE_SUFFIX
    sidecar = JsonlJournal(quarantine_path)
    try:
        for entry in damaged:
            sidecar.append_line(frame_obj(entry.to_wire(journal.path)))
    except JournalWriteError:
        quarantine_path = None
    rewritten = False
    try:
        journal.rewrite(s.line for s in clean)
        rewritten = True
    except JournalWriteError:
        pass
    return quarantine_path, rewritten


def scrub_journal(
    path,
    decode: Callable[[bytes], object] = _decode_generic,
    salvage: bool = True,
    apply: Callable[[object], object] | None = None,
    label: str | None = None,
) -> ScrubReport:
    """Scrub one JSONL journal; salvage unless ``salvage=False``.

    With ``salvage`` (the default) damaged records are quarantined to
    the sidecar and the clean journal is atomically rewritten; without
    it the pass is a pure verification (``--check``) that modifies
    nothing — not even a torn tail.

    ``apply`` replays each clean record, in journal order, into the
    caller's state; a record that decodes but raises
    ``ValueError``/``KeyError``/``TypeError`` from ``apply`` is damage
    like any other.  ``label`` (``"run registry"``, ``"session store"``)
    makes the pass warn about a dropped torn tail and about the
    quarantined offsets, as a load should.
    """
    journal = JsonlJournal(path)
    clean, damaged, torn = scan_journal(journal, decode,
                                        repair_tail=salvage)
    if apply is not None:
        applied = []
        for scanned in clean:
            try:
                apply(scanned.record)
            except (ValueError, KeyError, TypeError) as exc:
                # Decoded but unappliable: silent corruption that still
                # parses.
                damaged.append(DamagedLine(offset=scanned.offset,
                                           raw=scanned.line.encode("utf-8"),
                                           reason=str(exc)))
                continue
            applied.append(scanned)
        clean = applied
        damaged.sort(key=lambda d: d.offset)
    quarantine_path = None
    rewritten = False
    if damaged and salvage:
        quarantine_path, rewritten = quarantine_and_rewrite(
            journal, clean, damaged
        )
    report = ScrubReport(
        path=journal.path,
        n_records=len(clean),
        quarantined=tuple(damaged),
        torn=torn,
        rewritten=rewritten,
        quarantine_path=quarantine_path,
    )
    if label is not None:
        _warn_damage(label, report)
    return report


def _warn_damage(label: str, report: ScrubReport) -> None:
    """The load warnings: a dropped torn tail, then quarantined records."""
    if report.torn is not None:
        warnings.warn(
            f"{label} {report.path!r}: dropping torn final record at byte "
            f"offset {report.torn.offset} ({report.torn.reason}); it was "
            "never acknowledged",
            RuntimeWarning,
            stacklevel=4,
        )
    if report.quarantined:
        offsets = ", ".join(str(d.offset) for d in report.quarantined)
        warnings.warn(
            f"{label} {report.path!r}: quarantined "
            f"{len(report.quarantined)} damaged record(s) at byte "
            f"offset(s) {offsets} (sidecar: {report.quarantine_path}); "
            "only what they recorded is lost",
            RuntimeWarning,
            stacklevel=4,
        )


def _collect_targets(paths: list[str]) -> list[str]:
    """Expand CLI arguments: directories walk to their ``*.jsonl`` files."""
    targets: list[str] = []
    for path in paths:
        if os.path.isdir(path):
            for dirpath, dirnames, filenames in os.walk(path):
                dirnames[:] = sorted(dirnames)
                targets.extend(
                    os.path.join(dirpath, f)
                    for f in sorted(filenames)
                    if f.endswith(".jsonl")
                )
        else:
            targets.append(path)
    return targets


def main(argv: list[str] | None = None) -> int:
    """``python -m repro.exec.scrub``: verify/salvage journals on disk.

    Every explicit file argument — a registry, a session store, a
    search or session checkpoint — is scrubbed as a journal;
    directories are walked for ``*.jsonl`` files.  Exit status 0 means
    every record verified clean; 1 means damage was found (and, unless
    ``--check``, quarantined).
    """
    parser = argparse.ArgumentParser(
        prog="python -m repro.exec.scrub",
        description="Verify journal integrity; quarantine damaged "
        "records and atomically rewrite the clean journal.",
    )
    parser.add_argument("paths", nargs="+",
                        help="journal or checkpoint files, or "
                        "directories to walk for *.jsonl journals")
    parser.add_argument("--check", action="store_true",
                        help="verify only; do not quarantine, rewrite, "
                        "or repair anything")
    parser.add_argument("--quiet", action="store_true",
                        help="print only damaged files")
    ns = parser.parse_args(argv)

    reports = [scrub_journal(target, salvage=not ns.check)
               for target in _collect_targets(ns.paths)]
    damaged = [r for r in reports if not r.ok]
    for report in reports:
        if not ns.quiet or not report.ok:
            print(report.summary())
    print(
        f"scrub: {len(reports)} file(s), "
        f"{sum(r.n_records for r in reports)} clean record(s), "
        f"{sum(len(r.quarantined) for r in reports)} quarantined"
    )
    return 1 if damaged else 0


if __name__ == "__main__":
    sys.exit(main())
