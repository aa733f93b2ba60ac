"""The shared append-only JSONL journal primitive.

:class:`RunRegistry` (grid-cell results) and the service layer's
:class:`~repro.service.store.SessionStore` (session/job lifecycle) both
persist as fsync'd JSONL journals with the same durability contract:

* **append** writes one full line with a single ``write`` call, flushes,
  and ``fsync``'s before returning — after a crash the file holds every
  acknowledged record plus at most one torn final line;
* **torn-tail repair** truncates a trailing partial write back to the
  last newline, so a post-crash append never glues onto a torn line;
* **rewrite** (the compaction primitive) replaces the journal through
  :func:`atomic_write`: the new content is written to a temporary
  sibling, fsync'd, ``os.replace``'d over the journal, and the directory
  fsync'd — a crash at any point leaves either the complete old journal
  or the complete new one, never a mix, and a stale temporary is
  cleaned up on the next append/rewrite;
* **write failures** (disk full, permission lost, dying disk) surface
  as structured :class:`~repro.errors.JournalWriteError` carrying the
  path and errno — the caller knows the record was *not* acknowledged
  and the journal itself is still recoverable (a partial write is a
  torn tail, repaired on the next append and dropped by readers).

Beyond the torn-tail contract, every record is wrapped in a per-record
CRC32 **envelope** (:func:`frame_line` / :func:`unframe_line`):
``{"crc":<crc32>,"rec":{...},"v":1}`` where the checksum covers the
canonical JSON bytes of the inner record.  A flipped bit anywhere in a
framed line — even one that still parses as JSON — fails verification
instead of being replayed as quietly wrong data.  A line that is not
an envelope at all fails verification the same way: there is one
journal format, and anything else on a journal line is damage.

Search and session checkpoints (:mod:`repro.reliability.checkpoint`)
are journals of framed lines too; benchmark artefacts are single
documents written by :func:`atomic_write`.

This module owns only bytes-on-disk mechanics and the envelope codec;
record schemas, replay semantics, and salvage-on-load belong to the
callers (see :mod:`repro.exec.scrub`).
"""

from __future__ import annotations

import json
import os
import zlib
from typing import Iterable, Iterator

from repro.errors import JournalWriteError

__all__ = [
    "FRAME_VERSION",
    "JsonlJournal",
    "atomic_write",
    "canonical_json",
    "frame_line",
    "frame_obj",
    "unframe_line",
    "unframe_obj",
]

#: Suffix of the temporary sibling every :func:`atomic_write` stages into.
_TMP_SUFFIX = ".tmp"

#: Envelope schema version: ``{"crc":N,"rec":{...},"v":FRAME_VERSION}``.
FRAME_VERSION = 1

#: The exact key set of an envelope.
_ENVELOPE_KEYS = frozenset({"crc", "rec", "v"})


def _crc32(payload: str) -> int:
    return zlib.crc32(payload.encode("utf-8")) & 0xFFFFFFFF


def canonical_json(obj) -> str:
    """The canonical one-line JSON encoding checksums are computed over."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def frame_line(payload_line: str) -> str:
    """Wrap one canonical-JSON record line in a CRC32 envelope.

    ``payload_line`` must be the record's canonical JSON
    (:func:`canonical_json`) so that verification can recompute the
    exact bytes the checksum was taken over.  The payload is embedded
    verbatim; keys are emitted in sorted order (``crc`` < ``rec`` <
    ``v``) so the envelope itself is canonical JSON too.
    """
    return '{"crc":%d,"rec":%s,"v":%d}' % (
        _crc32(payload_line), payload_line, FRAME_VERSION,
    )


def frame_obj(obj: dict) -> str:
    """Canonically encode ``obj`` and wrap it (:func:`frame_line`)."""
    return frame_line(canonical_json(obj))


def unframe_obj(obj) -> dict:
    """Verify an already-parsed envelope and return the record inside.

    Raises :class:`ValueError` when the object is not an envelope, or
    is one with an unknown version or a CRC mismatch.
    """
    if not (
        isinstance(obj, dict)
        and set(obj) == _ENVELOPE_KEYS
        and isinstance(obj.get("rec"), dict)
    ):
        raise ValueError("journal line is not a CRC32 envelope")
    if obj["v"] != FRAME_VERSION:
        raise ValueError(f"unknown journal frame version {obj['v']!r}")
    expected = obj["crc"]
    actual = _crc32(canonical_json(obj["rec"]))
    if expected != actual:
        raise ValueError(
            f"record checksum mismatch: stored crc32 {expected!r}, "
            f"computed {actual}"
        )
    return obj["rec"]


def unframe_line(line) -> dict:
    """Parse one journal line, verify its envelope, return the record.

    Accepts ``bytes`` or ``str``.  Raises :class:`ValueError` on
    unparseable JSON, a line that is not an envelope, an unknown
    envelope version, or a CRC mismatch.
    """
    if isinstance(line, bytes):
        line = line.decode("utf-8")
    return unframe_obj(json.loads(line))


def _remove_quietly(path: str) -> None:
    try:
        os.remove(path)
    except OSError:
        pass


def atomic_write(path, data: bytes) -> None:
    """Durably replace the file at ``path`` with ``data``.

    Stages ``data`` in the ``<path>.tmp`` sibling, fsyncs it,
    ``os.replace``'s it over ``path`` (atomic on POSIX), and fsyncs the
    directory so the rename itself survives a power cut.  A crash at any
    point leaves either the complete old file or the complete new one.
    When the filesystem refuses, the temporary is removed and the
    :class:`OSError` propagates for the caller to wrap in its own error.
    """
    path = os.fspath(path)
    tmp = path + _TMP_SUFFIX
    directory = os.path.dirname(path)
    try:
        if directory:
            os.makedirs(directory, exist_ok=True)
        with open(tmp, "wb") as fh:
            fh.write(data)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
        try:
            dir_fd = os.open(directory or os.curdir, os.O_RDONLY)
        except OSError:
            return  # no directory handle on this platform
        try:
            os.fsync(dir_fd)
        finally:
            os.close(dir_fd)
    except OSError:
        _remove_quietly(tmp)
        raise


class JsonlJournal:
    """One append-only JSONL file with crash-safe append and rewrite."""

    def __init__(self, path) -> None:
        self.path = os.fspath(path)

    def exists(self) -> bool:
        return os.path.exists(self.path)

    def size_bytes(self) -> int:
        """Current journal size (0 when absent)."""
        try:
            return os.path.getsize(self.path)
        except OSError:
            return 0

    @property
    def rewrite_path(self) -> str:
        return self.path + _TMP_SUFFIX

    # ------------------------------------------------------------------
    # Writing
    # ------------------------------------------------------------------
    def repair_tail(self) -> None:
        """Truncate a torn trailing write so the journal ends on a newline.

        Without this, appending after a crash would glue the new record
        onto the torn partial line, turning a recoverable torn tail into
        unrecoverable mid-file corruption.  Fast path: one byte read.
        """
        try:
            with open(self.path, "rb+") as fh:
                fh.seek(0, os.SEEK_END)
                size = fh.tell()
                if size == 0:
                    return
                fh.seek(size - 1)
                if fh.read(1) == b"\n":
                    return
                fh.seek(0)
                blob = fh.read()
                fh.truncate(blob.rfind(b"\n") + 1)
                fh.flush()
                os.fsync(fh.fileno())
        except FileNotFoundError:
            return

    def append_line(self, line: str) -> None:
        """Durably append one JSON line (single write + flush + fsync).

        Raises :class:`JournalWriteError` when the filesystem refuses
        the write; the record is then *not* acknowledged, and any
        partial bytes form a torn tail repaired by the next append and
        ignored by readers.
        """
        data = (line + "\n").encode("utf-8")
        directory = os.path.dirname(self.path)
        try:
            if directory:
                os.makedirs(directory, exist_ok=True)
            # ``os.replace`` is atomic, so a crash mid-rewrite leaves the
            # old journal intact plus (possibly) a partial temporary —
            # which must never be read and must not accumulate.
            _remove_quietly(self.rewrite_path)
            try:
                self.repair_tail()
            except OSError:
                pass  # best-effort; the caller's load() flags real damage
            with open(self.path, "ab") as fh:
                fh.write(data)
                fh.flush()
                os.fsync(fh.fileno())
        except OSError as exc:
            raise JournalWriteError(
                f"journal {self.path!r}: append failed: {exc}",
                path=self.path,
                errno=exc.errno,
            ) from exc

    def rewrite(self, lines: Iterable[str]) -> None:
        """Atomically replace the journal's content with ``lines``.

        The snapshot-then-swap compaction primitive, via
        :func:`atomic_write`: a crash before the replace leaves the old
        journal untouched; after it, the new one is complete.
        """
        data = "".join(line + "\n" for line in lines).encode("utf-8")
        try:
            atomic_write(self.path, data)
        except OSError as exc:
            raise JournalWriteError(
                f"journal {self.path!r}: rewrite failed: {exc}",
                path=self.path,
                errno=exc.errno,
            ) from exc

    # ------------------------------------------------------------------
    # Reading
    # ------------------------------------------------------------------
    def iter_lines(self) -> Iterator[tuple[int, bytes, bool]]:
        """Yield ``(byte_offset, line, is_final)`` for every journal line."""
        with open(self.path, "rb") as fh:
            blob = fh.read()
        offset = 0
        segments = blob.split(b"\n")
        # A well-formed journal ends with a newline, so the final split
        # segment is empty; anything else is a torn trailing write.
        for i, segment in enumerate(segments):
            if segment:
                yield offset, segment, i == len(segments) - 1
            offset += len(segment) + 1

    def clear(self) -> None:
        """Delete the journal and any stale rewrite temporary."""
        _remove_quietly(self.rewrite_path)
        if self.exists():
            os.remove(self.path)
