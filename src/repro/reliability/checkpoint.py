"""JSON checkpoint/resume for searches, tuning runs, and sessions.

An outage mid-search (the paper's X-Gene budget blow-up, a killed job,
a crashed node) should not force re-evaluating everything.  A
checkpoint captures, in one JSON document:

* the :class:`~repro.search.result.SearchTrace` so far (configurations
  by linear index, runtimes, elapsed times, failure/censoring flags);
* the :class:`~repro.perf.simclock.SimClock` state (elapsed seconds and
  budget), so resumed work keeps paying into the same budget;
* the number of proposal steps consumed (a
  :class:`~repro.search.stream.SharedStream` position for RS/RSp, a
  pool rank for RSb), so the resumed search continues at the exact
  point it stopped;
* the reliability state (fault-injector outage window, circuit breaker,
  stats) when the evaluator exposes ``reliability_state()``.

Configurations serialize as linear indices — the space itself is code,
not data, so a checkpoint is small and the resumed process rebuilds
bit-identical :class:`Configuration` objects via ``space.config_at``.
CRN alignment survives a resume because a rebuilt
:class:`SharedStream` regenerates the same sequence from its seed and
the manager re-materializes exactly the checkpointed prefix.

Search checkpoints and session checkpoints (:func:`save_traces`) share
one document path: each save frames the document in the journal
layer's CRC32 envelope, keeps the previous copy as ``<path>.bak``, and
lands through :func:`~repro.exec.journal.atomic_write`; each load
verifies the primary and falls back to the ``.bak`` when the primary
is damaged or missing.
"""

from __future__ import annotations

import json
import os
import warnings
from dataclasses import dataclass, field

from repro.errors import CheckpointError
from repro.exec.journal import atomic_write, frame_line, read_framed
from repro.search.result import EvaluationRecord, SearchTrace
from repro.searchspace.space import SearchSpace

__all__ = [
    "FORMAT_VERSION",
    "trace_to_dict",
    "trace_from_dict",
    "SearchCheckpoint",
    "CheckpointManager",
    "save_traces",
    "load_traces",
]

FORMAT_VERSION = 1


# ----------------------------------------------------------------------
# Trace (de)serialization
# ----------------------------------------------------------------------
def _record_to_dict(record: EvaluationRecord) -> dict:
    return {
        "config": record.config.index,
        "runtime": record.runtime,
        "elapsed": record.elapsed,
        "skipped_before": record.skipped_before,
        "failed": record.failed,
        "censored": record.censored,
    }


def _record_from_dict(space: SearchSpace, data: dict) -> EvaluationRecord:
    return EvaluationRecord(
        config=space.config_at(int(data["config"])),
        runtime=float(data["runtime"]),
        elapsed=float(data["elapsed"]),
        skipped_before=int(data.get("skipped_before", 0)),
        failed=bool(data.get("failed", False)),
        censored=bool(data.get("censored", False)),
    )


def _json_safe(mapping: dict) -> dict:
    """The JSON-serializable subset of a metadata mapping."""
    safe = {}
    for key, value in mapping.items():
        try:
            json.dumps(value)
        except (TypeError, ValueError):
            continue
        safe[str(key)] = value
    return safe


def trace_to_dict(trace: SearchTrace) -> dict:
    """JSON-serializable snapshot of a search trace."""
    return {
        "algorithm": trace.algorithm,
        "records": [_record_to_dict(r) for r in trace.records],
        "total_elapsed": trace.total_elapsed,
        "exhausted_budget": trace.exhausted_budget,
        "metadata": _json_safe(trace.metadata),
    }


def trace_from_dict(space: SearchSpace, data: dict) -> SearchTrace:
    """Rebuild a trace against the (code-defined) search space."""
    trace = SearchTrace(algorithm=data["algorithm"])
    for rec in data["records"]:
        trace.add(_record_from_dict(space, rec))
    trace.total_elapsed = float(data["total_elapsed"])
    trace.exhausted_budget = bool(data["exhausted_budget"])
    trace.metadata.update(data.get("metadata", {}))
    return trace


# Infinity is not valid JSON under the strictest readers; Python's json
# module emits/parses it by default, which is what we rely on — but the
# checkpoint should survive allow_nan-strict tooling, so encode as str.
_INF = "Infinity"
_NEG_INF = "-Infinity"


def _encode_floats(obj):
    if isinstance(obj, float):
        if obj == float("inf"):
            return _INF
        if obj == float("-inf"):
            return _NEG_INF
        return obj
    if isinstance(obj, dict):
        return {k: _encode_floats(v) for k, v in obj.items()}
    if isinstance(obj, list):
        return [_encode_floats(v) for v in obj]
    return obj


def _decode_floats(obj):
    if obj == _INF:
        return float("inf")
    if obj == _NEG_INF:
        return float("-inf")
    if isinstance(obj, dict):
        return {k: _decode_floats(v) for k, v in obj.items()}
    if isinstance(obj, list):
        return [_decode_floats(v) for v in obj]
    return obj


# ----------------------------------------------------------------------
# Search checkpoints
# ----------------------------------------------------------------------
@dataclass
class SearchCheckpoint:
    """One resumable snapshot of a running search."""

    algorithm: str
    position: int  # proposal steps consumed (stream position / pool rank)
    trace: dict
    clock: dict
    reliability: dict | None = None
    extra: dict = field(default_factory=dict)
    version: int = FORMAT_VERSION

    def to_dict(self) -> dict:
        return {
            "version": self.version,
            "algorithm": self.algorithm,
            "position": self.position,
            "trace": self.trace,
            "clock": self.clock,
            "reliability": self.reliability,
            "extra": self.extra,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "SearchCheckpoint":
        version = int(data.get("version", -1))
        if version != FORMAT_VERSION:
            raise CheckpointError(
                f"checkpoint format version {version} not supported "
                f"(expected {FORMAT_VERSION})"
            )
        return cls(
            algorithm=data["algorithm"],
            position=int(data["position"]),
            trace=data["trace"],
            clock=data["clock"],
            reliability=data.get("reliability"),
            extra=data.get("extra", {}),
            version=version,
        )


def _backup_path(path: str) -> str:
    return f"{path}.bak"


def _offset_label(exc: CheckpointError) -> str:
    """The byte offset an error located, or ``n/a`` (semantic reject)."""
    return "n/a" if getattr(exc, "offset", None) is None else str(exc.offset)


def _read(path: str) -> dict:
    """One verified checkpoint document, with its floats decoded."""
    try:
        payload, _framed = read_framed(path)
    except OSError as exc:
        raise CheckpointError(
            f"could not read checkpoint {path!r}: {exc}", path=path
        ) from exc
    return _decode_floats(payload)


def _verifies(path: str) -> bool:
    """Whether ``path`` currently holds a checkpoint that passes
    verification (parses, and its CRC32 envelope — if framed — holds)."""
    try:
        read_framed(path)
    except (OSError, CheckpointError):
        return False
    return True


def _write(path: str, payload: dict) -> None:
    """Durably save one checkpoint document, keeping the last good copy.

    The document is wrapped in the journal layer's CRC32 envelope
    (:func:`~repro.exec.journal.frame_line`), so *any* bit flip at rest
    — even one that still parses as JSON — fails verification on load
    instead of resuming from quietly wrong state.  The previous file
    survives as ``<path>.bak`` — the recovery target when the live file
    is later found damaged or missing — but only when it still
    *verifies*: promoting a bit-rotted primary would clobber the last
    good backup, and the very next corruption hit would leave *both*
    copies bad.  A primary that fails its CRC is simply replaced.
    """
    doc = json.dumps(
        _encode_floats(payload), sort_keys=True, separators=(",", ":"),
        allow_nan=False,
    )
    try:
        if _verifies(path):
            os.replace(path, _backup_path(path))
        atomic_write(path, frame_line(doc).encode("utf-8"))
    except OSError as exc:
        raise CheckpointError(
            f"could not write checkpoint {path!r}: {exc}", path=path
        ) from exc


def _load(path: str, parse):
    """``parse`` of the checkpoint at ``path``, or ``None`` when neither
    it nor its ``.bak`` exists.

    A damaged or missing primary (a flipped bit caught by the CRC32
    envelope, a crash between the ``.bak`` rotation and the new
    primary landing) falls back to the ``.bak`` with a warning:
    strictly better than restarting, and exact because every save
    point is a complete snapshot.  When the backup *also* fails, the
    error reports both paths and both byte offsets (and carries the
    backup's on ``backup_path``/``backup_offset``).
    """
    backup = _backup_path(path)
    if not (os.path.exists(path) or os.path.exists(backup)):
        return None
    try:
        return parse(_read(path))
    except CheckpointError as exc:
        if not os.path.exists(backup):
            raise
        try:
            recovered = parse(_read(backup))
        except CheckpointError as bak_exc:
            combined = CheckpointError(
                "checkpoint and backup both failed verification — "
                f"primary {path!r} (byte offset {_offset_label(exc)}): "
                f"{exc}; backup {backup!r} (byte offset "
                f"{_offset_label(bak_exc)}): {bak_exc}",
                path=path,
                offset=exc.offset,
            )
            combined.backup_path = backup
            combined.backup_offset = bak_exc.offset
            raise combined from exc
        warnings.warn(
            f"checkpoint {path!r} is unreadable ({exc}); "
            f"resuming from backup {backup!r}",
            RuntimeWarning,
            stacklevel=3,
        )
        return recovered


class CheckpointManager:
    """Save/restore one search's progress at a JSON path.

    Pass an instance as the ``checkpoint=`` argument of
    :func:`~repro.search.random_search.random_search`,
    :func:`~repro.search.pruning.pruned_search`,
    :func:`~repro.search.biasing.biased_search`, or
    :meth:`~repro.tuner.runner.TuningRun.run`.  The search saves every
    ``every`` completed proposal steps and once at the end; calling the
    search again with the same manager resumes from the last snapshot
    without re-evaluating anything.
    """

    def __init__(self, path, every: int = 10) -> None:
        if every < 1:
            raise CheckpointError(f"checkpoint interval must be >= 1, got {every}")
        self.path = os.fspath(path)
        self.every = every
        self._last_saved_position = -1

    def exists(self) -> bool:
        return os.path.exists(self.path)

    def load(self) -> SearchCheckpoint | None:
        """The stored snapshot, or ``None`` when no file exists.

        A damaged primary (a crash mid-save, a flipped bit caught by
        the CRC32 envelope) or a missing one falls back to the ``.bak``
        of the last good checkpoint (kept by every :meth:`save`) with a
        warning; when that fails too, :class:`CheckpointError` names
        both paths and byte offsets.
        """
        return _load(self.path, SearchCheckpoint.from_dict)

    # ------------------------------------------------------------------
    def restore(
        self,
        trace: SearchTrace,
        space: SearchSpace,
        evaluator=None,
        stream=None,
    ) -> tuple[int, dict]:
        """Apply the stored snapshot; returns ``(position, extra)``.

        With no snapshot on disk this is a no-op returning ``(0, {})``.
        The trace is filled in place, the evaluator's clock and
        reliability state are restored, and the stream is re-materialized
        up to the checkpointed position so its generator state matches
        the interrupted run exactly (CRN alignment).
        """
        snapshot = self.load()
        if snapshot is None:
            return 0, {}
        if snapshot.algorithm != trace.algorithm:
            raise CheckpointError(
                f"checkpoint belongs to algorithm {snapshot.algorithm!r}, "
                f"not {trace.algorithm!r}"
            )
        restored = trace_from_dict(space, snapshot.trace)
        trace.records[:] = restored.records
        trace.total_elapsed = restored.total_elapsed
        trace.exhausted_budget = restored.exhausted_budget
        trace.metadata.update(restored.metadata)
        if evaluator is not None:
            evaluator.clock.load_state(snapshot.clock)
            loader = getattr(evaluator, "load_reliability_state", None)
            if callable(loader) and snapshot.reliability is not None:
                loader(snapshot.reliability)
        if stream is not None and snapshot.position > 0:
            stream.prefix(snapshot.position)
        self._last_saved_position = snapshot.position
        return snapshot.position, dict(snapshot.extra)

    def save(
        self,
        trace: SearchTrace,
        position: int,
        evaluator=None,
        extra: dict | None = None,
    ) -> None:
        """Write a snapshot unconditionally."""
        reliability = None
        if evaluator is not None:
            getter = getattr(evaluator, "reliability_state", None)
            if callable(getter):
                reliability = getter()
        snapshot = SearchCheckpoint(
            algorithm=trace.algorithm,
            position=position,
            trace=trace_to_dict(trace),
            clock=evaluator.clock.state_dict() if evaluator is not None else {},
            reliability=reliability,
            extra=extra or {},
        )
        _write(self.path, snapshot.to_dict())
        self._last_saved_position = position

    def maybe_save(
        self,
        trace: SearchTrace,
        position: int,
        evaluator=None,
        extra: dict | None = None,
    ) -> bool:
        """Save when ``every`` new proposal steps accumulated since the
        last snapshot; returns whether a snapshot was written."""
        if position - self._last_saved_position < self.every:
            return False
        self.save(trace, position, evaluator=evaluator, extra=extra)
        return True

    def clear(self) -> None:
        """Delete the snapshot and its backup (a completed, consumed run)."""
        if self.exists():
            os.remove(self.path)
        backup = _backup_path(self.path)
        if os.path.exists(backup):
            os.remove(backup)
        self._last_saved_position = -1


# ----------------------------------------------------------------------
# Session-level checkpoints (transfer/session.py)
# ----------------------------------------------------------------------
def save_traces(path, traces: dict[str, SearchTrace]) -> None:
    """Persist a mapping of finished traces (one transfer session)."""
    payload = {
        "version": FORMAT_VERSION,
        "traces": {name: trace_to_dict(t) for name, t in traces.items()},
    }
    _write(os.fspath(path), payload)


def _session_document(data: dict) -> dict:
    version = int(data.get("version", -1))
    if version != FORMAT_VERSION:
        raise CheckpointError(
            f"session checkpoint version {version} not supported "
            f"(expected {FORMAT_VERSION})"
        )
    return data


def load_traces(path, space: SearchSpace) -> dict[str, SearchTrace]:
    """Load the finished traces of an interrupted transfer session.

    Recovers like :meth:`CheckpointManager.load`: a damaged or missing
    file falls back to the ``.bak`` that :func:`save_traces` keeps.
    """
    data = _load(os.fspath(path), _session_document)
    if data is None:
        return {}
    return {
        name: trace_from_dict(space, tdata)
        for name, tdata in data.get("traces", {}).items()
    }
