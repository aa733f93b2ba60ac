"""Checkpoint/resume for searches, tuning runs, and sessions.

An outage mid-search (the paper's X-Gene budget blow-up, a killed job,
a crashed node) should not force re-evaluating everything.  A search
checkpoint records:

* the :class:`~repro.search.result.SearchTrace` so far (configurations
  by linear index, runtimes, elapsed times, failure/censoring flags);
* the :class:`~repro.perf.simclock.SimClock` state (elapsed seconds and
  budget), so resumed work keeps paying into the same budget;
* the number of proposal steps consumed (a
  :class:`~repro.search.stream.SharedStream` position for RS/RSp, a
  pool rank for RSb), so the resumed search continues at the exact
  point it stopped;
* the reliability state (fault-injector outage window, stats) when
  the evaluator exposes ``reliability_state()``.

Configurations serialize as linear indices — the space itself is code,
not data, so a checkpoint is small and the resumed process rebuilds
bit-identical :class:`Configuration` objects via ``space.config_at``.
CRN alignment survives a resume because a rebuilt
:class:`SharedStream` regenerates the same sequence from its seed and
the manager re-materializes exactly the checkpointed prefix.

Every checkpoint is an append-only :class:`~repro.exec.journal.JsonlJournal`
of CRC32-framed lines (format version :data:`FORMAT_VERSION`).  Each
search save appends one line holding ``start`` (the records already on
disk), only the records added since, and the full small state; each
session save (:func:`save_traces`) appends one finished trace.  Loads
replay the journal through :func:`~repro.exec.scrub.scrub_journal`, the
salvage path the run registry and session store use: a torn final
line is dropped, and a damaged search line quarantines itself and every
line after it (their ``start`` no longer chains), so the resume starts
from the last clean save.  A verified line of another format version
is foreign input, never salvage: it raises :class:`CheckpointError`
and leaves the file alone.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field

from repro.errors import CheckpointError
from repro.exec.journal import JsonlJournal, canonical_json, frame_obj
from repro.exec.scrub import scrub_journal
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

FORMAT_VERSION = 2


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
# The journal both checkpoint kinds share
# ----------------------------------------------------------------------
def _replay(path: str, fold) -> None:
    """Fold every clean line of the checkpoint at ``path``, in order,
    into ``fold`` (its floats still encoded).

    Damage is salvaged like any journal's (see module docstring); a
    verified line of another format version raises
    :class:`CheckpointError` before anything is quarantined or rewritten.
    """

    def apply(line: dict) -> None:
        version = line.get("version")
        if version != FORMAT_VERSION:
            raise CheckpointError(
                f"checkpoint {path!r} holds format version {version!r}, "
                f"not {FORMAT_VERSION}; refusing to resume from or salvage "
                "a file in another format",
                path=path,
            )
        fold(line)

    try:
        scrub_journal(path, apply=apply, label="checkpoint")
    except OSError as exc:
        raise CheckpointError(
            f"could not read checkpoint {path!r}: {exc}", path=path
        ) from exc


# ----------------------------------------------------------------------
# Search checkpoints
# ----------------------------------------------------------------------
#: The small state every search checkpoint line carries in full.
_STATE_KEYS = (
    "algorithm", "position", "clock", "reliability", "extra",
    "total_elapsed", "exhausted_budget", "metadata",
)


@dataclass
class SearchCheckpoint:
    """One resumable snapshot of a running search."""

    algorithm: str
    position: int  # proposal steps consumed (stream position / pool rank)
    trace: dict
    clock: dict
    reliability: dict | None = None
    extra: dict = field(default_factory=dict)


class CheckpointManager:
    """Save/restore one search's progress in an append-only journal.

    Pass an instance as the ``checkpoint=`` argument of
    :func:`~repro.search.random_search.random_search`,
    :func:`~repro.search.pruning.pruned_search`,
    :func:`~repro.search.biasing.biased_search`, or
    :func:`~repro.tuner.runner.warm_started_search`.  The search saves
    every ``every`` completed proposal steps and once at the end;
    calling the search again with the same manager resumes from the
    last snapshot without re-evaluating anything.
    """

    def __init__(self, path, every: int = 10) -> None:
        if every < 1:
            raise CheckpointError(f"checkpoint interval must be >= 1, got {every}")
        self.path = os.fspath(path)
        self.every = every
        self._last_saved_position = -1
        # What the journal holds: (records on disk, canonical JSON of the
        # last line's state); None until this manager has read or written
        # a line, and the next save then starts a new journal.
        self._on_disk: tuple[int, str] | None = None

    def exists(self) -> bool:
        return os.path.exists(self.path)

    def load(self) -> SearchCheckpoint | None:
        """The last clean snapshot, or ``None`` when there is none.

        Each line must start where the lines before it left off; one
        that does not (it follows a damaged line) is quarantined with
        the damage, so loss is bounded by the damage.
        """
        records: list[dict] = []
        last: dict = {}

        def fold(line: dict) -> None:
            if line["start"] != len(records):
                raise ValueError(
                    f"line starts at record {line['start']}, but "
                    f"{len(records)} precede it"
                )
            state = {key: line[key] for key in _STATE_KEYS}
            records.extend(line["records"])
            last.clear()
            last.update(state)

        _replay(self.path, fold)
        if not last:
            self._on_disk, self._last_saved_position = None, -1
            return None
        self._on_disk = (len(records), canonical_json(last))
        self._last_saved_position = int(last["position"])
        last = _decode_floats(last)
        return SearchCheckpoint(
            algorithm=last["algorithm"],
            position=int(last["position"]),
            trace={
                "algorithm": last["algorithm"],
                "records": _decode_floats(records),
                "total_elapsed": last["total_elapsed"],
                "exhausted_budget": last["exhausted_budget"],
                "metadata": last["metadata"],
            },
            clock=last["clock"],
            reliability=last["reliability"],
            extra=last["extra"],
        )

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
        return snapshot.position, dict(snapshot.extra)

    def save(
        self,
        trace: SearchTrace,
        position: int,
        evaluator=None,
        extra: dict | None = None,
    ) -> None:
        """Append a snapshot: the records added since the last save and
        the full small state.  A save that changes neither writes
        nothing; a manager that has not read its journal yet starts a
        new one."""
        reliability = None
        if evaluator is not None:
            getter = getattr(evaluator, "reliability_state", None)
            if callable(getter):
                reliability = getter()
        state = _encode_floats({
            "algorithm": trace.algorithm,
            "position": position,
            "clock": evaluator.clock.state_dict() if evaluator is not None else {},
            "reliability": reliability,
            "extra": extra or {},
            "total_elapsed": trace.total_elapsed,
            "exhausted_budget": trace.exhausted_budget,
            "metadata": _json_safe(trace.metadata),
        })
        state_json = canonical_json(state)
        start, last_state = self._on_disk or (0, None)
        if len(trace.records) < start:
            raise CheckpointError(
                f"checkpoint {self.path!r} holds {start} records but the "
                f"trace has {len(trace.records)}: traces only grow",
                path=self.path,
            )
        new = trace.records[start:]
        if new or state_json != last_state:
            line = frame_obj(dict(
                state,
                version=FORMAT_VERSION,
                start=start,
                records=_encode_floats([_record_to_dict(r) for r in new]),
            ))
            journal = JsonlJournal(self.path)
            if self._on_disk is None:
                journal.rewrite([line])
            else:
                journal.append_line(line)
            self._on_disk = (len(trace.records), state_json)
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
        """Delete the journal (a completed, consumed run)."""
        JsonlJournal(self.path).clear()
        self._on_disk = None
        self._last_saved_position = -1


# ----------------------------------------------------------------------
# Session-level checkpoints (transfer/session.py)
# ----------------------------------------------------------------------
def save_traces(path, traces: dict[str, SearchTrace]) -> None:
    """Append each finished trace of one transfer session, one line each."""
    journal = JsonlJournal(path)
    for name, trace in traces.items():
        journal.append_line(frame_obj(_encode_floats({
            "version": FORMAT_VERSION, "name": name, "trace": trace_to_dict(trace),
        })))


def load_traces(path, space: SearchSpace) -> dict[str, SearchTrace]:
    """The finished traces of an interrupted transfer session, by name.

    Lines are independent: a damaged one costs only the trace it held.
    """
    traces: dict[str, SearchTrace] = {}

    def fold(line: dict) -> None:
        traces[str(line["name"])] = trace_from_dict(
            space, _decode_floats(line["trace"])
        )

    _replay(os.fspath(path), fold)
    return traces
