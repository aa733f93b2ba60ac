"""Span tracing from outside the program.

The benchmark wraps the public entry points of each layer (see
:data:`LAYERS`) and records one span per call: process, span id, parent
span id, name, start, end, whether it raised, and an optional tag (rows
scored, bytes written, a configuration key).  Spans live in memory;
worker processes append theirs to a file the parent merges
(:meth:`Tracer.dump` / :meth:`Tracer.load`).  Nothing under ``src/`` is
edited: wrapping replaces class attributes and module globals for the
traced half of a run, and :meth:`Tracer.uninstall` puts them back.

A layer's self time is its span time minus the part of that interval
its child spans cover (:func:`self_times`).
"""

from __future__ import annotations

import functools
import itertools
import json
import os
import sys
import threading
import time
import weakref
from collections import defaultdict

__all__ = [
    "LAYERS",
    "SPLITS",
    "Tracer",
    "layer_rows",
    "layer_table",
    "per_layer_metrics",
    "self_times",
]

#: Layer name -> (module, attribute path) of the wrapped entry point.
LAYERS: dict[str, tuple[str, str]] = {
    "orio.measure": ("repro.orio.evaluator", "OrioEvaluator.measure"),
    "kernels.metrics_for": ("repro.kernels.base", "SpaptKernel.metrics_for"),
    "orio.analyze_variant": ("repro.orio.analysis", "analyze_variant"),
    "perf.costmodel.runtime_seconds": ("repro.perf.costmodel", "CostModel.runtime_seconds"),
    "searchspace.sample_indices": ("repro.searchspace.space", "SearchSpace.sample_indices"),
    "searchspace.encode_indices": ("repro.searchspace.space", "SearchSpace.encode_indices"),
    "searchspace.config_at": ("repro.searchspace.space", "SearchSpace.config_at"),
    "transfer.surrogate.fit": ("repro.transfer.surrogate", "Surrogate.fit"),
    "transfer.surrogate.predict": ("repro.transfer.surrogate", "Surrogate.predict"),
    "transfer.surrogate.predict_indices": ("repro.transfer.surrogate", "Surrogate.predict_indices"),
    "ml.forest.fit": ("repro.ml.forest", "RandomForestRegressor.fit"),
    "ml.forest.predict": ("repro.ml.forest", "RandomForestRegressor.predict"),
    "search.engine.run": ("repro.search.engine", "SearchEngine.run"),
    "reliability.checkpoint.save": ("repro.reliability.checkpoint", "CheckpointManager.save"),
    "reliability.checkpoint.restore": ("repro.reliability.checkpoint", "CheckpointManager.restore"),
    "reliability.checkpoint.save_traces": ("repro.reliability.checkpoint", "save_traces"),
    "exec.run_grid": ("repro.exec.executor", "run_grid"),
    "exec.map": ("repro.exec.executor", "SupervisedExecutor.map"),
    "exec.registry.append": ("repro.exec.registry", "RunRegistry.append"),
    "exec.registry.load": ("repro.exec.registry", "RunRegistry.load"),
    "service.handle": ("repro.service.transport", "ServiceHandler.handle"),
    "service.submit": ("repro.service.service", "TuningService.submit"),
    "service.pump": ("repro.service.service", "TuningService.pump"),
    "service.run_batch": ("repro.service.jobs", "Dispatcher.run_batch"),
    "service.store.record": ("repro.service.store", "SessionStore.record"),
    "service.quota.admit_job": ("repro.service.quota", "AdmissionController.admit_job"),
    "service.execute_job": ("repro.service.worker", "execute_job"),
}

#: Layers reported per request op / job kind, one row per suffix.
SPLITS: dict[str, tuple[str, ...]] = {
    "service.handle": ("submit", "events", "job", "stats"),
    "service.execute_job": ("probe", "search"),
}

#: Per-layer metrics beyond calls/busy_s/self_s: name -> (unit, better).
EXTRAS: dict[str, tuple[str, str]] = {
    "kernels.metrics_for.distinct_frac": ("ratio", "higher"),
    "transfer.surrogate.predict_indices.rows": ("count", "lower"),
    "reliability.checkpoint.save.bytes_written": ("B", "lower"),
    "exec.registry.append.bytes": ("B", "lower"),
    "service.quota.admit_job.rejects": ("count", "lower"),
    "ml.native.available": ("flag", "higher"),
    "loadgen.lag_s_p99": ("s", "lower"),
    "trace.ops": ("count", "higher"),
    "trace.overhead_s": ("s", "lower"),
    "trace.overhead_frac": ("ratio", "lower"),
}


def layer_rows() -> list[str]:
    """Every reported layer row, split layers expanded."""
    rows: list[str] = []
    for name in LAYERS:
        if name in SPLITS:
            rows.extend(f"{name}.{suffix}" for suffix in SPLITS[name])
        else:
            rows.append(name)
    return rows


def per_layer_metrics() -> dict[str, tuple[str, str]]:
    """Every per-layer metric name -> (unit, better), in report order."""
    out: dict[str, tuple[str, str]] = {}
    for row in layer_rows():
        out[f"{row}.calls"] = ("count", "lower")
        out[f"{row}.busy_s"] = ("s", "lower")
        out[f"{row}.self_s"] = ("s", "lower")
    out.update(EXTRAS)
    return out


def _resolve(module: str, path: str):
    owner = sys.modules[module]
    *parents, attr = path.split(".")
    for part in parents:
        owner = getattr(owner, part)
    return owner, attr


class Tracer:
    """Records spans around wrapped layer entry points."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self._local = threading.local()
        self._ids = itertools.count(1)
        self._patches: list[tuple[object, str, object]] = []
        self._kernels: "weakref.WeakKeyDictionary[object, int]" = weakref.WeakKeyDictionary()

    # -- recording -----------------------------------------------------
    def reset_thread(self) -> None:
        """Forget the calling thread's open spans, so a forked worker
        records roots of its own instead of children of its parent's."""
        self._local.stack = []

    def wrap(self, name: str, fn, namer=None, tagger=None):
        """``fn`` recording one span per call.

        ``namer(args, kwargs)`` gives the row suffix of a split layer;
        ``tagger(args, kwargs, result)`` gives the span's tag.
        """
        local, spans, ids, clock = self._local, self.spans, self._ids, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            sid = next(ids)
            parent = stack[-1] if stack else 0
            label = name if namer is None else f"{name}.{namer(args, kwargs)}"
            stack.append(sid)
            err, result = True, None
            start = clock()
            try:
                result = fn(*args, **kwargs)
                err = False
                return result
            finally:
                end = clock()
                stack.pop()
                tag = None if (tagger is None or err) else tagger(args, kwargs, result)
                spans.append((os.getpid(), sid, parent, label, start, end, err, tag))

        return traced

    def _replace(self, owner, attr: str, original, replacement) -> None:
        targets = [owner]
        if isinstance(owner, type(sys)):
            # Also rebind the name in every repro module that imported it.
            targets = [
                m for key, m in list(sys.modules.items())
                if key.split(".")[0] == "repro" and getattr(m, attr, None) is original
            ]
        for target in targets:
            self._patches.append((target, attr, original))
            setattr(target, attr, replacement)

    def install(self) -> "Tracer":
        """Wrap every layer in :data:`LAYERS`."""
        for module, _ in LAYERS.values():
            __import__(module)
        namers = {
            "service.handle": lambda a, k: str(a[1].get("op", "")),
            "service.execute_job": lambda a, k: str(a[0].get("kind", "")),
        }
        taggers = {
            "kernels.metrics_for": self._config_key,
            "transfer.surrogate.predict_indices": lambda a, k, r: len(a[1]),
            "reliability.checkpoint.save": lambda a, k, r: os.path.getsize(a[0].path),
        }
        for name, (module, path) in LAYERS.items():
            owner, attr = _resolve(module, path)
            original = owner.__dict__[attr]
            if name == "exec.registry.append":
                replacement = self._sized_append(original)
            else:
                replacement = self.wrap(name, original, namers.get(name), taggers.get(name))
            self._replace(owner, attr, original, replacement)
        return self

    def _sized_append(self, original):
        """The registry append, tagged with the bytes it added."""
        def sized(registry, record):
            before = registry.size_bytes()
            original(registry, record)
            return registry.size_bytes() - before

        traced = self.wrap("exec.registry.append", sized, tagger=lambda a, k, r: r)

        @functools.wraps(original)
        def append(registry, record) -> None:
            traced(registry, record)

        return append

    def _config_key(self, args, kwargs, result) -> str:
        kernel, config = args[0], args[1]
        serial = self._kernels.get(kernel)
        if serial is None:
            serial = self._kernels[kernel] = next(self._ids)
        return f"{serial}:{config.index}"

    def uninstall(self) -> None:
        for target, attr, original in reversed(self._patches):
            setattr(target, attr, original)
        self._patches.clear()

    # -- cross-process -------------------------------------------------
    def dump(self, path: str, since: int = 0) -> None:
        """Append the spans recorded from index ``since`` on to ``path``."""
        with open(path, "a") as fh:
            for span in self.spans[since:]:
                fh.write(json.dumps(span) + "\n")

    def load(self, paths) -> None:
        """Merge the spans worker processes dumped."""
        for path in paths:
            with open(path) as fh:
                self.spans.extend(tuple(json.loads(line)) for line in fh)


def _covered(intervals, lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted(intervals):
        a, b = max(a, lo), min(b, hi)
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans) -> dict[tuple[int, int], float]:
    """(pid, span id) -> duration minus the part its children cover."""
    children: dict[tuple[int, int], list] = defaultdict(list)
    for pid, _sid, parent, _name, start, end, _err, _tag in spans:
        if parent:
            children[(pid, parent)].append((start, end))
    return {
        (pid, sid): (end - start) - _covered(children.get((pid, sid), ()), start, end)
        for pid, sid, _parent, _name, start, end, _err, _tag in spans
    }


def layer_table(spans) -> dict[str, dict]:
    """Per span name: ``calls``, ``busy_s``, ``self_s``, ``errors``,
    ``tag_sum`` (numeric tags) and ``distinct`` (set of string tags).

    ``busy_s`` sums the spans with no ancestor of the same name, so a
    layer that re-enters itself is not counted twice.
    """
    by_key = {(s[0], s[1]): s for s in spans}
    selfs = self_times(spans)
    table: dict[str, dict] = {}
    for pid, sid, parent, name, start, end, err, tag in spans:
        row = table.setdefault(name, empty_row())
        row["calls"] += 1
        row["self_s"] += selfs[(pid, sid)]
        row["errors"] += bool(err)
        if isinstance(tag, str):
            row["distinct"].add(tag)
        elif tag is not None:
            row["tag_sum"] += tag
        ancestor = by_key.get((pid, parent))
        while ancestor is not None and ancestor[3] != name:
            ancestor = by_key.get((pid, ancestor[2]))
        if ancestor is None:
            row["busy_s"] += end - start
    return table


def empty_row() -> dict:
    """The :func:`layer_table` row of a layer that never ran."""
    return {"calls": 0, "busy_s": 0.0, "self_s": 0.0, "errors": 0,
            "tag_sum": 0, "distinct": set()}
