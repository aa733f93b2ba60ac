"""Supervised, crash-safe, resumable experiment execution.

The process layer that runs the paper's grids (Table IV alone fans 54
transfer sessions out over workers) must survive what real fleets do:
segfaulting workers, OOM kills, hung cells, Ctrl-C, and jobs killed
halfway through a figure.  This package supplies that layer:

* :mod:`~repro.exec.executor` — the :class:`SupervisedExecutor`
  (per-task heartbeats and wall-clock timeouts, worker respawn, retry
  with backoff, quarantine to :class:`CellFailure`, clean signal
  teardown, workers that exit with their supervisor), deterministic :class:`ChaosConfig` kill injection, and
  :func:`run_grid`, which merges journaled and freshly computed cells;
* :mod:`~repro.exec.registry` — the :class:`RunRegistry`, an
  append-only, fsync'd JSONL journal of completed cells keyed by
  fingerprint, tolerant of a torn final record;
* :mod:`~repro.exec.fingerprint` — deterministic cell fingerprints
  (experiment + cell key + seed + code version) via canonical JSON;
* :mod:`~repro.exec.watchdog` — heartbeat/deadline bookkeeping that
  turns silence into kill verdicts, as pure testable logic.

Every cell in this library is a pure function of its spec and seed, so
supervision and resume are invisible in the results: a grid that
crashed five times and resumed twice is bit-identical to one serial
uninterrupted run.  Env knobs: ``REPRO_WORKERS`` (fleet size) and
``REPRO_RESUME=0`` (ignore the journal and re-run everything).  The
per-cell wall-clock budget (``task_timeout``), retry limit and chaos
injection (``chaos=``) are arguments of :class:`SupervisedExecutor`
only; a grid that needs them passes ``run_grid(executor=...)``.
"""

from repro.exec.executor import (
    CellFailure,
    ChaosConfig,
    ExecutorStats,
    GridOutcome,
    SupervisedExecutor,
    run_grid,
)
from repro.exec.fingerprint import canonical, canonical_json, cell_fingerprint, code_version
from repro.exec.journal import JsonlJournal
from repro.exec.registry import RunRecord, RunRegistry, resume_enabled
from repro.exec.watchdog import Overdue, Watchdog

__all__ = [
    "SupervisedExecutor",
    "CellFailure",
    "ChaosConfig",
    "ExecutorStats",
    "GridOutcome",
    "run_grid",
    "JsonlJournal",
    "RunRegistry",
    "RunRecord",
    "resume_enabled",
    "cell_fingerprint",
    "canonical",
    "canonical_json",
    "code_version",
    "Watchdog",
    "Overdue",
]
