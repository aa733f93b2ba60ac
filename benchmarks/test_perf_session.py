"""Full-session macro-benchmark (BENCH_session.json).

Times a complete RSb transfer session end to end — surrogate fit,
10k-pool scoring, ranking, and 40 target evaluations — against the
PR-2-era implementation reconstructed in-file: engine blocks of one,
legacy forest (per-node argsort growth by the ``LegacyTree`` reference
in ``tests/ml/legacy_tree.py``, per-tree prediction loops),
and the eager pool path that materialized every Configuration and
encoded it row by row.  The legacy and fast sessions are verified to
produce *identical* traces before any timing happens, so the speedup
is an apples-to-apples measurement of the same computation.

The batched engine with native kernels must be >= 5x the legacy
session; with ``REPRO_NATIVE=0`` (pure-NumPy fallback) it must still
be >= 2.5x.  Writes ``benchmarks/results/BENCH_session.json`` and
fails when a tracked entry regresses more than 25% against the
committed baseline (``REPRO_BENCH_ALLOW_REGRESSION=1`` to regenerate
a baseline on different hardware).

Run via ``make bench-session`` or directly:
``PYTHONPATH=src python -m pytest benchmarks/test_perf_session.py -q -s``.
"""

from __future__ import annotations

import os

import numpy as np
import pytest

from repro.kernels import get_kernel
from repro.machines import SANDYBRIDGE, WESTMERE
from repro.ml import _native
from repro.ml.forest import RandomForestRegressor
from repro.orio.evaluator import OrioEvaluator
from repro.perf.benchreport import (
    ALLOW_REGRESSION_ENV,
    find_regressions,
    load_report,
    make_entry,
    time_callable,
    write_report,
)
from repro.perf.simclock import SimClock
from repro.reliability.checkpoint import trace_to_dict
from repro.search import SharedStream, random_search
from repro.search.engine import SearchEngine
from repro.search.proposers import PoolRankProposer
from repro.transfer.surrogate import Surrogate
from repro.utils.rng import spawn_rng

from test_perf_ml import _LegacyForest

REPORT_NAME = "BENCH_session.json"
#: Entries checked against the committed report by the 25% gate.
TRACKED = ("rsb_session", "rsb_session_numpy")

#: Acceptance floors for this PR: batched + native kernels vs the
#: PR-2-era serial session, and the pure-NumPy fallback vs the same.
MIN_SPEEDUP_NATIVE = 5.0
MIN_SPEEDUP_NUMPY = 2.5

SESSION_BATCH = 64
NMAX = 40
POOL_SIZE = 10_000


class _LegacyPool(PoolRankProposer):
    """The PR-2-era pool path: materialize every pool Configuration,
    encode each one through ``surrogate.predict``, and rank with a
    full stable argsort.  Draws from the same RNG key as the bulk
    path, so the traces are identical."""

    def setup(self, ctx) -> None:
        clock = ctx.clock
        if not ctx.resumed:
            clock.advance(self.surrogate.fit_seconds)
        pool_rng = spawn_rng(self.rng_label, self.space.name, ctx.name)
        pool = self.space.sample(pool_rng, min(self.pool_size, self.space.cardinality))
        predictions = self.surrogate.predict(pool)
        if not ctx.resumed:
            clock.advance(self.surrogate.predict_seconds(len(pool)))
        self._pool_configs = list(pool)
        self._pool_indices = None
        self.predictions = predictions
        self._order = np.argsort(predictions, kind="stable")
        self._order_upto = len(predictions)
        ctx.trace.metadata["pool_size"] = len(pool)


def _legacy_session(kernel, training):
    """Blocks of one + legacy forest + eager pool: the honest before."""
    surrogate = Surrogate(
        kernel.space,
        learner=_LegacyForest(n_estimators=64, min_samples_leaf=2, seed=0),
    )
    surrogate.fit(training)
    target = OrioEvaluator(kernel, SANDYBRIDGE, clock=SimClock())
    engine = SearchEngine(
        target,
        _LegacyPool(kernel.space, surrogate, pool_size=POOL_SIZE),
        nmax=NMAX,
        name="RSb",
        space=kernel.space,
        batch_size=1,
    )
    return engine.run()


def _fast_session(kernel, training):
    """Batched engine + current forest + bulk index-based pool."""
    surrogate = Surrogate(
        kernel.space,
        learner=RandomForestRegressor(n_estimators=64, min_samples_leaf=2, seed=0),
    )
    surrogate.fit(training)
    target = OrioEvaluator(kernel, SANDYBRIDGE, clock=SimClock())
    engine = SearchEngine(
        target,
        PoolRankProposer(kernel.space, surrogate, pool_size=POOL_SIZE),
        nmax=NMAX,
        name="RSb",
        space=kernel.space,
        batch_size=SESSION_BATCH,
    )
    return engine.run()


def test_perf_session(results_dir):
    kernel = get_kernel("lu", n=128)
    source = OrioEvaluator(kernel, WESTMERE, clock=SimClock())
    training = random_search(
        source, SharedStream(kernel.space, seed="bench"), nmax=60
    ).training_data()

    # The speedup claim only means something if both engines run the
    # same search: prove trace identity before timing anything.
    assert trace_to_dict(_legacy_session(kernel, training)) == trace_to_dict(
        _fast_session(kernel, training)
    )

    legacy_seconds = time_callable(lambda: _legacy_session(kernel, training),
                                   repeats=3)

    entries = []
    native_available = _native.available()
    fast_seconds = time_callable(lambda: _fast_session(kernel, training),
                                 repeats=5)
    entries.append(make_entry(
        "rsb_session",
        fast_seconds,
        legacy_seconds,
        nmax=NMAX, pool_size=POOL_SIZE, kernel="lu",
        batch_size=SESSION_BATCH, engine_mode="batched",
        native_kernel=native_available,
    ))

    # Same session with the native kernels disabled: the NumPy
    # fallback must carry the floor on machines without a C compiler.
    # ``_native.available()`` consults the env var before its latch,
    # so in-process toggling is safe.
    old = os.environ.get("REPRO_NATIVE")
    os.environ["REPRO_NATIVE"] = "0"
    try:
        assert not _native.available()
        numpy_seconds = time_callable(lambda: _fast_session(kernel, training),
                                      repeats=5)
    finally:
        if old is None:
            del os.environ["REPRO_NATIVE"]
        else:  # pragma: no cover - env already set by the caller
            os.environ["REPRO_NATIVE"] = old
    entries.append(make_entry(
        "rsb_session_numpy",
        numpy_seconds,
        legacy_seconds,
        nmax=NMAX, pool_size=POOL_SIZE, kernel="lu",
        batch_size=SESSION_BATCH, engine_mode="batched",
        native_kernel=False,
    ))

    path = results_dir / REPORT_NAME
    committed = load_report(str(path))
    write_report(str(path), entries)

    lines = ["", f"{'entry':<24} {'before':>10} {'after':>10} {'speedup':>8}"]
    for e in entries:
        lines.append(
            f"{e['name']:<24} "
            f"{e['baseline_seconds'] * 1e3:>8.1f}ms "
            f"{e['seconds'] * 1e3:>8.1f}ms "
            f"{e['speedup']:>7.2f}x"
        )
    print("\n".join(lines))

    if native_available:
        assert entries[0]["speedup"] >= MIN_SPEEDUP_NATIVE, (
            f"native batched session speedup {entries[0]['speedup']:.2f}x "
            f"is below the {MIN_SPEEDUP_NATIVE}x floor"
        )
    assert entries[1]["speedup"] >= MIN_SPEEDUP_NUMPY, (
        f"NumPy-fallback session speedup {entries[1]['speedup']:.2f}x "
        f"is below the {MIN_SPEEDUP_NUMPY}x floor"
    )

    regressions = find_regressions(entries, committed, TRACKED)
    if regressions and os.environ.get(ALLOW_REGRESSION_ENV) != "1":
        pytest.fail(
            "performance regression vs committed BENCH_session.json:\n  "
            + "\n  ".join(regressions)
        )
