"""Performance benchmarks for the ML hot paths (BENCH_ml.json).

Times tree fit, forest fit, 10k-pool prediction, and a full RSb
session, each against the legacy implementation it replaced (the
legacy split search, kept unchanged as the reference in
``tests/ml/legacy_tree.py``, and the per-tree prediction loops).  Writes the machine-readable report
to ``benchmarks/results/BENCH_ml.json`` and fails when a tracked entry
regresses more than 25% against the committed baseline (set
``REPRO_BENCH_ALLOW_REGRESSION=1`` to regenerate a baseline on
different hardware).

Run via ``make bench`` or directly:
``PYTHONPATH=src python -m pytest benchmarks/test_perf_ml.py -q -s``.
"""

from __future__ import annotations

import os

import numpy as np
import pytest

from repro.kernels import get_kernel
from repro.machines import SANDYBRIDGE, WESTMERE
from repro.ml import _native
from repro.ml.forest import RandomForestRegressor
from repro.ml.tree import DecisionTreeRegressor
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
from repro.search import SharedStream, biased_search, random_search
from repro.transfer.surrogate import Surrogate
from repro.utils.rng import RngFactory
from tests.ml.legacy_tree import LegacyTree

REPORT_NAME = "BENCH_ml.json"
#: Entries checked against the committed report by the 25% gate.
TRACKED = ("forest_fit", "pool_predict", "pool_predict_std")


class _LegacyForest(RandomForestRegressor):
    """The pre-optimization forest: legacy split search, per-node
    argsort growth, ``np.setdiff1d`` OOB bookkeeping, and per-tree
    Python prediction loops.  Used as the honest "before" timing."""

    def fit(self, X, y):
        n, p = X.shape
        factory = RngFactory("random-forest", seed=self.seed)
        self.trees = []
        oob_sum = np.zeros(n)
        oob_count = np.zeros(n)
        importances = np.zeros(p)
        for t in range(self.n_estimators):
            rng = factory.child("tree", t)
            sample = rng.integers(0, n, size=n)
            tree = LegacyTree(
                max_depth=self.max_depth,
                min_samples_split=self.min_samples_split,
                min_samples_leaf=self.min_samples_leaf,
                max_features=self.max_features,
                rng=factory.child("split", t),
            )
            tree.fit(X[sample], y[sample])
            self.trees.append(tree)
            importances += tree.feature_importances_
            out_of_bag = np.setdiff1d(np.arange(n), sample, assume_unique=False)
            if out_of_bag.size:
                oob_sum[out_of_bag] += tree.predict(X[out_of_bag])
                oob_count[out_of_bag] += 1
        self._n_features = p
        with np.errstate(invalid="ignore", divide="ignore"):
            self._oob_prediction = np.where(oob_count > 0, oob_sum / oob_count, np.nan)
        total = importances.sum()
        self._importances = importances / total if total > 0 else importances
        self._y_train = y
        return self

    def predict(self, X):
        acc = np.zeros(np.asarray(X).shape[0])
        for tree in self.trees:
            acc += tree.predict(X)
        return acc / len(self.trees)

    def predict_std(self, X):
        return np.stack([tree.predict(X) for tree in self.trees]).std(axis=0)


def _training_set(n: int, p: int, seed: int = 0):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, p))
    y = np.abs(rng.normal(size=n) + 2.0 * X[:, 0]) + 0.1
    return X, y


#: Engine batch size used by the session benchmark (the factory
#: default); recorded in the entry meta alongside the engine mode.
SESSION_BATCH = 64


def _rsb_session(kernel, training, learner_factory) -> None:
    """Model-facing half of an RSb session: surrogate fit, 10k-pool
    scoring, and the target evaluations (the source trace that produces
    ``training`` is identical for both engines, so it is built once
    outside the timed region)."""
    surrogate = Surrogate(kernel.space, learner=learner_factory())
    surrogate.fit(training)
    target = OrioEvaluator(kernel, SANDYBRIDGE, clock=SimClock())
    biased_search(target, kernel.space, surrogate, nmax=40, pool_size=10_000,
                  batch_size=SESSION_BATCH)


def test_perf_ml_suite(results_dir):
    X, y = _training_set(100, 8)
    Xpool = _training_set(10_000, 8, seed=1)[0]
    entries = []

    # -- single-tree fit (full split search, deeper data) ---------------
    Xt, yt = _training_set(1_000, 8, seed=2)
    legacy_tree = LegacyTree(min_samples_leaf=2)
    fast_tree = DecisionTreeRegressor(min_samples_leaf=2)
    entries.append(make_entry(
        "tree_fit",
        time_callable(lambda: fast_tree.fit(Xt, yt)),
        time_callable(lambda: legacy_tree.fit(Xt, yt), repeats=3),
        n=1_000, p=8, max_features=None,
    ))

    # -- forest fit: full split search (headline) and surrogate default -
    for name, mf, reps in (
        ("forest_fit", None, 5),
        ("forest_fit_surrogate_default", "third", 5),
    ):
        legacy = _LegacyForest(n_estimators=64, max_features=mf, seed=0)
        fast = RandomForestRegressor(n_estimators=64, max_features=mf, seed=0)
        entries.append(make_entry(
            name,
            time_callable(lambda: fast.fit(X, y), repeats=reps),
            time_callable(lambda: legacy.fit(X, y), repeats=3),
            n=100, p=8, n_estimators=64, max_features=str(mf),
        ))

    # -- 10k-pool prediction -------------------------------------------
    legacy = _LegacyForest(n_estimators=64, seed=0).fit(X, y)
    fast = RandomForestRegressor(n_estimators=64, seed=0).fit(X, y)
    assert np.array_equal(legacy.predict(Xpool), fast.predict(Xpool))
    assert np.array_equal(legacy.predict_std(Xpool), fast.predict_std(Xpool))
    entries.append(make_entry(
        "pool_predict",
        time_callable(lambda: fast.predict(Xpool)),
        time_callable(lambda: legacy.predict(Xpool), repeats=3),
        n_rows=10_000, n_estimators=64,
    ))
    entries.append(make_entry(
        "pool_predict_std",
        time_callable(lambda: fast.predict_std(Xpool)),
        time_callable(lambda: legacy.predict_std(Xpool), repeats=3),
        n_rows=10_000, n_estimators=64,
    ))

    # -- full RSb session ----------------------------------------------
    kernel = get_kernel("lu", n=128)
    source = OrioEvaluator(kernel, WESTMERE, clock=SimClock())
    training = random_search(
        source, SharedStream(kernel.space, seed="bench"), nmax=60
    ).training_data()
    entries.append(make_entry(
        "rsb_session",
        time_callable(
            lambda: _rsb_session(kernel, training, lambda: RandomForestRegressor(
                n_estimators=64, min_samples_leaf=2, seed=0)),
            repeats=3,
        ),
        time_callable(
            lambda: _rsb_session(kernel, training, lambda: _LegacyForest(
                n_estimators=64, min_samples_leaf=2, seed=0)),
            repeats=3,
        ),
        nmax=40, pool_size=10_000, kernel="lu",
        batch_size=SESSION_BATCH, engine_mode="batched",
        native_kernel=_native.available(),
    ))

    path = results_dir / REPORT_NAME
    committed = load_report(str(path))
    write_report(str(path), entries)

    lines = ["", f"{'entry':<30} {'before':>10} {'after':>10} {'speedup':>8}"]
    for e in entries:
        before = e.get("baseline_seconds")
        lines.append(
            f"{e['name']:<30} "
            f"{(before * 1e3 if before else float('nan')):>8.1f}ms "
            f"{e['seconds'] * 1e3:>8.1f}ms "
            f"{e.get('speedup', float('nan')):>7.1f}x"
        )
    print("\n".join(lines))

    regressions = find_regressions(entries, committed, TRACKED)
    if regressions and os.environ.get(ALLOW_REGRESSION_ENV) != "1":
        pytest.fail(
            "performance regression vs committed BENCH_ml.json:\n  "
            + "\n  ".join(regressions)
        )
