"""Native-kernel contract tests.

Two families of guarantee:

1. **Bit-identity** — every compiled kernel replays its NumPy
   counterpart's floating-point arithmetic operation for operation, so
   results (and therefore traces) do not depend on whether the kernel
   compiled.  ``gate_topk`` additionally must reproduce the exact
   stable-argsort prefix, including NaN placement, tied values, and
   signed zeros.
2. **Loud degradation** — a host whose compiler exists but fails emits
   a one-time ``RuntimeWarning`` from the first probe (the satellite
   requirement: no silent fallback), and the probe outcome is exposed
   via the module's ``diagnostics()``.
"""

import os
import stat
import subprocess
import sys
import textwrap

import numpy as np
import pytest

from repro.ml import _native
from repro.ml.forest import PackedTrees, RandomForestRegressor
from repro.ml.tree import DecisionTreeRegressor

NATIVE = _native.available()


def _stable_prefix(scores, k):
    return np.argsort(scores, kind="stable")[:k]


# ----------------------------------------------------------------------
# gate_topk == stable argsort prefix + gate verdicts
# ----------------------------------------------------------------------
@pytest.mark.skipif(not NATIVE, reason="native kernels unavailable")
@pytest.mark.parametrize("k", [0, 1, 7, 100, 999, 1000, 1500])
def test_gate_topk_matches_stable_argsort(k):
    rng = np.random.default_rng(11)
    scores = rng.normal(size=1000)
    # Force ties, NaNs, and signed zeros into the mix.
    scores[::7] = scores[3]
    scores[::13] = np.nan
    scores[5] = 0.0
    scores[6] = -0.0
    order, admit = _native.gate_topk(scores, k)
    np.testing.assert_array_equal(order, _stable_prefix(scores, k))
    assert admit.all()  # cutoff defaults to +inf: everything admitted


@pytest.mark.skipif(not NATIVE, reason="native kernels unavailable")
def test_gate_topk_admit_matches_gate_formula():
    rng = np.random.default_rng(12)
    scores = rng.normal(size=500)
    scores[::11] = np.nan
    cutoff = float(np.nanmedian(scores))
    order, admit = _native.gate_topk(scores, 500, cutoff=cutoff)
    np.testing.assert_array_equal(order, _stable_prefix(scores, 500))
    expected = ~(scores[order] >= cutoff)  # NaN admits, like the gates
    np.testing.assert_array_equal(admit, expected)


@pytest.mark.skipif(not NATIVE, reason="native kernels unavailable")
def test_gate_topk_short_input():
    scores = np.array([2.0, 1.0])
    order, admit = _native.gate_topk(scores, 10)
    np.testing.assert_array_equal(order, [1, 0])
    assert len(admit) == 2


# ----------------------------------------------------------------------
# ensemble reductions / traversal
# ----------------------------------------------------------------------
@pytest.mark.skipif(not NATIVE, reason="native kernels unavailable")
def test_ensemble_mean_and_std_bit_identical():
    rng = np.random.default_rng(13)
    vals = rng.normal(size=(48, 257))
    acc = np.zeros(257)
    for t in range(48):
        acc += vals[t]
    np.testing.assert_array_equal(_native.ensemble_mean(vals), acc / 48)
    np.testing.assert_array_equal(_native.ensemble_std(vals), vals.std(axis=0))


def test_forest_predictions_identical_with_and_without_native(monkeypatch):
    """The whole forest pipeline — fit, predict, predict_std — must not
    depend on whether the compiled kernels are in use."""
    rng = np.random.default_rng(14)
    X = rng.uniform(size=(160, 6))
    y = np.sin(3 * X[:, 0]) + X[:, 1] ** 2 + 0.05 * rng.normal(size=160)
    Xq = rng.uniform(size=(300, 6))

    def run():
        model = RandomForestRegressor(n_estimators=24, min_samples_leaf=2, seed=5)
        model.fit(X, y)
        return model.predict(Xq), model.predict_std(Xq)

    with_default = run()
    monkeypatch.setenv("REPRO_NATIVE", "0")
    without = run()
    np.testing.assert_array_equal(with_default[0], without[0])
    np.testing.assert_array_equal(with_default[1], without[1])


# ----------------------------------------------------------------------
# Randomized oracles: each kernel against its NumPy path, bit for bit
# ----------------------------------------------------------------------
_ORACLE_SEEDS = range(12)


def _random_packed(rng, n_trees):
    """Trees fit on small integer-valued data (so many rows tie), one
    of them a lone leaf when there are several."""
    p = int(rng.integers(1, 6))
    trees = []
    for t in range(n_trees):
        n = int(rng.integers(1, 60))
        X = rng.integers(0, 4, size=(n, p)).astype(float)
        y = rng.normal(size=n)
        if t == 1:
            y[:] = 0.5  # constant target: a single-leaf tree
        tree = DecisionTreeRegressor(
            max_depth=int(rng.integers(1, 8)),
            min_samples_leaf=int(rng.integers(1, 4)),
            rng=np.random.default_rng(int(rng.integers(1 << 30))),
        )
        trees.append(tree.fit(X, y))
    return PackedTrees(trees), p


def _numpy_tree_values(packed, X, monkeypatch):
    with monkeypatch.context() as m:
        m.setenv("REPRO_NATIVE", "0")
        return packed.tree_values(X)


@pytest.mark.skipif(not NATIVE, reason="native kernels unavailable")
@pytest.mark.parametrize("seed", _ORACLE_SEEDS)
def test_tree_values_oracle(seed, monkeypatch):
    rng = np.random.default_rng([21, seed])
    n_trees = 1 if seed < 2 else int(rng.integers(2, 16))
    packed, p = _random_packed(rng, n_trees)
    Xq = rng.integers(-1, 5, size=(int(rng.integers(1, 300)), p)).astype(float)
    # Rows sitting exactly on split thresholds take the ``<=`` branch.
    splits = packed.threshold[packed.feature >= 0]
    if len(splits):
        Xq[::3] = rng.choice(splits, size=Xq[::3].shape)
    native = _native.tree_values(
        packed.feature, packed.threshold, packed.left, packed.right,
        packed.value, packed.roots, Xq,
    )
    np.testing.assert_array_equal(
        native, _numpy_tree_values(packed, Xq, monkeypatch)
    )


@pytest.mark.skipif(not NATIVE, reason="native kernels unavailable")
@pytest.mark.parametrize("seed", _ORACLE_SEEDS)
def test_ensemble_reductions_oracle(seed):
    rng = np.random.default_rng([22, seed])
    n_trees = 1 if seed < 2 else int(rng.integers(2, 80))
    n = int(rng.integers(1, 400))
    vals = rng.normal(scale=10.0 ** rng.integers(-3, 4), size=(n_trees, n))
    vals[:, ::4] = vals[0, ::4]  # columns whose trees all agree
    vals[rng.random(vals.shape) < 0.2] = 1.25  # ties across trees
    acc = np.zeros(n)
    for t in range(n_trees):
        acc += vals[t]
    np.testing.assert_array_equal(_native.ensemble_mean(vals), acc / n_trees)
    np.testing.assert_array_equal(_native.ensemble_std(vals), vals.std(axis=0))


@pytest.mark.skipif(not NATIVE, reason="native kernels unavailable")
@pytest.mark.parametrize("seed", _ORACLE_SEEDS)
def test_gate_topk_oracle(seed):
    rng = np.random.default_rng([23, seed])
    n = int(rng.integers(1, 500))
    # Few distinct values: long runs of ties, plus NaNs and signed zeros.
    scores = rng.integers(-3, 4, size=n).astype(float)
    scores[rng.random(n) < 0.1] = np.nan
    scores[rng.random(n) < 0.1] = -0.0
    cutoff = float(rng.choice([np.inf, 0.0, float(rng.integers(-3, 4))]))
    for k in (0, 1, int(rng.integers(0, n + 1)), n, n + int(rng.integers(1, 50))):
        order, admit = _native.gate_topk(scores, k, cutoff=cutoff)
        expected = np.argsort(scores, kind="stable")[:k]
        np.testing.assert_array_equal(order, expected)
        np.testing.assert_array_equal(admit, ~(scores[expected] >= cutoff))


# ----------------------------------------------------------------------
# Probe diagnostics + loud compile failure
# ----------------------------------------------------------------------
def test_diagnostics_reports_disabled(monkeypatch):
    monkeypatch.setenv("REPRO_NATIVE", "0")
    diag = _native.diagnostics()
    assert diag == {
        "available": False, "status": "disabled", "compiler": None, "error": None
    }
    assert not _native.available()
    assert _native.handle() is None


def test_diagnostics_reports_probe_outcome():
    diag = _native.diagnostics()
    assert set(diag) == {"available", "status", "compiler", "error"}
    # "disabled" shows up when the whole suite runs under REPRO_NATIVE=0.
    assert diag["status"] in (
        "ok", "disabled", "no-compiler", "compile-failed", "load-failed"
    )
    assert diag["available"] == (diag["status"] == "ok")


def test_compile_failure_warns_once(tmp_path):
    """A present-but-broken compiler must produce a RuntimeWarning on
    the first probe (not a silent NumPy fallback) and a 'compile-failed'
    diagnostics status.  Run in a subprocess: the probe is a one-time
    per-process latch."""
    cc = tmp_path / "broken-cc"
    cc.write_text("#!/bin/sh\necho 'synthetic compiler explosion' >&2\nexit 1\n")
    cc.chmod(cc.stat().st_mode | stat.S_IXUSR)
    script = textwrap.dedent(
        """
        import warnings
        from repro.ml import _native

        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert not _native.available()
            assert not _native.available()  # latched: no second warning
        probes = [w for w in caught if issubclass(w.category, RuntimeWarning)]
        assert len(probes) == 1, [str(w.message) for w in caught]
        assert "synthetic compiler explosion" in str(probes[0].message)
        diag = _native.diagnostics()
        assert diag["status"] == "compile-failed"
        assert "synthetic compiler explosion" in diag["error"]
        print("PROBE-OK")
        """
    )
    env = dict(os.environ, CC=str(cc))
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.join(os.getcwd(), "src"),
                    env.get("PYTHONPATH", "")) if p
    )
    env.pop("REPRO_NATIVE", None)
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=env
    )
    assert proc.returncode == 0, proc.stderr
    assert "PROBE-OK" in proc.stdout
