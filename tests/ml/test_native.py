"""Native-kernel contract tests.

Two families of guarantee:

1. **Bit-identity** — every compiled kernel replays its NumPy
   counterpart's floating-point arithmetic operation for operation, so
   results (and therefore traces) do not depend on whether the kernel
   compiled.  The C source exports exactly the kernels ``_load``
   declares.
2. **Loud degradation** — a host whose compiler exists but fails emits
   a one-time ``RuntimeWarning`` from the first probe (no silent
   fallback), and the probe outcome is exposed via the module's
   ``diagnostics()``.
3. **The compiled-object cache** — a fresh process loads the object an
   earlier one compiled, never loads a damaged or foreign one, and
   falls back to a per-process build when the cache cannot be written.
   Every cache test points ``_native.CACHE_DIR`` at a temporary
   directory in a fresh interpreter, so the real cache is never touched.
"""

import json
import os
import re
import shlex
import shutil
import stat
import subprocess
import sys
import textwrap
import time
import types

import numpy as np
import pytest

import repro
from repro.ml import _native
from repro.ml.forest import PackedTrees, RandomForestRegressor
from repro.ml.tree import DecisionTreeRegressor

NATIVE = _native.available()


# ----------------------------------------------------------------------
# The exported kernels / the forest pipeline
# ----------------------------------------------------------------------
def test_source_exports_exactly_the_declared_kernels(monkeypatch):
    """Every non-static function of the C source is a kernel ``_load``
    declares, and nothing else: a kernel with no Python binding, or a
    binding for a kernel that is gone, fails here without a compiler."""
    exported = set(re.findall(
        r"^(?!static\b)[A-Za-z_][\w \t*]*?\b(\w+)\s*\(",
        _native._SOURCE, flags=re.M,
    ))
    declared = set()

    class Recorder:
        def __init__(self, path):
            pass

        def __getattr__(self, name):
            declared.add(name)
            return types.SimpleNamespace()

    monkeypatch.setattr(_native.ctypes, "CDLL", Recorder)
    _native._load("unused.so")
    assert exported == declared == {"tree_values", "fit_node"}


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
        # Single-row queries too: NumPy reduces a contiguous axis
        # pairwise, so a (trees, 1) matrix is where a sequential
        # replay of its std would differ in the last bit.
        rows = [(model.predict(x), model.predict_std(x)) for x in Xq[:, None]]
        return (model.predict(Xq), model.predict_std(Xq),
                np.concatenate([m for m, _ in rows]),
                np.concatenate([s for _, s in rows]))

    with_default = run()
    monkeypatch.setenv("REPRO_NATIVE", "0")
    without = run()
    for a, b in zip(with_default, without):
        np.testing.assert_array_equal(a, b)


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


# ----------------------------------------------------------------------
# Probe diagnostics + loud compile failure
# ----------------------------------------------------------------------
def test_diagnostics_reports_disabled(monkeypatch):
    monkeypatch.setenv("REPRO_NATIVE", "0")
    diag = _native.diagnostics()
    assert diag == {
        "available": False, "status": "disabled", "compiler": None,
        "error": None, "cache": None, "path": None,
    }
    assert not _native.available()
    assert _native.handle() is None


def test_diagnostics_reports_probe_outcome():
    diag = _native.diagnostics()
    assert set(diag) == {
        "available", "status", "compiler", "error", "cache", "path"
    }
    # "disabled" shows up when the whole suite runs under REPRO_NATIVE=0.
    assert diag["status"] in (
        "ok", "disabled", "no-compiler", "compile-failed", "load-failed"
    )
    assert diag["available"] == (diag["status"] == "ok")
    assert diag["cache"] in (None, "hit", "miss", "rebuilt", "off")
    assert (diag["path"] is not None) == diag["available"]


def _child_env(cc=None, **extra):
    """Environment of a fresh interpreter that probes the kernels with
    ``cc`` (the default compiler search when ``None``)."""
    env = dict(os.environ, **{k: str(v) for k, v in extra.items()})
    src = os.path.dirname(os.path.dirname(repro.__file__))
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH", "")) if p
    )
    env.pop("REPRO_NATIVE", None)
    if cc is None:
        env.pop("CC", None)
    else:
        env["CC"] = str(cc)
    return env


#: Probe the kernels in a fresh interpreter with the cache directory
#: given as the first argument; prints the diagnostics as JSON.
_PROBE = textwrap.dedent(
    """
    import json, sys
    from repro.ml import _native

    _native.CACHE_DIR = sys.argv[1]
    print(json.dumps(_native.diagnostics()))
    """
)


def _probe(cache_dir, cc=None, **env) -> dict:
    proc = subprocess.run(
        [sys.executable, "-c", _PROBE, str(cache_dir)],
        capture_output=True, text=True, env=_child_env(cc, **env), timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_compile_failure_warns_once(tmp_path):
    """A present-but-broken compiler must produce a RuntimeWarning on
    the first probe (not a silent NumPy fallback) and a 'compile-failed'
    diagnostics status — even when the cache holds the real compiler's
    object, which a different compiler must never be served.  Run in a
    subprocess: the probe is a one-time per-process latch."""
    cache = tmp_path / "cache"
    warm = _probe(cache) if NATIVE else None
    cc = tmp_path / "broken-cc"
    cc.write_text("#!/bin/sh\necho 'synthetic compiler explosion' >&2\nexit 1\n")
    cc.chmod(cc.stat().st_mode | stat.S_IXUSR)
    script = textwrap.dedent(
        """
        import sys, warnings
        from repro.ml import _native

        _native.CACHE_DIR = sys.argv[1]
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
        assert diag["cache"] == "miss" and diag["path"] is None
        print("PROBE-OK")
        """
    )
    proc = subprocess.run(
        [sys.executable, "-c", script, str(cache)],
        capture_output=True, text=True, env=_child_env(cc), timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert "PROBE-OK" in proc.stdout
    if warm is not None:
        assert warm["cache"] == "miss"
        # The real compiler's object is still the only one, untouched.
        assert [p.name for p in cache.glob("*.so")] == [
            os.path.basename(warm["path"])
        ]
        assert _native._intact(warm["path"])


# ----------------------------------------------------------------------
# The compiled-object cache
# ----------------------------------------------------------------------
needs_native = pytest.mark.skipif(not NATIVE, reason="native kernels unavailable")


@pytest.fixture(scope="module")
def logging_cc(tmp_path_factory):
    """The real compiler behind a wrapper that appends one line to the
    file named by ``$CC_LOG`` for every compile (not for ``--version``)."""
    real = shutil.which(_native._compiler() or "cc")
    cc = tmp_path_factory.mktemp("cc") / "logging-cc"
    cc.write_text(
        "#!/bin/sh\n"
        '[ "$1" = --version ] || echo compile >> "$CC_LOG"\n'
        f'exec {shlex.quote(real)} "$@"\n'
    )
    cc.chmod(cc.stat().st_mode | stat.S_IXUSR)
    return cc


@pytest.fixture(scope="module")
def warm_cache(tmp_path_factory, logging_cc):
    """A cache directory holding ``logging_cc``'s object."""
    cache = tmp_path_factory.mktemp("warm") / "cache"
    log = cache.parent / "cc.log"
    assert _probe(cache, logging_cc, CC_LOG=log)["cache"] == "miss"
    return cache


def _compiles(log) -> int:
    return len(log.read_text().splitlines()) if log.exists() else 0


@needs_native
def test_second_process_hits_without_compiling(tmp_path, logging_cc):
    cache, log = tmp_path / "cache", tmp_path / "cc.log"
    first = _probe(cache, logging_cc, CC_LOG=log)
    second = _probe(cache, logging_cc, CC_LOG=log)
    assert (first["status"], first["cache"]) == ("ok", "miss")
    assert (second["status"], second["cache"]) == ("ok", "hit")
    assert second["path"] == first["path"]
    assert os.path.dirname(second["path"]) == str(cache)
    assert _compiles(log) == 1


@needs_native
@pytest.mark.parametrize("damage", ["truncate", "garbage"])
def test_damaged_cached_object_is_deleted_and_rebuilt(
    damage, tmp_path, warm_cache, logging_cc
):
    """A torn object is never handed to the loader: ``dlopen`` of a
    truncated one can kill the process with SIGBUS instead of failing."""
    cache, log = tmp_path / "cache", tmp_path / "cc.log"
    shutil.copytree(warm_cache, cache)
    (so,) = cache.glob("*.so")
    blob = so.read_bytes()
    if damage == "truncate":
        so.write_bytes(blob[: len(blob) // 2])
    else:
        so.write_bytes(b"\x7fELF" + bytes(range(256)) * 64)
    diag = _probe(cache, logging_cc, CC_LOG=log)
    assert (diag["status"], diag["cache"]) == ("ok", "rebuilt")
    assert diag["path"] == str(so)
    assert _native._intact(str(so))
    assert _compiles(log) == 1
    assert _probe(cache, logging_cc, CC_LOG=log)["cache"] == "hit"


def test_cache_key_names_every_build_input():
    base = dict(
        source=_native._SOURCE,
        flags=_native._FLAGS,
        compiler="/usr/bin/cc",
        version=b"cc (GCC) 12.2.0\n",
        machine="x86_64",
    )
    key = _native._cache_key(**base)
    assert key == _native._cache_key(**dict(base))
    changed = dict(
        source=base["source"].replace("-O3", "-O2") + "\n",
        flags=("-O2",) + base["flags"][1:],
        compiler="/usr/local/bin/cc",
        version=b"cc (GCC) 12.3.0\n",
        machine="aarch64",
    )
    for name, value in changed.items():
        assert _native._cache_key(**{**base, name: value}) != key, name


@needs_native
@pytest.mark.parametrize("blocked", ["read-only", "not-a-directory"])
def test_unwritable_cache_falls_back_to_a_temporary_build(blocked, tmp_path):
    if blocked == "read-only":
        if os.geteuid() == 0:
            pytest.skip("root writes through directory permissions")
        cache = tmp_path / "cache"
        cache.mkdir()
        cache.chmod(0o555)
    else:
        (tmp_path / "file").write_text("")
        cache = tmp_path / "file" / "cache"
    diag = _probe(cache)
    assert diag["available"]
    assert (diag["status"], diag["cache"]) == ("ok", "off")
    assert not diag["path"].startswith(str(tmp_path))
    assert not list(tmp_path.rglob("_native.*"))


@needs_native
def test_disabled_kernels_never_touch_the_cache(tmp_path, warm_cache):
    """``REPRO_NATIVE=0`` neither loads a warm cached object nor creates
    a cache directory."""
    for cache in (warm_cache, tmp_path / "cache"):
        before = sorted(os.listdir(cache)) if cache.exists() else None
        env = _child_env()
        env["REPRO_NATIVE"] = "0"
        proc = subprocess.run(
            [sys.executable, "-c", _PROBE, str(cache)],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        diag = json.loads(proc.stdout.splitlines()[-1])
        assert (diag["status"], diag["cache"], diag["path"]) == (
            "disabled", None, None
        )
        assert (sorted(os.listdir(cache)) if cache.exists() else None) == before


#: In a process that hits the cache, a forest (fit, predict,
#: predict_std: both kernels) against the NumPy path on randomized
#: inputs (seeded by the second argument).
_HIT_ORACLE = textwrap.dedent(
    """
    import os, sys
    import numpy as np
    from repro.ml import _native
    from repro.ml.forest import RandomForestRegressor

    _native.CACHE_DIR = sys.argv[1]
    assert _native.diagnostics()["cache"] == "hit"
    rng = np.random.default_rng([31, int(sys.argv[2])])
    X = rng.integers(0, 5, size=(150, 4)).astype(float)
    y = X[:, 0] - X[:, 1] ** 2 + rng.normal(size=150)
    Xq = rng.integers(-1, 6, size=(400, 4)).astype(float)

    def forest():
        model = RandomForestRegressor(n_estimators=12, min_samples_leaf=2, seed=4)
        model.fit(X, y)
        return model.predict(Xq), model.predict_std(Xq)

    native = forest()
    os.environ["REPRO_NATIVE"] = "0"
    assert not _native.available()
    for a, b in zip(native, forest()):
        np.testing.assert_array_equal(a, b)
    print("ORACLE-OK")
    """
)


@needs_native
@pytest.mark.parametrize("seed", [0, 1])
def test_kernels_from_a_cache_hit_match_numpy(seed, warm_cache, logging_cc, tmp_path):
    proc = subprocess.run(
        [sys.executable, "-c", _HIT_ORACLE, str(warm_cache), str(seed)],
        capture_output=True, text=True,
        env=_child_env(logging_cc, CC_LOG=tmp_path / "cc.log"), timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert "ORACLE-OK" in proc.stdout
    assert _compiles(tmp_path / "cc.log") == 0


#: Announce readiness, wait for the start signal, then probe.
_RACER = textwrap.dedent(
    """
    import json, os, sys, time
    from repro.ml import _native

    _native.CACHE_DIR, start = sys.argv[1], sys.argv[2]
    open(f"{start}.ready.{os.getpid()}", "w").close()
    while not os.path.exists(start):
        time.sleep(0.002)
    print(json.dumps(_native.diagnostics()))
    """
)


@needs_native
def test_concurrent_cold_builders_compile_once(tmp_path, logging_cc):
    cache, log = tmp_path / "cache", tmp_path / "cc.log"
    start = tmp_path / "start"
    env = _child_env(logging_cc, CC_LOG=log)
    procs = [
        subprocess.Popen(
            [sys.executable, "-c", _RACER, str(cache), str(start)],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=env,
        )
        for _ in range(3)
    ]
    try:
        deadline = time.monotonic() + 60.0
        while len(list(tmp_path.glob("start.ready.*"))) < len(procs):
            assert time.monotonic() < deadline, "racers never became ready"
            time.sleep(0.005)
        start.touch()
        outs = [proc.communicate(timeout=120) for proc in procs]
    finally:
        for proc in procs:
            proc.kill()
            proc.wait()
    assert all(proc.returncode == 0 for proc in procs), [err for _, err in outs]
    diags = [json.loads(out.splitlines()[-1]) for out, _ in outs]
    assert {d["status"] for d in diags} == {"ok"}
    assert sorted(d["cache"] for d in diags) == ["hit", "hit", "miss"]
    (path,) = {d["path"] for d in diags}
    assert _compiles(log) == 1
    assert _native._intact(path)
    assert sorted(p.suffix for p in cache.iterdir()) == [".lock", ".so"]
