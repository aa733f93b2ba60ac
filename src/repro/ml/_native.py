"""Optional compiled kernels for the random forest's two hot loops.

The object exports exactly two kernels, each the twin of a NumPy path
that is both its fallback and its test oracle:

* ``tree_values`` — the packed traversal.  Pure-NumPy traversal pays a
  few nanoseconds of fancy-indexing overhead per (tree, row, level)
  step — across 64 trees and a 10,000-configuration pool that is the
  dominant cost of surrogate prediction.  The traversal itself is only
  comparisons and pointer chasing, so the kernel performs the exact
  same ``x[feature] <= threshold`` double comparisons and copies the
  same leaf values — results are bit-identical to the NumPy path;
* ``fit_node`` — one tree-fit split per call, behind a two-pointer
  param-block calling convention (ctypes argument conversion at 13-16
  arguments costs more than the kernels themselves).  It runs two
  helpers internal to the C source: ``split_scan``, the prefix-sum
  split scan over a node's presorted candidate rows, replaying the
  NumPy growth path's sequential cumulative sums, SSE arithmetic,
  first-argmin and tie-break operation for operation; then
  ``partition_node``, the stable node partition that routes the node's
  rows (``x[f] <= thr``), splits every presorted feature row, and
  computes both children's mean and purity in the NumPy path's exact
  arithmetic order.

Reductions over the per-tree values (the forest's mean and std) and
the pool ranking stay in NumPy: they are not where the time goes, and
a C replay of a NumPy reduction must also replay its summation order
(pairwise along a contiguous axis), which is easy to get wrong.

Floating-point contraction is disabled at compile time
(``-ffp-contract=off``): a fused multiply-add would round differently
from NumPy's separate multiply and add, breaking bit-identity on FMA
hardware.

The kernels are entirely optional: if no C compiler is present, the
compile fails, or ``REPRO_NATIVE=0`` is set, callers fall back to the
NumPy paths.  A failed compile is *not* silent: the first
:func:`available` probe emits a one-time ``RuntimeWarning`` with the
compiler error, and :func:`diagnostics` exposes the probe outcome (the
repository benchmark records it with every run).

The shared object is compiled once per checkout, not once per process.
It is cached beside this module's bytecode (:data:`CACHE_DIR`, the
``__pycache__`` directory that ``make clean`` removes) as
``_native.<key>.so``, where the key is the SHA-256 of the C source, the
compile flags, the resolved compiler path, that compiler's
``--version`` output and the machine type, so a different compiler or
an edited kernel never loads a stale object.  A miss compiles into a
per-process temporary directory and publishes the bytes with
:func:`repro.exec.journal.atomic_write`; concurrent cold builders
serialise on an exclusive ``flock`` of ``_native.<key>.lock`` and look
again before compiling.  Each published object ends with the SHA-256 of
its own bytes, checked before it is loaded: ``dlopen`` of a truncated
object can kill the process with ``SIGBUS`` instead of failing, so a
damaged object is deleted and rebuilt without ever being loaded.  When
the cache directory cannot be written, the object is built and loaded
from the temporary directory alone.
"""

from __future__ import annotations

import contextlib
import ctypes
import fcntl
import hashlib
import importlib.util
import os
import platform
import shutil
import subprocess
import tempfile
import warnings

import numpy as np

__all__ = [
    "available",
    "diagnostics",
    "handle",
    "tree_values",
]

#: ``fit_node`` param-block slot indices — must match the FN_* / FD_*
#: enums in the C source below.  The int64 block carries pointers and
#: integer parameters; the double block carries the NumPy-computed
#: sums, the tie-break tolerance, the threshold and the child stats
#: (three slots per child: mean, pure, small).
(FN_X, FN_P, FN_Y, FN_T, FN_IDX, FN_YS, FN_M, FN_CAND, FN_K,
 FN_MSL, FN_MSS, FN_DEPTH_OK, FN_OUT_IDX, FN_OUT_YS, FN_OUT_T,
 FN_MEMBER, FN_SCALAR_MAX, FN_OUT_F, FN_SLOTS) = range(19)
(FD_Y_SUM, FD_Y_SQ_SUM, FD_TOL, FD_THR, FD_STATS) = range(5)
FD_SLOTS = FD_STATS + 6

_SOURCE = r"""
#include <stdint.h>
#include <math.h>

void tree_values(
    const int64_t *feature, const double *threshold,
    const int64_t *left, const int64_t *right, const double *value,
    const int64_t *roots, int64_t n_trees,
    const double *X, int64_t n, int64_t p,
    double *out)
{
    for (int64_t t = 0; t < n_trees; ++t) {
        int64_t root = roots[t];
        double *row_out = out + t * n;
        for (int64_t i = 0; i < n; ++i) {
            const double *x = X + i * p;
            int64_t cur = root;
            int64_t f = feature[cur];
            while (f >= 0) {
                cur = (x[f] <= threshold[cur]) ? left[cur] : right[cur];
                f = feature[cur];
            }
            row_out[i] = value[cur];
        }
    }
}

/* Fused best-split scan over a node's presorted candidate rows.
 *
 * Replays the NumPy growth path exactly: per candidate feature a
 * sequential prefix sum of y and y*y in sorted order, the same SSE
 * expression with the same operation order and grouping, validity =
 * value-change and min_samples_leaf, first-min per column (NaN wins
 * like np.argmin), then the cross-candidate tie-break (first
 * candidate better than best - tol wins) with the midpoint-threshold
 * guard.  y_sum / y_sq_sum are computed by the caller with NumPy
 * (pairwise reduce / BLAS dot are not replicable here) and passed in.
 *
 * Returns the winning candidate slot j (feature cand[j]) or -1. */
static int64_t split_scan(
    const double *X, int64_t p, const double *y,
    const int64_t *sorted_T, int64_t m,
    const int64_t *cand, int64_t k,
    double y_sum, double y_sq_sum,
    int64_t msl, double tol,
    double *out_thr)
{
    double best_sse = INFINITY;
    int64_t best_j = -1;
    for (int64_t j = 0; j < k; ++j) {
        int64_t f = cand[j];
        const int64_t *rows = sorted_T + f * m;
        double csum = 0.0, csq = 0.0;
        double prev_x = X[rows[0] * p + f];
        double col_best = INFINITY;
        int64_t col_pos = -1;
        for (int64_t i = 0; i + 1 < m; ++i) {
            double yv = y[rows[i]];
            csum += yv;
            csq += yv * yv;
            double next_x = X[rows[i + 1] * p + f];
            int64_t sl = i + 1, sr = m - i - 1;
            if (next_x > prev_x && (msl <= 1 || (sl >= msl && sr >= msl))) {
                double sright = y_sum - csum;
                double sse = (csq - (csum * csum) / (double) sl)
                           + ((y_sq_sum - csq) - (sright * sright) / (double) sr);
                if (sse < col_best || (isnan(sse) && !isnan(col_best))) {
                    col_best = sse;
                    col_pos = i;
                }
            }
            prev_x = next_x;
        }
        if (col_pos >= 0 && col_best < best_sse - tol) {
            best_sse = col_best;
            double xlo = X[rows[col_pos] * p + f];
            double xhi = X[rows[col_pos + 1] * p + f];
            double thr = 0.5 * (xlo + xhi);
            if (thr <= xlo) thr = xhi;
            *out_thr = thr;
            best_j = j;
        }
    }
    return best_j;
}

/* Per-child node statistics in the Python engine's exact order.
 * st = [mean, pure, small].  Purity (an all-equal scan, order
 * independent) is computed for every size; the mean only below
 * scalar_max, where NumPy's pairwise summation degenerates to the same
 * plain left-to-right loop — larger children are flagged small=0 and
 * the caller computes their mean with NumPy's pairwise reduce. */
static void child_stats(const double *ys, int64_t m, int64_t scalar_max,
                        double *st)
{
    double first = ys[0];
    int pure = 1;
    for (int64_t i = 0; i < m; ++i)
        if (ys[i] != first) { pure = 0; break; }
    st[1] = (double) pure;
    if (m < scalar_max) {
        double s = 0.0;
        for (int64_t i = 0; i < m; ++i) s += ys[i];
        st[0] = s / (double) m;
        st[2] = 1.0;
    } else {
        st[0] = 0.0;
        st[2] = 0.0;
    }
}

/* Fused node partition: one call per split replaces the historical
 * partition_rows + partition_sorted pair and both children's stats.
 *
 * Routes the node's rows left/right of (f, thr) stably into
 * idx_out/ys_out, fills stats[0:3]/stats[3:6] with each child's
 * [mean, pure, small] (see child_stats), and — when either child
 * is still splittable (depth_ok, >= mss rows, impure) — splits every
 * presorted feature row by membership into out_T: the left child's
 * (p, n_left) block first, the right child's (p, n_right) block after
 * it, both row-major.  The membership scratch is clean on return.
 * Degenerate partitions (n_left of 0 or m) return immediately with no
 * writes.  Returns the left count. */
static int64_t partition_node(
    const double *X, int64_t p,
    const int64_t *idx, const double *ys, int64_t m,
    int64_t f, double thr,
    int64_t *idx_out, double *ys_out, unsigned char *member,
    const int64_t *sorted_T, int64_t depth_ok, int64_t mss,
    int64_t *out_T, int64_t scalar_max, double *stats)
{
    int64_t n_left = 0;
    for (int64_t i = 0; i < m; ++i)
        if (X[idx[i] * p + f] <= thr) ++n_left;
    if (n_left == 0 || n_left == m) return n_left;
    int64_t li = 0, ri = n_left;
    for (int64_t i = 0; i < m; ++i) {
        int64_t g = idx[i];
        if (X[g * p + f] <= thr) {
            member[g] = 1;
            idx_out[li] = g;
            ys_out[li] = ys[i];
            ++li;
        } else {
            idx_out[ri] = g;
            ys_out[ri] = ys[i];
            ++ri;
        }
    }
    int64_t n_right = m - n_left;
    child_stats(ys_out, n_left, scalar_max, stats);
    child_stats(ys_out + n_left, n_right, scalar_max, stats + 3);
    int l_ok = depth_ok && n_left >= mss && stats[1] == 0.0;
    int r_ok = depth_ok && n_right >= mss && stats[4] == 0.0;
    if (l_ok || r_ok) {
        int64_t *ro_base = out_T + p * n_left;
        for (int64_t r = 0; r < p; ++r) {
            const int64_t *row = sorted_T + r * m;
            int64_t *lo = out_T + r * n_left;
            int64_t *ro = ro_base + r * n_right;
            int64_t a = 0, b = 0;
            for (int64_t i = 0; i < m; ++i) {
                int64_t g = row[i];
                if (member[g]) lo[a++] = g;
                else ro[b++] = g;
            }
        }
    }
    for (int64_t i = 0; i < n_left; ++i) member[idx_out[i]] = 0;
    return n_left;
}

/* fit_node param-block slot layout.  ctypes converts every argument
 * of every call, and at 13-16 arguments a split costs more in
 * conversion than in kernel work — so the per-node driver takes just
 * two preconstructed pointers: an int64 block (pointers and integer
 * parameters) and a double block (sums, tolerance, and outputs).
 * Must stay in sync with the FN_* / FD_* constants in this module's
 * Python half. */
enum {
    FN_X = 0, FN_P, FN_Y, FN_T, FN_IDX, FN_YS, FN_M, FN_CAND, FN_K,
    FN_MSL, FN_MSS, FN_DEPTH_OK, FN_OUT_IDX, FN_OUT_YS, FN_OUT_T,
    FN_MEMBER, FN_SCALAR_MAX, FN_OUT_F, FN_SLOTS
};
enum { FD_Y_SUM = 0, FD_Y_SQ_SUM, FD_TOL, FD_THR, FD_STATS,
       FD_SLOTS = FD_STATS + 6 };

/* One fused call per split: split_scan then partition_node, reading
 * every argument from the two param blocks.  Returns -1 when no valid
 * split exists, else partition_node's left count; the chosen global
 * feature lands in ip[FN_OUT_F], threshold and child stats in dp. */
int64_t fit_node(int64_t *ip, double *dp)
{
    int64_t m = ip[FN_M];
    const int64_t *cand = (const int64_t *) ip[FN_CAND];
    double thr;
    int64_t j = split_scan(
        (const double *) ip[FN_X], ip[FN_P], (const double *) ip[FN_Y],
        (const int64_t *) ip[FN_T], m, cand, ip[FN_K],
        dp[FD_Y_SUM], dp[FD_Y_SQ_SUM], ip[FN_MSL], dp[FD_TOL], &thr);
    if (j < 0) return -1;
    int64_t f = cand[j];
    ip[FN_OUT_F] = f;
    dp[FD_THR] = thr;
    return partition_node(
        (const double *) ip[FN_X], ip[FN_P],
        (const int64_t *) ip[FN_IDX], (const double *) ip[FN_YS], m,
        f, thr,
        (int64_t *) ip[FN_OUT_IDX], (double *) ip[FN_OUT_YS],
        (unsigned char *) ip[FN_MEMBER],
        (const int64_t *) ip[FN_T], ip[FN_DEPTH_OK], ip[FN_MSS],
        (int64_t *) ip[FN_OUT_T], ip[FN_SCALAR_MAX], dp + FD_STATS);
}
"""

#: Compile flags of the kernel object, part of its cache key.  No
#: library is linked: ``isnan`` and ``INFINITY`` are macros.
_FLAGS = ("-O3", "-ffp-contract=off", "-shared", "-fPIC")

#: Where compiled objects are cached: this module's ``__pycache__``,
#: which has the same trust as the ``.py`` beside it.
CACHE_DIR = os.path.dirname(importlib.util.cache_from_source(__file__))
_DIGEST = hashlib.sha256().digest_size

_lib: ctypes.CDLL | None = None
_tried = False
_workdir: tempfile.TemporaryDirectory | None = None  # keeps the .so alive
_diag: dict = {
    "status": "untried", "compiler": None, "error": None,
    "cache": None, "path": None,
}


def _compiler() -> str | None:
    for name in (os.environ.get("CC"), "cc", "gcc", "clang"):
        if name and shutil.which(name):
            return name
    return None


def _cache_key(source: str, flags, compiler: str, version: bytes,
               machine: str) -> str:
    """SHA-256 naming the object ``compiler`` builds from ``source``."""
    parts = (source, tuple(flags), compiler, version, machine)
    return hashlib.sha256(repr(parts).encode()).hexdigest()


def _sealed(data: bytes) -> bytes:
    """An object as published: its bytes, then their SHA-256."""
    return data + hashlib.sha256(data).digest()


def _intact(path: str) -> bool:
    """Whether ``path`` holds a whole published object (see :func:`_sealed`)."""
    try:
        with open(path, "rb") as fh:
            blob = fh.read()
    except OSError:
        return False
    return len(blob) > _DIGEST and _sealed(blob[:-_DIGEST]) == blob


@contextlib.contextmanager
def _build_lock(key: str):
    """Hold the exclusive build lock of one cache entry; yields whether
    the cache directory can be written (no lock is taken when not)."""
    try:
        os.makedirs(CACHE_DIR, exist_ok=True)
        fh = open(os.path.join(CACHE_DIR, f"_native.{key}.lock"), "ab")
    except OSError:
        fh = None
    if fh is None:
        yield False
        return
    with fh:  # closing the file releases the lock
        fcntl.flock(fh, fcntl.LOCK_EX)
        yield True


def _compile(cc: str) -> str | None:
    """Compile the kernels into this process's temporary directory: the
    object's path, or ``None`` with the compiler error recorded."""
    global _workdir
    _workdir = tempfile.TemporaryDirectory(prefix="repro-native-")
    src = os.path.join(_workdir.name, "kernel.c")
    so = os.path.join(_workdir.name, "kernel.so")
    with open(src, "w") as fh:
        fh.write(_SOURCE)
    proc = subprocess.run(
        [cc, *_FLAGS, "-o", so, src],
        capture_output=True,
        timeout=120,
    )
    if proc.returncode != 0:
        stderr = proc.stderr.decode(errors="replace").strip()
        _diag.update(
            status="compile-failed",
            error=stderr[-500:] if stderr else f"{cc} exited with {proc.returncode}",
        )
        return None
    return so


def _load(path: str) -> ctypes.CDLL:
    """Load the object at ``path`` and declare its kernels' signatures;
    raises :class:`OSError` when it cannot be loaded."""
    lib = ctypes.CDLL(path)
    i64 = np.ctypeslib.ndpointer(np.int64, flags="C_CONTIGUOUS")
    f64 = np.ctypeslib.ndpointer(np.float64, flags="C_CONTIGUOUS")
    c_i64 = ctypes.c_int64
    lib.tree_values.argtypes = [
        i64, f64, i64, i64, f64, i64, c_i64, f64, c_i64, c_i64, f64,
    ]
    lib.tree_values.restype = None
    # The per-node tree-fit kernel is called thousands of times per
    # forest; raw pointers skip ndpointer's per-call flag validation
    # (callers construct the param blocks, so dtype/contiguity hold by
    # construction).
    ptr = ctypes.c_void_p
    lib.fit_node.argtypes = [ptr, ptr]
    lib.fit_node.restype = c_i64
    return lib


def _load_cached(path: str) -> ctypes.CDLL | None:
    """The cached object at ``path`` if it is whole and loads, else ``None``."""
    if not _intact(path):
        return None
    try:
        return _load(path)
    except OSError:
        return None


def _build() -> ctypes.CDLL | None:
    cc = _compiler()
    if cc is None:
        _diag.update(
            status="no-compiler",
            error="no C compiler on PATH (tried $CC, cc, gcc, clang)",
        )
        return None
    _diag["compiler"] = cc
    cc = shutil.which(cc)
    version = subprocess.run(
        [cc, "--version"], capture_output=True, timeout=120
    ).stdout
    key = _cache_key(_SOURCE, _FLAGS, cc, version, platform.machine())
    path = os.path.join(CACHE_DIR, f"_native.{key}.so")
    lib = _load_cached(path)
    if lib is not None:
        return _loaded(lib, path, "hit")
    with _build_lock(key) as writable:
        if not writable:
            return _compile_and_load(cc, None, "off")
        # Another builder may have published while this one waited.
        lib = _load_cached(path)
        if lib is not None:
            return _loaded(lib, path, "hit")
        cache = "miss"
        if os.path.exists(path):
            cache = "rebuilt"
            with contextlib.suppress(OSError):
                os.remove(path)
        return _compile_and_load(cc, path, cache)


def _compile_and_load(cc: str, path: str | None, cache: str) -> ctypes.CDLL | None:
    """Compile, publish the object at ``path`` (``None``: do not cache)
    and load it; an object that cannot be published is loaded from the
    temporary directory it was compiled in."""
    _diag["cache"] = cache
    so = _compile(cc)
    if so is None:
        return None
    if path is not None:
        from repro.exec.journal import atomic_write

        with open(so, "rb") as fh:
            data = fh.read()
        try:
            atomic_write(path, _sealed(data))
        except OSError:
            path, cache = None, "off"
    path = path or so
    try:
        lib = _load(path)
    except OSError as exc:
        _diag.update(status="load-failed", error=str(exc), cache=cache)
        return None
    return _loaded(lib, path, cache)


def _loaded(lib: ctypes.CDLL, path: str, cache: str) -> ctypes.CDLL:
    _diag.update(status="ok", error=None, cache=cache, path=path)
    return lib


def available() -> bool:
    """Whether the compiled kernels can be used in this process."""
    global _lib, _tried
    if os.environ.get("REPRO_NATIVE", "1") == "0":
        return False
    if not _tried:
        _tried = True
        try:
            _lib = _build()
        except (OSError, subprocess.SubprocessError) as exc:
            _diag.update(status="compile-failed", error=str(exc))
            _lib = None
        if _lib is None and _diag["status"] in ("compile-failed", "load-failed"):
            # One-time probe warning: a host that *has* a compiler but
            # cannot build the kernel should not degrade silently.
            warnings.warn(
                "repro native kernel build failed "
                f"({_diag['status']}: {_diag['error']}); "
                "falling back to the NumPy paths. Set REPRO_NATIVE=0 to "
                "silence this probe.",
                RuntimeWarning,
                stacklevel=2,
            )
    return _lib is not None


def diagnostics() -> dict:
    """Outcome of the one-time compile probe, for diagnostics surfaces.

    Keys: ``available`` (bool), ``status`` (``"ok"``, ``"disabled"``,
    ``"no-compiler"``, ``"compile-failed"``, or ``"load-failed"``),
    ``compiler`` (the compiler probed, or ``None``), ``error`` (the
    failure detail, or ``None``), ``cache`` (``"hit"``, ``"miss"``,
    ``"rebuilt"`` after a damaged cached object, ``"off"`` when the
    cache directory cannot be written, or ``None`` when no compiler was
    probed) and ``path`` (the loaded object, or ``None``).
    """
    if os.environ.get("REPRO_NATIVE", "1") == "0":
        return {
            "available": False,
            "status": "disabled",
            "compiler": None,
            "error": None,
            "cache": None,
            "path": None,
        }
    available()
    return {"available": _lib is not None, **_diag}


def handle() -> ctypes.CDLL | None:
    """The loaded library, or ``None`` — for hot loops that amortize the
    :func:`available` check over many raw-pointer kernel calls."""
    return _lib if available() else None


def tree_values(
    feature: np.ndarray,
    threshold: np.ndarray,
    left: np.ndarray,
    right: np.ndarray,
    value: np.ndarray,
    roots: np.ndarray,
    X: np.ndarray,
) -> np.ndarray | None:
    """Packed traversal via the compiled kernel, a fresh C-order
    ``(n_trees, n)`` array; ``None`` if unavailable."""
    if not available():
        return None
    assert _lib is not None
    n, p = X.shape
    n_trees = len(roots)
    out = np.empty((n_trees, n))
    _lib.tree_values(
        np.ascontiguousarray(feature, dtype=np.int64),
        np.ascontiguousarray(threshold, dtype=np.float64),
        np.ascontiguousarray(left, dtype=np.int64),
        np.ascontiguousarray(right, dtype=np.int64),
        np.ascontiguousarray(value, dtype=np.float64),
        np.ascontiguousarray(roots, dtype=np.int64),
        n_trees,
        np.ascontiguousarray(X, dtype=np.float64),
        n,
        p,
        out,
    )
    return out
