"""The repository benchmark: transfer sessions, service jobs, checkpointed grids.

Run from the repository root::

    python3 perfbench/run.py --workload transfer_spapt --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 15 [--trace 1]

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
Readable rows go to standard error; ``--workload all`` runs every
workload in a process of its own and prints one row per metric and
workload.  ``perfbench/README.md`` says what each workload and metric is.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SCRIPT = Path(__file__).resolve()
WORKLOADS = ("transfer_spapt", "transfer_rt", "service_mix", "checkpointed_grid")

#: End-to-end metric -> (unit, better); the bounds live in BENCHMARK.json.
END_TO_END = {
    "setup_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
    "evals_per_s": ("1/s", "higher"),
    "ops_per_s": ("1/s", "higher"),
    "latency_s_p50": ("s", "lower"),
}

#: Fresh set-ups timed per run; ``setup_s`` is their median.
SETUP_SAMPLES = 5


def _import_paths() -> None:
    for path in (str(ROOT / "src"), str(ROOT)):
        if path not in sys.path:
            sys.path.insert(0, path)


def _scratch() -> Path:
    """The run's scratch directory inside the checkout; temporary files,
    the native kernel build among them, go there too."""
    scratch = ROOT / ".perfbench_run" / str(os.getpid())
    scratch.mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = str(scratch)
    tempfile.tempdir = None
    return scratch


def make_workload(name: str):
    if name in ("transfer_spapt", "transfer_rt"):
        from perfbench.transfer_sessions import TransferWorkload

        return TransferWorkload(name)
    if name == "service_mix":
        from perfbench.service_load import ServiceWorkload

        return ServiceWorkload()
    from perfbench.grid_resume import GridWorkload

    return GridWorkload()


def _native() -> dict:
    """The native-kernel probe.  A NumPy fallback is another program, so
    it stops the run instead of being measured."""
    from repro.ml import _native

    diag = _native.diagnostics()
    if not diag["available"]:
        sys.exit(f"perfbench: native kernels unavailable ({diag['status']}: "
                 f"{diag['error']}); refusing to measure the NumPy fallback")
    return diag


def _context(native: dict) -> dict:
    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "ml.native.available": native["available"],
        "ml.native.status": native["status"],
        "REPRO_NATIVE": os.environ.get("REPRO_NATIVE"),
        "REPRO_WORKERS": os.environ.get("REPRO_WORKERS"),
    }


def _setup_seconds(workload: str) -> float:
    """Median CPU time of fresh processes that only set up: interpreter
    start, imports, native compile, kernel parse, warm-up, service open.

    CPU rather than wall time, as for the other timings: the host is
    shared, and wall time also counts the time it gives to others."""
    from perfbench.common import children_cpu_seconds

    samples = []
    for _ in range(SETUP_SAMPLES):
        start = children_cpu_seconds()
        proc = subprocess.run(
            [sys.executable, str(SCRIPT), "--workload", workload, "--setup-only"],
            cwd=ROOT, capture_output=True, text=True, timeout=170,
        )
        samples.append(children_cpu_seconds() - start)
        if proc.returncode != 0:
            sys.exit(f"perfbench: set-up of {workload} failed:\n{proc.stderr}")
    return statistics.median(samples)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def end_to_end(out, setup_s: float) -> dict[str, float]:
    from perfbench.common import peak_rss_mb

    def median(values) -> float:
        values = list(values)
        return statistics.median(values) if values else 0.0

    return {
        "setup_s": setup_s,
        "peak_rss_mb": out.peak_rss_mb or peak_rss_mb(),
        "evals_per_s": median(_ratio(evals, s) for evals, _, s in out.units),
        "ops_per_s": median(_ratio(ops, s) for _, ops, s in out.units),
        "latency_s_p50": median(out.latencies),
    }


def per_layer(workload, ops, seconds: float, native: dict):
    """Half the time untraced, then the same operations again traced.

    Returns both outcomes and the per-layer values.  The tracing
    overhead is the extra CPU time of the traced replay: in the open
    loop, wall time is set by the schedule, not by the work.  Both
    windows hold the same work, the output checks included; what a
    pass needs before it starts (a fresh service) is made outside them.
    """
    from perfbench.common import cpu_seconds
    from perfbench.spans import Tracer, empty_row, layer_rows, layer_table

    cpu0 = cpu_seconds()
    base, n = workload.execute(ops, seconds / 2)
    cpu1 = cpu_seconds()
    workload.prepare()
    cpu2 = cpu_seconds()
    tracer = Tracer().install()
    try:
        traced, _ = workload.execute(ops[:n], None, tracer)
    finally:
        tracer.uninstall()
    cpu3 = cpu_seconds()
    table = layer_table(tracer.spans)

    def row(name: str) -> dict:
        return table.get(name, empty_row())

    values: dict[str, float] = {}
    for name in layer_rows():
        for field in ("calls", "busy_s", "self_s"):
            values[f"{name}.{field}"] = row(name)[field]
    metrics_for = row("kernels.metrics_for")
    untraced = cpu1 - cpu0
    overhead = (cpu3 - cpu2) - untraced
    values.update({
        "kernels.metrics_for.distinct_frac":
            _ratio(len(metrics_for["distinct"]), metrics_for["calls"]),
        "transfer.surrogate.predict_indices.rows":
            row("transfer.surrogate.predict_indices")["tag_sum"],
        "reliability.checkpoint.save.bytes_written":
            row("reliability.checkpoint.save")["tag_sum"],
        "exec.registry.append.bytes": row("exec.registry.append")["tag_sum"],
        "service.quota.admit_job.rejects": row("service.quota.admit_job")["errors"],
        "ml.native.available": int(native["available"]),
        "loadgen.lag_s_p99": traced.figures.get("lag_s_p99", 0.0),
        "trace.ops": n,
        "trace.overhead_s": overhead,
        "trace.overhead_frac": _ratio(overhead, untraced),
    })
    return base, traced, values


def _print_rows(workload: str, values: dict, spec: dict, figures: dict) -> None:
    for name, (unit, better) in spec.items():
        print(f"{workload:18} {name:48} {values[name]:>14.6g} {unit:6} {better}",
              file=sys.stderr)
    for name, value in sorted(figures.items()):
        print(f"{workload:18} {name:48} {value:>14.6g} (reported, not gated)",
              file=sys.stderr)


def _run(args, scratch: Path) -> int:
    if args.make_digests:
        from perfbench.transfer_sessions import PROBLEMS, make_digests

        if args.workload not in PROBLEMS:
            sys.exit("perfbench: --make-digests applies to the transfer workloads")
        make_digests(args.workload)
        return 0
    setup_s = None if args.setup_only else _setup_seconds(args.workload)
    native = _native()
    workload = make_workload(args.workload)
    workload.setup(scratch)
    try:
        if args.setup_only:
            return 0
        print("# context " + json.dumps(_context(native), sort_keys=True), flush=True)
        ops = workload.plan(args.seed, args.seconds)
        if args.trace:
            from perfbench.spans import per_layer_metrics

            base, out, values = per_layer(workload, ops, args.seconds, native)
            spec = per_layer_metrics()
            attempted = base.attempted + out.attempted
            failed = base.failed + out.failed
            problems = base.problems + out.problems
        else:
            out, _ = workload.execute(ops, args.seconds)
            values = end_to_end(out, setup_s)
            spec = END_TO_END
            attempted, failed, problems = out.attempted, out.failed, out.problems
    finally:
        workload.close()
    _print_rows(args.workload, values, spec, out.figures)
    for problem in problems[:20]:
        print(f"perfbench: FAILED {problem}", file=sys.stderr)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, (unit, _) in spec.items()},
    }))
    return 0


def report(args) -> int:
    """Every workload in a process of its own; one row per metric."""
    from perfbench.spans import per_layer_metrics

    spec = per_layer_metrics() if args.trace else END_TO_END
    rows, status = [], 0
    for workload in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(SCRIPT), "--workload", workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            cwd=ROOT, stdout=subprocess.PIPE, text=True,
        )
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            rows.append(f"{workload:18} FAILED (exit {proc.returncode})")
            status = 1
            continue
        result = json.loads(lines[-1])
        for name, metric in result["metrics"].items():
            rows.append(f"{workload:18} {name:48} {metric['value']:>14.6g} "
                        f"{metric['unit']:6} {spec[name][1]}")
        rows.append(f"{workload:18} {'failed / attempted':48} "
                    f"{result['failed']:>7} / {result['attempted']}")
        status |= not result["correct"]
    print(f"{'workload':18} {'metric':48} {'value':>14} {'unit':6} better")
    print("\n".join(rows))
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--make-digests", action="store_true",
                        help="store the trace digests of a transfer workload's catalog")
    args = parser.parse_args(argv)
    _import_paths()
    if args.workload == "all":
        return report(args)
    scratch = _scratch()
    try:
        return _run(args, scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            scratch.parent.rmdir()
        except OSError:
            pass  # another run still uses it


if __name__ == "__main__":
    sys.exit(main())
