"""Shared experiment plumbing: problems, session builders, grid runner.

Besides the six problems of the evaluation, this module hosts
:func:`grid_map` — the one entry point every figure/table/ablation
driver uses to run its independent cells.  All grids therefore share
the same execution layer: the supervised executor (worker supervision,
retry, quarantine) and, when a journal path is given, crash-safe
journaling with skip-and-resume (see :mod:`repro.exec`).

On top of it sits the one sweep driver, :func:`score_specs`: every
experiment that varies tuner hyperparameters (the δ and pool sweeps,
the hybrid ablation, the variance study, the meta campaign) scores
(spec × problem × pair × seed) cells through :func:`evaluate_spec`.
"""

from __future__ import annotations

from functools import cache
from itertools import product
from typing import Callable, Sequence

from repro.errors import ExperimentError
from repro.kernels import SpaptKernel, get_kernel
from repro.machines import get_compiler, get_machine
from repro.miniapps import MiniappEvaluator, make_hpl, make_raytracer
from repro.spec import TunerSpec, resolve_spec
from repro.transfer.session import TransferSession

__all__ = [
    "PROBLEMS",
    "build_problem",
    "build_session",
    "grid_map",
    "evaluate_spec",
    "score_specs",
    "SWEEP_VARIANTS",
    "XEON_PHI_THREADS",
]

# The six problems of the evaluation: four SPAPT kernels driven through
# the mini-Orio, two mini-applications driven through the OpenTuner-
# style evaluator (Section IV-C).
PROBLEMS: tuple[str, ...] = ("MM", "ATAX", "LU", "COR", "HPL", "RT")

# Thread counts of the Xeon Phi experiments (Section V): "We set 8
# threads for Sandybridge and Westmere ... and 60 threads for the Phi."
XEON_PHI_THREADS = {"westmere": 8, "sandybridge": 8, "xeonphi": 60}


def grid_map(
    experiment: str,
    func: Callable,
    specs: Sequence,
    *,
    keys: Sequence | None = None,
    n_workers: int | None = 1,
    registry_path=None,
) -> list:
    """Run one experiment's independent cells through the supervised
    executor, journaled and resumable when ``registry_path`` is given.

    Cells quarantined after exhausting their retries surface as an
    :class:`~repro.errors.ExperimentError` — but only *after* every
    completed sibling has been durably journaled, so the failed
    invocation loses nothing and a re-invocation retries just the
    failures.  ``REPRO_RESUME`` applies (see :func:`repro.exec.run_grid`).
    """
    from repro.exec import run_grid

    outcome = run_grid(
        experiment,
        func,
        specs,
        keys=keys,
        registry=registry_path,
        n_workers=n_workers,
    )
    outcome.raise_on_failure()
    return list(outcome.results)


@cache
def _spapt_kernel(name: str) -> SpaptKernel:
    """The one kernel of a SPAPT problem in this process."""
    return get_kernel(name)


def build_problem(name: str):
    """(problem, evaluator_factory-or-None) for a problem name.

    Every session of a SPAPT problem (MM, ATAX, LU, COR) gets the same
    kernel for the life of the process, so each configuration is
    analysed once, not once per machine pair, seed, spec and variant:
    a kernel's metrics are machine-independent, and the sessions of
    one seed draw the same configurations on every pair.  Forked grid
    workers inherit the kernels built so far.  HPL and RT get a fresh
    model each call; :func:`repro.kernels.get_kernel` still builds a
    fresh kernel for callers that want one of their own.
    """
    key = name.strip().upper()
    if key in ("MM", "ATAX", "LU", "COR"):
        return _spapt_kernel(key.lower()), None
    if key == "HPL":
        model = make_hpl()
    elif key == "RT":
        model = make_raytracer()
    else:
        raise ExperimentError(f"unknown problem {name!r}; known: {PROBLEMS}")

    def factory(machine, clock, _model=model):
        return MiniappEvaluator(_model, machine, clock=clock)

    return model, factory


def build_session(
    problem: str,
    source: str,
    target: str,
    compiler: str = "gcc",
    seed: object = 0,
    nmax: int = 100,
    pool_size: int | None = None,
    openmp: bool = False,
    threads: int | dict = 1,
    budget_seconds: float | None = None,
    variants: tuple[str, ...] = ("RSp", "RSb", "RSpf", "RSbf"),
    spec=None,
) -> TransferSession:
    """A fully configured transfer session for one experiment cell.

    ``spec`` (a :class:`repro.spec.TunerSpec`) threads tuner
    hyperparameters through to every search the session runs.
    ``pool_size``, when given, is shorthand for
    ``spec.with_value("pool.size", pool_size)`` — the one place outside
    the spec a knob may be named, kept for the benchmarks that size
    the pool.
    """
    kernel, factory = build_problem(problem)
    if pool_size is not None:
        spec = resolve_spec(spec).with_value("pool.size", pool_size)
    return TransferSession(
        kernel=kernel,
        source=get_machine(source),
        target=get_machine(target),
        compiler=get_compiler(compiler),
        nmax=nmax,
        openmp=openmp,
        threads=threads,
        seed=(problem, str(seed)),
        budget_seconds=budget_seconds,
        variants=variants,
        evaluator_factory=factory,
        spec=spec,
    )


#: variants a sweep scores by default: the two model-guided searches
#: whose outcomes the spec's knobs actually move.
SWEEP_VARIANTS: tuple[str, ...] = ("RSp", "RSb")


def evaluate_spec(
    spec: TunerSpec,
    problem: str = "MM",
    source: str = "westmere",
    target: str = "sandybridge",
    nmax: int = 30,
    seed: object = 0,
    variants: tuple[str, ...] = SWEEP_VARIANTS,
) -> dict:
    """Run one full transfer session under ``spec``; score it.

    Returns a JSON-safe dict: the spec wire payload, per-variant
    performance (``prf``) and search-time (``srh``) speedups over plain
    RS (the session runs them under common random numbers, so the
    ratios isolate what the spec changed), the scalar ``objective``
    (mean Prf across variants, higher is better), its reciprocal
    ``cost``, and the inner-budget accounting (``inner_evaluations``,
    ``inner_elapsed``).
    """
    outcome = build_session(
        problem=problem,
        source=source,
        target=target,
        seed=seed,
        nmax=nmax,
        variants=tuple(variants),
        spec=spec,
    ).run()
    prf = {name: rep.performance for name, rep in outcome.reports.items()}
    srh = {name: rep.search_time for name, rep in outcome.reports.items()}
    scored = [v for v in prf.values() if v == v]  # drop NaN
    objective = sum(scored) / len(scored) if scored else float("nan")
    traces = [outcome.source_trace, *outcome.traces.values()]
    return {
        "spec": spec.to_dict(),
        "fingerprint": spec.fingerprint(),
        "problem": problem,
        "source": source,
        "target": target,
        "seed": str(seed),
        "nmax": nmax,
        "variants": list(variants),
        "prf": prf,
        "srh": srh,
        "objective": objective,
        "cost": (1.0 / objective) if objective and objective > 0 else float("inf"),
        "inner_evaluations": sum(t.n_evaluations for t in traces),
        "inner_elapsed": sum(t.total_elapsed for t in traces),
    }


def _score_cell(cell: tuple) -> dict:
    """One sweep cell — module level so it can run in a worker."""
    label, spec, session = cell
    return {**evaluate_spec(spec, **session), "candidate": label}


def score_specs(
    experiment: str,
    labelled_specs: Sequence[tuple[str, TunerSpec]],
    problems: Sequence[str],
    pairs: Sequence[tuple[str, str]],
    seeds: Sequence,
    nmax: int,
    variants: tuple[str, ...] = SWEEP_VARIANTS,
    registry_path=None,
    n_workers: int | None = 1,
) -> list[dict]:
    """Score every ``(label, spec)`` on every (problem, pair, seed).

    Returns one :func:`evaluate_spec` payload per cell, plus the cell's
    ``"candidate"`` label, in (problem, pair, seed, spec) order.  Each
    cell is one :func:`grid_map` cell keyed
    ``"<problem>:<source>-><target>:s<seed>:n<nmax>:<variants>:<label>"``
    (the variants joined by ``+``), so with ``registry_path`` a killed
    sweep resumes without re-running a journaled cell, and a sweep with
    another budget or variant set never reuses one.  Seeds reach
    :func:`build_session` as given (a tuple seed stays a tuple: the
    session stream is seeded from ``str(seed)``).
    """
    grid = list(product(problems, pairs, seeds, labelled_specs))
    cells = [
        (label, spec, dict(problem=problem, source=source, target=target,
                           seed=seed, nmax=nmax, variants=tuple(variants)))
        for problem, (source, target), seed, (label, spec) in grid
    ]
    budget = f"n{nmax}:{'+'.join(variants)}"
    keys = [
        f"{problem}:{source}->{target}:s{seed}:{budget}:{label}"
        for problem, (source, target), seed, (label, _spec) in grid
    ]
    return grid_map(
        experiment, _score_cell, cells,
        keys=keys, n_workers=n_workers, registry_path=registry_path,
    )
