"""Shared experiment plumbing: problems, session builders, grid runner.

Besides the six problems of the evaluation, this module hosts
:func:`grid_map` — the one entry point every figure/table/ablation
driver uses to run its independent cells.  All grids therefore share
the same execution layer: the supervised executor (worker supervision,
retry, quarantine) and, when a journal path is given, crash-safe
journaling with skip-and-resume (see :mod:`repro.exec`).
"""

from __future__ import annotations

from typing import Callable, Sequence

from repro.errors import ExperimentError
from repro.kernels import get_kernel
from repro.machines import get_compiler, get_machine
from repro.miniapps import MiniappEvaluator, make_hpl, make_raytracer
from repro.spec import resolve_spec
from repro.transfer.session import TransferSession

__all__ = [
    "PROBLEMS",
    "build_problem",
    "build_session",
    "grid_map",
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
    resume: bool | None = None,
    task_timeout: float | str | None = "env",
    max_task_retries: int = 2,
    chaos=None,
    strict: bool = True,
) -> list:
    """Run one experiment's independent cells through the supervised
    executor, journaled and resumable when ``registry_path`` is given.

    Cells quarantined after exhausting their retries surface as an
    :class:`~repro.errors.ExperimentError` when ``strict`` (the
    default) — but only *after* every completed sibling has been
    durably journaled, so the failed invocation loses nothing and a
    re-invocation retries just the failures.  ``strict=False`` returns
    :class:`~repro.exec.CellFailure` entries in place of the missing
    results for drivers that can render holes.
    """
    from repro.exec import run_grid

    outcome = run_grid(
        experiment,
        func,
        specs,
        keys=keys,
        registry=registry_path,
        resume=resume,
        n_workers=n_workers,
        task_timeout=task_timeout,
        max_task_retries=max_task_retries,
        chaos=chaos,
    )
    if strict:
        outcome.raise_on_failure()
    return list(outcome.results)


def build_problem(name: str):
    """(problem, evaluator_factory-or-None) for a problem name."""
    key = name.strip().upper()
    if key in ("MM", "ATAX", "LU", "COR"):
        return get_kernel(key.lower()), None
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
    learner_factory: Callable | None = None,
    spec=None,
) -> TransferSession:
    """A fully configured transfer session for one experiment cell.

    ``spec`` (a :class:`repro.spec.TunerSpec`) threads tuner
    hyperparameters through to every search the session runs.
    ``pool_size``, when given, is shorthand for
    ``spec.with_value("pool.size", pool_size)`` — the one place outside
    the spec a knob may be named, kept for experiments and benchmarks
    that sweep the pool.
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
        learner_factory=learner_factory,
        spec=spec,
    )
