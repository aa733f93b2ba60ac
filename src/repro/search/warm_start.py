"""Warm-started heuristic search — §VII future work.

The paper notes its performance speedups are limited *because* the
underlying search is random, and proposes testing "other sophisticated
search algorithms".  This module supplies that: any
:class:`~repro.tuner.technique.SearchTechnique` (GA, annealing, PSO,
pattern search, or the AUC bandit over all of them) is *warm-started*
from the surrogate — the model's top pool picks are evaluated first and
fed to the technique as its initial population/incumbent — and then the
technique continues the search on the target machine.

With ``seed_evaluations=0`` the function runs the plain (cold) technique
under the same accounting, so warm/cold comparisons are exact.

Composition: a :class:`~repro.tuner.adapter.TechniqueProposer` with a
seed phase, ungated, under the shared engine accounting: a budget wall
anywhere (the seed phase included) returns the partial trace, and
failed evaluations are recorded as failed entries while the technique
is fed their :func:`~repro.search.proposers.failure_feedback` value.
"""

from __future__ import annotations

from repro.errors import SearchError
from repro.search.engine import SearchEngine
from repro.search.protocols import SurrogateModel
from repro.search.result import SearchTrace
from repro.searchspace.space import SearchSpace
from repro.spec import TunerSpec, resolve_spec
from repro.tuner.adapter import TechniqueProposer
from repro.tuner.database import ResultsDatabase
from repro.tuner.manipulator import ConfigurationManipulator
from repro.tuner.technique import SearchTechnique

__all__ = ["warm_started_search"]


def warm_started_search(
    evaluator,
    space: SearchSpace,
    technique: SearchTechnique,
    surrogate: SurrogateModel | None = None,
    nmax: int = 100,
    seed_evaluations: int = 10,
    name: str | None = None,
    spec: TunerSpec | None = None,
) -> SearchTrace:
    """Run a technique, optionally warm-started from a surrogate.

    The first ``seed_evaluations`` measurements (counted against
    ``nmax``) are the surrogate's best picks from a pool of
    ``spec.pool.size`` configurations (``spec`` is a
    :class:`repro.spec.TunerSpec`, default spec when ``None``); each
    result is fed to the technique before it takes over.
    """
    spec = resolve_spec(spec)
    if nmax < 1:
        raise SearchError(f"nmax must be >= 1, got {nmax}")
    if seed_evaluations < 0:
        raise SearchError(f"seed_evaluations must be >= 0, got {seed_evaluations}")
    if seed_evaluations > 0 and surrogate is None:
        raise SearchError("warm start requires a fitted surrogate")

    label = name or (
        f"{technique.name}+warm" if seed_evaluations else technique.name
    )
    database = ResultsDatabase()
    technique.bind(ConfigurationManipulator(space), database)
    engine = SearchEngine(
        evaluator,
        TechniqueProposer(
            technique,
            database,
            space,
            result_label=label,
            surrogate=surrogate,
            pool_size=spec.pool.size,
            seed_evaluations=seed_evaluations,
        ),
        nmax=nmax,
        name=label,
        space=space,
        batch_size=spec.engine.batch_size,
    )
    return engine.run()
