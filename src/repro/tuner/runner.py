"""The one technique-search entry point: a technique vs. an evaluator.

Any :class:`~repro.tuner.technique.SearchTechnique` (random search,
GA, annealing, PSO, pattern search, or the AUC bandit over several of
them — the OpenTuner-style stack of Section IV-A) runs through
:func:`warm_started_search`.  With ``seed_evaluations=0`` that is the
plain (cold) technique; with ``seed_evaluations > 0`` it is the §VII
future-work variant: the technique is *warm-started* from the
surrogate — the model's top pool picks are evaluated first and fed to
the technique as its initial population/incumbent — and then continues
the search on the target machine.  Warm and cold runs share one
accounting, so comparisons between them are exact.

Composition: a :class:`~repro.tuner.adapter.TechniqueProposer`,
ungated, under the shared :class:`~repro.search.engine.SearchEngine`
accounting: a budget wall anywhere (the seed phase included) returns
the partial trace, and failed evaluations are recorded as failed
entries while the technique is fed their
:func:`~repro.search.proposers.failure_feedback` value.
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
    checkpoint=None,
) -> SearchTrace:
    """Run a technique for ``nmax`` measurements, optionally
    warm-started from a surrogate.

    The first ``seed_evaluations`` measurements (counted against
    ``nmax``) are the surrogate's best picks from a pool of
    ``spec.pool.size`` configurations (``spec`` is a
    :class:`repro.spec.TunerSpec`, default spec when ``None``); each
    result is fed to the technique before it takes over.  Results are
    cached by configuration: re-proposals of measured configurations
    cost nothing and do not count, as in OpenTuner.

    ``checkpoint`` is an optional
    :class:`~repro.reliability.checkpoint.CheckpointManager`.  On
    resume the measured-results database and the trace are restored,
    and every past result is replayed as feedback so the technique
    regains its knowledge; no configuration is re-measured.  A
    stateful technique's internal RNG is *not* restored, so the
    continuation explores from rebuilt knowledge rather than replaying
    the interrupted run bit-for-bit.
    """
    spec = resolve_spec(spec)
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
        checkpoint=checkpoint,
        batch_size=spec.engine.batch_size,
    )
    return engine.run()
