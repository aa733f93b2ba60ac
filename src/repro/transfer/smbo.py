"""Sequential model-based optimization (SMBO) with optional transfer.

"Model-based search" is the last family in Section II's catalog of
deployed autotuning searches.  This implementation follows the classic
SMBO loop on the *target* machine:

1. evaluate an initial design (random, or — for transfer — the source
   surrogate's best pool picks);
2. fit a random forest on the target observations;
3. score a candidate pool with an acquisition function and evaluate the
   best candidate;
4. repeat from 2.

Acquisitions: ``"ei"`` (expected improvement under a Gaussian
approximation from the forest's ensemble spread), ``"lcb"`` (lower
confidence bound ``mu - kappa * sigma``), or ``"mean"`` (pure
exploitation).  Transfer seeding turns this into the natural marriage
of the paper's idea with model-based search: the source model buys a
good initial design, after which the target model takes over.

Composition: an :class:`~repro.search.proposers.SMBOProposer` (which
owns the design, the refits, and the acquisition scoring), ungated,
under the shared :class:`~repro.search.engine.SearchEngine` accounting:
a budget wall in setup, in a refit, or in an evaluation returns the
partial trace, and failed evaluations are recorded as failed entries
and enter the refits as their
:func:`~repro.search.proposers.failure_feedback` value.
"""

from __future__ import annotations

from typing import Sequence

from repro.errors import SearchError
from repro.search.engine import SearchEngine
from repro.search.proposers import SMBOProposer
from repro.search.protocols import SurrogateModel
from repro.search.result import SearchTrace
from repro.searchspace.space import Configuration, SearchSpace
from repro.spec import TunerSpec, resolve_spec
from repro.utils.rng import spawn_rng

__all__ = ["smbo_search"]


def smbo_search(
    evaluator,
    space: SearchSpace,
    nmax: int = 100,
    source_surrogate: SurrogateModel | None = None,
    source_data: Sequence[tuple[Configuration, float]] | None = None,
    seed: object = 0,
    name: str | None = None,
    spec: TunerSpec | None = None,
) -> SearchTrace:
    """Run SMBO on the target machine.

    With ``source_surrogate`` set, the initial design is the source
    model's best pool predictions (transfer-seeded SMBO); otherwise a
    random design.  ``source_data`` additionally blends rescaled source
    observations into every refit (full transfer).

    ``spec`` (a :class:`repro.spec.TunerSpec`, default spec when
    ``None``) sets every SMBO knob from ``spec.smbo`` — ``n_initial``,
    ``pool_size``, ``acquisition``, ``kappa``, ``refit_every`` and the
    refit forest — and the engine block size from ``spec.engine``.  The
    default spec is ``n_initial=10``, a 2k pool, EI and a 48-tree refit
    forest.
    """
    spec = resolve_spec(spec)
    smbo = spec.smbo
    if nmax < 1:
        raise SearchError(f"nmax must be >= 1, got {nmax}")
    if not 1 <= smbo.n_initial <= nmax:
        raise SearchError(f"n_initial must be in [1, nmax], got {smbo.n_initial}")

    label = name or (
        f"SMBO-{smbo.acquisition}+transfer" if source_surrogate or source_data
        else f"SMBO-{smbo.acquisition}"
    )
    engine = SearchEngine(
        evaluator,
        SMBOProposer(
            space,
            spawn_rng("smbo", space.name, label, str(seed)),
            n_initial=smbo.n_initial,
            pool_size=smbo.pool_size,
            acquisition=smbo.acquisition,
            kappa=smbo.kappa,
            source_surrogate=source_surrogate,
            source_data=source_data,
            refit_every=smbo.refit_every,
            forest=smbo.forest,
        ),
        nmax=nmax,
        name=label,
        space=space,
        batch_size=spec.engine.batch_size,
    )
    return engine.run()
