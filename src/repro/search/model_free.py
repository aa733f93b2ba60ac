"""Model-free control variants (Section IV-D).

Both are restricted to the configurations the source machine actually
evaluated (``Ta``), which is why the paper observes no *performance*
speedups from them — they cannot discover anything RS did not already
evaluate on the source:

* **RSpf** — computes the cutoff ``∆`` directly from the source
  runtimes (no model) and replays the source's evaluation order,
  skipping configurations whose *source* runtime is above the cutoff.
* **RSbf** — sorts the source configurations by source runtime and
  evaluates them in that order.

Composition: a :class:`ReplayProposer` (source order / sorted) crossed
with a :class:`ReplayThresholdGate` (RSpf) or nothing (RSbf).  Both
variants gained ``checkpoint`` resume with the engine rewrite — the
replayed position is the only proposer state, so a resumed run
continues at the exact source-trace entry it stopped at.
"""

from __future__ import annotations

from typing import Sequence

from repro.errors import SearchError
from repro.search.engine import SearchEngine
from repro.search.gates import ReplayThresholdGate
from repro.search.proposers import ReplayProposer
from repro.search.result import SearchTrace
from repro.searchspace.space import Configuration
from repro.spec import TunerSpec, resolve_spec

__all__ = ["model_free_pruned_search", "model_free_biased_search"]


def _check_training(training: Sequence[tuple[Configuration, float]]) -> None:
    if not training:
        raise SearchError("model-free variants need non-empty source data Ta")


def model_free_pruned_search(
    evaluator,
    training: Sequence[tuple[Configuration, float]],
    nmax: int = 100,
    name: str = "RSpf",
    checkpoint=None,
    spec: TunerSpec | None = None,
) -> SearchTrace:
    """RSpf: threshold replay of the source machine's evaluations.

    ``spec`` (a :class:`repro.spec.TunerSpec`, default spec when
    ``None``) sets the cutoff quantile ``δ`` (``gate.delta_percent``)
    and the engine block size (``engine.batch_size``).
    """
    _check_training(training)
    spec = resolve_spec(spec)
    engine = SearchEngine(
        evaluator,
        ReplayProposer(training),
        ReplayThresholdGate(
            [y for _, y in training], delta_percent=spec.gate.delta_percent
        ),
        nmax=nmax,
        name=name,
        space=training[0][0].space,
        checkpoint=checkpoint,
        batch_size=spec.engine.batch_size,
    )
    return engine.run()


def model_free_biased_search(
    evaluator,
    training: Sequence[tuple[Configuration, float]],
    nmax: int = 100,
    name: str = "RSbf",
    checkpoint=None,
    spec: TunerSpec | None = None,
) -> SearchTrace:
    """RSbf: sorted replay of the source machine's evaluations.

    ``spec`` sets the engine block size (``engine.batch_size``).
    """
    _check_training(training)
    engine = SearchEngine(
        evaluator,
        ReplayProposer(training, sort=True),
        nmax=nmax,
        name=name,
        space=training[0][0].space,
        checkpoint=checkpoint,
        batch_size=resolve_spec(spec).engine.batch_size,
    )
    return engine.run()
