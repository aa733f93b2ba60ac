"""The meta search space: ``TunerSpec`` knobs as a ``SearchSpace``.

Each axis is one dotted spec path (``"gate.delta_percent"``,
``"forest.n_estimators"``, ...) over a small curated choice set that
always contains the default value — so the default spec is a point of
every meta-space, the meta-search can only move away from it
deliberately, and the recommendation table can report improvement over
the status quo without a special case.

Because the result is an ordinary
:class:`repro.searchspace.space.SearchSpace`, everything built for the
object-level search works unchanged at the meta level: shared streams,
mixed-radix linearization, journaled grids, the engine itself.
"""

from __future__ import annotations

from typing import Mapping, Sequence

from repro.errors import SpecError
from repro.searchspace.parameters import EnumParameter
from repro.searchspace.space import SearchSpace
from repro.spec import TunerSpec, resolve_spec

__all__ = ["META_AXES", "DEFAULT_AXES", "meta_space", "spec_at"]

#: every knob the meta-tuner knows how to search, with its choice set.
#: Each choice set contains the spec default (asserted by the tests).
META_AXES: dict[str, tuple] = {
    "forest.n_estimators": (16, 32, 64, 128),
    "forest.min_samples_leaf": (1, 2, 4),
    "gate.delta_percent": (5.0, 10.0, 20.0, 35.0, 50.0),
    "pool.size": (1_000, 2_000, 10_000),
    "smbo.n_initial": (5, 10, 20),
    "smbo.kappa": (0.5, 1.5, 3.0),
    "smbo.acquisition": ("ei", "lcb", "mean"),
    "engine.batch_size": (16, 64, 256),
}

#: the axes a campaign searches by default: the four knobs that change
#: *results* of the paper's transfer variants (the batch size only
#: changes throughput, SMBO knobs only matter to SMBO runs).
DEFAULT_AXES: tuple[str, ...] = (
    "forest.n_estimators",
    "forest.min_samples_leaf",
    "gate.delta_percent",
    "pool.size",
)


def meta_space(
    axes: Sequence[str] | None = None, name: str = "tuner-spec"
) -> SearchSpace:
    """A :class:`SearchSpace` over the given spec knobs.

    ``axes`` defaults to :data:`DEFAULT_AXES`; every entry must be a
    key of :data:`META_AXES`.  Axis order follows the ``axes`` argument
    (it defines the mixed-radix linearization, so keep it stable when
    comparing journaled runs).
    """
    chosen = tuple(axes) if axes is not None else DEFAULT_AXES
    if not chosen:
        raise SpecError("meta_space needs at least one axis")
    unknown = sorted(set(chosen) - set(META_AXES))
    if unknown:
        raise SpecError(
            f"unknown meta axes {unknown}; known: {sorted(META_AXES)}"
        )
    if len(set(chosen)) != len(chosen):
        raise SpecError(f"duplicate meta axes in {chosen}")
    return SearchSpace(
        [EnumParameter(axis, META_AXES[axis]) for axis in chosen], name=name
    )


def spec_at(
    config: Mapping[str, object], base: TunerSpec | None = None
) -> TunerSpec:
    """The candidate :class:`TunerSpec` a meta-configuration denotes.

    ``config`` maps dotted spec paths to values — a meta-space
    :class:`~repro.searchspace.space.Configuration` works directly.
    Knobs not named keep ``base``'s values (default: the default spec),
    and every assignment re-runs the spec's range validation.
    """
    spec = resolve_spec(base)
    for path, value in config.items():
        spec = spec.with_value(path, value)
    return spec
