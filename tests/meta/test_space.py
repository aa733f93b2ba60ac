"""The meta-space: TunerSpec knobs as an ordinary SearchSpace."""

import json
import math

import pytest

from repro.errors import SpecError
from repro.meta.space import DEFAULT_AXES, META_AXES, meta_space, spec_at
from repro.spec import DEFAULT_SPEC, TunerSpec
from repro.utils.rng import spawn_rng


def _default_at(path):
    head, *rest = path.split(".")
    value = getattr(DEFAULT_SPEC, head)
    for part in rest:
        value = getattr(value, part)
    return value


class TestAxes:
    @pytest.mark.parametrize("path", sorted(META_AXES))
    def test_every_choice_set_contains_the_default(self, path):
        # The default spec must be a point of every meta-space, so the
        # recommendation table always has a status-quo baseline.
        assert _default_at(path) in META_AXES[path]

    @pytest.mark.parametrize("path", sorted(META_AXES))
    def test_every_choice_is_a_valid_spec(self, path):
        for value in META_AXES[path]:
            DEFAULT_SPEC.with_value(path, value)  # must not raise

    def test_default_axes_are_known(self):
        assert set(DEFAULT_AXES) <= set(META_AXES)


class TestMetaSpace:
    def test_default_space_shape(self):
        space = meta_space()
        assert space.dimension == len(DEFAULT_AXES)
        assert space.cardinality == math.prod(
            len(META_AXES[a]) for a in DEFAULT_AXES
        )
        assert [p.name for p in space.parameters] == list(DEFAULT_AXES)

    def test_explicit_axes(self):
        space = meta_space(("smbo.kappa", "engine.batch_size"))
        assert space.cardinality == 9

    def test_empty_axes_rejected(self):
        with pytest.raises(SpecError, match="at least one axis"):
            meta_space(())

    def test_unknown_axis_rejected(self):
        with pytest.raises(SpecError, match="unknown meta axes"):
            meta_space(("gate.delta_percent", "gate.delta"))

    def test_duplicate_axes_rejected(self):
        with pytest.raises(SpecError, match="duplicate"):
            meta_space(("pool.size", "pool.size"))


class TestSpecAt:
    def test_maps_configuration_to_spec(self):
        space = meta_space(("gate.delta_percent", "pool.size"))
        config = space.sample(spawn_rng("meta-space-test"), 1)[0]
        spec = spec_at(config)
        assert spec.gate.delta_percent == config["gate.delta_percent"]
        assert spec.pool.size == config["pool.size"]
        # Knobs outside the axes keep their defaults.
        assert spec.forest == DEFAULT_SPEC.forest

    def test_base_spec_is_respected(self):
        base = TunerSpec().with_value("smbo.kappa", 3.0)
        spec = spec_at({"pool.size": 1_000}, base=base)
        assert spec.smbo.kappa == 3.0 and spec.pool.size == 1_000

    def test_full_axis_sweep_round_trips(self):
        space = meta_space(tuple(sorted(META_AXES)))
        for config in space.sample(spawn_rng("meta-space-sweep"), 10):
            spec = spec_at(config)
            for path in META_AXES:
                head, *rest = path.split(".")
                value = getattr(spec, head)
                for part in rest:
                    value = getattr(value, part)
                assert value == config[path]
            assert TunerSpec.from_dict(json.loads(spec.to_json())) == spec
