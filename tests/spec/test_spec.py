"""TunerSpec: validation, wire format, functional updates, threading."""

import dataclasses
import json
import os

import pytest

from repro.errors import ReproError, SpecError
from repro.spec import (
    DEFAULT_SPEC,
    SPEC_VERSION,
    EngineSpec,
    ForestSpec,
    GateSpec,
    PoolSpec,
    SMBOSpec,
    TunerSpec,
    resolve_spec,
)
from repro.transfer.guard import GuardPolicy
from repro.utils.rng import spawn_rng


class TestErrorsAndDefaults:
    def test_spec_error_is_a_value_error(self):
        assert issubclass(SpecError, ValueError)
        assert issubclass(SpecError, ReproError)

    def test_default_spec_is_the_status_quo(self):
        # The hard-coded values these fields replaced; changing any of
        # them silently changes every default search (golden-guarded).
        assert DEFAULT_SPEC == TunerSpec()
        assert DEFAULT_SPEC.forest == ForestSpec(
            n_estimators=64, min_samples_leaf=2, min_samples_split=5,
            max_features="third", max_depth=None, seed=0,
        )
        assert DEFAULT_SPEC.gate.delta_percent == 20.0
        assert DEFAULT_SPEC.pool.size == 10_000
        assert DEFAULT_SPEC.smbo == SMBOSpec(
            n_initial=10, pool_size=2_000, acquisition="ei", kappa=1.5,
            refit_every=1, forest=ForestSpec(n_estimators=48, seed=7),
        )
        assert DEFAULT_SPEC.engine.batch_size == 64
        assert DEFAULT_SPEC.guard is None

    def test_specs_are_frozen(self):
        with pytest.raises(dataclasses.FrozenInstanceError):
            DEFAULT_SPEC.gate.delta_percent = 5.0
        with pytest.raises(dataclasses.FrozenInstanceError):
            DEFAULT_SPEC.forest = ForestSpec()

    def test_resolve_spec(self):
        assert resolve_spec(None) is DEFAULT_SPEC
        spec = TunerSpec()
        assert resolve_spec(spec) is spec
        with pytest.raises(SpecError, match="TunerSpec or None"):
            resolve_spec({"version": 1})


class TestValidation:
    @pytest.mark.parametrize(
        "cls, kwargs",
        [
            (ForestSpec, {"n_estimators": 0}),
            (ForestSpec, {"min_samples_leaf": 0}),
            (ForestSpec, {"min_samples_split": 1}),
            (ForestSpec, {"max_depth": 0}),
            (ForestSpec, {"max_features": "cube"}),
            (ForestSpec, {"max_features": -0.5}),
            (GateSpec, {"delta_percent": 0.0}),
            (GateSpec, {"delta_percent": 100.0}),
            (PoolSpec, {"size": 9}),
            (PoolSpec, {"size": 0}),
            (SMBOSpec, {"n_initial": 0}),
            (SMBOSpec, {"pool_size": 9}),
            (SMBOSpec, {"acquisition": "ucb"}),
            (SMBOSpec, {"kappa": -0.1}),
            (SMBOSpec, {"refit_every": 0}),
            (EngineSpec, {"batch_size": 0}),
            (EngineSpec, {"batch_size": None}),
        ],
    )
    def test_out_of_range_knob_rejected(self, cls, kwargs):
        with pytest.raises(SpecError):
            cls(**kwargs)

    def test_boundary_values_accepted(self):
        ForestSpec(n_estimators=1, min_samples_leaf=1, min_samples_split=2,
                   max_features=1.0, max_depth=1)
        GateSpec(delta_percent=0.001)
        PoolSpec(size=10)
        SMBOSpec(n_initial=1, pool_size=10, kappa=0.0)
        EngineSpec(batch_size=1)


def _random_spec(rng):
    """A valid spec with every wire-reachable knob randomized."""
    spec = TunerSpec(guard=GuardPolicy() if rng.integers(2) else None)
    knobs = {
        "forest.n_estimators": [1, 16, 200],
        "forest.max_features": ["sqrt", "log2", "all", 0.5, None],
        "forest.max_depth": [None, 3, 12],
        "gate.delta_percent": [0.5, 20.0, 99.5],
        "pool.size": [10, 512, 20_000],
        "smbo.acquisition": ["ei", "lcb", "mean"],
        "smbo.kappa": [0.0, 2.5],
        "smbo.forest.seed": [0, 11],
        "smbo.forest.n_estimators": [5, 48],
        "engine.batch_size": [1, 64, 256],
    }
    for path, choices in knobs.items():
        spec = spec.with_value(path, choices[rng.integers(len(choices))])
    if spec.guard is not None:
        spec = spec.with_value("guard.audit_every", int(rng.integers(1, 9)))
    return spec


class TestWireFormat:
    def test_default_round_trip(self):
        assert TunerSpec.from_dict(DEFAULT_SPEC.to_dict()) == DEFAULT_SPEC
        assert TunerSpec.from_json(DEFAULT_SPEC.to_json()) == DEFAULT_SPEC

    def test_random_specs_round_trip(self):
        # Property-style: any valid spec survives dict and JSON
        # round-trips exactly, fingerprint included.
        rng = spawn_rng("spec-roundtrip")
        for _ in range(25):
            spec = _random_spec(rng)
            assert TunerSpec.from_dict(spec.to_dict()) == spec
            back = TunerSpec.from_json(spec.to_json())
            assert back == spec
            assert back.fingerprint() == spec.fingerprint()

    def test_wire_payload_is_plain_json(self):
        spec = TunerSpec(guard=GuardPolicy())
        payload = json.loads(spec.to_json())
        assert payload["version"] == SPEC_VERSION
        assert set(payload) == {"version", "forest", "gate", "pool",
                                "smbo", "engine", "guard"}

    def test_to_dict_writes_version_2(self):
        assert SPEC_VERSION == 2
        assert DEFAULT_SPEC.to_dict()["version"] == 2
        assert "prefetch" not in DEFAULT_SPEC.to_dict()["pool"]

    def test_v1_payload_decodes(self):
        # Version 1 carried pool.prefetch and allowed a null batch size
        # (the former serial loop); neither can change a trace.
        spec = TunerSpec.from_dict({
            "version": 1,
            "pool": {"size": 500, "prefetch": 64},
            "engine": {"batch_size": None},
        })
        assert spec.pool == PoolSpec(size=500)
        assert spec.engine == EngineSpec(batch_size=1)
        v1_batched = TunerSpec.from_dict(
            {"version": 1, "engine": {"batch_size": 16}}
        )
        assert v1_batched.engine.batch_size == 16

    def test_meta_recommendations_decode(self):
        # The committed meta-campaign results are version-1 payloads.
        path = os.path.join(
            os.path.dirname(__file__), os.pardir, os.pardir,
            "benchmarks", "results", "meta_recommendations.json",
        )
        with open(path) as fh:
            data = json.load(fh)
        payloads = [
            entry["spec"]
            for section in ("candidates", "recommendations", "results")
            for entry in data[section]
        ]
        assert payloads and all(p["version"] == 1 for p in payloads)
        for payload in payloads:
            spec = TunerSpec.from_dict(payload)
            assert spec.pool.size == payload["pool"]["size"]
            assert spec.engine.batch_size == payload["engine"]["batch_size"]

    def test_partial_payload_fills_defaults(self):
        spec = TunerSpec.from_dict(
            {"version": SPEC_VERSION, "gate": {"delta_percent": 5.0}}
        )
        assert spec.gate.delta_percent == 5.0
        assert spec.pool == DEFAULT_SPEC.pool

    def test_missing_version_rejected(self):
        with pytest.raises(SpecError, match="no 'version'"):
            TunerSpec.from_dict({"gate": {"delta_percent": 5.0}})

    def test_foreign_version_rejected(self):
        with pytest.raises(SpecError, match="unsupported spec version 3"):
            TunerSpec.from_dict({"version": 3})

    def test_unknown_top_level_field_rejected(self):
        with pytest.raises(SpecError, match="unknown spec field"):
            TunerSpec.from_dict({"version": SPEC_VERSION, "gatekeeper": {}})

    def test_unknown_sub_spec_field_rejected(self):
        with pytest.raises(SpecError, match="'gate'"):
            TunerSpec.from_dict({"version": SPEC_VERSION, "gate": {"delta": 5.0}})

    def test_unknown_nested_forest_field_rejected(self):
        with pytest.raises(SpecError, match="smbo.forest"):
            TunerSpec.from_dict(
                {"version": SPEC_VERSION, "smbo": {"forest": {"depth": 3}}}
            )

    def test_unknown_guard_field_rejected(self):
        with pytest.raises(SpecError, match="unknown guard field"):
            TunerSpec.from_dict({"version": SPEC_VERSION, "guard": {"patience": 3}})

    def test_non_mapping_rejected(self):
        with pytest.raises(SpecError, match="must be a mapping"):
            TunerSpec.from_dict([("version", SPEC_VERSION)])
        with pytest.raises(SpecError, match="'gate' must be a mapping"):
            TunerSpec.from_dict({"version": SPEC_VERSION, "gate": 5.0})

    def test_malformed_json_rejected(self):
        with pytest.raises(SpecError, match="not valid JSON"):
            TunerSpec.from_json("{version:")

    def test_out_of_range_wire_value_rejected(self):
        # Decoding re-runs __post_init__, so a journaled payload cannot
        # smuggle in a knob the constructor would refuse.
        with pytest.raises(SpecError, match="delta_percent"):
            TunerSpec.from_dict({"version": SPEC_VERSION, "gate": {"delta_percent": 0.0}})

    def test_guard_round_trips_exactly(self):
        guard = GuardPolicy(min_evidence=4, suspect_rho=0.3,
                            revoke_rho=-0.5, recover_rho=0.6)
        spec = TunerSpec(guard=guard)
        assert TunerSpec.from_json(spec.to_json()).guard == guard


class TestFingerprint:
    def test_stable_and_knob_sensitive(self):
        assert TunerSpec().fingerprint() == DEFAULT_SPEC.fingerprint()
        tweaked = DEFAULT_SPEC.with_value("gate.delta_percent", 5.0)
        assert tweaked.fingerprint() != DEFAULT_SPEC.fingerprint()


class TestWithValue:
    def test_nested_paths(self):
        spec = (DEFAULT_SPEC
                .with_value("forest.n_estimators", 16)
                .with_value("smbo.forest.seed", 3)
                .with_value("engine.batch_size", 1))
        assert spec.forest.n_estimators == 16
        assert spec.smbo.forest.seed == 3
        assert spec.engine.batch_size == 1
        assert DEFAULT_SPEC.forest.n_estimators == 64  # original untouched

    def test_guard_path(self):
        spec = TunerSpec(guard=GuardPolicy()).with_value("guard.audit_every", 9)
        assert spec.guard.audit_every == 9

    @pytest.mark.parametrize(
        "path",
        ["gate", "nosuch.delta", "gate.delta", "smbo.forest.depth",
         "gate.delta_percent.extra", "guard.audit_every"],
    )
    def test_bad_paths_rejected(self, path):
        with pytest.raises(SpecError):
            DEFAULT_SPEC.with_value(path, 1)

    def test_updates_are_revalidated(self):
        with pytest.raises(SpecError, match="delta_percent"):
            DEFAULT_SPEC.with_value("gate.delta_percent", 100.0)


class TestThreading:
    """The spec actually reaches the components it configures."""

    def test_forest_from_spec(self):
        from repro.ml.forest import RandomForestRegressor

        fs = ForestSpec(n_estimators=7, min_samples_leaf=3,
                        min_samples_split=4, max_features="sqrt",
                        max_depth=5, seed=11)
        rf = RandomForestRegressor.from_spec(fs)
        assert (rf.n_estimators, rf.min_samples_leaf, rf.min_samples_split,
                rf.max_features, rf.max_depth, rf.seed) == (7, 3, 4, "sqrt", 5, 11)
        default = RandomForestRegressor.from_spec()
        assert default.n_estimators == 64 and default.min_samples_leaf == 2

    def test_surrogate_uses_forest_spec(self):
        from repro.errors import ModelError
        from repro.kernels import get_kernel
        from repro.ml.forest import RandomForestRegressor
        from repro.transfer.surrogate import Surrogate

        space = get_kernel("mm").space
        surr = Surrogate(space, spec=ForestSpec(n_estimators=5))
        assert surr.learner.n_estimators == 5
        with pytest.raises(ModelError):
            Surrogate(space, learner=RandomForestRegressor(),
                      spec=ForestSpec())

    def test_smbo_proposer_uses_forest_spec(self):
        from repro.kernels import get_kernel
        from repro.search.proposers import SMBOProposer
        from repro.utils.rng import spawn_rng as _spawn

        space = get_kernel("mm").space
        common = dict(n_initial=2, pool_size=50, acquisition="ei", kappa=1.5)
        default = SMBOProposer(space, _spawn("smbo-spec"), **common)
        # The default refit forest is the shared ForestSpec default —
        # the historical hard-coded (48, leaf=2, seed=7), deduplicated.
        assert default.forest == ForestSpec(n_estimators=48, seed=7)
        custom = SMBOProposer(space, _spawn("smbo-spec"),
                              forest=ForestSpec(n_estimators=9), **common)
        assert custom.forest.n_estimators == 9

    def test_quantile_gate_from_spec(self):
        from repro.kernels import get_kernel
        from repro.search.gates import QuantileGate
        from repro.transfer.surrogate import Surrogate
        from repro.utils.rng import spawn_rng as _spawn

        kernel = get_kernel("mm")
        surr = Surrogate(kernel.space, spec=ForestSpec(n_estimators=2))
        rng = _spawn("gate-spec-test")
        configs = kernel.space.sample(rng, 30)
        surr.fit([(c, float(i + 1)) for i, c in enumerate(configs)])
        spec = (DEFAULT_SPEC
                .with_value("gate.delta_percent", 35.0)
                .with_value("pool.size", 120))
        gate = QuantileGate.from_spec(kernel.space, surr, spec)
        assert gate.delta_percent == 35.0

    def test_service_payload_carries_spec(self):
        from repro.service.worker import execute_job

        spec = DEFAULT_SPEC.with_value("pool.size", 500)
        result = execute_job({
            "kind": "search", "kernel": "mm", "machine": "sandybridge",
            "nmax": 4, "seed": 1, "spec": spec.to_dict(),
        })
        assert result["spec_fingerprint"] == spec.fingerprint()
        baseline = execute_job({
            "kind": "search", "kernel": "mm", "machine": "sandybridge",
            "nmax": 4, "seed": 1,
        })
        assert "spec_fingerprint" not in baseline
        # The spec rode along without changing the search results
        # (pool.size does not affect plain RS).
        assert result["trace_digest"] == baseline["trace_digest"]
        # A journaled version-1 payload still runs, to the same trace.
        v1 = execute_job({
            "kind": "search", "kernel": "mm", "machine": "sandybridge",
            "nmax": 4, "seed": 1,
            "spec": {"version": 1, "pool": {"size": 500, "prefetch": 256},
                     "engine": {"batch_size": None}},
        })
        assert v1["trace_digest"] == baseline["trace_digest"]

    def test_service_rejects_malformed_spec(self):
        from repro.service.worker import execute_job

        with pytest.raises(SpecError):
            execute_job({
                "kind": "search", "kernel": "mm", "machine": "sandybridge",
                "nmax": 2, "spec": {"version": 99},
            })

    def test_top_level_reexports(self):
        import repro

        assert repro.TunerSpec is TunerSpec
        assert repro.DEFAULT_SPEC is DEFAULT_SPEC
