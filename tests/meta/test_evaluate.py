"""Scoring candidate specs through full inner tuning sessions."""

import json

import pytest

from repro.experiments.harness import build_session, evaluate_spec, score_specs
from repro.meta.space import META_AXES, meta_space, spec_at
from repro.spec import DEFAULT_SPEC, TunerSpec
from repro.utils.rng import spawn_rng

# One variant and a tiny nmax keep each inner session well under a
# second; these tests are about wiring, not statistics.
CHEAP = dict(nmax=6, variants=("RSp",))


class TestEvaluateSpec:
    def test_payload_shape(self):
        payload = evaluate_spec(DEFAULT_SPEC, **CHEAP)
        assert payload["problem"] == "MM"
        assert payload["variants"] == ["RSp"]
        assert set(payload["prf"]) == {"RSp"}
        assert payload["objective"] == payload["prf"]["RSp"]
        assert payload["objective"] > 0
        assert payload["cost"] == pytest.approx(1.0 / payload["objective"])
        # source RS + target RS + RSp all ran within the budget caps
        assert payload["inner_evaluations"] <= 3 * CHEAP["nmax"]
        assert payload["inner_elapsed"] > 0
        json.dumps(payload)  # journal-safe

    def test_spec_round_trips_through_payload(self):
        spec = DEFAULT_SPEC.with_value("gate.delta_percent", 35.0)
        payload = evaluate_spec(spec, **CHEAP)
        assert TunerSpec.from_dict(payload["spec"]) == spec
        assert payload["fingerprint"] == spec.fingerprint()

    def test_deterministic(self):
        a = evaluate_spec(DEFAULT_SPEC, seed=3, **CHEAP)
        b = evaluate_spec(DEFAULT_SPEC, seed=3, **CHEAP)
        assert a == b


class TestScoreSpecs:
    """The sweep driver against its obviously-correct twin: one plain
    ``build_session(...).run()`` per cell."""

    @pytest.mark.parametrize("n_workers", [1, 2])
    def test_payloads_equal_direct_sessions(self, n_workers):
        rng = spawn_rng("score-specs-differential", n_workers)
        space = meta_space(tuple(META_AXES))
        labelled = [
            (f"c{i}", spec_at(config))
            for i, config in enumerate(space.sample(rng, 3))
        ]
        seeds = [int(rng.integers(1000)), ("variance", int(rng.integers(10)))]
        nmax = int(rng.integers(4, 11))
        variants = ("RSp", "RSb", "RSpb")
        problems = ["LU", "HPL"]
        pairs = [("westmere", "sandybridge")]

        cells = score_specs(
            "differential", labelled, problems, pairs, seeds, nmax,
            variants=variants, n_workers=n_workers,
        )

        expected = [
            (problem, seed, label, spec)
            for problem in problems
            for seed in seeds
            for label, spec in labelled
        ]
        assert len(cells) == len(expected)
        for cell, (problem, seed, label, spec) in zip(cells, expected):
            outcome = build_session(
                problem, "westmere", "sandybridge", seed=seed, nmax=nmax,
                variants=variants, spec=spec,
            ).run()
            assert (cell["problem"], cell["candidate"]) == (problem, label)
            assert cell["seed"] == str(seed)
            assert cell["fingerprint"] == spec.fingerprint()
            assert cell["prf"] == {
                v: r.performance for v, r in outcome.reports.items()
            }
            assert cell["srh"] == {
                v: r.search_time for v, r in outcome.reports.items()
            }
