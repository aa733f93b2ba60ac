"""Tests for the HPL and raytracer mini-application models."""

import numpy as np
import pytest

from repro.errors import EvaluationError
from repro.machines import POWER7, SANDYBRIDGE, WESTMERE, XGENE, get_machine
from repro.miniapps import (
    GCC_FLAGS,
    GCC_PARAMS,
    MiniappEvaluator,
    make_hpl,
    make_raytracer,
)
from repro.perf.simclock import SimClock
from repro.utils.rng import spawn_rng
from repro.utils.stats import spearman


class TestHplSpace:
    def test_fifteen_parameters(self):
        # Section IV-C: "The benchmark comprises of 15 tunable parameters".
        assert make_hpl().space.dimension == 15

    def test_classic_parameters_present(self):
        space = make_hpl().space
        for name in ("NB", "BCAST", "PFACT", "RFACT", "DEPTH", "SWAP"):
            assert name in space

    def test_six_broadcast_variants(self):
        (bcast,) = [p for p in make_hpl().space.parameters if p.name == "BCAST"]
        assert bcast.cardinality == 6


class TestHplModel:
    def test_problem_size_scales_with_memory(self):
        hpl = make_hpl()
        assert hpl.problem_size(POWER7) > hpl.problem_size(XGENE)

    def test_runtime_positive_and_deterministic(self):
        hpl = make_hpl()
        cfg = hpl.space.default()
        a = hpl.runtime_seconds(cfg, SANDYBRIDGE)
        assert a > 0
        assert a == hpl.runtime_seconds(cfg, SANDYBRIDGE)

    def test_flat_landscape(self):
        # Table IV: HPL performance speedups are all ~1.00 — the tuning
        # swing is small relative to the base time.
        hpl = make_hpl()
        rng = spawn_rng("hpl-test", 0)
        cfgs = hpl.space.sample(rng, 60)
        times = np.array([hpl.runtime_seconds(c, SANDYBRIDGE) for c in cfgs])
        assert times.max() / times.min() < 2.0

    def test_nb_preference_is_u_shaped(self):
        hpl = make_hpl()
        base = hpl.space.default()
        times = {
            nb: hpl.runtime_seconds(base.replace(NB=nb), SANDYBRIDGE)
            for nb in (32, 128, 256)
        }
        # Extreme blocks should not beat every mid-range block.
        assert min(times[32], times[256]) > 0.9 * times[128]

    def test_weak_cross_machine_correlation(self):
        # The paper's HPL correlation panel is visibly weaker than the
        # kernels' (Figure 3): machine-specific effects dominate.
        hpl = make_hpl()
        rng = spawn_rng("hpl-test", 1)
        cfgs = hpl.space.sample(rng, 80)
        sb = [hpl.runtime_seconds(c, SANDYBRIDGE) for c in cfgs]
        p7 = [hpl.runtime_seconds(c, POWER7) for c in cfgs]
        wm = [hpl.runtime_seconds(c, WESTMERE) for c in cfgs]
        assert spearman(sb, p7) < 0.7
        assert spearman(sb, wm) > spearman(sb, p7)  # intel pair closer

    def test_invalid_memory_fraction(self):
        with pytest.raises(ValueError):
            make_hpl(memory_fraction=0.9)

    def test_config_setup_cost_small(self):
        hpl = make_hpl()
        assert hpl.compile_seconds(hpl.space.default(), SANDYBRIDGE) < 30.0


class TestRaytracerSpace:
    def test_paper_counts(self):
        # Section IV-C: 143 flags and 104 parameters.
        assert len(GCC_FLAGS) == 143
        assert len(GCC_PARAMS) == 104
        assert make_raytracer().space.dimension == 247

    def test_flag_names_look_like_gcc(self):
        assert all(f.startswith("f") for f in GCC_FLAGS)
        assert all(p.startswith("param-") for p in GCC_PARAMS)


class TestRaytracerModel:
    def test_flat_landscape(self):
        rt = make_raytracer()
        rng = spawn_rng("rt-test", 0)
        cfgs = rt.space.sample(rng, 40)
        times = np.array([rt.runtime_seconds(c, SANDYBRIDGE) for c in cfgs])
        assert times.max() / times.min() < 2.5

    def test_flags_change_runtime(self):
        rt = make_raytracer()
        rng = spawn_rng("rt-test", 1)
        a, b = rt.space.sample(rng, 2)
        assert rt.runtime_seconds(a, SANDYBRIDGE) != rt.runtime_seconds(b, SANDYBRIDGE)

    def test_compile_time_dominates_on_xgene(self):
        rt = make_raytracer()
        cfg = rt.space.default()
        assert rt.compile_seconds(cfg, XGENE) > rt.compile_seconds(cfg, SANDYBRIDGE)

    def test_compile_grows_with_enabled_flags(self):
        rt = make_raytracer()
        none_on = rt.space.default()
        values = dict(none_on)
        for f in GCC_FLAGS:
            values[f] = True
        all_on = rt.space.configuration(values)
        assert rt.compile_seconds(all_on, SANDYBRIDGE) > rt.compile_seconds(
            none_on, SANDYBRIDGE
        )


class TestMiniappEvaluator:
    def test_interface_matches_orio_evaluator(self):
        hpl = make_hpl()
        ev = MiniappEvaluator(hpl, SANDYBRIDGE, clock=SimClock())
        m = ev.evaluate(hpl.space.default())
        assert m.runtime_seconds > 0
        assert ev.clock.now == pytest.approx(m.evaluation_cost)
        assert ev.kernel is hpl  # searches address the problem as .kernel

    def test_repetitions(self):
        hpl = make_hpl()
        ev = MiniappEvaluator(hpl, SANDYBRIDGE, repetitions=3)
        assert ev.measure(hpl.space.default()).repetitions == 3

    def test_foreign_config_rejected(self):
        ev = MiniappEvaluator(make_hpl(), SANDYBRIDGE)
        rt = make_raytracer()
        with pytest.raises(EvaluationError):
            ev.measure(rt.space.default())

    def test_invalid_repetitions(self):
        with pytest.raises(EvaluationError):
            MiniappEvaluator(make_hpl(), SANDYBRIDGE, repetitions=0)
