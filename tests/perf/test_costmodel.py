"""Tests for the analytic cost model — the physics must point the right way."""

import pytest

from repro.errors import EvaluationError
from repro.kernels import get_kernel
from repro.machines import GCC, ICC, SANDYBRIDGE, WESTMERE, XEON_PHI, XGENE
from repro.orio.transforms.pipeline import TransformPlan
from repro.orio.analysis import analyze_nest
from repro.perf.costmodel import CostModel


def metrics_for_plan(plan=None, n=512, kernel="mm"):
    k = get_kernel(kernel, n=n)
    return analyze_nest(k.nests[0].nest, plan or TransformPlan())


@pytest.fixture(scope="module")
def sb_model():
    return CostModel(SANDYBRIDGE, GCC)


class TestDirections:
    """Each modeled effect must move runtime the physically right way."""

    def test_good_tiling_beats_no_tiling(self, sb_model):
        plain = sb_model.breakdown(metrics_for_plan(n=1024))
        tiled = sb_model.breakdown(
            metrics_for_plan(TransformPlan(tile={"i": 64, "j": 64, "k": 64}), n=1024)
        )
        assert tiled.total_cycles < plain.total_cycles

    def test_moderate_unroll_helps_reduction(self, sb_model):
        plain = sb_model.breakdown(metrics_for_plan(n=256))
        unrolled = sb_model.breakdown(
            metrics_for_plan(TransformPlan(unroll={"k": 4}), n=256)
        )
        assert unrolled.total_cycles < plain.total_cycles

    def test_register_oversubscription_spills(self, sb_model):
        modest = sb_model.breakdown(
            metrics_for_plan(TransformPlan(regtile={"i": 2, "j": 2}), n=256)
        )
        extreme = sb_model.breakdown(
            metrics_for_plan(TransformPlan(regtile={"i": 32, "j": 32}), n=256)
        )
        assert extreme.spill_factor > modest.spill_factor >= 1.0

    def test_code_explosion_hits_icache(self, sb_model):
        huge = metrics_for_plan(
            TransformPlan(unroll={"i": 16, "j": 16, "k": 16}), n=256
        )
        assert sb_model._icache_factor(huge) > 1.0

    def test_vectorization_toggle(self, sb_model):
        m = metrics_for_plan(n=256)
        on = sb_model.breakdown(m, vectorize=True)
        off = sb_model.breakdown(m, vectorize=False)
        assert on.vector_speedup > off.vector_speedup

    def test_scalar_replacement_reduces_l1_pressure(self, sb_model):
        m = metrics_for_plan(n=256)
        with_scr = sb_model.breakdown(m, scalar_replacement=True)
        without = sb_model.breakdown(m, scalar_replacement=False)
        assert with_scr.l1_cycles < without.l1_cycles

    def test_parallel_speeds_up_compute_bound(self):
        model = CostModel(SANDYBRIDGE, GCC, threads=8)
        m = metrics_for_plan(TransformPlan(tile={"i": 64, "j": 64, "k": 64}), n=512)
        serial = model.breakdown(m, parallel=False)
        parallel = model.breakdown(m, parallel=True)
        assert parallel.total_cycles < serial.total_cycles / 3.0


class TestMachineContrasts:
    def test_sandybridge_faster_than_westmere(self):
        m = metrics_for_plan(n=512)
        sb = CostModel(SANDYBRIDGE, GCC).runtime_seconds(m, 1, "mm", quirk_sigma=0.0)
        wm = CostModel(WESTMERE, GCC).runtime_seconds(m, 1, "mm", quirk_sigma=0.0)
        assert sb < wm

    def test_xgene_slowest(self):
        m = metrics_for_plan(n=512)
        xg = CostModel(XGENE, GCC).runtime_seconds(m, 1, "mm", quirk_sigma=0.0)
        sb = CostModel(SANDYBRIDGE, GCC).runtime_seconds(m, 1, "mm", quirk_sigma=0.0)
        assert xg > sb

    def test_inorder_phi_needs_unrolling(self):
        # The ILP term: Phi (in-order) gains much more from replication.
        plain = metrics_for_plan(n=256)
        unrolled = metrics_for_plan(TransformPlan(unroll={"k": 8}), n=256)
        phi = CostModel(XEON_PHI, ICC)
        sb = CostModel(SANDYBRIDGE, ICC)
        gain_phi = phi._ilp_efficiency(unrolled) / phi._ilp_efficiency(plain)
        gain_sb = sb._ilp_efficiency(unrolled) / sb._ilp_efficiency(plain)
        assert gain_phi > gain_sb


class TestIdiomPath:
    def test_icc_default_mm_takes_fast_path(self):
        m = metrics_for_plan(n=512)
        model = CostModel(SANDYBRIDGE, ICC)
        default = model.runtime_seconds(m, 0, "mm", is_default=True, quirk_sigma=0.0)
        transformed = model.runtime_seconds(m, 1, "mm", is_default=False, quirk_sigma=0.0)
        assert default < transformed

    def test_icc_flattens_transformed_mm(self):
        good = metrics_for_plan(TransformPlan(tile={"i": 64, "j": 64, "k": 64}), n=512)
        bad = metrics_for_plan(TransformPlan(regtile={"i": 32, "j": 32}), n=512)
        model = CostModel(SANDYBRIDGE, ICC)
        t_good = model.runtime_seconds(good, 1, "mm", quirk_sigma=0.0)
        t_bad = model.runtime_seconds(bad, 2, "mm", quirk_sigma=0.0)
        gcc_model = CostModel(SANDYBRIDGE, GCC)
        g_good = gcc_model.runtime_seconds(good, 1, "mm", quirk_sigma=0.0)
        g_bad = gcc_model.runtime_seconds(bad, 2, "mm", quirk_sigma=0.0)
        assert t_bad / t_good < (g_bad / g_good) ** 0.5  # strongly flattened

    def test_gcc_has_no_idiom_path(self):
        m = metrics_for_plan(n=256)
        model = CostModel(SANDYBRIDGE, GCC)
        default = model.runtime_seconds(m, 0, "mm", is_default=True, quirk_sigma=0.0)
        also = model.runtime_seconds(m, 0, "mm", is_default=False, quirk_sigma=0.0)
        assert default == also


class TestDeterminismAndNoise:
    def test_deterministic(self):
        m = metrics_for_plan(n=128)
        model = CostModel(SANDYBRIDGE, GCC)
        assert model.runtime_seconds(m, 7, "mm") == model.runtime_seconds(m, 7, "mm")

    def test_rep_varies_measurement(self):
        m = metrics_for_plan(n=128)
        model = CostModel(SANDYBRIDGE, GCC)
        a = model.runtime_seconds(m, 7, "mm", rep=0)
        b = model.runtime_seconds(m, 7, "mm", rep=1)
        assert a != b
        assert abs(a / b - 1.0) < 0.2  # small jitter

    def test_config_key_changes_quirk(self):
        m = metrics_for_plan(n=128)
        model = CostModel(SANDYBRIDGE, GCC)
        assert model.runtime_seconds(m, 7, "mm") != model.runtime_seconds(m, 8, "mm")

    def test_invalid_threads(self):
        with pytest.raises(EvaluationError):
            CostModel(SANDYBRIDGE, GCC, threads=0)

    def test_breakdown_bound_labels(self):
        compute_heavy = metrics_for_plan(
            TransformPlan(tile={"i": 64, "j": 64, "k": 64}, unroll={"k": 4}), n=512
        )
        model = CostModel(SANDYBRIDGE, GCC)
        assert model.breakdown(compute_heavy).bound in ("compute", "memory", "overhead")

    def test_compile_seconds_positive(self):
        m = metrics_for_plan(n=128)
        assert CostModel(SANDYBRIDGE, GCC).compile_seconds(m) > 0
