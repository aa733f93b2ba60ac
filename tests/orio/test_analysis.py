"""Tests for the static variant analyzer."""

import numpy as np
import pytest

from repro.errors import TransformError
from repro.orio.analysis import ELEM_BYTES, analyze_nest
from repro.orio.ast import loop_chain
from repro.orio.parser import parse_loop_nest
from repro.orio.transforms.pipeline import TransformPlan
from tests.orio.scalar_reference import scalar_level_stats

MM_SRC = """
for (i = 0; i <= N-1; i++)
  for (j = 0; j <= N-1; j++)
    for (k = 0; k <= N-1; k++)
      C[i*N+j] = C[i*N+j] + A[i*N+k] * B[k*N+j];
"""

LU_SRC = """
for (k = 0; k <= N-1; k++)
  for (i = k+1; i <= N-1; i++)
    for (j = k+1; j <= N-1; j++)
      A[i*N+j] = A[i*N+j] - A[i*N+k] * A[k*N+j];
"""


def mm_metrics(n=64, plan=None):
    return analyze_nest(parse_loop_nest(MM_SRC, consts={"N": n}), plan)


class TestBasicCounts:
    def test_mm_flops_exact(self):
        m = mm_metrics(n=64)
        # 2 flops per innermost iteration, rectangular: exact count.
        assert m.flops == pytest.approx(2 * 64**3, rel=1e-9)

    def test_mm_loads_stores(self):
        m = mm_metrics(n=32)
        # body: store C, load C, load A, load B per iteration.
        assert m.stores == pytest.approx(32**3, rel=1e-9)
        assert m.loads == pytest.approx(3 * 32**3, rel=1e-9)

    def test_lu_triangular_flops_unbiased(self):
        n = 64
        nest = parse_loop_nest(LU_SRC, consts={"N": n})
        m = analyze_nest(nest)
        exact = 2 * sum((n - 1 - k) ** 2 for k in range(n))
        assert m.flops == pytest.approx(exact, rel=0.35)  # sampled estimate

    def test_header_executions_rectangular(self):
        m = mm_metrics(n=16)
        expected = 16 + 16 * 16 + 16 * 16 * 16
        assert m.header_executions == pytest.approx(expected, rel=1e-9)

    def test_unroll_reduces_headers(self):
        plain = mm_metrics(n=32)
        unrolled = mm_metrics(n=32, plan=TransformPlan(unroll={"k": 8}))
        assert unrolled.header_executions < plain.header_executions
        assert unrolled.flops == pytest.approx(plain.flops, rel=1e-6)

    def test_replication_product(self):
        m = mm_metrics(n=32, plan=TransformPlan(unroll={"k": 4}, regtile={"j": 2}))
        assert m.replication == 8

    def test_statements_grow_with_unrolling(self):
        small = mm_metrics(n=32, plan=TransformPlan(unroll={"k": 2}))
        big = mm_metrics(n=32, plan=TransformPlan(unroll={"k": 16}))
        assert big.statements_generated > small.statements_generated


class TestStrides:
    def test_mm_stride_classification(self):
        m = mm_metrics(n=32)
        # Innermost is k: B[k*N+j] strided, A[i*N+k] unit, C invariant.
        assert 0.0 < m.stride1_fraction < 1.0
        assert m.invariant_fraction == pytest.approx(0.5)  # C store + C load

    def test_transposed_access_has_no_unit_stride(self):
        src = """
        for (i = 0; i <= N-1; i++)
          for (j = 0; j <= N-1; j++)
            R[i] = R[i] + D[j*N+i];
        """
        nest = parse_loop_nest(src, consts={"N": 16})
        m = analyze_nest(nest)
        d_refs = [r for r in m.refs if r.array == "D"]
        # D is unit-stride in i, but i is NOT the innermost loop: the
        # reference must not count toward the vectorizable fraction.
        assert d_refs and d_refs[0].has_unit_stride
        assert m.stride1_fraction == 0.0


class TestWorkingSets:
    def test_total_footprint(self):
        n = 32
        m = mm_metrics(n=n)
        # At level 0, all three matrices are touched.
        assert m.working_set_bytes(0) == pytest.approx(3 * n * n * ELEM_BYTES, rel=0.01)

    def test_innermost_working_set_small(self):
        m = mm_metrics(n=64)
        # One k-iteration of MM touches a handful of elements.
        assert m.working_set_bytes(m.n_levels) <= 4 * ELEM_BYTES + 1

    def test_tiling_shrinks_mid_level_working_set(self):
        n = 256
        plain = mm_metrics(n=n)
        tiled = mm_metrics(n=n, plan=TransformPlan(tile={"i": 16, "j": 16, "k": 16}))
        # Inside the tile loops, the tiled working set is tiny.
        ws_tiled = tiled.working_set_bytes(3)  # inside it/jt/kt
        ws_plain = plain.working_set_bytes(1)  # inside i
        assert ws_tiled < ws_plain

    def test_fit_level_monotone(self):
        m = mm_metrics(n=128)
        big = m.fit_level(1 << 30)
        small = m.fit_level(1 << 10)
        assert big <= small


class TestTraffic:
    def test_infinite_cache_traffic_is_compulsory(self):
        n = 64
        m = mm_metrics(n=n)
        traffic = m.traffic_bytes(float("inf"), 64)
        total = 3 * n * n * ELEM_BYTES
        assert traffic == pytest.approx(total, rel=0.35)  # line effects allowed

    def test_tiny_cache_traffic_much_larger(self):
        m = mm_metrics(n=64)
        assert m.traffic_bytes(1024, 64) > 5 * m.traffic_bytes(float("inf"), 64)

    def test_tiling_reduces_traffic_for_small_cache(self):
        n = 256
        cache = 64 * 1024  # 64 KB
        plain = mm_metrics(n=n)
        tiled = mm_metrics(n=n, plan=TransformPlan(tile={"i": 32, "j": 32, "k": 32}))
        assert tiled.traffic_bytes(cache, 64) < 0.5 * plain.traffic_bytes(cache, 64)

    def test_larger_lines_increase_strided_traffic(self):
        m = mm_metrics(n=64)
        assert m.traffic_bytes(2048, 128) >= m.traffic_bytes(2048, 64)


class TestRegisterDemand:
    def test_regtiling_raises_demand(self):
        small = mm_metrics(n=32, plan=TransformPlan(regtile={"i": 2, "j": 2}))
        big = mm_metrics(n=32, plan=TransformPlan(regtile={"i": 8, "j": 8}))
        assert big.register_demand > small.register_demand

    def test_plain_nest_demand_modest(self):
        m = mm_metrics(n=32)
        assert m.register_demand < 10


class TestValidation:
    def test_non_assignment_body_rejected(self):
        src = "for (i = 0; i < 4; i++) { x = 1; for (j = 0; j < 2; j++) A[j] = 0; }"
        nest = parse_loop_nest(src)
        with pytest.raises(TransformError):
            analyze_nest(nest)

    def test_unresolvable_bounds_rejected(self):
        for src in (
            "for (i = 0; i < M; i++) A[i] = 0;",  # M unbound
            "for (i = 0; i < 8; i++) for (j = 0; j < 8 / (i - i); j++) A[j] = 0;",
            "for (i = 0; i < 8; i++) for (j = 0; j < i % (i - i); j++) A[j] = 0;",
        ):
            nest = parse_loop_nest(src)
            with pytest.raises(TransformError):
                analyze_nest(nest)
            with pytest.raises(TransformError):  # the scalar reference agrees
                scalar_level_stats(loop_chain(nest))

    def test_entry_counts_shape(self):
        m = mm_metrics(n=16)
        assert len(m.entry_counts) == m.n_levels + 1
        assert m.entry_counts[0] == 1.0
        assert m.body_executions == m.entry_counts[-1]
