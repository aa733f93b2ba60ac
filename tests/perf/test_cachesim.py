"""Trace-driven cache simulation, and cross-validation of the analytic
traffic model against it."""

import numpy as np
import pytest

from repro.errors import EvaluationError
from repro.orio.analysis import analyze_nest, analyze_variant
from repro.orio.parser import parse_loop_nest
from repro.orio.transforms.pipeline import TransformPlan, compose
from tests.perf.cachesim import LruCache, simulate_nest

MM_SRC = """
for (i = 0; i <= N-1; i++)
  for (j = 0; j <= N-1; j++)
    for (k = 0; k <= N-1; k++)
      C[i*N+j] = C[i*N+j] + A[i*N+k] * B[k*N+j];
"""


def mm_arrays(n, seed=0):
    rng = np.random.default_rng(seed)
    return {"A": rng.normal(size=n * n), "B": rng.normal(size=n * n),
            "C": rng.normal(size=n * n)}


class TestLruCache:
    def test_cold_miss_then_hit(self):
        cache = LruCache(1024, line_bytes=64)
        assert not cache.access(0, False)  # cold miss
        assert cache.access(8, False)  # same line: hit
        assert cache.stats.hits == 1 and cache.stats.misses == 1

    def test_capacity_eviction(self):
        # Direct-mapped single-set cache of 2 lines.
        cache = LruCache(128, line_bytes=64, associativity=2)
        cache.access(0, False)
        cache.access(64, False)
        cache.access(128, False)  # evicts line 0 (LRU)
        assert not cache.access(0, False)  # miss again
        assert cache.stats.misses == 4

    def test_lru_order(self):
        cache = LruCache(128, line_bytes=64, associativity=2)
        cache.access(0, False)
        cache.access(64, False)
        cache.access(0, False)  # refresh line 0
        cache.access(128, False)  # evicts line 64 now
        assert cache.access(0, False)  # still resident
        assert not cache.access(64, False)

    def test_writeback_accounting(self):
        cache = LruCache(128, line_bytes=64, associativity=2)
        cache.access(0, True)  # dirty
        cache.access(64, False)
        cache.access(128, False)  # evict dirty line 0
        assert cache.stats.writebacks == 1
        cache.flush()
        assert cache.stats.writebacks == 1  # remaining lines were clean

    def test_flush_writes_dirty(self):
        cache = LruCache(1024, line_bytes=64)
        cache.access(0, True)
        cache.flush()
        assert cache.stats.writebacks == 1

    def test_invalid_configs(self):
        with pytest.raises(EvaluationError):
            LruCache(32, line_bytes=64)
        with pytest.raises(EvaluationError):
            LruCache(1024, associativity=0)

    def test_traffic_bytes(self):
        cache = LruCache(1024, line_bytes=64)
        cache.access(0, True)
        cache.flush()
        assert cache.stats.traffic_bytes == 128  # one fill + one write-back


class TestSimulateNest:
    def test_stream_has_compulsory_misses_only_when_cache_is_big(self):
        src = "for (i = 0; i <= N-1; i++) a[i] = b[i] + 1;"
        n = 512
        nest = parse_loop_nest(src, consts={"N": n})
        arrays = {"a": np.zeros(n), "b": np.ones(n)}
        stats = simulate_nest(nest, arrays, capacity_bytes=1 << 20)
        lines = n * 8 // 64
        assert stats.misses == 2 * lines  # a + b, one miss per line
        assert stats.hits > 0

    def test_program_still_computes(self):
        src = "for (i = 0; i <= N-1; i++) a[i] = b[i] + 1;"
        nest = parse_loop_nest(src, consts={"N": 64})
        arrays = {"a": np.zeros(64), "b": np.ones(64)}
        simulate_nest(nest, arrays, capacity_bytes=4096)
        np.testing.assert_array_equal(arrays["a"], np.full(64, 2.0))


class TestAnalyticModelValidation:
    """The headline: the working-set model must track LRU ground truth."""

    N = 48  # small enough for the tree-walking interpreter

    def _simulated(self, plan, capacity):
        nest = parse_loop_nest(MM_SRC, consts={"N": self.N})
        variant = compose(nest, plan) if plan else None
        target = variant.nest if variant else nest
        return simulate_nest(target, mm_arrays(self.N), capacity_bytes=capacity)

    def _analytic(self, plan, capacity):
        nest = parse_loop_nest(MM_SRC, consts={"N": self.N})
        metrics = (
            analyze_variant(compose(nest, plan)) if plan else analyze_nest(nest)
        )
        return metrics.traffic_bytes(capacity, 64)

    @pytest.mark.parametrize("capacity", [4 * 1024, 16 * 1024])
    def test_untiled_mm_within_factor(self, capacity):
        simulated = self._simulated(None, capacity).fetch_bytes
        analytic = self._analytic(None, capacity)
        assert 0.2 < analytic / simulated < 5.0

    def test_tiling_reduces_both_and_model_agrees(self):
        capacity = 8 * 1024
        plan = TransformPlan(tile={"i": 8, "j": 8, "k": 8})
        sim_plain = self._simulated(None, capacity).fetch_bytes
        sim_tiled = self._simulated(plan, capacity).fetch_bytes
        ana_plain = self._analytic(None, capacity)
        ana_tiled = self._analytic(plan, capacity)
        # Ground truth: tiling cuts traffic at this cache size.
        assert sim_tiled < sim_plain
        # The analytic model ranks the two variants the same way.
        assert ana_tiled < ana_plain

    def test_big_cache_traffic_is_compulsory_in_both(self):
        capacity = 1 << 22  # everything fits
        simulated = self._simulated(None, capacity)
        analytic = self._analytic(None, capacity)
        compulsory = 3 * self.N * self.N * 8
        assert simulated.fetch_bytes == pytest.approx(compulsory, rel=0.1)
        assert analytic == pytest.approx(compulsory, rel=0.4)
