"""Tests for the SPAPT kernel definitions."""

import random
import threading
import time
from collections import OrderedDict

import numpy as np
import pytest

from repro.errors import ReproError, SearchSpaceError
from repro.kernels import KERNELS, get_kernel, kernel_names
from repro.kernels import base as kernel_base
from repro.utils.rng import spawn_rng


class TestRegistry:
    def test_four_kernels(self):
        assert kernel_names() == ["mm", "atax", "cor", "lu"]

    def test_lookup(self):
        assert get_kernel("MM").name == "MM"
        assert get_kernel("lu").tag == "lu"

    def test_unknown(self):
        with pytest.raises(ReproError):
            get_kernel("stencil")

    def test_custom_input_size(self):
        k = get_kernel("mm", n=64)
        assert "64" in k.input_size


class TestTable3:
    """Table III: parameter counts and search-space sizes."""

    EXPECTED = {
        "mm": (12, 8.58e10, 0.003),
        "atax": (13, 2.57e12, 0.003),
        "cor": (12, 8.57e10, 0.003),
        "lu": (9, 5.83e8, 0.003),
    }

    @pytest.mark.parametrize("name", ["mm", "atax", "cor", "lu"])
    def test_dimensions_and_cardinality(self, name):
        ni, size, tol = self.EXPECTED[name]
        k = get_kernel(name)
        assert k.space.dimension == ni
        assert abs(k.space.cardinality / size - 1.0) < tol

    def test_info_rows(self):
        info = get_kernel("lu").info()
        assert info.name == "LU"
        assert info.n_parameters == 9
        assert info.input_size == "2000x2000"


class TestKernelStructure:
    def test_mm_single_nest(self):
        assert len(get_kernel("mm", n=16).nests) == 1

    def test_atax_two_phases(self):
        assert len(get_kernel("atax", n=16).nests) == 2

    def test_lu_triangular(self):
        k = get_kernel("lu", n=16)
        nest = k.nests[0].nest
        inner = nest.body[0]
        assert "k + 1" in str(inner.lower).replace("(", "").replace(")", "")

    def test_boundedness_classes(self):
        # Section IV-C: MM compute bound, the rest memory bound.
        assert get_kernel("mm").boundedness == "compute"
        for name in ("atax", "cor", "lu"):
            assert get_kernel(name).boundedness == "memory"


class _YieldingLRU(OrderedDict):
    """An LRU whose lookups hand the GIL to another thread before they
    return, so that thread can evict the key just found."""

    def get(self, key, default=None):
        value = super().get(key, default)
        time.sleep(0)
        return value


class TestVariantsAndMetrics:
    def test_default_config_is_untransformed(self):
        k = get_kernel("mm", n=32)
        default = k.space.default()
        assert default["U_I"] == 1 and default["T1_I"] == 1 and default["RT_I"] == 1
        variant = k.variants_for(default)[0]
        assert variant.nest is k.nests[0].nest  # structurally untouched

    def test_metrics_cached(self):
        k = get_kernel("mm", n=32)
        cfg = k.space.default()
        first = k.metrics_for(cfg)
        second = k.metrics_for(cfg)
        assert first is second

    def test_metrics_cache_is_bounded_lru(self, monkeypatch):
        monkeypatch.setattr(kernel_base, "_METRICS_CACHE_LIMIT", 3)
        k = get_kernel("mm", n=32)
        configs = [k.space.config_at(i) for i in range(5)]
        first = k.metrics_for(configs[0])
        for cfg in configs[1:3]:
            k.metrics_for(cfg)
        assert k.metrics_for(configs[0]) is first  # a hit refreshes entry 0
        for cfg in configs[3:]:
            k.metrics_for(cfg)
            assert len(k._metrics_cache) <= 3
        # Entries 1 and 2 were least recently used, so they went first.
        assert list(k._metrics_cache) == [0, 3, 4]
        assert k.metrics_for(configs[0]) is first

    def test_metrics_cache_is_safe_under_two_threads(self, monkeypatch):
        # With 3 entries for 8 configurations most calls evict, and the
        # yielding lookup lets one thread evict what the other just found.
        monkeypatch.setattr(kernel_base, "_METRICS_CACHE_LIMIT", 3)
        k = get_kernel("mm", n=32)
        k._metrics_cache = _YieldingLRU()
        configs = [k.space.config_at(i) for i in range(8)]
        fresh = get_kernel("mm", n=32)
        want = [fresh.metrics_for(fresh.space.config_at(i)) for i in range(len(configs))]
        start = threading.Barrier(2)
        errors: list[BaseException] = []
        seen: list[list] = [[], []]

        def hammer(slot: int) -> None:
            try:
                start.wait()
                draw = random.Random(slot)
                for call in range(2000):
                    i = draw.randrange(len(configs))
                    seen[slot].append((i, k.metrics_for(configs[i])))
            except BaseException as exc:  # re-raised by the main thread
                errors.append(exc)

        threads = [threading.Thread(target=hammer, args=(s,)) for s in (0, 1)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors, errors
        assert [len(s) for s in seen] == [2000, 2000]
        for i, metrics in seen[0] + seen[1]:
            assert metrics == want[i]
        assert len(k._metrics_cache) <= 4  # both may insert after one check

    def test_metrics_per_nest(self):
        k = get_kernel("atax", n=32)
        cfg = k.space.default()
        assert len(k.metrics_for(cfg)) == 2

    def test_scalar_options(self):
        k = get_kernel("mm", n=32)
        cfg = k.space.default().replace(VEC=True, SCR=False)
        opts = k.scalar_options(cfg)
        assert opts["vectorize"] is True
        assert opts["scalar_replacement"] is False

    def test_lu_has_no_scalar_options(self):
        k = get_kernel("lu", n=32)
        assert k.scalar_options(k.space.default()) == {}

    def test_foreign_config_rejected(self):
        mm = get_kernel("mm", n=32)
        lu = get_kernel("lu", n=32)
        with pytest.raises(SearchSpaceError):
            mm.metrics_for(lu.space.default())

    def test_transformed_variant_metrics_differ(self):
        k = get_kernel("mm", n=64)
        rng = spawn_rng("test-kernel", 1)
        cfg = k.space.sample(rng, 1)[0]
        default_m = k.metrics_for(k.space.default())[0]
        cfg_m = k.metrics_for(cfg)[0]
        # Same work, different structure.
        assert cfg_m.flops == pytest.approx(default_m.flops, rel=0.3)

    def test_generate_source(self):
        k = get_kernel("mm", n=16)
        cfg = k.space.configuration(
            {"U_I": 1, "U_J": 1, "U_K": 2, "T1_I": 4, "T1_J": 1, "T1_K": 1,
             "RT_I": 1, "RT_J": 1, "RT_K": 1, "VEC": True, "SCR": True, "PAD": False}
        )
        code = k.generate_source(cfg)
        assert "for (it = 0" in code
        assert "min(" in code

    def test_generate_source_two_phases(self):
        k = get_kernel("atax", n=16)
        code = k.generate_source(k.space.default())
        assert "/* phase 1 */" in code and "/* phase 2 */" in code
