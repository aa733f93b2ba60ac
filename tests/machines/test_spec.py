"""Tests for machine specifications and the registry."""

import dataclasses

import pytest

from repro.errors import MachineError
from repro.machines import (
    MACHINES,
    POWER7,
    SANDYBRIDGE,
    WESTMERE,
    XEON_PHI,
    XGENE,
    get_machine,
)
from repro.machines.spec import CacheLevel, MachineSpec
from repro.machines.response import ResponseVector


class TestCacheLevel:
    def test_size_bytes(self):
        assert CacheLevel("L1", 32, 4, 48).size_bytes == 32 * 1024

    def test_shared_capacity_divided(self):
        l3 = CacheLevel("L3", 20 * 1024, 38, 16, shared=True)
        assert l3.effective_size_bytes(4) == l3.size_bytes // 4

    def test_private_capacity_unchanged(self):
        l1 = CacheLevel("L1", 32, 4, 48)
        assert l1.effective_size_bytes(8) == l1.size_bytes

    def test_invalid_cores(self):
        with pytest.raises(MachineError):
            CacheLevel("L1", 32, 4, 48).effective_size_bytes(0)


class TestRegistry:
    def test_five_machines(self):
        assert len(MACHINES) == 5
        assert list(MACHINES) == ["westmere", "sandybridge", "xeonphi", "power7", "xgene"]

    def test_lookup_by_name_and_alias(self):
        assert get_machine("sandybridge") is SANDYBRIDGE
        assert get_machine("SNB") is SANDYBRIDGE
        assert get_machine("phi") is XEON_PHI
        assert get_machine("arm") is XGENE

    def test_unknown_machine(self):
        with pytest.raises(MachineError):
            get_machine("cray")

    # Table II cell checks (the paper's published specification).
    def test_table2_sandybridge(self):
        assert SANDYBRIDGE.cores == 8
        assert SANDYBRIDGE.clock_ghz == 3.4
        assert SANDYBRIDGE.cache("L3").size_kb == 20 * 1024
        assert SANDYBRIDGE.memory_gb == 64

    def test_table2_westmere(self):
        assert WESTMERE.cores == 6
        assert WESTMERE.clock_ghz == 2.4
        assert WESTMERE.cache("L3").size_kb == 12 * 1024
        assert WESTMERE.memory_gb == 48

    def test_table2_xeonphi(self):
        assert XEON_PHI.cores == 61
        assert XEON_PHI.clock_ghz == 1.24
        assert all(c.name != "L3" for c in XEON_PHI.caches)
        assert XEON_PHI.cache("L2").size_kb == 512

    def test_table2_power7(self):
        assert POWER7.cores == 6
        assert POWER7.clock_ghz == 4.2
        assert POWER7.memory_gb == 128
        assert not POWER7.cache("L3").shared  # 10 MB per core

    def test_table2_xgene(self):
        assert XGENE.cores == 8
        assert XGENE.clock_ghz == 2.4
        assert XGENE.memory_gb == 16


class TestDerivedQuantities:
    def test_peak_gflops(self):
        assert SANDYBRIDGE.peak_gflops_core == pytest.approx(8.0 * 3.4)
        assert SANDYBRIDGE.peak_gflops == pytest.approx(8.0 * 3.4 * 8)

    def test_dram_bytes_per_cycle(self):
        expected = 51.2e9 / (3.4e9)
        assert SANDYBRIDGE.dram_bytes_per_cycle == pytest.approx(expected)

    def test_cache_lookup_error(self):
        with pytest.raises(MachineError):
            XEON_PHI.cache("L3")

    def test_summary_row_l3_mb(self):
        row = SANDYBRIDGE.summary_row()
        assert row[6] == 20.0  # L3 in MB
        assert XEON_PHI.summary_row()[6] is None


class TestValidation:
    def _base_kwargs(self):
        return dict(
            name="x", display_name="X", vendor="v", isa="x86_64",
            cores=2, clock_ghz=1.0,
            caches=(CacheLevel("L1", 32, 4, 16),),
            memory_gb=8, dram_bandwidth_gbs=10.0, dram_latency_ns=80.0,
            line_bytes=64, flops_per_cycle=2.0, vector_doubles=2,
            fp_registers=16, issue_width=2, out_of_order_window=32,
        )

    def test_valid_spec_builds(self):
        MachineSpec(**self._base_kwargs())

    def test_rejects_zero_cores(self):
        kw = self._base_kwargs()
        kw["cores"] = 0
        with pytest.raises(MachineError):
            MachineSpec(**kw)

    def test_rejects_decreasing_cache_sizes(self):
        kw = self._base_kwargs()
        kw["caches"] = (CacheLevel("L1", 64, 4, 16), CacheLevel("L2", 32, 10, 8))
        with pytest.raises(MachineError):
            MachineSpec(**kw)

    def test_rejects_weird_line_size(self):
        kw = self._base_kwargs()
        kw["line_bytes"] = 48
        with pytest.raises(MachineError):
            MachineSpec(**kw)


class TestResponseVectors:
    def test_intel_pair_is_closest(self):
        from repro.machines.response import response_distance

        d_intel = response_distance(WESTMERE.response, SANDYBRIDGE.response)
        d_power = response_distance(WESTMERE.response, POWER7.response)
        d_arm = response_distance(WESTMERE.response, XGENE.response)
        assert d_intel < d_power < d_arm

    def test_distance_zero_for_identical(self):
        from repro.machines.response import response_distance

        assert response_distance(WESTMERE.response, WESTMERE.response) == 0.0

    def test_distance_rejects_nonpositive(self):
        from repro.machines.response import response_distance

        bad = ResponseVector(spill_sensitivity=0.0)
        with pytest.raises(ValueError):
            response_distance(bad, WESTMERE.response)

    def test_as_array_excludes_noise_dims(self):
        names = [f.name for f in dataclasses.fields(ResponseVector)]
        assert "noise_sigma" in names and "quirk_sigma" in names
        assert len(WESTMERE.response.as_array()) == len(names) - 2
