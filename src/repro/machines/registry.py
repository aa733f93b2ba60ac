"""The five evaluation machines (Table II).

The Table II columns (processor, cores, clock, L1/L2/L3, memory) are
taken verbatim from the paper.  The cost-model parameters (bandwidths,
latencies, vector width, registers, issue width) are published-spec
estimates for each processor, recorded here with the reasoning:

* **Sandybridge** (E5-2687W): AVX, 8 DP flops/cycle (4-wide mul + add),
  16 vector registers, 4-wide issue, large OoO window, ~51 GB/s DDR3.
* **Westmere** (E5645): SSE4.2, 4 DP flops/cycle (2-wide mul + add),
  16 vector registers, ~32 GB/s.  Microarchitecturally the previous
  generation of the same product line — its response vector is nearly
  identical to Sandybridge's, which is exactly why the paper observes
  ρ > 0.8 between the two (Figure 1).
* **Xeon Phi** (7120a): 61 in-order cores, 512-bit vectors (8 doubles,
  16 flops/cycle with FMA), 32 vector registers, **no L3**, GDDR5 with
  high bandwidth but high latency.  In-order execution makes it far
  more sensitive to loop overhead, dependence-chain latency and
  alignment than the big cores.
* **Power 7+**: 4.2 GHz, VSX (2-wide FMA pipes → 8 flops/cycle),
  64 vector registers, 128-byte lines, 10 MB eDRAM L3 *per core*,
  aggressive prefetch.  Same big-core OoO design philosophy as the
  Intel servers — so the *high-performing* configuration region
  transfers — but different enough (line size, register file, L3
  organization) to depress the global correlation, matching Figure 4.
* **X-Gene** (APM883208-X1): first-generation ARMv8 server chip; modest
  2-wide OoO core, 2 DP flops/cycle, weak prefetchers, small 8 MB L3,
  low memory bandwidth, and an immature compiler backend (slow
  compilation — the paper could not collect MM/COR data on it).  Its
  response vector is far from every other machine, which is what breaks
  transfer (Section V, "Approach fails on dissimilar machines").
"""

from __future__ import annotations

from repro.errors import MachineError
from repro.machines.response import ResponseVector
from repro.machines.spec import CacheLevel, MachineSpec

__all__ = [
    "WESTMERE",
    "SANDYBRIDGE",
    "XEON_PHI",
    "POWER7",
    "XGENE",
    "MACHINES",
    "get_machine",
]

WESTMERE = MachineSpec(
    name="westmere",
    display_name="Intel E5645 (Westmere)",
    vendor="intel",
    isa="x86_64",
    cores=6,
    clock_ghz=2.4,
    caches=(
        CacheLevel("L1", 32, 4, 48),
        CacheLevel("L2", 256, 11, 32),
        CacheLevel("L3", 12 * 1024, 40, 16, shared=True),
    ),
    memory_gb=48,
    dram_bandwidth_gbs=32.0,
    dram_latency_ns=65.0,
    line_bytes=64,
    flops_per_cycle=4.0,
    vector_doubles=2,
    fp_registers=16,
    issue_width=4,
    out_of_order_window=128,
    smt_threads=2,
    compile_statements_per_sec=60_000.0,
    compile_overhead_s=0.8,
    response=ResponseVector(
        spill_sensitivity=1.0,
        loop_overhead_sensitivity=1.0,
        icache_sensitivity=1.0,
        latency_sensitivity=1.0,
        bandwidth_contention=1.0,
        prefetch_quality=1.0,
        tlb_sensitivity=1.0,
        vector_alignment_sensitivity=1.0,
        noise_sigma=0.02,
        quirk_sigma=0.05,
        systematic_compression=0.78,
    ),
)

SANDYBRIDGE = MachineSpec(
    name="sandybridge",
    display_name="Intel E5-2687W (Sandybridge)",
    vendor="intel",
    isa="x86_64",
    cores=8,
    clock_ghz=3.4,
    caches=(
        CacheLevel("L1", 32, 4, 64),
        CacheLevel("L2", 256, 12, 32),
        CacheLevel("L3", 20 * 1024, 38, 16, shared=True),
    ),
    memory_gb=64,
    dram_bandwidth_gbs=51.2,
    dram_latency_ns=60.0,
    line_bytes=64,
    flops_per_cycle=8.0,
    vector_doubles=4,
    fp_registers=16,
    issue_width=4,
    out_of_order_window=168,
    smt_threads=2,
    compile_statements_per_sec=90_000.0,
    compile_overhead_s=0.6,
    response=ResponseVector(
        spill_sensitivity=1.05,
        loop_overhead_sensitivity=0.95,
        icache_sensitivity=1.0,
        latency_sensitivity=0.95,
        bandwidth_contention=0.95,
        prefetch_quality=1.1,
        tlb_sensitivity=1.0,
        vector_alignment_sensitivity=1.05,
        noise_sigma=0.02,
        quirk_sigma=0.06,
        systematic_compression=0.75,
    ),
)

XEON_PHI = MachineSpec(
    name="xeonphi",
    display_name="Intel Xeon Phi 7120a",
    vendor="intel",
    isa="k1om",
    cores=61,
    clock_ghz=1.24,
    caches=(
        CacheLevel("L1", 32, 3, 64),
        CacheLevel("L2", 512, 24, 32),
    ),
    memory_gb=16,
    dram_bandwidth_gbs=170.0,
    dram_latency_ns=300.0,
    line_bytes=64,
    flops_per_cycle=16.0,
    vector_doubles=8,
    fp_registers=32,
    issue_width=2,
    out_of_order_window=0,  # in-order pipeline
    smt_threads=4,
    compile_statements_per_sec=40_000.0,
    compile_overhead_s=2.5,
    response=ResponseVector(
        spill_sensitivity=1.6,
        loop_overhead_sensitivity=2.2,
        icache_sensitivity=1.5,
        latency_sensitivity=2.5,
        bandwidth_contention=1.3,
        prefetch_quality=0.7,
        tlb_sensitivity=1.2,
        vector_alignment_sensitivity=2.0,
        noise_sigma=0.03,
        quirk_sigma=0.13,
        systematic_compression=0.95,
    ),
)

POWER7 = MachineSpec(
    name="power7",
    display_name="IBM Power7+",
    vendor="ibm",
    isa="ppc64",
    cores=6,
    clock_ghz=4.2,
    caches=(
        CacheLevel("L1", 32, 3, 64),
        CacheLevel("L2", 256, 8, 32),
        CacheLevel("L3", 10 * 1024, 27, 24, shared=False),  # 10 MB per core (Table II)
    ),
    memory_gb=128,
    dram_bandwidth_gbs=100.0,
    dram_latency_ns=90.0,
    line_bytes=128,
    flops_per_cycle=8.0,
    vector_doubles=2,
    fp_registers=64,
    issue_width=6,
    out_of_order_window=120,
    smt_threads=4,
    compile_statements_per_sec=55_000.0,
    compile_overhead_s=1.0,
    response=ResponseVector(
        spill_sensitivity=0.6,  # 64 VSX registers forgive register pressure
        loop_overhead_sensitivity=0.85,
        icache_sensitivity=1.3,
        latency_sensitivity=0.9,
        bandwidth_contention=0.85,
        prefetch_quality=1.5,  # aggressive hardware streams
        tlb_sensitivity=0.8,
        vector_alignment_sensitivity=0.9,
        noise_sigma=0.035,
        quirk_sigma=0.14,
        systematic_compression=0.68,
    ),
)

XGENE = MachineSpec(
    name="xgene",
    display_name="AppliedMicro X-Gene APM883208-X1",
    vendor="apm",
    isa="aarch64",
    cores=8,
    clock_ghz=2.4,
    caches=(
        CacheLevel("L1", 32, 5, 16),
        CacheLevel("L2", 256, 21, 12),
        CacheLevel("L3", 8 * 1024, 90, 8, shared=True),
    ),
    memory_gb=16,
    dram_bandwidth_gbs=25.0,
    dram_latency_ns=130.0,
    line_bytes=64,
    flops_per_cycle=2.0,
    vector_doubles=2,
    fp_registers=32,
    issue_width=2,
    out_of_order_window=32,
    smt_threads=1,
    # First-generation ARM server toolchain: very slow compiles — the
    # paper reports compilation times too high to collect MM/COR data.
    compile_statements_per_sec=2_500.0,
    compile_overhead_s=20.0,
    response=ResponseVector(
        spill_sensitivity=3.0,
        loop_overhead_sensitivity=2.4,  # narrow in-order-ish front end: branches cost
        icache_sensitivity=4.0,  # tiny effective I-cache: unrolling turns hostile fast
        latency_sensitivity=2.2,
        bandwidth_contention=1.8,
        prefetch_quality=0.35,
        tlb_sensitivity=2.5,
        vector_alignment_sensitivity=0.5,
        noise_sigma=0.09,
        quirk_sigma=0.55,
        systematic_compression=0.18,
    ),
)

MACHINES: dict[str, MachineSpec] = {
    m.name: m for m in (WESTMERE, SANDYBRIDGE, XEON_PHI, POWER7, XGENE)
}

_ALIASES = {
    "wm": "westmere",
    "sb": "sandybridge",
    "snb": "sandybridge",
    "phi": "xeonphi",
    "xeon_phi": "xeonphi",
    "xeon-phi": "xeonphi",
    "p7": "power7",
    "power": "power7",
    "arm": "xgene",
    "x-gene": "xgene",
}


def get_machine(name: str) -> MachineSpec:
    """Look a machine up by registry key or common alias."""
    key = name.strip().lower()
    key = _ALIASES.get(key, key)
    try:
        return MACHINES[key]
    except KeyError:
        raise MachineError(
            f"unknown machine {name!r}; known: {sorted(MACHINES)}"
        ) from None
