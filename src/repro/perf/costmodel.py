"""The analytic cost model: variant metrics × machine → runtime.

Structure (all times in core cycles, converted to seconds at the end):

* **Compute time** — flops at an effective rate combining the scalar
  pipeline, SIMD speedup (compiler vector quality × stride-1 fraction ×
  alignment), and instruction-level parallelism exposed by the unrolled
  body versus the machine's out-of-order capability.
* **L1 port time** — every load/store occupies the L1 port; scalar
  replacement removes the per-iteration store of reduction targets.
* **Bandwidth time** — per cache level, traffic from the classical
  working-set model (:meth:`VariantMetrics.traffic_bytes`) divided by
  that level's bandwidth; DRAM traffic at chip bandwidth.
* **Latency time** — DRAM misses exposed according to prefetcher
  quality, access regularity, and out-of-order memory-level
  parallelism.
* **Overhead time** — loop-header executions (branch + induction).
* **Multiplicative penalties** — register spill (demand over the
  architectural file), instruction-cache overflow of the unrolled body,
  TLB pressure for large-stride footprints.

Machine *response vectors* scale each penalty; the shared physical core
of the model is what makes configuration rankings correlate across
machines, and the response distance is what breaks the correlation on
dissimilar architectures (X-Gene).  Finally a systematic per-(machine,
configuration) quirk and per-repetition measurement noise are applied
(:mod:`repro.perf.noise`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.errors import EvaluationError
from repro.machines.compiler import CompilerModel
from repro.machines.spec import MachineSpec
from repro.orio.analysis import ELEM_BYTES, VariantMetrics
from repro.perf.noise import machine_quirk, measurement_noise

__all__ = ["CostBreakdown", "CostModel"]

_FP_CHAIN_LATENCY = 4.0  # cycles of a dependent FMA/add chain
_HEADER_CYCLES = 2.0  # compare + increment + branch per loop header
_ICACHE_STATEMENTS = 1500.0  # unrolled statements that fit the I-cache comfortably
_CACHE_UTILIZATION = 0.75  # usable fraction of capacity (conflict misses)
_SERIAL_BW_FRACTION = 0.55  # single core cannot saturate chip DRAM bandwidth
_PAGE_BYTES = 4096.0


@dataclass(frozen=True)
class CostBreakdown:
    """Per-component cycles for one variant on one machine (pre-noise)."""

    compute_cycles: float
    l1_cycles: float
    bandwidth_cycles: float
    latency_cycles: float
    overhead_cycles: float
    spill_factor: float
    icache_factor: float
    tlb_factor: float
    vector_speedup: float
    ilp_efficiency: float
    total_cycles: float
    dram_bytes: float

    @property
    def bound(self) -> str:
        """Which component dominates: 'compute', 'memory' or 'overhead'."""
        core = self.compute_cycles + self.l1_cycles
        mem = self.bandwidth_cycles + self.latency_cycles
        if self.overhead_cycles > max(core, mem):
            return "overhead"
        return "compute" if core >= mem else "memory"


class CostModel:
    """Prices code variants on a machine with a given compiler.

    Parameters
    ----------
    machine, compiler:
        The target platform (γ and the compiler part of β, Section II).
    threads:
        OpenMP threads used when a variant enables OpenMP (the paper
        uses 8 on Westmere/Sandybridge and 60 on the Xeon Phi for
        Figure 5); 1 disables parallel execution.
    """

    def __init__(
        self,
        machine: MachineSpec,
        compiler: CompilerModel,
        threads: int = 1,
    ) -> None:
        compiler.check_supports(machine)
        if threads < 1:
            raise EvaluationError(f"threads must be >= 1, got {threads}")
        self.machine = machine
        self.compiler = compiler
        self.threads = min(threads, machine.cores * machine.smt_threads)

    # ------------------------------------------------------------------
    def _vector_speedup(self, metrics: VariantMetrics, vectorize: bool) -> tuple[float, float]:
        """(vector speedup, alignment factor) for the innermost body."""
        mach = self.machine
        vl = mach.vector_doubles
        if vl <= 1:
            return 1.0, 1.0
        quality = self.compiler.vector_quality if vectorize else 0.25 * self.compiler.vector_quality
        usable = metrics.stride1_fraction
        # Alignment: register blocks that are not a multiple of the
        # vector length waste lanes; in-order wide-vector machines
        # (Xeon Phi) punish this hard.
        innermost = metrics.levels[-1]
        block = innermost.unroll if innermost.unroll > 1 else 1
        if block % vl == 0 or block >= 4 * vl:
            align = 1.0
        else:
            waste = 1.0 - (block % vl) / vl if block > vl else 1.0 - block / vl
            align = 1.0 / (1.0 + 0.4 * waste * mach.response.vector_alignment_sensitivity)
        speedup = 1.0 + (vl - 1.0) * quality * usable * align
        return speedup, align

    def _ilp_efficiency(self, metrics: VariantMetrics) -> float:
        """Fraction of issue slots filled given the dependence structure.

        Reduction-style bodies need ``_FP_CHAIN_LATENCY`` independent
        operations in flight; out-of-order hardware finds them across
        iterations, in-order hardware only sees what unrolling exposes.
        """
        mach = self.machine
        ooo_parallelism = mach.out_of_order_window / 24.0  # ops the core finds itself
        exposed = ooo_parallelism + metrics.replication
        needed = _FP_CHAIN_LATENCY
        eff = min(1.0, (0.35 + exposed / needed) / (1.0 + 0.35))
        return max(0.1, eff)

    def _spill_factor(self, metrics: VariantMetrics) -> float:
        """Spill penalty, log-compressed: spilled values live in L1, so
        even grossly over-subscribed register blocks slow down by a
        bounded factor, not proportionally."""
        mach = self.machine
        demand = metrics.register_demand
        regs = float(mach.fp_registers)
        if demand <= regs:
            return 1.0
        over = math.log2(demand / regs)
        return 1.0 + 0.35 * mach.response.spill_sensitivity * over

    def _icache_factor(self, metrics: VariantMetrics) -> float:
        """Front-end penalty once the unrolled body outgrows the
        instruction cache.  The sensitivity both shrinks the machine's
        comfortable-code-size threshold and steepens the slope, so a
        small-I-cache core (X-Gene) turns hostile to unrolling at
        factors a big Xeon digests easily."""
        mach = self.machine
        sens = mach.response.icache_sensitivity
        threshold = _ICACHE_STATEMENTS / (sens * sens)
        stmts = float(metrics.statements_generated)
        if stmts <= threshold:
            return 1.0
        over = math.log2(stmts / threshold)
        return 1.0 + 0.10 * sens * over

    def _tlb_factor(self, metrics: VariantMetrics) -> float:
        """Penalty for working sets spanning many pages with poor
        spatial order (large tiles of large-stride data)."""
        mach = self.machine
        ws = metrics.working_set_bytes(0)
        pages = ws / _PAGE_BYTES
        if pages <= 512.0:  # covered by a typical L2 TLB
            return 1.0
        over = math.log2(pages / 512.0)
        sparse = 1.0 - 0.5 * metrics.stride1_fraction
        return 1.0 + 0.04 * mach.response.tlb_sensitivity * sparse * over

    # ------------------------------------------------------------------
    def breakdown(
        self,
        metrics: VariantMetrics,
        vectorize: bool = True,
        scalar_replacement: bool = True,
        parallel: bool = False,
    ) -> CostBreakdown:
        """Deterministic (pre-noise) cost components for a variant."""
        mach = self.machine
        comp = self.compiler
        threads = self.threads if parallel else 1
        cores_active = min(threads, mach.cores)

        work_share = 1.0 / threads if parallel else 1.0
        parallel_eff = 1.0 if threads == 1 else 0.92  # fork/join + imbalance

        # --- compute -----------------------------------------------------
        vec_speedup, _align = self._vector_speedup(metrics, vectorize)
        ilp = self._ilp_efficiency(metrics)
        scalar_rate = (mach.flops_per_cycle / mach.vector_doubles) * comp.scalar_quality
        rate = scalar_rate * vec_speedup * ilp  # flops per cycle per core
        compute_cycles = metrics.flops * work_share / rate

        # --- L1 port pressure ---------------------------------------------
        mem_refs = metrics.loads + metrics.stores
        if scalar_replacement:
            # Reduction targets stay in registers; remove their
            # per-iteration store+reload.
            inner_trip = metrics.levels[-1].trip
            saved = metrics.invariant_fraction * mem_refs * (1.0 - 1.0 / max(1.0, inner_trip))
            mem_refs -= saved
        l1 = mach.caches[0]
        l1_cycles = mem_refs * ELEM_BYTES * work_share / l1.bandwidth_bytes_per_cycle
        if vec_speedup > 1.0:
            l1_cycles /= min(vec_speedup, mach.vector_doubles * 0.75)

        # --- cache/DRAM bandwidth ------------------------------------------
        bandwidth_cycles = 0.0
        dram_bytes = 0.0
        for i, level in enumerate(mach.caches):
            if i == 0:
                continue  # L1 handled as port pressure above
            upper = mach.caches[i - 1]
            traffic = metrics.traffic_bytes(
                upper.effective_size_bytes(cores_active) * _CACHE_UTILIZATION,
                mach.line_bytes,
            )
            bandwidth_cycles += traffic * work_share / level.bandwidth_bytes_per_cycle
        last = mach.caches[-1]
        dram_bytes = metrics.traffic_bytes(
            last.effective_size_bytes(cores_active) * _CACHE_UTILIZATION, mach.line_bytes
        )
        chip_bw = mach.dram_bytes_per_cycle
        if threads == 1:
            chip_bw *= _SERIAL_BW_FRACTION
        else:
            chip_bw /= mach.response.bandwidth_contention
        dram_cycles = dram_bytes / chip_bw  # chip-level: no work_share
        bandwidth_cycles += dram_cycles

        # --- exposed latency ------------------------------------------------
        dram_lines = dram_bytes / mach.line_bytes
        latency_cycles_per_miss = mach.dram_latency_ns * mach.clock_ghz
        prefetch_cover = min(
            0.95, 0.75 * mach.response.prefetch_quality * (0.4 + 0.6 * metrics.stride1_fraction)
        )
        mlp = 1.0 + mach.out_of_order_window / 24.0
        latency_cycles = (
            dram_lines
            * work_share
            * latency_cycles_per_miss
            * (1.0 - prefetch_cover)
            * mach.response.latency_sensitivity
            / mlp
        )

        # --- loop overhead ---------------------------------------------------
        overhead_cycles = (
            metrics.header_executions
            * work_share
            * _HEADER_CYCLES
            * mach.response.loop_overhead_sensitivity
            / max(1.0, mach.issue_width / 2.0)
        )

        # --- multiplicative penalties -----------------------------------------
        spill = self._spill_factor(metrics)
        icache = self._icache_factor(metrics)
        tlb = self._tlb_factor(metrics)

        core_cycles = (compute_cycles * spill + l1_cycles + overhead_cycles) * icache
        mem_cycles = (bandwidth_cycles + latency_cycles) * tlb
        total = max(core_cycles, mem_cycles) + 0.15 * min(core_cycles, mem_cycles)
        total /= parallel_eff

        return CostBreakdown(
            compute_cycles=compute_cycles,
            l1_cycles=l1_cycles,
            bandwidth_cycles=bandwidth_cycles,
            latency_cycles=latency_cycles,
            overhead_cycles=overhead_cycles,
            spill_factor=spill,
            icache_factor=icache,
            tlb_factor=tlb,
            vector_speedup=vec_speedup,
            ilp_efficiency=ilp,
            total_cycles=total,
            dram_bytes=dram_bytes,
        )

    # ------------------------------------------------------------------
    def runtime_seconds(
        self,
        metrics: VariantMetrics,
        config_key: object,
        kernel_tag: str = "",
        vectorize: bool = True,
        scalar_replacement: bool = True,
        parallel: bool = False,
        is_default: bool = False,
        rep: int = 0,
        quirk_sigma: float | None = None,
    ) -> float:
        """Simulated runtime of one timing run of a variant.

        ``config_key`` identifies the configuration (for the systematic
        machine quirk); ``rep`` distinguishes repeated runs.  When the
        compiler recognizes the kernel idiom (icc on plain MM), the
        default variant takes the idiom fast path and transformed
        variants pay the interference penalty, per Section V.
        """
        bd = self.breakdown(
            metrics,
            vectorize=vectorize,
            scalar_replacement=scalar_replacement,
            parallel=parallel,
        )
        seconds = bd.total_cycles / self.machine.clock_hz

        gamma = self.machine.response.systematic_compression
        if gamma != 1.0:
            # Compress systematic variant-to-variant differences around
            # the machine's roofline reference time (see ResponseVector.
            # systematic_compression).
            ref = self._reference_seconds(metrics, parallel)
            seconds = ref * (seconds / ref) ** gamma

        if self.compiler.recognizes_idiom(kernel_tag):
            threads = self.threads if parallel else 1
            idiom_gflops = (
                self.machine.peak_gflops_core
                * min(threads, self.machine.cores)
                * self.compiler.idiom_quality
            )
            idiom_seconds = metrics.flops / (idiom_gflops * 1e9)
            if is_default:
                seconds = min(seconds, idiom_seconds)
            else:
                # The compiler re-canonicalizes the recognized idiom, so
                # manual source-level transforms mostly wash out: the
                # variant lands near the idiom time, pays the pattern-
                # interference penalty, and keeps only a small residual
                # of its structural differences.
                residual = max(seconds / idiom_seconds, 1.0) ** self.compiler.idiom_flatten
                seconds = idiom_seconds * (1.0 + self.compiler.interference_penalty) * residual

        if quirk_sigma is None:
            quirk_sigma = self.machine.response.quirk_sigma
        seconds *= machine_quirk(quirk_sigma, self.machine.name, (kernel_tag, config_key))
        seconds *= measurement_noise(
            self.machine.response.noise_sigma, self.machine.name, (kernel_tag, config_key), rep
        )
        return seconds

    def _reference_seconds(self, metrics: VariantMetrics, parallel: bool) -> float:
        """Roofline reference point: ideal compute vs. compulsory-traffic
        time — configuration-independent for a fixed kernel."""
        mach = self.machine
        threads = self.threads if parallel else 1
        compute = metrics.flops / (0.5 * mach.peak_gflops_core * 1e9 * threads)
        bw = mach.dram_bandwidth_gbs * 1e9
        if threads == 1:
            bw *= _SERIAL_BW_FRACTION
        memory = metrics.working_set_bytes(0) / bw
        return max(compute, memory)

    def compile_seconds(self, metrics: VariantMetrics) -> float:
        """Simulated compile time of the variant on this machine."""
        return self.compiler.compile_time(self.machine, metrics.statements_generated)
