"""Machine-model validation against textbook microbenchmarks.

The credibility of every experiment rests on the machine models
behaving like their namesakes.  This module runs two classic
microbenchmarks *through the same cost-model path the kernels use* and
reports the achieved numbers against the specification:

* **STREAM triad** (``a[i] = b[i] + s*c[i]``): achieved memory
  bandwidth should be a realistic fraction of the DRAM specification
  (single-core runs cannot saturate the chip).
* **Tuned DGEMM** (a well-blocked matrix multiply): achieved flop rate
  should be a substantial fraction of core peak, and far above the
  naive untiled variant.

The validation table is regenerated by ``benchmarks/`` and the bounds
are asserted by the test suite; if someone retunes the cost model into
something unphysical, these are the tests that catch it.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.kernels import get_kernel
from repro.machines import GCC, MACHINES
from repro.machines.spec import MachineSpec
from repro.orio.analysis import analyze_nest
from repro.orio.parser import parse_loop_nest
from repro.orio.transforms.pipeline import TransformPlan
from repro.perf.costmodel import CostModel
from repro.utils.tables import format_table

__all__ = ["MachineValidation", "validate_machine", "validation_table"]

_TRIAD_N = 8_000_000  # elements, far beyond any cache

_TRIAD_SRC = "for (i = 0; i <= N-1; i++) a[i] = b[i] + 3 * c[i];"


@dataclass(frozen=True)
class MachineValidation:
    """Microbenchmark results for one machine model."""

    machine: str
    triad_bandwidth_gbs: float
    spec_bandwidth_gbs: float
    dgemm_gflops: float
    naive_gflops: float
    peak_gflops_core: float

    @property
    def triad_fraction(self) -> float:
        """Achieved single-core fraction of the chip DRAM bandwidth."""
        return self.triad_bandwidth_gbs / self.spec_bandwidth_gbs

    @property
    def dgemm_efficiency(self) -> float:
        """Tuned DGEMM's fraction of single-core peak."""
        return self.dgemm_gflops / self.peak_gflops_core

    @property
    def blocking_speedup(self) -> float:
        """Tuned over naive matrix multiply."""
        return self.dgemm_gflops / self.naive_gflops


def _triad_time(machine: MachineSpec) -> float:
    nest = parse_loop_nest(_TRIAD_SRC, consts={"N": _TRIAD_N})
    metrics = analyze_nest(nest)
    model = CostModel(machine, GCC)
    # Deterministic physics only: no quirk/noise for calibration.
    bd = model.breakdown(metrics)
    return bd.total_cycles / machine.clock_hz


def _dgemm_times(machine: MachineSpec) -> tuple[float, float, float]:
    """(tuned seconds, naive seconds, flops) of a 512^3 matmul."""
    kernel = get_kernel("mm", n=512)
    nest = kernel.nests[0].nest
    naive = analyze_nest(nest)
    # A reasonable blocked/unrolled configuration (not exhaustively
    # tuned — "well-blocked", like a decent hand optimization).
    plan = TransformPlan(
        tile={"i": 64, "j": 64, "k": 64},
        regtile={"i": 2, "j": 2},
        unroll={"k": 4},
    )
    tuned = analyze_nest(nest, plan)
    model = CostModel(machine, GCC)
    t_tuned = model.breakdown(tuned).total_cycles / machine.clock_hz
    t_naive = model.breakdown(naive).total_cycles / machine.clock_hz
    return t_tuned, t_naive, naive.flops


def validate_machine(machine: MachineSpec) -> MachineValidation:
    """Run the microbenchmarks through one machine model."""
    triad_seconds = _triad_time(machine)
    triad_bytes = 3.0 * _TRIAD_N * 8.0  # two loads + one store
    t_tuned, t_naive, flops = _dgemm_times(machine)
    return MachineValidation(
        machine=machine.name,
        triad_bandwidth_gbs=triad_bytes / triad_seconds / 1e9,
        spec_bandwidth_gbs=machine.dram_bandwidth_gbs,
        dgemm_gflops=flops / t_tuned / 1e9,
        naive_gflops=flops / t_naive / 1e9,
        peak_gflops_core=machine.peak_gflops_core,
    )


def validation_table() -> str:
    """The full calibration report over all five machines."""
    rows = []
    for machine in MACHINES.values():
        v = validate_machine(machine)
        rows.append(
            [
                v.machine,
                v.triad_bandwidth_gbs,
                v.spec_bandwidth_gbs,
                f"{v.triad_fraction:.0%}",
                v.dgemm_gflops,
                v.peak_gflops_core,
                f"{v.dgemm_efficiency:.0%}",
                f"{v.blocking_speedup:.1f}x",
            ]
        )
    return format_table(
        [
            "machine", "triad GB/s", "spec GB/s", "frac",
            "dgemm GF/s", "peak GF/s", "eff", "blocking",
        ],
        rows,
        title="machine-model calibration (single core, gcc -O3)",
    )
