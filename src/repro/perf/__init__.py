"""Performance simulation: cost model, noise, and the simulated clock.

This package converts the machine-independent :class:`~repro.orio
.analysis.VariantMetrics` of a code variant into a runtime on a
:class:`~repro.machines.MachineSpec`, and accounts the simulated
wall-clock time an autotuning search spends compiling and running
variants (the quantity behind the paper's search-time speedups).
"""

from repro.perf.simclock import SimClock
from repro.perf.noise import measurement_noise, machine_quirk
from repro.perf.roofline import arithmetic_intensity, roofline_time
from repro.perf.costmodel import CostModel, CostBreakdown

__all__ = [
    "SimClock",
    "measurement_noise",
    "machine_quirk",
    "arithmetic_intensity",
    "roofline_time",
    "CostModel",
    "CostBreakdown",
]
