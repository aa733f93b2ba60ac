"""Figure 1 — run times of LU variants on Westmere and Sandybridge.

The paper plots 200 LU configurations (each a loop-unroll / cache-tile
/ register-tile choice) on both machines and observes Pearson and
Spearman correlations above 0.8: the motivating evidence that good and
bad configurations transfer between the two generations.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.kernels import get_kernel
from repro.machines import get_machine
from repro.orio.evaluator import OrioEvaluator
from repro.utils.asciiplot import scatter_plot
from repro.utils.rng import spawn_rng
from repro.utils.stats import pearson, spearman

__all__ = ["Figure1Result", "run_figure1"]


@dataclass(frozen=True)
class Figure1Result:
    machine_a: str
    machine_b: str
    runtimes_a: np.ndarray
    runtimes_b: np.ndarray
    pearson: float
    spearman: float

    def reproduced(self) -> bool:
        return self.pearson > 0.8 and self.spearman > 0.8

    def render(self) -> str:
        plot = scatter_plot(
            self.runtimes_a,
            self.runtimes_b,
            xlabel=f"{self.machine_a} run time (s)",
            ylabel=f"{self.machine_b} run time (s)",
            title="Figure 1: LU code variants across machines",
            logx=True,
            logy=True,
        )
        stats = (
            f"rho_p = {self.pearson:.3f}   rho_s = {self.spearman:.3f}   "
            f"(paper: both > 0.8)   reproduced: {self.reproduced()}"
        )
        return plot + "\n" + stats


def run_figure1(
    n_configs: int = 200,
    machine_a: str = "westmere",
    machine_b: str = "sandybridge",
    kernel_name: str = "lu",
    seed: object = 0,
) -> Figure1Result:
    """Measure ``n_configs`` random variants on both machines."""
    kernel = get_kernel(kernel_name)
    rng = spawn_rng("figure1", str(seed))
    configs = kernel.space.sample(rng, n_configs)
    ev_a = OrioEvaluator(kernel, get_machine(machine_a))
    ev_b = OrioEvaluator(kernel, get_machine(machine_b))
    times_a = np.array([ev_a.measure(c).runtime_seconds for c in configs])
    times_b = np.array([ev_b.measure(c).runtime_seconds for c in configs])
    return Figure1Result(
        machine_a=machine_a,
        machine_b=machine_b,
        runtimes_a=times_a,
        runtimes_b=times_b,
        pearson=pearson(times_a, times_b),
        spearman=spearman(times_a, times_b),
    )
