"""Empirical evaluation of code variants on simulated machines.

This is the mini-Orio's measurement stage: given a kernel configuration
it composes the transformations, analyzes the variant, and charges the
simulated clock for compiling and running it — exactly the costs a real
autotuning search pays per evaluation (Section IV-D's elapsed search
time).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import EvaluationError
from repro.machines.compiler import CompilerModel, GCC
from repro.machines.spec import MachineSpec
from repro.perf.simclock import SimClock
from repro.searchspace.space import Configuration

__all__ = ["Measurement", "OrioEvaluator"]


@dataclass(frozen=True)
class Measurement:
    """One empirical evaluation of a configuration."""

    config: Configuration
    runtime_seconds: float  # mean measured kernel run time (the objective)
    compile_seconds: float
    repetitions: int

    @property
    def evaluation_cost(self) -> float:
        """Simulated wall-clock cost of obtaining this measurement."""
        return self.compile_seconds + self.repetitions * self.runtime_seconds


class OrioEvaluator:
    """Evaluate configurations of one kernel on one machine.

    Parameters
    ----------
    kernel:
        A :class:`repro.kernels.base.SpaptKernel` (anything exposing
        ``space``, ``tag``, ``metrics_for`` and ``scalar_options``).
    machine, compiler:
        Target platform.
    threads:
        OpenMP thread count used when ``openmp=True``.
    openmp:
        Run variants in parallel (the paper's Xeon Phi experiments add
        OpenMP pragmas and use 8/8/60 threads; the base SPAPT runs are
        serial).
    repetitions:
        Timing runs per variant; the reported runtime is their mean.
    clock:
        Optional shared :class:`SimClock`; every call to
        :meth:`evaluate` advances it by the evaluation cost.
    """

    def __init__(
        self,
        kernel,
        machine: MachineSpec,
        compiler: CompilerModel = GCC,
        threads: int = 1,
        openmp: bool = False,
        repetitions: int = 1,
        clock: SimClock | None = None,
        quirk_sigma: float | None = None,
    ) -> None:
        if repetitions < 1:
            raise EvaluationError(f"repetitions must be >= 1, got {repetitions}")
        if quirk_sigma is not None and quirk_sigma < 0:
            raise EvaluationError(f"quirk_sigma must be >= 0, got {quirk_sigma}")
        compiler.check_supports(machine)
        self.kernel = kernel
        self.machine = machine
        self.compiler = compiler
        self.openmp = openmp
        self.repetitions = repetitions
        self.clock = clock if clock is not None else SimClock()
        self.quirk_sigma = quirk_sigma
        # Imported here: repro.perf.costmodel imports repro.orio.analysis,
        # so a module-level import would be circular via the package
        # __init__ files.
        from repro.perf.costmodel import CostModel

        self.cost_model = CostModel(machine, compiler, threads=threads)
        self.n_evaluations = 0

    # ------------------------------------------------------------------
    def measure(self, config: Configuration) -> Measurement:
        """Measure one configuration without advancing the clock."""
        if config.space is not self.kernel.space:
            raise EvaluationError(
                f"configuration belongs to space {config.space.name!r}, "
                f"not kernel {self.kernel.name!r}"
            )
        options = self.kernel.scalar_options(config)
        metrics_list = self.kernel.metrics_for(config)
        is_default = config.index == 0
        runtime = 0.0
        compile_time = 0.0
        for nest_idx, metrics in enumerate(metrics_list):
            compile_time += self.cost_model.compile_seconds(metrics)
            reps = []
            for rep in range(self.repetitions):
                reps.append(
                    self.cost_model.runtime_seconds(
                        metrics,
                        config_key=(config.index, nest_idx),
                        kernel_tag=self.kernel.tag,
                        vectorize=bool(options.get("vectorize", True)),
                        scalar_replacement=bool(options.get("scalar_replacement", True)),
                        parallel=self.openmp,
                        is_default=is_default,
                        rep=rep,
                        quirk_sigma=self.quirk_sigma,
                    )
                )
            runtime += sum(reps) / len(reps)
        return Measurement(
            config=config,
            runtime_seconds=runtime,
            compile_seconds=compile_time,
            repetitions=self.repetitions,
        )

    def evaluate(self, config: Configuration) -> Measurement:
        """Measure a configuration and charge the simulated clock.

        Raises :class:`repro.errors.BudgetExhaustedError` when the
        clock's budget cannot afford the evaluation (the paper's
        X-Gene data-collection failure mode).
        """
        m = self.measure(config)
        self.clock.advance(m.evaluation_cost)
        self.n_evaluations += 1
        return m

    def __call__(self, config: Configuration) -> float:
        """Objective-function view: evaluate and return the runtime."""
        return self.evaluate(config).runtime_seconds
