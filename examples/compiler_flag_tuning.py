#!/usr/bin/env python3
"""Tuning g++ flags for the raytracer with the OpenTuner-style stack.

Mirrors the paper's RT mini-application study: a 247-dimensional space
(143 on/off flags + 104 --param values) tuned on one machine with the
AUC-bandit meta-technique, then transferred to another machine with the
random-forest surrogate.

Run:  python examples/compiler_flag_tuning.py
"""

from repro.machines import get_machine
from repro.miniapps import MiniappEvaluator, make_raytracer
from repro.perf.simclock import SimClock
from repro.transfer import TransferSession
from repro.tuner import (
    AUCBanditMetaTechnique,
    GeneticAlgorithm,
    RandomTechnique,
    SimulatedAnnealing,
    warm_started_search,
)


def tune_locally() -> None:
    print("=== OpenTuner-style tuning on Sandybridge (60 rebuilds) ===")
    model = make_raytracer()
    evaluator = MiniappEvaluator(model, get_machine("sandybridge"), clock=SimClock())
    bandit = AUCBanditMetaTechnique(
        [
            RandomTechnique(),
            GeneticAlgorithm(population_size=12),
            SimulatedAnnealing(),
        ]
    )
    trace = warm_started_search(
        evaluator, model.space, bandit, nmax=60, seed_evaluations=0
    )
    best = trace.best()
    print(f"  best render time  : {best.runtime:.2f} s")
    print(f"  baseline (median) : {sorted(trace.runtimes())[len(trace.records) // 2]:.2f} s")
    print(f"  tuning wall time  : {evaluator.clock.now / 3600:.1f} simulated hours")
    print(f"  budget allocation : {bandit.allocation()}")
    enabled = [name for name, value in best.config.items()
               if value is True][:8]
    print(f"  some enabled flags: {', '.join('-' + f for f in enabled)}")


def transfer() -> None:
    print("\n=== transferring Westmere flag data to Sandybridge ===")
    model = make_raytracer()
    session = TransferSession(
        kernel=model,
        source=get_machine("westmere"),
        target=get_machine("sandybridge"),
        seed="rt-example",
        evaluator_factory=lambda machine, clock: MiniappEvaluator(
            model, machine, clock=clock
        ),
        variants=("RSb", "RSbf"),
    )
    outcome = session.run()
    print(outcome.summary_table())
    rho_p, rho_s = outcome.correlation()
    print(f"cross-machine correlation: rho_p={rho_p:.2f} rho_s={rho_s:.2f}")
    print("(flag landscapes are flat: expect Prf ~1.0, wins in search time only)")


if __name__ == "__main__":
    tune_locally()
    transfer()
