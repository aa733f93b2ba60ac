#!/usr/bin/env python3
"""Quickstart: transfer-accelerated autotuning in ~20 lines.

Reproduces the paper's core workflow on its flagship pair: collect LU
autotuning data on (simulated) Intel Westmere, fit a random-forest
surrogate, and use it to bias the search on Sandybridge — then compare
every variant against plain random search.

Run:  python examples/quickstart.py
"""

from repro import TransferSession, TunerSpec, get_machine
from repro.kernels import get_kernel
from repro.utils.asciiplot import Series, step_plot


def main() -> None:
    session = TransferSession(
        kernel=get_kernel("LU"),
        source=get_machine("westmere"),
        target=get_machine("sandybridge"),
        nmax=100,  # evaluation budget per search (the paper's setting)
        # Tuner hyperparameters live in one spec: 10,000 configurations
        # ranked by the surrogate, the paper's setting.
        spec=TunerSpec().with_value("pool.size", 10_000),
        seed="quickstart",
    )
    outcome = session.run()

    print(outcome.summary_table())
    rho_p, rho_s = outcome.correlation()
    print(f"\nsource/target correlation: rho_p={rho_p:.2f}, rho_s={rho_s:.2f}")

    series = []
    for name, marker in (("RS", "."), ("RSp", "p"), ("RSb", "b")):
        xs, ys = outcome.traces[name].best_so_far()
        series.append(Series(name, xs, ys, marker=marker))
    print()
    print(step_plot(series, title="LU on Sandybridge: best run time vs search time"))

    best = outcome.traces["RSb"].best()
    print("\nbest configuration found by RSb:")
    for param, value in best.config.items():
        print(f"  {param:6s} = {value}")
    print(f"  run time = {best.runtime:.3f} s")


if __name__ == "__main__":
    main()
