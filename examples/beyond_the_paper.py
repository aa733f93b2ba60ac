#!/usr/bin/env python3
"""Beyond the paper: warm-started heuristics and online refinement.

The paper's conclusion proposes two directions this library implements:
testing the transfer idea with "other sophisticated search algorithms",
and generalizing the approach.  This example runs both extensions on
the LU kernel (Westmere -> Sandybridge):

1. a genetic algorithm and an AUC bandit, cold vs. warm-started from
   the source-trained surrogate;
2. frozen RSb vs. RSb with online refits on target observations.

Run:  python examples/beyond_the_paper.py
"""

from repro.experiments.ablations import run_online, run_warm_start


def main() -> None:
    print(run_warm_start(seed="example").render())
    print()
    print(run_online(seed="example").render())


if __name__ == "__main__":
    main()
