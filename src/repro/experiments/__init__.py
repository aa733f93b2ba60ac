"""Experiment harness: one module per paper table and figure.

Every experiment is a pure function of its seed and returns a typed
result object with a ``render()`` method that prints the same rows or
series the paper reports.  ``benchmarks/`` regenerates each of them.

Experiments that vary tuner hyperparameters — the δ and pool sweeps,
the hybrid ablation, the variance study and the meta campaign
(:mod:`repro.meta.campaign`) — all run on one sweep driver,
:func:`~repro.experiments.harness.score_specs`: it scores each
(spec × problem × pair × seed) cell through
:func:`~repro.experiments.harness.evaluate_spec` as one journaled
:func:`~repro.experiments.harness.grid_map` cell.

=================  ==================================================
module             paper artefact
=================  ==================================================
figure1            Fig. 1 — LU variants on Westmere vs. Sandybridge
figure2            Fig. 2 — decision tree from MM data on Sandybridge
figure3            Fig. 3 — Westmere -> Sandybridge search panels
figure4            Fig. 4 — Sandybridge -> Power 7 search panels
figure5            Fig. 5 — Sandybridge -> Xeon Phi (icc + OpenMP)
table1             Table I — Orio transformations and ranges
table2             Table II — machine specifications
table3             Table III — kernel search problems
table4             Table IV — biased-variant speedups, all pairs (gcc)
table5             Table V — Xeon Phi experiments (icc)
ablations          extensions: delta sweep, surrogate choice,
                   pool-size sweep, machine-dissimilarity analysis
=================  ==================================================
"""

from repro.experiments.harness import (
    PROBLEMS,
    build_problem,
    build_session,
    evaluate_spec,
    score_specs,
)
from repro.experiments.figure1 import Figure1Result, run_figure1
from repro.experiments.figure2 import Figure2Result, run_figure2
from repro.experiments.figure3 import PanelResult, run_figure3
from repro.experiments.figure4 import run_figure4
from repro.experiments.figure5 import run_figure5
from repro.experiments.table1 import run_table1
from repro.experiments.table2 import run_table2
from repro.experiments.table3 import run_table3
from repro.experiments.table4 import Table4Result, run_table4
from repro.experiments.table5 import run_table5

__all__ = [
    "PROBLEMS",
    "build_problem",
    "build_session",
    "evaluate_spec",
    "score_specs",
    "Figure1Result",
    "run_figure1",
    "Figure2Result",
    "run_figure2",
    "PanelResult",
    "run_figure3",
    "run_figure4",
    "run_figure5",
    "run_table1",
    "run_table2",
    "run_table3",
    "Table4Result",
    "run_table4",
    "run_table5",
]
