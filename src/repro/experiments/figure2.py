"""Figure 2 — decision tree from matrix-multiplication data on
Sandybridge.

The paper displays a regression tree whose splits involve the unroll
parameters (U_I, U_J, U_K) and register-tiling parameters (RT_I, RT_J,
RT_K) of the MM kernel, illustrating the recursive-partitioning
surrogate of Section III-A.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.kernels import get_kernel
from repro.machines import get_machine
from repro.ml.export import export_text
from repro.ml.tree import DecisionTreeRegressor
from repro.orio.evaluator import OrioEvaluator
from repro.utils.rng import spawn_rng

__all__ = ["Figure2Result", "run_figure2"]


@dataclass(frozen=True)
class Figure2Result:
    machine: str
    kernel: str
    tree_text: str
    split_features: tuple[str, ...]
    depth: int
    n_leaves: int

    def reproduced(self) -> bool:
        interesting = {"U_I", "U_J", "U_K", "RT_I", "RT_J", "RT_K"}
        return bool(interesting & set(self.split_features))

    def render(self) -> str:
        header = (
            f"Figure 2: decision tree from {self.kernel} data on {self.machine} "
            f"(depth {self.depth}, {self.n_leaves} leaves)\n"
            f"splits on: {', '.join(self.split_features)}\n"
        )
        return header + self.tree_text


def run_figure2(
    n_train: int = 200,
    machine: str = "sandybridge",
    max_depth: int = 3,
    seed: object = 0,
) -> Figure2Result:
    """Fit and render the Figure-2 style tree."""
    kernel = get_kernel("mm")
    rng = spawn_rng("figure2", str(seed))
    configs = kernel.space.sample(rng, n_train)
    evaluator = OrioEvaluator(kernel, get_machine(machine))
    y = np.array([evaluator.measure(c).runtime_seconds for c in configs])
    X = kernel.space.encode_many(configs)
    tree = DecisionTreeRegressor(max_depth=max_depth, min_samples_leaf=5)
    tree.fit(X, np.log(y))
    names = kernel.space.feature_names()
    assert tree.nodes is not None
    used = sorted(
        {names[f] for f in tree.nodes.feature if f >= 0},
        key=names.index,
    )
    return Figure2Result(
        machine=machine,
        kernel=kernel.name,
        tree_text=export_text(tree, feature_names=names),
        split_features=tuple(used),
        depth=tree.depth,
        n_leaves=tree.n_leaves,
    )
