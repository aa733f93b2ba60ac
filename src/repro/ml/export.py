"""Textual rendering of fitted decision trees.

Figure 2 of the paper displays the decision tree learned from
matrix-multiplication data on Sandybridge, with if/else rules over the
unroll (U_I, U_J, U_K) and register-tiling (RT_I, RT_J, RT_K)
parameters.  :func:`export_text` reproduces that view for any fitted
tree.
"""

from __future__ import annotations

from typing import Sequence

from repro.errors import NotFittedError
from repro.ml.tree import DecisionTreeRegressor

__all__ = ["export_text"]


def _names(tree: DecisionTreeRegressor, feature_names: Sequence[str] | None) -> list[str]:
    if tree.nodes is None:
        raise NotFittedError("cannot export an unfitted tree")
    p = tree._require_fitted()
    if feature_names is None:
        return [f"x{i}" for i in range(p)]
    names = list(feature_names)
    if len(names) != p:
        raise ValueError(f"got {len(names)} feature names for {p} features")
    return names


def export_text(
    tree: DecisionTreeRegressor,
    feature_names: Sequence[str] | None = None,
    max_depth: int | None = None,
) -> str:
    """Indented if/else rendering of a fitted tree (Figure 2 style)."""
    names = _names(tree, feature_names)
    nodes = tree.nodes
    assert nodes is not None
    lines: list[str] = []

    def walk(i: int, depth: int) -> None:
        pad = "|   " * depth
        if nodes.feature[i] == -1 or (max_depth is not None and depth >= max_depth):
            mean = format(nodes.value[i], ".4g")
            lines.append(f"{pad}|-- value: {mean}  (n={nodes.n_samples[i]})")
            return
        name = names[nodes.feature[i]]
        thr = format(nodes.threshold[i], ".4g")
        lines.append(f"{pad}|-- {name} <= {thr}")
        walk(nodes.left[i], depth + 1)
        lines.append(f"{pad}|-- {name} >  {thr}")
        walk(nodes.right[i], depth + 1)

    walk(0, 0)
    return "\n".join(lines)
