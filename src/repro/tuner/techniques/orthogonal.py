"""Orthogonal search (cyclic coordinate descent).

Another family from Section II's list: optimize one parameter axis at a
time, evaluating every value along the current axis (or an evenly
spaced subset for wide axes) while holding the others fixed; move to
the best and advance to the next axis.  Classic in early autotuners
(e.g. ATLAS's parameter sweeps).
"""

from __future__ import annotations

import numpy as np

from repro.searchspace.space import Configuration
from repro.tuner.technique import SearchTechnique

__all__ = ["OrthogonalSearch"]

#: Values swept along one axis; a wider axis is sampled evenly.
MAX_VALUES_PER_AXIS = 8


class OrthogonalSearch(SearchTechnique):
    name = "orthogonal"

    def __init__(self, seed: object = 0) -> None:
        super().__init__(seed=seed)
        self._center: tuple[Configuration, float] | None = None
        self._axis = 0
        self._sweep: list[Configuration] = []
        self._sweep_results: list[tuple[Configuration, float]] = []
        self._pending: Configuration | None = None
        self._improved_this_cycle = False

    def _axis_candidates(self) -> list[Configuration]:
        assert self.manipulator is not None and self._center is not None
        space = self.manipulator.space
        param = space.parameters[self._axis]
        base = self._center[0]
        n = param.cardinality
        if n <= MAX_VALUES_PER_AXIS:
            indices = range(n)
        else:
            indices = sorted(
                {int(round(i)) for i in np.linspace(0, n - 1, MAX_VALUES_PER_AXIS)}
            )
        current = param.index_of(base[param.name])
        return [
            base.replace(**{param.name: param.value_at(i)})
            for i in indices
            if i != current
        ]

    def _advance_axis(self) -> None:
        assert self.manipulator is not None
        self._axis += 1
        if self._axis >= self.manipulator.space.dimension:
            self._axis = 0
            if not self._improved_this_cycle:
                # Converged: restart the sweep from a fresh random point.
                self._center = None
            self._improved_this_cycle = False

    def propose(self) -> Configuration:
        self._require_bound()
        assert self.manipulator is not None and self.rng is not None
        self.n_proposals += 1
        if self._center is None:
            self._pending = self.manipulator.random(self.rng)
            self._sweep = []
            self._sweep_results = []
            return self._pending
        while not self._sweep:
            self._sweep = self._axis_candidates()
            self._sweep_results = []
            if not self._sweep:
                self._advance_axis()
                if self._center is None:
                    self._pending = self.manipulator.random(self.rng)
                    return self._pending
        self._pending = self._sweep.pop(0)
        return self._pending

    def feedback(self, config: Configuration, value: float) -> None:
        if self._pending is None or config != self._pending:
            # External feedback: adopt anything better as the center.
            if self._center is None or value < self._center[1]:
                self._center = (config, value)
            return
        self._pending = None
        if self._center is None:
            self._center = (config, value)
            return
        self._sweep_results.append((config, value))
        if value < self._center[1]:
            self._center = (config, value)
            self._improved_this_cycle = True
        if not self._sweep:  # axis sweep complete
            self._advance_axis()

    @property
    def center(self) -> tuple[Configuration, float] | None:
        return self._center
