"""Nelder-Mead simplex search over the index-space embedding.

One of the search families Section II lists as deployed for autotuning.
The simplex lives in the continuous box of per-parameter indices;
proposals round to the nearest valid configuration.  When the simplex
collapses below one index step, it restarts from a random point.
"""

from __future__ import annotations

import numpy as np

from repro.searchspace.space import Configuration
from repro.tuner.technique import SearchTechnique

__all__ = ["NelderMead"]

#: The classic simplex coefficients.
ALPHA = 1.0  # reflection
GAMMA = 2.0  # expansion
RHO = 0.5  # contraction
SIGMA = 0.5  # shrink


class NelderMead(SearchTechnique):
    name = "nelder-mead"

    def __init__(self, seed: object = 0) -> None:
        super().__init__(seed=seed)
        self._vertices: list[np.ndarray] = []  # simplex points (index coords)
        self._values: list[float] = []
        self._phase = "init"  # init | reflect | expand | contract | shrink
        self._pending_point: np.ndarray | None = None
        self._reflect_value: float | None = None
        self._shrink_queue: list[int] = []

    # -- embedding ------------------------------------------------------
    def _bounds(self) -> np.ndarray:
        assert self.manipulator is not None
        return np.array(
            [p.cardinality - 1 for p in self.manipulator.space.parameters], dtype=float
        )

    def _decode(self, point: np.ndarray) -> Configuration:
        assert self.manipulator is not None
        space = self.manipulator.space
        values = {}
        for p, coord in zip(space.parameters, point):
            idx = int(np.clip(round(float(coord)), 0, p.cardinality - 1))
            values[p.name] = p.value_at(idx)
        return space.configuration(values)

    def _random_point(self) -> np.ndarray:
        assert self.rng is not None
        return self.rng.uniform(0, 1, size=len(self._bounds())) * self._bounds()

    # -- simplex operations ----------------------------------------------
    def _order(self) -> None:
        order = np.argsort(self._values)
        self._vertices = [self._vertices[i] for i in order]
        self._values = [self._values[i] for i in order]

    def _centroid(self) -> np.ndarray:
        return np.mean(self._vertices[:-1], axis=0)

    def _clip(self, point: np.ndarray) -> np.ndarray:
        return np.clip(point, 0.0, self._bounds())

    def _diameter(self) -> float:
        best = self._vertices[0]
        return max(float(np.max(np.abs(v - best))) for v in self._vertices[1:])

    def _restart(self) -> None:
        self._vertices = []
        self._values = []
        self._phase = "init"
        self._shrink_queue = []

    # -- propose/feedback --------------------------------------------------
    def propose(self) -> Configuration:
        self._require_bound()
        assert self.rng is not None
        self.n_proposals += 1
        dim = len(self._bounds())
        if self._phase == "init" or len(self._vertices) < dim + 1:
            self._phase = "init"
            self._pending_point = self._random_point()
            return self._decode(self._pending_point)
        self._order()
        if self._diameter() < 0.5:  # collapsed below one index step
            self._restart()
            self._pending_point = self._random_point()
            return self._decode(self._pending_point)
        centroid = self._centroid()
        worst = self._vertices[-1]
        if self._phase == "reflect":
            self._pending_point = self._clip(centroid + ALPHA * (centroid - worst))
        elif self._phase == "expand":
            reflected = centroid + ALPHA * (centroid - worst)
            self._pending_point = self._clip(centroid + GAMMA * (reflected - centroid))
        elif self._phase == "contract":
            self._pending_point = self._clip(centroid + RHO * (worst - centroid))
        elif self._phase == "shrink":
            i = self._shrink_queue[0]
            best = self._vertices[0]
            self._pending_point = self._clip(best + SIGMA * (self._vertices[i] - best))
        else:  # pragma: no cover - defensive
            self._phase = "reflect"
            return self.propose()
        return self._decode(self._pending_point)

    def feedback(self, config: Configuration, value: float) -> None:
        point = self._pending_point
        if point is None:
            return  # external feedback (warm start): ignored by the simplex
        dim = len(self._bounds())
        if self._phase == "init":
            self._vertices.append(point)
            self._values.append(value)
            if len(self._vertices) == dim + 1:
                self._phase = "reflect"
            self._pending_point = None
            return
        self._order()
        if self._phase == "reflect":
            if value < self._values[0]:
                self._reflect_value = value
                self._reflect_point = point
                self._phase = "expand"
            elif value < self._values[-2]:
                self._vertices[-1] = point
                self._values[-1] = value
                self._phase = "reflect"
            else:
                self._phase = "contract"
        elif self._phase == "expand":
            assert self._reflect_value is not None
            if value < self._reflect_value:
                self._vertices[-1] = point
                self._values[-1] = value
            else:
                self._vertices[-1] = self._reflect_point
                self._values[-1] = self._reflect_value
            self._reflect_value = None
            self._phase = "reflect"
        elif self._phase == "contract":
            if value < self._values[-1]:
                self._vertices[-1] = point
                self._values[-1] = value
                self._phase = "reflect"
            else:
                self._phase = "shrink"
                self._shrink_queue = list(range(1, len(self._vertices)))
        elif self._phase == "shrink":
            i = self._shrink_queue.pop(0)
            self._vertices[i] = point
            self._values[i] = value
            if not self._shrink_queue:
                self._phase = "reflect"
        self._pending_point = None
