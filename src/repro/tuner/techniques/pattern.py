"""Coordinate pattern search (Hooke-Jeeves flavoured).

Walks parameter axes in index space with a shrinking step, polling
``+step`` and ``-step`` around the incumbent; restarts from a random
point when the step bottoms out.
"""

from __future__ import annotations

from repro.searchspace.space import Configuration
from repro.tuner.technique import SearchTechnique

__all__ = ["PatternSearch"]

#: Index step a walk starts (and restarts) with.
INITIAL_STEP = 4


class PatternSearch(SearchTechnique):
    name = "pattern"

    def __init__(self, seed: object = 0) -> None:
        super().__init__(seed=seed)
        self._incumbent: tuple[Configuration, float] | None = None
        self._step = INITIAL_STEP
        self._axis = 0
        self._direction = +1
        self._pending: Configuration | None = None

    def _poll_point(self) -> Configuration | None:
        """The next poll move, or None if it falls outside the domain."""
        assert self.manipulator is not None and self._incumbent is not None
        space = self.manipulator.space
        base = self._incumbent[0]
        param = space.parameters[self._axis]
        idx = param.index_of(base[param.name]) + self._direction * self._step
        if not 0 <= idx < param.cardinality:
            return None
        return base.replace(**{param.name: param.value_at(idx)})

    def _advance_pattern(self) -> None:
        """Move to the next (axis, direction); shrink when a sweep ends."""
        assert self.manipulator is not None
        if self._direction == +1:
            self._direction = -1
            return
        self._direction = +1
        self._axis += 1
        if self._axis >= self.manipulator.space.dimension:
            self._axis = 0
            self._step = max(1, self._step // 2) if self._step > 1 else 0

    def propose(self) -> Configuration:
        self._require_bound()
        assert self.manipulator is not None and self.rng is not None
        self.n_proposals += 1
        if self._incumbent is None or self._step == 0:
            # (Re)start: random point, full step.
            self._step = INITIAL_STEP
            self._axis = 0
            self._direction = +1
            self._incumbent = None
            self._pending = self.manipulator.random(self.rng)
            return self._pending
        for _ in range(2 * self.manipulator.space.dimension):
            candidate = self._poll_point()
            self._advance_pattern()
            if candidate is not None and candidate != self._incumbent[0]:
                self._pending = candidate
                return candidate
            if self._step == 0:
                break
        # Pattern exhausted without a valid poll: restart.
        self._step = INITIAL_STEP
        self._pending = self.manipulator.random(self.rng)
        return self._pending

    def feedback(self, config: Configuration, value: float) -> None:
        if self._incumbent is None or value < self._incumbent[1]:
            self._incumbent = (config, value)
