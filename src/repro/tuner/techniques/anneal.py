"""Simulated annealing with a geometric cooling schedule."""

from __future__ import annotations

import math

from repro.searchspace.space import Configuration
from repro.tuner.technique import SearchTechnique

__all__ = ["SimulatedAnnealing"]

#: Starting acceptance temperature, its geometric cooling factor per
#: feedback, and the floor it cools to.
INITIAL_TEMPERATURE = 0.3
COOLING = 0.97
MIN_TEMPERATURE = 1e-3


class SimulatedAnnealing(SearchTechnique):
    """Single-chain annealing over manipulator neighbours.

    The acceptance temperature is expressed *relatively* (fractional
    objective change), so no problem-specific scale is needed.
    """

    name = "anneal"

    def __init__(self, seed: object = 0) -> None:
        super().__init__(seed=seed)
        self.temperature = INITIAL_TEMPERATURE
        self._current: tuple[Configuration, float] | None = None
        self._pending: Configuration | None = None

    def propose(self) -> Configuration:
        self._require_bound()
        assert self.manipulator is not None and self.rng is not None
        self.n_proposals += 1
        if self._current is None:
            self._pending = self.manipulator.random(self.rng)
        else:
            self._pending = self.manipulator.neighbor(self._current[0], self.rng)
        return self._pending

    def feedback(self, config: Configuration, value: float) -> None:
        assert self.rng is not None
        if self._current is None:
            self._current = (config, value)
            return
        cur_value = self._current[1]
        if value <= cur_value:
            accept = True
        else:
            rel = (value - cur_value) / max(cur_value, 1e-12)
            accept = self.rng.random() < math.exp(-rel / max(self.temperature, 1e-12))
        if accept:
            self._current = (config, value)
        self.temperature = max(MIN_TEMPERATURE, self.temperature * COOLING)

    @property
    def current(self) -> tuple[Configuration, float] | None:
        return self._current
