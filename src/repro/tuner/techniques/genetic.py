"""Steady-state genetic algorithm."""

from __future__ import annotations

from repro.errors import SearchError
from repro.searchspace.space import Configuration
from repro.tuner.technique import SearchTechnique

__all__ = ["GeneticAlgorithm"]

#: Per-parameter mutation probability of a child, the chance a child is
#: a crossover of two parents rather than a copy of one, and how many
#: contenders a tournament draws.
MUTATION_RATE = 0.15
CROSSOVER_RATE = 0.8
TOURNAMENT = 3


class GeneticAlgorithm(SearchTechnique):
    """Tournament-selected, uniform-crossover, mutating GA.

    Maintains a fixed-size population of the best distinct results;
    bootstraps with random proposals until the population fills.
    """

    name = "ga"

    def __init__(self, population_size: int = 16, seed: object = 0) -> None:
        super().__init__(seed=seed)
        if population_size < 2:
            raise SearchError(f"population_size must be >= 2, got {population_size}")
        self.population_size = population_size
        self._population: list[tuple[Configuration, float]] = []

    def _select(self) -> Configuration:
        assert self.rng is not None
        contenders = [
            self._population[int(self.rng.integers(0, len(self._population)))]
            for _ in range(min(TOURNAMENT, len(self._population)))
        ]
        return min(contenders, key=lambda cv: cv[1])[0]

    def propose(self) -> Configuration:
        self._require_bound()
        assert self.manipulator is not None and self.rng is not None
        self.n_proposals += 1
        if len(self._population) < self.population_size:
            return self.manipulator.random(self.rng)
        if self.rng.random() < CROSSOVER_RATE:
            child = self.manipulator.crossover(self._select(), self._select(), self.rng)
        else:
            child = self._select()
        return self.manipulator.mutate(child, self.rng, rate=MUTATION_RATE)

    def feedback(self, config: Configuration, value: float) -> None:
        self._population.append((config, value))
        if len(self._population) > self.population_size:
            self._population.sort(key=lambda cv: cv[1])
            del self._population[self.population_size :]
