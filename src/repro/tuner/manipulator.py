"""Configuration manipulator: structured moves over a search space.

OpenTuner's ``ConfigurationManipulator`` knows how to generate random
configurations and how to perturb/recombine existing ones; techniques
are written against this interface rather than the raw space.
"""

from __future__ import annotations

import numpy as np

from repro.errors import SearchSpaceError
from repro.searchspace.space import Configuration, SearchSpace

__all__ = ["ConfigurationManipulator"]


class ConfigurationManipulator:
    """Random generation, mutation and crossover over a search space."""

    def __init__(self, space: SearchSpace) -> None:
        self.space = space

    def random(self, rng: np.random.Generator) -> Configuration:
        """A uniformly random configuration."""
        return self.space.config_at(self.space.random_index(rng))

    def mutate(
        self,
        config: Configuration,
        rng: np.random.Generator,
        rate: float = 0.25,
        scale: float = 1.0,
    ) -> Configuration:
        """Perturb each parameter with probability ``rate`` (at least one)."""
        if not 0.0 < rate <= 1.0:
            raise SearchSpaceError(f"mutation rate must be in (0, 1], got {rate}")
        values = dict(config)
        mutated = False
        for p in self.space.parameters:
            if rng.random() < rate:
                values[p.name] = p.mutate(values[p.name], rng, scale=scale)
                mutated = True
        if not mutated:
            p = self.space.parameters[int(rng.integers(0, self.space.dimension))]
            values[p.name] = p.mutate(values[p.name], rng, scale=scale)
        return self.space.configuration(values)

    def crossover(
        self,
        a: Configuration,
        b: Configuration,
        rng: np.random.Generator,
    ) -> Configuration:
        """Uniform crossover: each parameter from one parent at random."""
        if a.space is not self.space or b.space is not self.space:
            raise SearchSpaceError("crossover parents must come from this space")
        values = {
            p.name: (a[p.name] if rng.random() < 0.5 else b[p.name])
            for p in self.space.parameters
        }
        return self.space.configuration(values)

    def neighbor(
        self, config: Configuration, rng: np.random.Generator
    ) -> Configuration:
        """A single-parameter, small-step neighbour (for annealing)."""
        p = self.space.parameters[int(rng.integers(0, self.space.dimension))]
        return config.replace(**{p.name: p.mutate(config[p.name], rng, scale=0.3)})
