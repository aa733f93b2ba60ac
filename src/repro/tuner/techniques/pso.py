"""Particle swarm optimization over the index-space embedding.

Particles live in the continuous box ``[0, cardinality_i - 1]^d`` of
per-parameter indices; proposals round to the nearest valid index.
"""

from __future__ import annotations

import numpy as np

from repro.searchspace.space import Configuration
from repro.tuner.technique import SearchTechnique

__all__ = ["ParticleSwarm"]

#: Swarm size, and the velocity update's inertia, pull toward a
#: particle's own best and pull toward the swarm's best.
N_PARTICLES = 12
INERTIA = 0.7
COGNITIVE = 1.4
SOCIAL = 1.4


class ParticleSwarm(SearchTechnique):
    name = "pso"

    def __init__(self, seed: object = 0) -> None:
        super().__init__(seed=seed)
        self._pos: np.ndarray | None = None  # (n, d) continuous index coords
        self._vel: np.ndarray | None = None
        self._pbest: np.ndarray | None = None
        self._pbest_val: np.ndarray | None = None
        self._gbest: np.ndarray | None = None
        self._gbest_val = float("inf")
        self._next = 0  # particle whose position is proposed next

    def _bounds(self) -> np.ndarray:
        assert self.manipulator is not None
        return np.array(
            [p.cardinality - 1 for p in self.manipulator.space.parameters], dtype=float
        )

    def _init_swarm(self) -> None:
        assert self.rng is not None
        hi = self._bounds()
        d = len(hi)
        self._pos = self.rng.uniform(0, 1, size=(N_PARTICLES, d)) * hi
        self._vel = self.rng.uniform(-0.25, 0.25, size=(N_PARTICLES, d)) * np.maximum(hi, 1.0)
        self._pbest = self._pos.copy()
        self._pbest_val = np.full(N_PARTICLES, np.inf)

    def _decode(self, coords: np.ndarray) -> Configuration:
        assert self.manipulator is not None
        space = self.manipulator.space
        values = {}
        for p, c in zip(space.parameters, coords):
            idx = int(np.clip(round(float(c)), 0, p.cardinality - 1))
            values[p.name] = p.value_at(idx)
        return space.configuration(values)

    def propose(self) -> Configuration:
        self._require_bound()
        assert self.rng is not None
        self.n_proposals += 1
        if self._pos is None:
            self._init_swarm()
        assert self._pos is not None and self._vel is not None
        i = self._next
        if self._gbest is not None:
            hi = self._bounds()
            r1 = self.rng.uniform(size=self._pos.shape[1])
            r2 = self.rng.uniform(size=self._pos.shape[1])
            self._vel[i] = (
                INERTIA * self._vel[i]
                + COGNITIVE * r1 * (self._pbest[i] - self._pos[i])
                + SOCIAL * r2 * (self._gbest - self._pos[i])
            )
            np.clip(self._vel[i], -hi, hi, out=self._vel[i])
            self._pos[i] = np.clip(self._pos[i] + self._vel[i], 0, hi)
        return self._decode(self._pos[i])

    def feedback(self, config: Configuration, value: float) -> None:
        if self._pos is None:
            return  # external feedback before the swarm exists (warm start)
        i = self._next
        if value < self._pbest_val[i]:
            self._pbest_val[i] = value
            self._pbest[i] = self._pos[i].copy()
        if value < self._gbest_val:
            self._gbest_val = value
            self._gbest = self._pos[i].copy()
        self._next = (self._next + 1) % N_PARTICLES
