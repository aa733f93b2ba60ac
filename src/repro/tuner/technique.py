"""The search-technique interface.

A technique proposes configurations one at a time and receives feedback
(the measured objective) for each.  Techniques never measure anything
themselves — :func:`~repro.tuner.runner.warm_started_search` owns the
evaluator and the clock, exactly like OpenTuner's driver.
"""

from __future__ import annotations

from abc import ABC, abstractmethod

import numpy as np

from repro.searchspace.space import Configuration
from repro.tuner.database import ResultsDatabase
from repro.tuner.manipulator import ConfigurationManipulator
from repro.utils.rng import spawn_rng

__all__ = ["SearchTechnique"]


class SearchTechnique(ABC):
    """Base class: propose/feedback protocol plus shared plumbing."""

    name: str = "technique"

    def __init__(self, seed: object = 0) -> None:
        self._seed = seed
        self.manipulator: ConfigurationManipulator | None = None
        self.database: ResultsDatabase | None = None
        self.rng: np.random.Generator | None = None
        self.n_proposals = 0

    def bind(
        self, manipulator: ConfigurationManipulator, database: ResultsDatabase
    ) -> "SearchTechnique":
        """Attach the technique to a tuning run's shared state."""
        self.manipulator = manipulator
        self.database = database
        self.rng = spawn_rng("technique", self.name, str(self._seed))
        return self

    def _require_bound(self) -> None:
        if self.manipulator is None or self.rng is None:
            raise RuntimeError(f"technique {self.name!r} used before bind()")

    @abstractmethod
    def propose(self) -> Configuration:
        """The next configuration this technique wants measured."""

    def feedback(self, config: Configuration, value: float) -> None:
        """Measured objective for a previously proposed configuration.

        Default: no internal state to update (random search).
        """

    def __repr__(self) -> str:
        return f"{type(self).__name__}(name={self.name!r})"
