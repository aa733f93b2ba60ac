"""AUC-bandit meta-technique (OpenTuner's budget allocator).

OpenTuner "runs a number of search techniques at the same time; those
that perform well are allocated larger budgets" (Section IV-A).  The
allocator is an upper-confidence bandit whose per-technique reward is
the *area under the curve* of new-global-best events inside a sliding
window: a technique that recently produced improvements — especially
recent ones within the window — earns more of the proposal budget.
"""

from __future__ import annotations

import math
from collections import deque
from typing import Sequence

from repro.errors import SearchError
from repro.searchspace.space import Configuration
from repro.tuner.database import ResultsDatabase
from repro.tuner.manipulator import ConfigurationManipulator
from repro.tuner.technique import SearchTechnique

__all__ = ["AUCBanditMetaTechnique"]

#: Events each technique's AUC looks back over, and the weight of the
#: upper-confidence exploration bonus.
WINDOW = 50
EXPLORATION = 0.3


class _History:
    """Sliding window of (was-new-best) flags for one technique."""

    def __init__(self) -> None:
        self.events: deque[bool] = deque(maxlen=WINDOW)
        self.uses = 0

    def auc(self) -> float:
        """Area under the new-best curve, weighted toward recency."""
        if not self.events:
            return 0.0
        num = 0.0
        den = 0.0
        for i, hit in enumerate(self.events, start=1):
            num += i if hit else 0.0
            den += i
        return num / den


class AUCBanditMetaTechnique(SearchTechnique):
    """UCB over sub-techniques' sliding-window AUC scores."""

    name = "auc-bandit"

    def __init__(
        self,
        techniques: Sequence[SearchTechnique],
        seed: object = 0,
    ) -> None:
        super().__init__(seed=seed)
        if not techniques:
            raise SearchError("bandit needs at least one sub-technique")
        names = [t.name for t in techniques]
        if len(set(names)) != len(names):
            raise SearchError(f"duplicate technique names: {names}")
        self.techniques = list(techniques)
        self._history = {t.name: _History() for t in techniques}
        self._last: SearchTechnique | None = None
        self._best = float("inf")

    def bind(
        self, manipulator: ConfigurationManipulator, database: ResultsDatabase
    ) -> "AUCBanditMetaTechnique":
        super().bind(manipulator, database)
        for t in self.techniques:
            t.bind(manipulator, database)
        return self

    def _score(self, technique: SearchTechnique, total_uses: int) -> float:
        h = self._history[technique.name]
        if h.uses == 0:
            return float("inf")  # try everything once
        bonus = EXPLORATION * math.sqrt(
            2.0 * math.log(max(2, total_uses)) / h.uses
        )
        return h.auc() + bonus

    def propose(self) -> Configuration:
        self._require_bound()
        self.n_proposals += 1
        total = sum(h.uses for h in self._history.values())
        chosen = max(self.techniques, key=lambda t: self._score(t, total))
        self._last = chosen
        self._history[chosen.name].uses += 1
        return chosen.propose()

    def feedback(self, config: Configuration, value: float) -> None:
        improved = value < self._best
        if improved:
            self._best = value
        if self._last is None:
            # External feedback (e.g. warm-start seed evaluations):
            # no technique proposed it, so no one earns bandit credit,
            # but every sub-technique may learn from the observation.
            for technique in self.techniques:
                technique.feedback(config, value)
            return
        self._history[self._last.name].events.append(improved)
        self._last.feedback(config, value)

    def allocation(self) -> dict[str, int]:
        """Proposals each sub-technique has received so far."""
        return {name: h.uses for name, h in self._history.items()}
