"""Tests for the search techniques and the AUC bandit."""

import numpy as np
import pytest

from repro.errors import SearchError
from repro.searchspace import IntegerParameter, SearchSpace
from repro.tuner import (
    AUCBanditMetaTechnique,
    GeneticAlgorithm,
    ParticleSwarm,
    PatternSearch,
    RandomTechnique,
    SimulatedAnnealing,
)
from repro.tuner.database import Result, ResultsDatabase
from repro.tuner.techniques.anneal import INITIAL_TEMPERATURE
from repro.tuner.manipulator import ConfigurationManipulator


def quadratic_objective(cfg) -> float:
    """Minimum at (x, y) = (17, 5)."""
    return (cfg["x"] - 17) ** 2 + (cfg["y"] - 5) ** 2 + 1.0


@pytest.fixture
def space():
    return SearchSpace(
        [IntegerParameter("x", 0, 31), IntegerParameter("y", 0, 31)], name="quad"
    )


def drive(technique, space, budget=120):
    """Run a technique against the quadratic objective; return best value."""
    manip = ConfigurationManipulator(space)
    db = ResultsDatabase()
    technique.bind(manip, db)
    best = float("inf")
    for i in range(budget):
        cfg = technique.propose()
        value = quadratic_objective(cfg)
        if not db.has(cfg):
            db.add(Result(cfg, value, technique.name, elapsed=float(i)))
        technique.feedback(cfg, value)
        best = min(best, value)
    return best


class TestTechniqueBasics:
    @pytest.mark.parametrize(
        "factory",
        [
            RandomTechnique,
            lambda: GeneticAlgorithm(population_size=8),
            SimulatedAnnealing,
            PatternSearch,
            lambda: ParticleSwarm(),
        ],
    )
    def test_all_techniques_make_progress(self, factory, space):
        best = drive(factory(), space, budget=150)
        # Random-chance best over 150 draws is ~single digits; every
        # technique should get close to the optimum (value 1).
        assert best <= 27.0

    def test_unbound_technique_rejected(self):
        with pytest.raises(RuntimeError):
            RandomTechnique().propose()

    def test_random_avoids_duplicates(self, space):
        t = RandomTechnique()
        manip = ConfigurationManipulator(space)
        db = ResultsDatabase()
        t.bind(manip, db)
        seen = set()
        for i in range(50):
            cfg = t.propose()
            db.add(Result(cfg, 1.0, "random", elapsed=float(i)))
            assert cfg.index not in seen
            seen.add(cfg.index)


class TestGeneticAlgorithm:
    def test_population_capped(self, space):
        ga = GeneticAlgorithm(population_size=5)
        drive(ga, space, budget=40)
        assert len(ga._population) <= 5

    def test_population_keeps_best(self, space):
        ga = GeneticAlgorithm(population_size=4)
        drive(ga, space, budget=80)
        values = [v for _, v in ga._population]
        assert min(values) <= 10.0

    def test_invalid_parameters(self):
        with pytest.raises(SearchError):
            GeneticAlgorithm(population_size=1)


class TestSimulatedAnnealing:
    def test_accepts_improvements_always(self, space):
        sa = SimulatedAnnealing()
        manip = ConfigurationManipulator(space)
        sa.bind(manip, ResultsDatabase())
        first = sa.propose()
        sa.feedback(first, 100.0)
        second = sa.propose()
        sa.feedback(second, 1.0)
        assert sa.current[1] == 1.0

    def test_temperature_cools(self, space):
        sa = SimulatedAnnealing()
        drive(sa, space, budget=30)
        assert sa.temperature < INITIAL_TEMPERATURE


class TestPatternSearch:
    def test_converges_despite_restarts(self, space):
        ps = PatternSearch()
        best = drive(ps, space, budget=150)
        assert best <= 10.0
        # Restarts may leave the *current* incumbent on a fresh walk,
        # but an incumbent always exists after feedback.
        assert ps._incumbent is not None


class TestParticleSwarm:
    def test_global_best_tracked(self, space):
        pso = ParticleSwarm()
        drive(pso, space, budget=100)
        assert pso._gbest_val < float("inf")


class TestAUCBandit:
    def _bandit(self):
        return AUCBanditMetaTechnique(
            [
                RandomTechnique(),
                GeneticAlgorithm(population_size=6),
                SimulatedAnnealing(),
            ]
        )

    def test_tries_every_subtechnique(self, space):
        bandit = self._bandit()
        drive(bandit, space, budget=60)
        allocation = bandit.allocation()
        assert all(uses > 0 for uses in allocation.values())
        assert sum(allocation.values()) == 60

    def test_progress(self, space):
        assert drive(self._bandit(), space, budget=150) <= 20.0

    def test_duplicate_names_rejected(self):
        with pytest.raises(SearchError):
            AUCBanditMetaTechnique([RandomTechnique(), RandomTechnique()])

    def test_empty_rejected(self):
        with pytest.raises(SearchError):
            AUCBanditMetaTechnique([])

    def test_feedback_routed_to_proposer(self, space):
        bandit = self._bandit()
        manip = ConfigurationManipulator(space)
        bandit.bind(manip, ResultsDatabase())
        cfg = bandit.propose()
        bandit.feedback(cfg, 3.0)  # must not raise
