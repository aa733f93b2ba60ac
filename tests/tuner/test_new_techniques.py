"""Tests for Nelder-Mead and orthogonal search."""

import pytest

from repro.searchspace import IntegerParameter, SearchSpace
from repro.tuner import NelderMead, OrthogonalSearch
from repro.tuner.database import Result, ResultsDatabase
from repro.tuner.manipulator import ConfigurationManipulator
from repro.tuner.techniques.orthogonal import MAX_VALUES_PER_AXIS


def objective(cfg) -> float:
    return (cfg["x"] - 21) ** 2 + (cfg["y"] - 9) ** 2 + 1.0


@pytest.fixture
def space():
    return SearchSpace(
        [IntegerParameter("x", 0, 31), IntegerParameter("y", 0, 31)], name="quad2"
    )


def drive(technique, space, budget=150):
    manip = ConfigurationManipulator(space)
    db = ResultsDatabase()
    technique.bind(manip, db)
    best = float("inf")
    for i in range(budget):
        cfg = technique.propose()
        value = objective(cfg)
        if not db.has(cfg):
            db.add(Result(cfg, value, technique.name, elapsed=float(i)))
        technique.feedback(cfg, value)
        best = min(best, value)
    return best


class TestNelderMead:
    def test_converges(self, space):
        assert drive(NelderMead(seed=2), space, budget=200) <= 15.0

    def test_simplex_builds(self, space):
        nm = NelderMead()
        manip = ConfigurationManipulator(space)
        nm.bind(manip, ResultsDatabase())
        for _ in range(space.dimension + 1):
            cfg = nm.propose()
            nm.feedback(cfg, objective(cfg))
        assert len(nm._vertices) == space.dimension + 1

    def test_external_feedback_tolerated(self, space):
        nm = NelderMead()
        nm.bind(ConfigurationManipulator(space), ResultsDatabase())
        nm.feedback(space.default(), 5.0)  # warm-start style: no crash


class TestOrthogonalSearch:
    def test_converges(self, space):
        # Coordinate descent is exact on separable quadratics.
        assert drive(OrthogonalSearch(seed=1), space, budget=120) <= 5.0

    def test_center_improves_monotonically_between_restarts(self, space):
        tech = OrthogonalSearch(seed=0)
        manip = ConfigurationManipulator(space)
        tech.bind(manip, ResultsDatabase())
        walks: list[list[float]] = [[]]
        last_center = None
        for _ in range(60):
            cfg = tech.propose()
            tech.feedback(cfg, objective(cfg))
            if tech.center is None:
                continue
            value = tech.center[1]
            if last_center is not None and value > last_center:
                walks.append([])  # convergence restart began a new walk
            walks[-1].append(value)
            last_center = value
        # Within each walk, the center never worsens.
        for walk in walks:
            assert walk == sorted(walk, reverse=True)
        # And the search did converge at least once on this easy problem.
        assert min(min(w) for w in walks if w) <= 5.0

    def test_axis_subsampling_cap(self, space):
        tech = OrthogonalSearch(seed=0)
        manip = ConfigurationManipulator(space)
        tech.bind(manip, ResultsDatabase())
        cfg = tech.propose()  # random center
        tech.feedback(cfg, objective(cfg))
        assert space.parameters[0].cardinality > MAX_VALUES_PER_AXIS
        sweep = tech._axis_candidates()
        assert len(sweep) <= MAX_VALUES_PER_AXIS

    def test_external_feedback_adopted_as_center(self, space):
        tech = OrthogonalSearch()
        tech.bind(ConfigurationManipulator(space), ResultsDatabase())
        good = space.configuration({"x": 21, "y": 9})
        tech.feedback(good, 1.0)
        assert tech.center is not None and tech.center[1] == 1.0
