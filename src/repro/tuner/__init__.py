"""An OpenTuner-style autotuning framework (Section IV-A).

OpenTuner's architecture: a *configuration manipulator* describing the
tunable parameters, a set of *search techniques* proposing
configurations, a *meta-technique* (multi-armed bandit over sliding-
window area-under-curve credit) that allocates the evaluation budget to
whichever techniques are currently performing, and a results database
shared by all techniques.  :func:`warm_started_search` runs any of
them against an evaluator, cold or seeded from a surrogate.  The paper
drives its HPL and raytracer mini-application experiments through this
stack.
"""

from repro.tuner.manipulator import ConfigurationManipulator
from repro.tuner.database import Result, ResultsDatabase
from repro.tuner.technique import SearchTechnique
from repro.tuner.techniques.random import RandomTechnique
from repro.tuner.techniques.genetic import GeneticAlgorithm
from repro.tuner.techniques.anneal import SimulatedAnnealing
from repro.tuner.techniques.pattern import PatternSearch
from repro.tuner.techniques.pso import ParticleSwarm
from repro.tuner.techniques.neldermead import NelderMead
from repro.tuner.techniques.orthogonal import OrthogonalSearch
from repro.tuner.bandit import AUCBanditMetaTechnique
from repro.tuner.runner import warm_started_search

__all__ = [
    "ConfigurationManipulator",
    "Result",
    "ResultsDatabase",
    "SearchTechnique",
    "RandomTechnique",
    "GeneticAlgorithm",
    "SimulatedAnnealing",
    "PatternSearch",
    "ParticleSwarm",
    "NelderMead",
    "OrthogonalSearch",
    "AUCBanditMetaTechnique",
    "warm_started_search",
]
