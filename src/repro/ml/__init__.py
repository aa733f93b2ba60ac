"""From-scratch supervised learning for surrogate performance models.

The paper builds its surrogate with a random forest (Breiman 2001,
reference [9]); scikit-learn is not available in this environment, so
this subpackage implements the full stack: CART regression trees with a
presorted split search, bagged random forests, and simpler baselines
(ridge regression, k-nearest-neighbours, gradient-boosted trees) used by
the surrogate-choice ablation in :mod:`repro.experiments`.
"""

from repro.ml.base import Regressor
from repro.ml.tree import DecisionTreeRegressor
from repro.ml.forest import RandomForestRegressor
from repro.ml.linear import RidgeRegressor
from repro.ml.knn import KNeighborsRegressor
from repro.ml.boosting import GradientBoostingRegressor
from repro.ml.export import export_text

__all__ = [
    "Regressor",
    "DecisionTreeRegressor",
    "RandomForestRegressor",
    "RidgeRegressor",
    "KNeighborsRegressor",
    "GradientBoostingRegressor",
    "export_text",
]
