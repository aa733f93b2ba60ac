"""Surrogate performance models (Section III-A).

A :class:`Surrogate` pairs a regression learner with a search space's
numeric encoding and tracks the simulated time its fitting and
prediction cost — those seconds are charged to the search clock, so
model overhead is honestly reflected in search-time speedups (the
paper notes pool generation/prediction "should be within few seconds").
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.errors import ModelError, NotFittedError, SourceDataError
from repro.ml.base import Regressor
from repro.ml.forest import RandomForestRegressor
from repro.searchspace.space import Configuration, SearchSpace
from repro.spec import ForestSpec
from repro.transfer.sanitize import sanitize_training

__all__ = ["Surrogate"]

# Simulated overhead model: fitting scales with training rows, batch
# prediction with query rows.  Values are representative of an R/Python
# random-forest on a laptop of the paper's era.
_FIT_BASE_S = 0.5
_FIT_PER_ROW_S = 5e-3
_PREDICT_BASE_S = 0.05
_PREDICT_PER_ROW_S = 2e-4


class Surrogate:
    """An empirical performance model ``M`` over one search space.

    The learner fits ``log(y)``: runtimes are positive with
    multiplicative structure, so the log is the better-behaved target
    (predictions are transformed back).

    Parameters
    ----------
    space:
        The configuration space whose encoding defines the features.
    learner:
        Any :class:`repro.ml.base.Regressor`; defaults to the paper's
        random forest, built from ``spec``.
    spec:
        :class:`repro.spec.ForestSpec` hyperparameters for the default
        forest.  Mutually exclusive with ``learner`` (which supplies a
        learner outright; the spec only shapes the default one).
    """

    def __init__(
        self,
        space: SearchSpace,
        learner: Regressor | None = None,
        spec: "ForestSpec | None" = None,
    ) -> None:
        if spec is not None and learner is not None:
            raise ModelError("pass either spec or an explicit learner, not both")
        if learner is None:
            learner = RandomForestRegressor.from_spec(spec)
        self.space = space
        self.learner = learner
        self.fit_seconds = 0.0  # simulated cost of the last fit
        self._fitted = False
        # Last-pool prediction memo, invalidated by fit: a resumed RSb
        # re-ranks the pool it was cut in with the same surrogate, and
        # the hit saves encoding and scoring that pool again.
        self._predict_memo: tuple[tuple[int, ...], np.ndarray] | None = None

    # ------------------------------------------------------------------
    def fit(self, training: Sequence[tuple[Configuration, float]]) -> "Surrogate":
        """Fit from ``(configuration, runtime)`` pairs (the set Ta).

        Source rows are screened first by
        :func:`repro.transfer.sanitize.sanitize_training`: NaN/-inf or
        non-positive runtimes, configurations from a foreign space and
        exact duplicate rows are structural defects, not measurements,
        and raise a :class:`~repro.errors.SourceDataError`.  Rows whose
        runtime is ``+inf`` (an evaluation that never finished) are
        excluded from the fit.  The simulated fit cost is charged for
        the rows actually fitted.
        """
        if not training:
            raise ModelError("cannot fit a surrogate on an empty training set")
        report = sanitize_training(self.space, training)
        y_all = np.array([t for _, t in training], dtype=float)
        finite = np.isfinite(y_all)
        if not np.any(finite):
            raise SourceDataError(
                "cannot fit a surrogate: every training runtime is +inf "
                f"(n={len(training)})",
                report=report,
            )
        configs = [c for (c, _), ok in zip(training, finite) if ok]
        X = self.space.encode_many(configs)
        self.learner.fit(X, np.log(y_all[finite]))
        self.fit_seconds = _FIT_BASE_S + _FIT_PER_ROW_S * len(configs)
        self._fitted = True
        self._predict_memo = None
        return self

    def _predict(self, key: tuple[int, ...], encode) -> np.ndarray:
        """Predictions for the configurations indexed by ``key``, from
        the memo or from ``encode()``'s feature matrix (read-only)."""
        if not self._fitted:
            raise NotFittedError("surrogate has not been fitted")
        if not key:
            return np.empty(0)
        memo = self._predict_memo
        if memo is not None and memo[0] == key:
            return memo[1]
        out = np.exp(self.learner.predict(encode()))
        out.flags.writeable = False
        self._predict_memo = (key, out)
        return out

    def predict(self, configs: Sequence[Configuration]) -> np.ndarray:
        """Predicted runtimes for a batch of configurations.

        The result is read-only (it may be served from the memo shared
        with later calls); copy before mutating.
        """
        return self._predict(
            tuple(c.index for c in configs),
            lambda: self.space.encode_many(list(configs)),
        )

    def predict_indices(self, indices: Sequence[int]) -> np.ndarray:
        """Predicted runtimes for configurations given by linear index.

        Identical to ``predict([space.config_at(i) for i in indices])``
        — the memo key is the same index tuple, so the two entry points
        share hits — but the features come from the bulk
        ``encode_indices`` path with no Configuration objects built.
        """
        key = tuple(int(i) for i in indices)
        return self._predict(key, lambda: self.space.encode_indices(key))

    def predict_std(self, configs: Sequence[Configuration]) -> np.ndarray:
        """Ensemble spread of the learner's prediction, in log space.

        For the default random forest this is the per-tree standard
        deviation of the predicted log runtime, which the guard layer
        uses to check whether prediction intervals actually cover
        observed runtimes.  Raises :class:`ModelError` when the learner
        exposes no ensemble spread (check :attr:`supports_std`).
        """
        if not self._fitted:
            raise NotFittedError("surrogate has not been fitted")
        fn = getattr(self.learner, "predict_std", None)
        if not callable(fn):
            raise ModelError(
                f"{type(self.learner).__name__} exposes no predict_std"
            )
        if len(configs) == 0:
            return np.empty(0)
        return fn(self.space.encode_many(list(configs)))

    @property
    def supports_std(self) -> bool:
        """Whether the learner can report an ensemble spread."""
        return callable(getattr(self.learner, "predict_std", None))

    def predict_seconds(self, n: int) -> float:
        """Simulated wall time of predicting ``n`` configurations."""
        if n < 0:
            raise ModelError(f"cannot predict a negative count: {n}")
        return _PREDICT_BASE_S + _PREDICT_PER_ROW_S * n
