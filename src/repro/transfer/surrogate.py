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
from repro.searchspace.encoding import encoding_cache
from repro.searchspace.space import Configuration, SearchSpace
from repro.spec import ForestSpec
from repro.transfer.sanitize import SanitizationReport, sanitize_training

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
    log_target:
        Fit ``log(y)`` instead of ``y`` — runtimes are positive with
        multiplicative structure, so this is the better-behaved target
        (predictions are transformed back).
    """

    def __init__(
        self,
        space: SearchSpace,
        learner: Regressor | None = None,
        log_target: bool = True,
        spec: "ForestSpec | None" = None,
    ) -> None:
        if spec is not None and learner is not None:
            raise ModelError("pass either spec or an explicit learner, not both")
        if learner is None:
            learner = RandomForestRegressor.from_spec(spec)
        self.space = space
        self.learner = learner
        self.log_target = log_target
        self.fit_seconds = 0.0  # simulated cost of the last fit
        self.n_censored = 0  # censored samples seen by the last fit
        self.sanitization: SanitizationReport | None = None  # last fit's screen
        self._fitted = False
        # Shared per-space encoding cache plus a last-pool prediction
        # memo (invalidated by fit) — repeated scoring of the same pool
        # between refits costs one lookup instead of a forest traversal.
        self._encoding = encoding_cache(space)
        self._predict_memo: tuple[tuple[int, ...], np.ndarray] | None = None

    # ------------------------------------------------------------------
    def fit(
        self,
        training: Sequence[tuple[Configuration, float]],
        censored: str = "drop",
        impute_factor: float = 2.0,
        sanitize: str = "raise",
    ) -> "Surrogate":
        """Fit from ``(configuration, runtime)`` pairs (the set Ta).

        Source rows are screened first by
        :func:`repro.transfer.sanitize.sanitize_training` — NaN/-inf
        runtimes, non-positive runtimes under a log target,
        configurations from a foreign space, and exact duplicate rows
        are structural defects, not measurements.  ``sanitize``
        selects the policy: ``"raise"`` (default) rejects the whole
        set with a :class:`~repro.errors.SourceDataError`, ``"drop"``
        removes the offending rows (the report lands on
        ``self.sanitization``), ``"off"`` skips the screen.

        Failed/censored samples — pairs whose runtime is ``+inf``,
        as produced by ``SearchTrace.training_data(include_failed=True)``
        on a fault-afflicted trace — are handled per ``censored``:

        * ``"drop"`` (default): excluded from the fit;
        * ``"impute"``: replaced by ``impute_factor`` times the largest
          finite runtime, a pessimistic stand-in that keeps the model
          steering away from the failing region.

        Finite censored bounds (timeout caps) are already usable
        pessimistic values and train as-is.  The simulated fit cost is
        charged for the rows actually fitted.
        """
        if censored not in ("drop", "impute"):
            raise ModelError(f"censored must be 'drop' or 'impute', got {censored!r}")
        if impute_factor < 1.0:
            raise ModelError(f"impute_factor must be >= 1, got {impute_factor}")
        if sanitize not in ("raise", "drop", "off"):
            raise ModelError(
                f"sanitize must be 'raise', 'drop', or 'off', got {sanitize!r}"
            )
        if not training:
            raise ModelError("cannot fit a surrogate on an empty training set")
        if sanitize == "off":
            self.sanitization = None
            training = list(training)
        else:
            training, self.sanitization = sanitize_training(
                self.space,
                training,
                require_positive=self.log_target,
                on_invalid=sanitize,
            )
            if not training:
                raise SourceDataError(
                    "no usable source rows: sanitization removed every "
                    f"training sample ({self.sanitization.summary()})",
                    report=self.sanitization,
                )
        y_all = np.array([t for _, t in training], dtype=float)
        finite = np.isfinite(y_all)
        self.n_censored = int(np.sum(~finite))
        if not np.any(finite):
            raise SourceDataError(
                "cannot fit a surrogate: every training sample is censored "
                f"(n={len(training)}, censored={censored!r} has nothing "
                "finite to drop or impute from)",
                report=self.sanitization,
            )
        if censored == "drop":
            configs = [c for (c, _), ok in zip(training, finite) if ok]
            y = y_all[finite]
        else:
            configs = [c for c, _ in training]
            y = np.where(finite, y_all, impute_factor * float(np.max(y_all[finite])))
        if np.any(y <= 0) and self.log_target:
            raise ModelError("log-target surrogate requires positive runtimes")
        X = self._encoding.encode_many(configs)
        self.learner.fit(X, np.log(y) if self.log_target else y)
        self.fit_seconds = _FIT_BASE_S + _FIT_PER_ROW_S * len(configs)
        self._fitted = True
        self._predict_memo = None
        return self

    def predict(self, configs: Sequence[Configuration]) -> np.ndarray:
        """Predicted runtimes for a batch of configurations.

        The result is read-only (it may be served from the memo shared
        with later calls); copy before mutating.
        """
        if not self._fitted:
            raise NotFittedError("surrogate has not been fitted")
        if len(configs) == 0:
            return np.empty(0)
        key = tuple(c.index for c in configs)
        memo = self._predict_memo
        if memo is not None and memo[0] == key:
            return memo[1]
        X = self._encoding.encode_many(list(configs))
        pred = self.learner.predict(X)
        out = np.exp(pred) if self.log_target else pred
        out.flags.writeable = False
        self._predict_memo = (key, out)
        return out

    def predict_indices(self, indices: Sequence[int]) -> np.ndarray:
        """Predicted runtimes for configurations given by linear index.

        Identical to ``predict([space.config_at(i) for i in indices])``
        — the memo key is the same index tuple, so the two entry points
        share hits — but the features come from the bulk
        ``encode_indices`` path with no Configuration objects built.
        """
        if not self._fitted:
            raise NotFittedError("surrogate has not been fitted")
        if len(indices) == 0:
            return np.empty(0)
        key = tuple(int(i) for i in indices)
        memo = self._predict_memo
        if memo is not None and memo[0] == key:
            return memo[1]
        X = self._encoding.encode_indices(key)
        pred = self.learner.predict(X)
        out = np.exp(pred) if self.log_target else pred
        out.flags.writeable = False
        self._predict_memo = (key, out)
        return out

    def predict_one(self, config: Configuration) -> float:
        return float(self.predict([config])[0])

    def predict_std(self, configs: Sequence[Configuration]) -> np.ndarray:
        """Ensemble spread of the learner's prediction, in model space.

        For the default random forest this is the per-tree standard
        deviation — in *log* space when ``log_target`` — which the
        guard layer uses to check whether prediction intervals actually
        cover observed runtimes.  Raises :class:`ModelError` when the
        learner exposes no ensemble spread (check :attr:`supports_std`).
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
        return fn(self._encoding.encode_many(list(configs)))

    @property
    def supports_std(self) -> bool:
        """Whether the learner can report an ensemble spread."""
        return callable(getattr(self.learner, "predict_std", None))

    def cache_stats(self) -> dict[str, int]:
        """Hit/size counters of the shared per-space encoding cache.

        Diagnostic only (process-local, shared across every surrogate
        on this space) — surfaced by the guard's audit log, never
        persisted in traces or checkpoints.
        """
        return self._encoding.stats()

    def predict_seconds(self, n: int) -> float:
        """Simulated wall time of predicting ``n`` configurations."""
        if n < 0:
            raise ModelError(f"cannot predict a negative count: {n}")
        return _PREDICT_BASE_S + _PREDICT_PER_ROW_S * n

    @property
    def is_fitted(self) -> bool:
        return self._fitted
