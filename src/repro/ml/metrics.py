"""Regression quality metrics."""

from __future__ import annotations

import numpy as np

__all__ = ["r2_score"]


def _pair(y_true, y_pred) -> tuple[np.ndarray, np.ndarray]:
    yt = np.asarray(y_true, dtype=float).ravel()
    yp = np.asarray(y_pred, dtype=float).ravel()
    if yt.shape != yp.shape:
        raise ValueError(f"length mismatch: {yt.shape[0]} vs {yp.shape[0]}")
    if yt.size == 0:
        raise ValueError("empty input")
    return yt, yp


def r2_score(y_true, y_pred) -> float:
    """Coefficient of determination; 1 is perfect, 0 matches the mean.

    Returns 0 for a constant truth perfectly predicted and ``-inf``-like
    large negatives for badly wrong predictions of a constant truth,
    matching the usual convention.
    """
    yt, yp = _pair(y_true, y_pred)
    ss_res = float(np.sum((yt - yp) ** 2))
    ss_tot = float(np.sum((yt - yt.mean()) ** 2))
    if ss_tot == 0.0:
        return 1.0 if ss_res == 0.0 else 0.0
    return 1.0 - ss_res / ss_tot
