"""Forecast evaluation metrics."""

from __future__ import annotations

import numpy as np

from .errors import DataError


def _check_pair(y_true, y_pred, min_n=1, what="values"):
    yt = np.asarray(y_true, dtype=float).ravel()
    yp = np.asarray(y_pred, dtype=float).ravel()
    if yt.size != yp.size:
        raise DataError(f"length mismatch: {yt.size} true vs {yp.size} predicted")
    if yt.size < min_n:
        raise DataError(f"need at least {min_n} {what}, got {yt.size}")
    return yt, yp


def metric_mse(y_true, y_pred) -> float:
    yt, yp = _check_pair(y_true, y_pred)
    return float(np.mean((yt - yp) ** 2))


def metric_mae(y_true, y_pred) -> float:
    yt, yp = _check_pair(y_true, y_pred)
    return float(np.mean(np.abs(yt - yp)))


def metric_smse(y_true_test, y_pred) -> float:
    """Held-out MSE normalized by the population (1/n) variance of its targets."""
    yt, yp = _check_pair(y_true_test, y_pred, min_n=2, what="held-out targets for SMSE")
    var = float(np.mean((yt - np.mean(yt)) ** 2))
    if var <= 0.0:
        raise DataError("held-out targets have zero variance; SMSE is undefined")
    return float(np.sum((yt - yp) ** 2) / (yt.size * var))


def metric_nlpd(y_true, mean, var) -> float | None:
    """Mean negative log predictive density of Gaussian predictions, in nats
    per point; None (undefined) when any predictive variance is 0."""
    yt, m = _check_pair(y_true, mean)
    v = np.asarray(var, dtype=float).ravel()
    if not np.all(v > 0.0):
        return None
    return float(np.mean(0.5 * np.log(2.0 * np.pi * v) + 0.5 * (yt - m) ** 2 / v))
