"""Exponential linear families: log-partitions, curvature floors, MLE pieces.

A family is determined by its log-partition Lambda on the natural-parameter
line; densities are p_t(y) = exp(y t - Lambda(t)) h(y).  The likelihood loss
``ExpFamily.nll`` and its derivatives ``nll_derivatives`` take the row
images t = X u directly, with optional multiplicities m: the estimator
passes the distinct row images of a support with their counts and response
sums, so one product of its group rows serves both; the bounds consume the
curvature floor delta = inf_I Lambda''.  Each family in ``FAMILIES`` is a
private ``ExpFamily`` subclass whose methods give Lambda, Lambda', Lambda''
and the closed forms the bounds need (curvature floor, loss floor); a bound
never consumes an estimated curvature.  The Bernoulli family takes the
logistic, its slope and the slope floor from ``analytic``, their one home.
"""

from __future__ import annotations

import numpy as np

from .analytic import _logistic, _logistic_slope, _logistic_slope_floor
from .design import _dot
from .domains import Interval

__all__ = [
    "ExpFamily",
    "gaussian",
    "bernoulli",
    "FAMILIES",
]


class ExpFamily:
    """Log-partition triple (Lambda, Lambda', Lambda'') on the real line.

    Families are built through the constructors in ``FAMILIES``; each kind
    defines ``log_partition``, ``mean``, ``variance``, ``curvature_floor``
    (the closed form of delta = inf_I Lambda'', possibly 0) and
    ``loss_floor``.
    """

    def __init__(self, tag: str, params: dict):
        self.tag = tag
        self.params = params

    def check_natural(self, t: np.ndarray):
        """Raise (with the first offending row) if t is not finite."""
        finite = np.isfinite(np.asarray(t, dtype=float))
        if not finite.all():
            raise ValueError(f"natural parameter outside family domain at row {np.argmin(finite)}")

    def nll(self, y: np.ndarray, t: np.ndarray, m=1.0):
        """Negative log-likelihood sum_g m_g Lambda(t_g) - y't on row images
        t with multiplicities m (1 for plain rows, where y is the response;
        for grouped rows y holds each group's response sum); raises
        ValueError outside the natural domain, checked only when the value
        is not finite (as any non-finite t_g makes it); overflow gives inf.
        t, y and m may carry leading axes, a stack of members summed along
        the last axis: the values then come as an array, one per member."""
        t = np.asarray(t, dtype=float)
        with np.errstate(over="ignore", invalid="ignore"):
            value = (m * self.log_partition(t)).sum(axis=-1) - _dot(np.asarray(y, dtype=float), t)
        if not np.isfinite(value).all():
            self.check_natural(t)
        return float(value) if value.ndim == 0 else value

    def nll_derivatives(self, y: np.ndarray, Xs: np.ndarray, t: np.ndarray, m=1.0):
        """Gradient Xs'(m Lambda'(t) - y) and Hessian Xs' diag(m Lambda''(t)) Xs
        of ``nll`` along the columns Xs, at row images t with multiplicities
        m (as in ``nll``, stacked alike: Xs then has shape (..., G, k));
        raises ValueError outside the natural domain."""
        self.check_natural(t)
        XsT = np.swapaxes(Xs, -1, -2)
        g = XsT @ (m * self.mean(t) - y)[..., None]
        return g[..., 0], XsT @ ((m * self.variance(t))[..., None] * Xs)


class _Gaussian(ExpFamily):
    def log_partition(self, t):
        return 0.5 * self.params["sigma2"] * np.asarray(t, float) ** 2

    def mean(self, t):
        return self.params["sigma2"] * np.asarray(t, float)

    def variance(self, t):
        return np.full_like(np.asarray(t, float), self.params["sigma2"])

    def curvature_floor(self, I: Interval) -> float:
        return self.params["sigma2"]

    def loss_floor(self, y) -> float:
        # rowwise complete square: sigma2 t^2 / 2 - y t >= -y^2 / (2 sigma2)
        return float(-np.sum(np.asarray(y, dtype=float) ** 2) / (2.0 * self.params["sigma2"]))


class _Bernoulli(ExpFamily):
    def log_partition(self, t):
        return np.logaddexp(0.0, np.asarray(t, float))

    def mean(self, t):
        return _logistic(t)

    def variance(self, t):
        return _logistic_slope(t)

    def curvature_floor(self, I: Interval) -> float:
        # Lambda'' = s' = (2 cosh(t/2))^-2 decreases in |t|
        return _logistic_slope_floor(I.sup_abs)

    def loss_floor(self, y) -> float:
        return 0.0  # log(1 + e^t) - y t >= 0 rowwise for y in {0, 1}


def gaussian(sigma2: float = 1.0) -> ExpFamily:
    """Gaussian family with unit carrier: Lambda(t) = sigma2 t^2 / 2."""
    if not sigma2 > 0:
        raise ValueError("sigma2 must be positive")
    return _Gaussian("gaussian", {"sigma2": float(sigma2)})


def bernoulli() -> ExpFamily:
    """Bernoulli family: Lambda(t) = log(1 + e^t), computed stably."""
    return _Bernoulli("bernoulli", {})


FAMILIES = {"bernoulli": bernoulli, "gaussian": gaussian}

