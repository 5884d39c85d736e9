"""Exponential linear families: log-partitions, curvature floors, MLE pieces.

A family is determined by its log-partition Lambda on a natural-parameter
interval; densities are p_t(y) = exp(y t - Lambda(t)) h(y).  The penalized
likelihood objective, its derivatives on a support, and the curvature floor
delta = inf_I Lambda'' are what the estimation bounds consume.  The built-in
families carry their own closed forms (curvature floor, loss floor) as
methods of private ``ExpFamily`` subclasses.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np
from scipy.optimize import minimize_scalar
from scipy.special import expit

from .design import _as_design
from .domains import Interval

__all__ = [
    "ExpFamily",
    "gaussian",
    "bernoulli",
    "custom_family",
    "FAMILIES",
    "curvature_inf",
    "mle_loss",
    "mle_objective",
    "mle_gradient_hessian",
]

# documented bias ceiling of the grid + golden-section curvature search
CURVATURE_SEARCH_TOL = 1e-8


@dataclass(frozen=True)
class ExpFamily:
    """Log-partition triple (Lambda, Lambda', Lambda'') on an open natural domain."""

    tag: str
    log_partition: Callable[[np.ndarray], np.ndarray]
    mean: Callable[[np.ndarray], np.ndarray]
    variance: Callable[[np.ndarray], np.ndarray]
    natural_lo: float = -math.inf
    natural_hi: float = math.inf
    params: dict = field(default_factory=dict)

    def check_natural(self, t: np.ndarray):
        """Raise (with the first offending row) if t leaves the open domain."""
        t = np.asarray(t, dtype=float)
        bad = ~((t > self.natural_lo) & (t < self.natural_hi) & np.isfinite(t))
        if np.any(bad):
            i = int(np.argmax(bad))
            raise ValueError(
                f"natural parameter outside family domain at row {i}"
            )

    def nll(self, y: np.ndarray, t: np.ndarray) -> float:
        """Negative log-likelihood sum_i Lambda(t_i) - y't on row images t;
        raises ValueError outside the natural domain."""
        self.check_natural(t)
        return float(np.sum(self.log_partition(t)) - y @ t)

    def nll_derivatives(self, y: np.ndarray, Xs: np.ndarray, t: np.ndarray):
        """Gradient Xs'(Lambda'(t) - y) and Hessian Xs' diag(Lambda''(t)) Xs of
        ``nll`` along the columns Xs, at row images t; raises ValueError
        outside the natural domain."""
        self.check_natural(t)
        return Xs.T @ (self.mean(t) - y), Xs.T @ (self.variance(t)[:, None] * Xs)

    def curvature_floor(self, I: Interval):
        """Closed-form inf over I of Lambda'', or None when the family has
        none (``curvature_inf`` then searches)."""
        return None

    def loss_floor(self, y) -> float:
        """Exact lower bound on ``mle_loss(y, X, u, self)`` over all X and u;
        -inf when none is known."""
        return -math.inf


class _Gaussian(ExpFamily):
    def curvature_floor(self, I: Interval):
        return self.params["sigma2"]

    def loss_floor(self, y) -> float:
        # rowwise complete square: sigma2 t^2 / 2 - y t >= -y^2 / (2 sigma2)
        return float(-np.sum(np.asarray(y, dtype=float) ** 2) / (2.0 * self.params["sigma2"]))


class _Bernoulli(ExpFamily):
    def curvature_floor(self, I: Interval):
        if not I.bounded:
            raise ValueError("flat family on I")
        return (2.0 * math.cosh(I.sup_abs / 2.0)) ** -2

    def loss_floor(self, y) -> float:
        return 0.0  # log(1 + e^t) - y t >= 0 rowwise for y in {0, 1}


def gaussian(sigma2: float = 1.0) -> ExpFamily:
    """Gaussian family with unit carrier: Lambda(t) = sigma2 t^2 / 2."""
    if not sigma2 > 0:
        raise ValueError("sigma2 must be positive")
    s2 = float(sigma2)
    return _Gaussian(
        tag="gaussian",
        log_partition=lambda t: 0.5 * s2 * np.asarray(t, float) ** 2,
        mean=lambda t: s2 * np.asarray(t, float),
        variance=lambda t: np.full_like(np.asarray(t, float), s2),
        params={"sigma2": s2},
    )


def bernoulli() -> ExpFamily:
    """Bernoulli family: Lambda(t) = log(1 + e^t), computed stably."""
    return _Bernoulli(
        tag="bernoulli",
        log_partition=lambda t: np.logaddexp(0.0, np.asarray(t, float)),
        mean=lambda t: expit(np.asarray(t, float)),
        variance=lambda t: expit(np.asarray(t, float)) * expit(-np.asarray(t, float)),
        params={},
    )


FAMILIES = {"bernoulli": bernoulli, "gaussian": gaussian}


def custom_family(
    log_partition,
    mean,
    variance,
    natural_lo: float = -math.inf,
    natural_hi: float = math.inf,
    tag: str = "custom",
) -> ExpFamily:
    """Wrap user callables as a family; callables must accept numpy arrays.

    The tag is only a label: a custom family gets the generic curvature
    search and no loss floor, whatever it is called."""
    return ExpFamily(
        tag=tag,
        log_partition=log_partition,
        mean=mean,
        variance=variance,
        natural_lo=float(natural_lo),
        natural_hi=float(natural_hi),
    )


def curvature_inf(fam: ExpFamily, I: Interval, grid: int = 10_000) -> float:
    """Curvature floor delta = inf over I of Lambda''.

    The family's closed form when it has one (``curvature_floor``);
    otherwise the infimum is approximated by a dense grid plus golden-section
    refinement around the best cell, and the result can overshoot the true
    infimum by at most about 1e-8 on smooth variances (documented upper
    bias).

    Raises
    ------
    ValueError
        "flat family on I" when the floor is not strictly positive.
    """
    closed = fam.curvature_floor(I)
    if closed is not None:
        return closed
    if not I.bounded:
        raise ValueError("curvature search requires a bounded interval")
    xs = I.grid(grid)
    vals = np.asarray(fam.variance(xs), dtype=float)
    j = int(np.argmin(vals))
    lo = xs[max(j - 1, 0)]
    hi = xs[min(j + 1, grid - 1)]
    best = float(vals[j])
    if hi > lo:
        res = minimize_scalar(
            lambda x: float(fam.variance(np.array([x]))[0]),
            bounds=(lo, hi),
            method="bounded",
            options={"xatol": 1e-12},
        )
        best = min(best, float(res.fun))
    if best <= CURVATURE_SEARCH_TOL:
        raise ValueError("flat family on I")
    return best


def _support_count(u: np.ndarray) -> int:
    return int(np.count_nonzero(u))


def mle_loss(y, X, u, fam: ExpFamily) -> float:
    """Negative log-likelihood -(y' X u - sum_i Lambda(X_i' u))."""
    dm = _as_design(X)
    y = np.asarray(y, dtype=float).ravel()
    u = np.asarray(u, dtype=float).ravel()
    return fam.nll(y, dm.X @ u)


def mle_objective(y, X, u, fam: ExpFamily, c_r: float) -> float:
    """Penalized negative log-likelihood: mle_loss + c_r |spt(u)|."""
    u = np.asarray(u, dtype=float).ravel()
    return mle_loss(y, X, u, fam) + float(c_r) * _support_count(u)


def mle_gradient_hessian(y, X, u, fam: ExpFamily, support=None):
    """Gradient and Hessian of the unpenalized loss restricted to a support.

    Parameters
    ----------
    support : sequence of int, optional
        Coordinates to differentiate along; defaults to all p coordinates.

    Returns
    -------
    (g, H) : gradient X_S'(Lambda'(t) - y) and Hessian X_S' diag(Lambda'') X_S.
    """
    dm = _as_design(X)
    y = np.asarray(y, dtype=float).ravel()
    u = np.asarray(u, dtype=float).ravel()
    S = np.arange(dm.p) if support is None else np.asarray(support, dtype=int)
    return fam.nll_derivatives(y, dm.X[:, S], dm.X @ u)
