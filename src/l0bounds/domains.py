"""Parameter domains: index intervals, support budgets, weighted-norm caps.

A feasible set is described by three restrictions on u: every row image
X_i' u must land in an interval I, the support size must not exceed a
budget, and optionally the weighted l1 norm sum_j |u_j| ||V_j||_inf must
stay under a cap (which makes the set compact).  Membership tests are
exact comparisons -- no epsilon slack -- on closed intervals, so points on
a finite end are members.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .design import _as_design, _dot

__all__ = ["Interval", "DomainSpec", "in_domain"]


@dataclass(frozen=True)
class Interval:
    """A real interval, closed at its finite ends.

    Infinite endpoints are allowed and are always open, so +-inf and nan
    are never members.
    """

    lo: float
    hi: float

    def __post_init__(self):
        if not self.lo < self.hi:
            raise ValueError("interval requires lo < hi")
        # which ends are closed (the finite ones), fixed once for ``contains``
        object.__setattr__(self, "_closed", (math.isfinite(self.lo), math.isfinite(self.hi)))

    def contains(self, x, axis=None):
        """Exact membership of a scalar or of every entry of an array (an
        empty one is contained): every entry is compared with both ends,
        and a NaN entry fails either test.  With an axis, one verdict per
        slice along it, as a bool array."""
        x = np.asarray(x, dtype=float)
        lo_closed, hi_closed = self._closed
        inside = (x >= self.lo if lo_closed else x > self.lo)
        inside &= (x <= self.hi if hi_closed else x < self.hi)
        return inside.all(axis=axis) if axis is not None else bool(inside.all())

    @property
    def sup_abs(self) -> float:
        """sup_{x in I} |x| (inf for unbounded intervals)."""
        return max(abs(self.lo), abs(self.hi))

    @property
    def bounded(self) -> bool:
        return math.isfinite(self.lo) and math.isfinite(self.hi)

    def grid(self, m: int) -> np.ndarray:
        if not self.bounded:
            raise ValueError("cannot grid an unbounded interval")
        return np.linspace(self.lo, self.hi, m)


@dataclass(frozen=True)
class DomainSpec:
    """Feasible set {u : X_i'u in I for all i, |spt(u)| <= max_support, cap}.

    max_support may be fractional (budgets derived from capacity usually
    are) or inf (no budget); membership compares the integer support size
    against it directly.  The budget is also what ``fit`` enumerates to
    (support sizes up to min(p, max_support)) and what ``build_grid``
    covers (segments of members have supports up to 2 max_support).
    l1inf_cap, when present, bounds sum_j |u_j| ||V_j||_inf and makes the
    domain compact, which ``build_grid`` requires.
    """

    interval: Interval
    max_support: float
    l1inf_cap: float | None = None

    def __post_init__(self):
        if not self.max_support >= 0:
            raise ValueError("max_support must be nonnegative (inf for no budget)")
        if self.l1inf_cap is not None and not self.l1inf_cap > 0:
            raise ValueError("l1inf_cap must be positive")

    def admits(self, u: np.ndarray, t: np.ndarray, w: np.ndarray):
        """Exact membership given the row images t = X u and the column sup
        norms w.  u may be restricted to a support S, with t = X_S u and
        w = ||V_j||_inf for j in S: the three tests see the same numbers.
        t may also list each distinct row image once, as the estimator's
        grouped rows do: the interval test depends only on the set of
        images.  u, t and w may carry leading axes, a stack of points (u of
        shape (..., k), t (..., G), w broadcasting against u): one verdict
        per point, as a bool array."""
        u = np.asarray(u, dtype=float)
        ok = self.interval.contains(t, axis=-1)
        if u.shape[-1] > self.max_support:
            ok &= np.count_nonzero(u, axis=-1) <= self.max_support
        if self.l1inf_cap is not None:
            ok &= ~(_dot(np.abs(u), np.asarray(w, dtype=float)) > self.l1inf_cap)
        return ok if ok.ndim else bool(ok)


def in_domain(u, X, D: DomainSpec) -> bool:
    """Exact membership test of u in D (rows, support budget, weighted cap)."""
    dm = _as_design(X)
    u = np.asarray(u, dtype=float).ravel()
    if u.size != dm.p:
        raise ValueError("parameter length does not match design width")
    return D.admits(u, dm.X @ u, dm.column_norms(math.inf))
