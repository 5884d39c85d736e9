"""Parameter domains: index intervals, support budgets, weighted-norm caps.

A feasible set is described by three restrictions on u: every row image
X_i' u must land in an interval I, the support size must not exceed a
budget, and optionally the weighted l1 norm sum_j |u_j| ||V_j||_inf must
stay under a cap (which makes the set compact).  Membership tests are
exact comparisons -- no epsilon slack -- so boundary points behave
predictably under the closed/open endpoint flags.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .design import _as_design, weighted_l1_norm

__all__ = [
    "Interval",
    "DomainSpec",
    "PointSet",
    "in_domain",
    "segment_hull_sample",
    "enclosing_radius",
    "sample_domain",
]


@dataclass(frozen=True)
class Interval:
    """A real interval with per-endpoint closed/open flags.

    Infinite endpoints are allowed and are always treated as open.
    """

    lo: float
    hi: float
    closed_lo: bool = True
    closed_hi: bool = True

    def __post_init__(self):
        if not self.lo < self.hi:
            raise ValueError("interval requires lo < hi")
        if math.isinf(self.lo):
            object.__setattr__(self, "closed_lo", False)
        if math.isinf(self.hi):
            object.__setattr__(self, "closed_hi", False)

    def contains(self, x) -> bool:
        """Exact membership of a scalar or of every entry of an array."""
        x = np.asarray(x, dtype=float)
        lo_ok = (x >= self.lo) if self.closed_lo else (x > self.lo)
        hi_ok = (x <= self.hi) if self.closed_hi else (x < self.hi)
        return bool(np.all(lo_ok & hi_ok))

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
    are); membership compares the integer support size against it directly.
    l1inf_cap, when present, bounds sum_j |u_j| ||V_j||_inf and makes the
    domain compact.
    """

    interval: Interval
    max_support: float
    l1inf_cap: float | None = None

    def __post_init__(self):
        if self.max_support < 0:
            raise ValueError("max_support must be nonnegative")
        if self.l1inf_cap is not None and not self.l1inf_cap > 0:
            raise ValueError("l1inf_cap must be positive")

    @property
    def compact(self) -> bool:
        return self.l1inf_cap is not None


class PointSet:
    """An ordered collection of parameter vectors with exact-duplicate removal."""

    def __init__(self, points=()):
        self._points: list[np.ndarray] = []
        self._seen: set[bytes] = set()
        for v in points:
            self.add(v)

    def add(self, v) -> bool:
        v = np.asarray(v, dtype=float).ravel()
        key = v.tobytes()
        if key in self._seen:
            return False
        self._seen.add(key)
        self._points.append(v)
        return True

    def __len__(self):
        return len(self._points)

    def __iter__(self):
        return iter(self._points)

    def __getitem__(self, i):
        return self._points[i]

    def asarray(self) -> np.ndarray:
        return np.array(self._points, dtype=float)


def in_domain(u, X, D: DomainSpec) -> bool:
    """Exact membership test of u in D (rows, support budget, weighted cap)."""
    dm = _as_design(X)
    u = np.asarray(u, dtype=float).ravel()
    if u.size != dm.p:
        raise ValueError("parameter length does not match design width")
    if np.count_nonzero(u) > D.max_support:
        return False
    if not D.interval.contains(dm.X @ u):
        return False
    if D.l1inf_cap is not None and weighted_l1_norm(u, dm) > D.l1inf_cap:
        return False
    return True


def segment_hull_sample(points, grid_per_edge: int = 17) -> PointSet:
    """Sample the pairwise segments spanned by a point set.

    For every ordered pair (u, v) the convex combinations at grid_per_edge
    equispaced weights are collected (duplicates dropped).  Every sample has
    support contained in spt(u) | spt(v), so samples of a set with support
    budget h have support at most 2h -- the doubling the covering arguments
    rely on.
    """
    if grid_per_edge < 2:
        raise ValueError("grid_per_edge must be at least 2")
    pts = [np.asarray(v, dtype=float).ravel() for v in points]
    if not pts:
        raise ValueError("empty point set")
    out = PointSet()
    ts = np.linspace(0.0, 1.0, grid_per_edge)
    for a in range(len(pts)):
        for b in range(a, len(pts)):
            u, v = pts[a], pts[b]
            for t in ts:
                out.add((1.0 - t) * u + t * v)
    return out


def enclosing_radius(points, X) -> float:
    """Restricted 1-center radius: min over member centers of the max
    weighted-l1 distance to the other members.

    The center is restricted to the point set itself, so {0, u} has radius
    ||u||_{1,inf} and {-u, u} has radius 2 ||u||_{1,inf}.
    """
    dm = _as_design(X)
    pts = [np.asarray(v, dtype=float).ravel() for v in points]
    if not pts:
        raise ValueError("enclosing radius of an empty set")
    w = dm.column_norms(math.inf)
    P = np.array(pts)
    # pairwise weighted-l1 distances
    dist = np.abs(P[:, None, :] - P[None, :, :]) @ w
    return float(np.min(np.max(dist, axis=1)))


def sample_domain(D: DomainSpec, X, size: int, seed: int, support_size=None) -> list:
    """Seeded members of D: random supports and magnitudes rescaled to fit.

    Used by tests and the Monte Carlo harness for hull samples and truth
    vectors.  Points are scaled toward zero until the row and cap
    constraints hold, so 0 in I is required.
    """
    dm = _as_design(X)
    if not D.interval.contains(0.0):
        raise ValueError("sampler requires 0 in the interval")
    rng = np.random.default_rng(np.random.SeedSequence((int(seed), 0xD0)))
    h = int(D.max_support) if support_size is None else int(support_size)
    h = max(0, min(h, dm.p))
    out = []
    for _ in range(size):
        u = np.zeros(dm.p)
        if h > 0:
            k = int(rng.integers(1, h + 1))
            spt = rng.choice(dm.p, size=k, replace=False)
            u[spt] = rng.uniform(0.5, 1.5, size=k) * rng.choice([-1.0, 1.0], size=k)
        scale = 1.0
        rows = dm.X @ u
        mags = np.abs(rows)
        if mags.max(initial=0.0) > 0:
            lim = min(abs(D.interval.lo), abs(D.interval.hi))
            if math.isfinite(lim):
                scale = min(scale, lim / mags.max())
        if D.l1inf_cap is not None:
            wn = weighted_l1_norm(u, dm)
            if wn > 0:
                scale = min(scale, D.l1inf_cap / wn)
        u = u * (scale * (1.0 - 1e-12))
        if not in_domain(u, dm, D):  # pragma: no cover - safety net
            u = np.zeros(dm.p)
        out.append(u)
    return out
