"""Independent test oracles: seeded domain members, segment-hull samples,
Taylor partial sums, the column-separability inequality and the
multinomial weight identity.  The library never calls these; the
acceptance criteria and unit tests use them to check covers, series and
the bounds' design assumptions from outside.
"""

import itertools
import math

import numpy as np

from l0bounds import coherence, in_domain, weighted_l1_norm
from l0bounds.design import _as_design


def sample_domain(D, X, size: int, seed: int, support_size=None) -> list:
    """Seeded members of D: random supports and magnitudes rescaled to fit.

    Points are scaled toward zero until the row and cap constraints hold,
    so 0 in I is required.
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
        if not in_domain(u, dm, D):  # safety net
            u = np.zeros(dm.p)
        out.append(u)
    return out


def segment_hull_sample(points, grid_per_edge: int = 17) -> np.ndarray:
    """Sample the pairwise segments spanned by a point set.

    For every pair (u, v), v taken from u onward in the given order, the
    convex combinations at grid_per_edge equispaced weights are collected
    as rows, in that order, keeping the first copy of exact duplicates.
    Every sample has support contained in spt(u) | spt(v), so samples of a
    set with support budget h have support at most 2h -- the doubling the
    covering arguments rely on.
    """
    if grid_per_edge < 2:
        raise ValueError("grid_per_edge must be at least 2")
    pts = [np.asarray(v, dtype=float).ravel() for v in points]
    if not pts:
        raise ValueError("empty point set")
    out: list[np.ndarray] = []
    seen: set[bytes] = set()
    ts = np.linspace(0.0, 1.0, grid_per_edge)
    for a in range(len(pts)):
        for b in range(a, len(pts)):
            u, v = pts[a], pts[b]
            for t in ts:
                w = (1.0 - t) * u + t * v
                key = w.tobytes()
                if key not in seen:
                    seen.add(key)
                    out.append(w)
    return np.array(out, dtype=float)


def taylor_eval(f, center: float, z: float, K: int) -> float:
    """Partial Taylor sum sum_{k<=K} a_k(center) z^k."""
    total = 0.0
    zp = 1.0
    for k in range(K + 1):
        total += f.coeff_k(k, center) * zp
        zp *= z
    return total


def nu_capacity(X, nu: float) -> float:
    """Support budget (1 - nu)(1 + 1/mu) of the separability split at any nu
    in [0, 1]; +inf for orthogonal designs.  The library fixes nu = 1/2
    (``l0bounds.capacity``)."""
    mu = coherence(X)
    return math.inf if mu == 0.0 else (1.0 - nu) * (1.0 + 1.0 / mu)


def separability_lower_bound(u, X, nu: float):
    """Check ||X u||_2^2 >= nu (1 + mu) sum_j u_j^2 ||V_j||_2^2.

    Valid whenever |spt(u)| <= nu_capacity(X, nu); raises if the support is
    too large for the inequality to be claimed.

    Returns
    -------
    (lhs, rhs, holds) : the two sides and whether lhs >= rhs - 1e-9 |rhs|.
    """
    dm = _as_design(X)
    u = np.asarray(u, dtype=float).ravel()
    spt = int(np.count_nonzero(u))
    if spt > nu_capacity(dm, nu):
        raise ValueError("support exceeds capacity")
    mu = coherence(dm)
    xu = dm.X @ u
    lhs = float(xu @ xu)
    rhs = float(nu * (1.0 + mu) * np.sum(u**2 * dm.column_norms(2) ** 2))
    holds = lhs >= rhs - 1e-9 * abs(rhs)
    return lhs, rhs, holds


def multinomial_identity_gap(x, k: int) -> float:
    """Max relative gap in the weight identity behind the series bounds:

    for every j, sum over alpha in {1..p}^k of
    n_j(alpha) x_j^(n_j(alpha)-1) prod_{s != j} x_s^(n_s(alpha))
    equals k (sum_s x_s)^(k-1).
    """
    x = np.asarray(x, dtype=float).ravel()
    p = x.size
    if k < 1 or p**k > 2_000_000:
        raise ValueError("k out of range for exact enumeration")
    rhs = k * float(np.sum(x)) ** (k - 1)
    worst = 0.0
    for j in range(p):
        lhs = 0.0
        for alpha in itertools.product(range(p), repeat=k):
            nj = alpha.count(j)
            if nj == 0:
                continue
            term = nj * x[j] ** (nj - 1)
            for s in set(alpha):
                if s != j:
                    term *= x[s] ** alpha.count(s)
            lhs += term
        worst = max(worst, abs(lhs - rhs) / max(1.0, abs(rhs)))
    return worst
