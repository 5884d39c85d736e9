"""Independent test oracles: seeded domain members, segment-hull samples,
the covering check of a grid against such samples, a cell-by-cell cover
construction, Taylor partial sums,
the one-pass series norms of every column at every order, the
column-separability inequality, the multinomial weight identity and a
full-enumeration fit.  The library never calls these; the acceptance
criteria and unit tests use them to check covers, series, the bounds'
design assumptions and the estimator's prunes from outside.
"""

import itertools
import math

import numpy as np

from l0bounds import coherence, in_domain, inner_solve, weighted_l1_norm
from l0bounds.design import _SERIES_BLOCK_BYTES, _as_design
from l0bounds.estimator import _TIE_TOL


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


def covers(G, samples) -> tuple:
    """Check the covering property of grid G on explicit hull samples.

    Returns
    -------
    (ok, worst) : ok is True when every sample u has a grid point g with
        ||u - g||_{1,inf} <= b(g)/2; worst is the largest slack
        min_g (dist - b(g)/2) over the samples (<= 0 when covered).
    """
    S = np.asarray([np.asarray(s, float).ravel() for s in samples])
    if S.size == 0:
        raise ValueError("no samples supplied")
    w = G.X.column_norms(math.inf)
    worst = -math.inf
    half_b = G.b / 2.0
    for i0 in range(0, S.shape[0], 128):
        blk = S[i0 : i0 + 128]
        dist = np.abs(blk[:, None, :] - G.points[None, :, :]) @ w
        margin = np.min(dist - half_b[None, :], axis=1)
        worst = max(worst, float(np.max(margin)))
    return worst <= 1e-12, worst


def cover_points_loop(X, D, d: float) -> tuple:
    """Cover points and their supports, one cell at a time: every support of
    size h = max(1, ceil(2 budget)) (at most p), its box of half-widths
    cap / ||V_j||_inf cut into m = ceil(h cap / d) cells per side, a cell
    kept when its nearest point to the origin is within the weighted cap,
    exact duplicates dropped (first copy kept)."""
    dm = _as_design(X)
    cap = float(D.l1inf_cap)
    h = max(1, math.ceil(min(dm.p, 2.0 * D.max_support)))
    m = max(1, math.ceil(h * cap / d))
    w = dm.column_norms(math.inf)
    pts, sups, seen = [], [], set()
    for S in itertools.combinations(range(dm.p), h):
        hw = cap / w[list(S)] / m
        for idx in itertools.product(range(m), repeat=h):
            center = (2 * np.asarray(idx) + 1 - m) * hw
            near = np.maximum(0.0, np.abs(center) - hw)
            if float(near @ w[list(S)]) > cap * (1 + 1e-12):
                continue
            u = np.zeros(dm.p)
            u[list(S)] = center
            if u.tobytes() not in seen:
                seen.add(u.tobytes())
                pts.append(u)
                sups.append(S)
    return np.array(pts), sups


def taylor_eval(f, center: float, z: float, K: int) -> float:
    """Partial Taylor sum sum_{k<=K} a_k(center) z^k."""
    total = 0.0
    zp = 1.0
    for k in range(K + 1):
        total += f.coeff_k(k, center) * zp
        zp *= z
    return total


def series_norms(X, K: int) -> np.ndarray:
    """All series orders at once: row k-1 holds ||V_j||_{2k}, k = 1..K.

    Each column is first divided by its sup norm m_j, as in LAPACK's dnrm2
    (Blue, ACM TOMS 1978): every power (x/m_j)^(2k) lies in [0, 1] and the
    largest entry contributes exactly 1, so the power sums S_k >= 1 neither
    overflow nor collapse to 0, whatever the scale of the design.  Row
    blocks of about 256 KB are squared once and multiplied up through all K
    orders while they sit in cache; ||V_j||_{2k} = m_j S_k^(1/(2k)).

    Returns
    -------
    ndarray of shape (K, p).
    """
    dm = _as_design(X)
    K = int(K)
    if K < 1:
        raise ValueError("need at least one series order")
    m = dm.column_norms(math.inf)
    rows = max(1, _SERIES_BLOCK_BYTES // (8 * dm.p))
    S = np.zeros((K, dm.p))
    for i in range(0, dm.n, rows):
        y2 = (dm.X[i : i + rows] / m) ** 2
        acc = y2.copy()
        for k in range(K):
            S[k] += acc.sum(axis=0)
            acc *= y2
    # a scalar exponent per order keeps numpy's sqrt path for k = 1, so a
    # +-1 design gets exactly sqrt(n), the value column_norms(2) gives
    return np.array([m * S[k - 1] ** (1.0 / (2.0 * k)) for k in range(1, K + 1)])


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


def full_enumeration_fit(prob) -> tuple:
    """The L0 fit without any prune: ``inner_solve`` on every support up to
    the domain's budget, then ``fit``'s argmin and tie rule (objectives
    within the tie tolerance of the best tie; the smaller, then
    lexicographically earlier support wins).

    Returns (support, objective, beta_hat, tie_break_applied, solved), solved
    mapping each support to its ``inner_solve`` result (None if infeasible).
    """
    p = prob.X.p
    h = math.floor(min(p, prob.domain.max_support))
    solved, candidates = {}, []
    for k in range(h + 1):
        for S in itertools.combinations(range(p), k):
            got = solved[S] = inner_solve(prob, S)
            if got is not None:
                u, lval = got[0], got[1]
                support = tuple(int(j) for j in np.nonzero(u)[0])
                candidates.append((lval + prob.c_r * len(support), len(support), support, u))
    best = min(c[0] for c in candidates)
    tied = sorted((c for c in candidates if c[0] <= best + _TIE_TOL), key=lambda c: (c[1], c[2], c[0]))
    obj, _, support, u = tied[0]
    return support, obj, u, len({c[2] for c in tied}) > 1, solved
