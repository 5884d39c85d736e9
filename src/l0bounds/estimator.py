"""Exact L0-penalized estimation by support enumeration.

beta_hat = argmin over feasible u of  loss(y, X u) + c_r |spt(u)|,

with loss either the negative log-likelihood of an exponential linear
family or the squared residual of an analytic link.  Supports up to h_max
are enumerated exhaustively (the penalty makes the outer problem exact once
every inner problem is solved); inner problems are smooth in 1..h_max
variables and are solved by damped Newton (MLE, convex per support) or
Levenberg-damped Gauss-Newton with two starts (least squares).

Determinism: enumeration order is itertools.combinations, all tie-breaking
is lexicographic, and no randomness enters anywhere, so refitting the same
inputs is bit-for-bit reproducible.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import null_space

from .analytic import AnalyticFn
from .design import DesignMatrix, SparseParam, _as_design
from .domains import DomainSpec, in_domain
from .expfam import ExpFamily, mle_loss

__all__ = ["FitProblem", "FitResult", "SupportRecord", "fit", "inner_solve"]

_ENUM_BUDGET = 1_000_000
_TIE_TOL = 1e-9


@dataclass
class FitProblem:
    """One estimation instance.

    loss = "mle" uses ``family``; loss = "lse" uses ``link``.  c_r is the
    per-coordinate penalty; h_max caps the enumerated support size.
    """

    y: np.ndarray
    X: DesignMatrix
    domain: DomainSpec
    c_r: float
    h_max: int
    loss: str = "mle"
    family: ExpFamily | None = None
    link: AnalyticFn | None = None
    grad_tol: float = 1e-9
    step_tol: float = 1e-12
    max_iter: int = 100

    def __post_init__(self):
        self.y = np.asarray(self.y, dtype=float).ravel()
        self.X = _as_design(self.X)
        if self.y.size != self.X.n:
            raise ValueError("response length does not match design rows")
        if self.loss == "mle" and self.family is None:
            raise ValueError("mle loss needs a family")
        if self.loss == "lse" and self.link is None:
            raise ValueError("lse loss needs a link")
        if self.loss not in ("mle", "lse"):
            raise ValueError("loss must be 'mle' or 'lse'")
        if self.c_r < 0:
            raise ValueError("c_r must be nonnegative")
        self.h_max = int(self.h_max)


@dataclass(frozen=True)
class SupportRecord:
    support: tuple
    loss: float
    feasible: bool
    converged: bool
    boundary_clamped: bool


@dataclass(frozen=True)
class FitResult:
    beta_hat: SparseParam
    objective: float
    loss_value: float
    support: tuple
    tie_break_applied: bool
    n_supports: int
    records: tuple


def _loss_fn(prob: FitProblem):
    if prob.loss == "mle":
        fam = prob.family

        def loss(u):
            try:
                return mle_loss(prob.y, prob.X, u, fam)
            except ValueError:
                return math.inf

        return loss
    f = prob.link

    def loss(u):
        r = prob.y - f(prob.X.X @ u)
        if not np.all(np.isfinite(r)):
            return math.inf
        return float(r @ r)

    return loss


def _feasible(prob: FitProblem, u: np.ndarray) -> bool:
    return in_domain(u, prob.X, prob.domain)


def _backtrack(prob, uS_full, S, d, loss, cur, gdotd):
    """Armijo backtracking along d restricted to S; rejects infeasible steps.

    Returns (new_full_u, new_loss, step_ok, hit_boundary).
    """
    alpha = 1.0
    dn = float(np.max(np.abs(d)))
    hit_boundary = False
    while alpha * dn > prob.step_tol:
        trial = uS_full.copy()
        trial[S] = uS_full[S] + alpha * d
        if not _feasible(prob, trial):
            hit_boundary = True
            alpha *= 0.5
            continue
        val = loss(trial)
        if val <= cur + 1e-4 * alpha * gdotd:
            return trial, val, True, False
        alpha *= 0.5
    return uS_full, cur, False, hit_boundary


def _mle_grad_hess(prob: FitProblem, Xs: np.ndarray, v: np.ndarray):
    fam = prob.family
    t = Xs @ v
    try:
        fam.check_natural(t)
    except ValueError:
        return None
    g = Xs.T @ (fam.mean(t) - prob.y)
    H = Xs.T @ (fam.variance(t)[:, None] * Xs)
    H = H + (1e-12 * max(1.0, float(np.trace(H)))) * np.eye(Xs.shape[1])
    return g, H


def _lse_grad_hess(prob: FitProblem, Xs: np.ndarray, v: np.ndarray):
    f = prob.link
    t = Xs @ v
    fp = f.deriv1(t)
    r = prob.y - f(t)
    if not (np.all(np.isfinite(fp)) and np.all(np.isfinite(r))):
        return None
    J = fp[:, None] * Xs
    g = -2.0 * (J.T @ r)
    H = 2.0 * (J.T @ J)  # Gauss-Newton curvature; exact enough for descent
    H = H + (1e-10 * max(1.0, float(np.trace(H)))) * np.eye(Xs.shape[1])
    return g, H


def _active_constraints(prob: FitProblem, S: list, u: np.ndarray):
    """Linearize the constraints binding at u, restricted to support coords.

    The domain is an intersection of the weighted-l1 ball (linear on each
    sign orthant) and per-row interval half-spaces, so every active
    constraint contributes one linear row.  Coordinates sitting exactly at 0
    while the cap binds are frozen (the cap is nonsmooth there).

    Returns (A, kinds) with A of shape (m, |S|): the cap row, the binding
    upper rows, the binding lower rows (both in row order), then the frozen
    unit rows; None when nothing binds.
    """
    D, dm = prob.domain, prob.X
    v = u[S]
    k = len(S)
    cap_rows, kinds = [], []
    frozen: list[int] = []
    cap = D.l1inf_cap
    if cap is not None:
        w = dm.column_norms(np.inf)[S]
        if float(w @ np.abs(v)) >= cap * (1.0 - 1e-9):
            cap_rows.append((w * np.sign(v))[None, :])
            kinds.append("cap")
            frozen = [j for j in range(k) if abs(v[j]) <= 1e-12]
    I = D.interval
    Xs = dm.X[:, S]
    t = Xs @ v
    scale = max(1.0, abs(I.lo) if math.isfinite(I.lo) else 1.0,
                abs(I.hi) if math.isfinite(I.hi) else 1.0)
    rows = []
    if math.isfinite(I.hi):
        rows.append(Xs[t >= I.hi - 1e-9 * scale])
    if math.isfinite(I.lo):
        rows.append(-Xs[t <= I.lo + 1e-9 * scale])
    kinds += ["row"] * sum(len(r) for r in rows) + ["frozen"] * len(frozen)
    if not kinds:
        return None
    return np.vstack(cap_rows + rows + [np.eye(k)[frozen]]), kinds


def _null_space_step(Au: np.ndarray, g: np.ndarray, H: np.ndarray):
    """argmin of g'd + d'Hd/2 subject to Au d = 0, or None when only d = 0 is
    feasible.  The rank of Au is decided by the SVD inside null_space."""
    Z = null_space(Au)
    if Z.shape[1] == 0:
        return None
    return -Z @ np.linalg.solve(Z.T @ H @ Z, Z.T @ g)


def _facet_phase(prob: FitProblem, S: list, u: np.ndarray, cur: float, loss, gh):
    """Equality-constrained Newton on the facet of binding constraints.

    All constraints are linear once the sign orthant is fixed, so the
    Newton step minimizes the quadratic model over the null space of the
    active rows: d = -Z (Z'HZ)^{-1} Z'g, with Z an orthonormal basis of that
    null space.  On +-1 and 0/1 designs about n/2 rows can bind while a
    support of size k has at most 2^k distinct row images, so Z and the
    multipliers are taken from the distinct rows only: a step costs one sort
    of the m binding rows plus O(k^3), and no system of order k + m is ever
    formed.  Feasibility is still enforced by rejection backtracking (a sign
    flip leaves the facet and is rejected exactly).  Returns
    (u, cur, converged, released): when the single active constraint
    carries a negative multiplier the point is not a boundary optimum and
    the caller should resume interior iterations.
    """
    Xs = prob.X.X[:, S]
    tol = max(prob.grad_tol, 1e-8)
    for _ in range(prob.max_iter):
        act = _active_constraints(prob, S, u)
        if act is None:  # drifted inside; hand back to the interior loop
            return u, cur, False, True
        A, kinds = act
        got = gh(prob, Xs, u[S])
        if got is None:
            return u, cur, False, False
        g, H = got
        Au = np.unique(A, axis=0)
        lam = np.linalg.lstsq(Au.T, -g, rcond=None)[0]
        pg = g + Au.T @ lam
        if float(np.max(np.abs(pg))) <= tol * max(1.0, float(np.max(np.abs(g)))):
            if len(kinds) == 1 and kinds[0] == "cap" and lam[0] < -tol:
                return u, cur, False, True  # cap not binding at the optimum
            return u, cur, True, False
        d = _null_space_step(Au, g, H)
        if d is None or not np.all(np.isfinite(d)) or float(np.max(np.abs(d))) == 0.0:
            return u, cur, False, False
        u2, cur2, ok, _hit = _backtrack(prob, u, S, d, loss, cur, float(g @ d))
        if not ok:
            return u, cur, False, False
        u, cur = u2, cur2
    return u, cur, False, False


def _newton_interior(prob: FitProblem, S: list, u: np.ndarray, cur: float, loss, gh):
    """Damped Newton with feasibility-rejecting Armijo backtracking."""
    converged = False
    clamped = False
    Xs = prob.X.X[:, S]
    for _ in range(prob.max_iter):
        got = gh(prob, Xs, u[S])
        if got is None:
            break
        g, H = got
        if float(np.max(np.abs(g))) <= prob.grad_tol:
            converged = True
            break
        try:
            d = np.linalg.solve(H, -g)
        except np.linalg.LinAlgError:
            d = np.linalg.lstsq(H, -g, rcond=None)[0]
        if not np.all(np.isfinite(d)):
            break
        u, cur, ok, hit = _backtrack(prob, u, S, d, loss, cur, float(g @ d))
        if not ok:
            clamped = hit
            break
    return u, cur, converged, clamped


def _polish(prob: FitProblem, S: list, u, cur, converged, clamped, loss, gh):
    """Alternate interior Newton and facet Newton until stationary.

    The interior loop stalls when the minimizer sits on the domain boundary;
    the facet loop then optimizes along the binding constraints and releases
    back to the interior if the boundary turns out not to bind.
    """
    for _ in range(5):
        if converged or not clamped:
            break
        u, cur, converged, released = _facet_phase(prob, S, u, cur, loss, gh)
        if converged:
            return u, cur, True, True
        if not released:
            return u, cur, False, True
        u, cur, converged, clamped = _newton_interior(prob, S, u, cur, loss, gh)
    return u, cur, converged, clamped


def _solve_mle_support(prob: FitProblem, S: tuple, loss) -> SupportRecord | tuple:
    dm, fam = prob.X, prob.family
    Sl = list(S)
    u = np.zeros(dm.p)
    if not _feasible(prob, u):
        m0 = float(fam.mean(np.zeros(1))[0])
        v0 = float(fam.variance(np.zeros(1))[0])
        z = (prob.y - m0) / v0 if v0 > 1e-12 else prob.y - m0
        u = _ridge_start(prob, Sl, z)
        if u is None:
            return None
    cur = loss(u)
    u, cur, converged, clamped = _newton_interior(prob, Sl, u, cur, loss, _mle_grad_hess)
    return _polish(prob, Sl, u, cur, converged, clamped, loss, _mle_grad_hess)


def _ridge_start(prob: FitProblem, S: list, z: np.ndarray) -> np.ndarray | None:
    Xs = prob.X.X[:, S]
    A = Xs.T @ Xs
    A = A + 1e-3 * max(1.0, float(np.trace(A)) / len(S)) * np.eye(len(S))
    try:
        w = np.linalg.solve(A, Xs.T @ z)
    except np.linalg.LinAlgError:
        return None
    u = np.zeros(prob.X.p)
    u[S] = w
    for _ in range(80):
        if _feasible(prob, u):
            return u
        u = u * 0.7
    return None


def _solve_lse_support(prob: FitProblem, S: tuple, loss):
    dm, f = prob.X, prob.link
    Sl = list(S)
    Xs = dm.X[:, Sl]
    starts = []
    zero = np.zeros(dm.p)
    if _feasible(prob, zero):
        starts.append(zero)
    f0 = f(0.0)
    fp0 = f.coeff_k(1, 0.0)
    z = (prob.y - f0) / fp0 if abs(fp0) > 1e-8 else prob.y - f0
    ridge = _ridge_start(prob, Sl, z)
    if ridge is not None and (not starts or not np.array_equal(ridge, starts[0])):
        starts.append(ridge)
    if not starts:
        return None
    best = None
    for u0 in starts:
        u = u0.copy()
        cur = loss(u)
        lam = 1e-8
        converged = False
        clamped = False
        for _ in range(prob.max_iter):
            t = Xs @ u[Sl]
            fp = f.deriv1(t)
            r = prob.y - f(t)
            J = fp[:, None] * Xs
            g = -2.0 * (J.T @ r)
            if float(np.max(np.abs(g))) <= prob.grad_tol:
                converged = True
                break
            stepped = False
            for _damp in range(10):
                A = J.T @ J + (lam + 1e-14) * np.eye(len(Sl))
                try:
                    d = np.linalg.solve(A, J.T @ r)
                except np.linalg.LinAlgError:
                    lam = max(lam, 1e-8) * 10.0
                    continue
                if not np.all(np.isfinite(d)):
                    lam = max(lam, 1e-8) * 10.0
                    continue
                u_new, val, ok, hit = _backtrack(
                    prob, u, Sl, d, loss, cur, float(g @ d)
                )
                if ok:
                    u, cur = u_new, val
                    lam = max(lam / 10.0, 1e-10)
                    stepped = True
                    break
                clamped = clamped or hit
                lam = max(lam, 1e-8) * 10.0
            if not stepped:
                break
        u, cur, converged, clamped = _polish(
            prob, Sl, u, cur, converged, clamped, loss, _lse_grad_hess
        )
        if best is None or cur < best[1]:
            best = (u, cur, converged, clamped)
    return best


def inner_solve(prob: FitProblem, S: tuple):
    """Solve the smooth inner problem on a fixed support.

    Returns (u, loss, converged, boundary_clamped) or None when no feasible
    start exists for the support.
    """
    loss = _loss_fn(prob)
    if len(S) == 0:
        zero = np.zeros(prob.X.p)
        if not _feasible(prob, zero):
            return None
        return zero, loss(zero), True, False
    if prob.loss == "mle":
        return _solve_mle_support(prob, S, loss)
    return _solve_lse_support(prob, S, loss)


def fit(prob: FitProblem) -> FitResult:
    """Exhaustive-enumeration L0 fit.

    Support sizes are visited in increasing order; once the penalty alone
    (plus an exact lower bound on the loss) can no longer beat the
    incumbent, the remaining sizes are skipped.  The prune is exact, so the
    reported minimizer is the same as under full enumeration; pruned
    supports simply do not appear in ``records``.

    Raises
    ------
    ValueError
        "enumeration budget exceeded" when sum_k C(p, k) for k <= h_max
        passes 1e6; "empty domain" when no support admits a feasible point.
    """
    p = prob.X.p
    h = max(0, min(prob.h_max, p))
    total = sum(math.comb(p, k) for k in range(h + 1))
    if total > _ENUM_BUDGET:
        raise ValueError("enumeration budget exceeded (more than 1e6 supports)")
    # exact lower bound on the unpenalized loss over all u
    loss_floor = prob.family.loss_floor(prob.y) if prob.loss == "mle" else 0.0
    records = []
    candidates = []  # (objective, sparsity, support, u, loss)
    incumbent = math.inf
    for k in range(h + 1):
        # exact prune: penalty alone already beats any achievable loss
        if candidates and loss_floor + prob.c_r * k > incumbent + _TIE_TOL:
            break
        for S in itertools.combinations(range(p), k):
            got = inner_solve(prob, S)
            if got is None:
                records.append(SupportRecord(S, math.inf, False, False, False))
                continue
            u, lval, conv, clamp = got
            spt = int(np.count_nonzero(u))
            obj = lval + prob.c_r * spt
            records.append(SupportRecord(S, lval, True, conv, clamp))
            candidates.append((obj, spt, tuple(int(j) for j in np.nonzero(u)[0]), u, lval))
            incumbent = min(incumbent, obj)
    if not candidates:
        raise ValueError("empty domain")
    best_obj = min(c[0] for c in candidates)
    tied = [c for c in candidates if c[0] <= best_obj + _TIE_TOL]
    tied.sort(key=lambda c: (c[1], c[2], c[0]))
    obj, spt, support, u, lval = tied[0]
    tie_break = len({c[2] for c in tied}) > 1
    # recompute the reported objective from the returned parameter
    check = _loss_fn(prob)(u) + prob.c_r * int(np.count_nonzero(u))
    if not math.isclose(check, obj, rel_tol=0.0, abs_tol=1e-9 * max(1.0, abs(obj))):
        raise AssertionError("objective recomputation mismatch")
    return FitResult(
        beta_hat=SparseParam(u),
        objective=float(obj),
        loss_value=float(lval),
        support=support,
        tie_break_applied=tie_break,
        n_supports=total,
        records=tuple(records),
    )
