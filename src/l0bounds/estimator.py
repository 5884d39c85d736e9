"""Exact L0-penalized estimation by support enumeration.

beta_hat = argmin over feasible u of  loss(y, X u) + c_r |spt(u)|,

with loss either the negative log-likelihood of an exponential linear
family or the squared residual of an analytic link.  Supports up to the
domain's support budget are enumerated exhaustively (the penalty makes the
outer problem exact once every inner problem is solved); inner problems are
smooth in the support's coordinates and share one solver, a primal
active-set Newton loop whose free steps and facet steps (Newton on the
facet of binding constraints) share one state: exact Hessian and one start for the likelihood (convex per
support), Gauss-Newton and two starts for least squares.  A trial point
costs one product X_S v, and its row images serve the domain test, the
loss, the derivatives and the binding constraints of the accepted point.

Determinism: enumeration order is itertools.combinations, all tie-breaking
is lexicographic, and no randomness enters anywhere, so refitting the same
inputs is bit-for-bit reproducible.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .analytic import AnalyticFn
from .design import DesignMatrix, SparseParam, _as_design
from .domains import DomainSpec
from .expfam import ExpFamily

__all__ = ["FitProblem", "FitResult", "SupportRecord", "fit", "inner_solve"]

_ENUM_BUDGET = 1_000_000
_TIE_TOL = 1e-9
_GRAD_TOL = 1e-9  # free stop: max |gradient|
_FACET_TOL = 1e-8  # facet stop: max |projected gradient| / max(1, max |gradient|)
_STEP_TOL = 1e-12  # backtracking gives up once max |alpha d| falls below this
_MAX_ITER = 100  # Newton iterations per start


@dataclass
class FitProblem:
    """One estimation instance.

    Exactly one model is given: ``family`` (the loss is its negative
    log-likelihood, "mle") or ``link`` (least squares, "lse").  c_r is the
    per-coordinate penalty; the domain's support budget caps the enumerated
    support size.
    """

    y: np.ndarray
    X: DesignMatrix
    domain: DomainSpec
    c_r: float
    family: ExpFamily | None = None
    link: AnalyticFn | None = None

    def __post_init__(self):
        self.y = np.asarray(self.y, dtype=float).ravel()
        self.X = _as_design(self.X)
        if self.y.size != self.X.n:
            raise ValueError("response length does not match design rows")
        if (self.family is None) == (self.link is None):
            raise ValueError("give exactly one of family (likelihood) or link (least squares)")
        if self.c_r < 0:
            raise ValueError("c_r must be nonnegative")

    @property
    def loss(self) -> str:
        """The key of ``_LOSSES`` that the model picks."""
        return "mle" if self.family is not None else "lse"

    @functools.cached_property
    def working_response(self) -> np.ndarray:
        """The response every support's ridge start regresses on X_S."""
        return _LOSSES[self.loss][2](self)


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


def _mle_value(prob: FitProblem, t: np.ndarray) -> float:
    try:
        return prob.family.nll(prob.y, t)
    except ValueError:
        return math.inf


def _lse_value(prob: FitProblem, t: np.ndarray) -> float:
    r = prob.y - prob.link(t)
    if not np.all(np.isfinite(r)):
        return math.inf
    return float(r @ r)


def _mle_grad_hess(prob: FitProblem, Xs: np.ndarray, t: np.ndarray):
    try:
        g, H = prob.family.nll_derivatives(prob.y, Xs, t)
    except ValueError:
        return None
    H = H + (1e-12 * max(1.0, float(np.trace(H)))) * np.eye(Xs.shape[1])
    return g, H


def _lse_grad_hess(prob: FitProblem, Xs: np.ndarray, t: np.ndarray):
    f = prob.link
    fp = f.deriv1(t)
    r = prob.y - f(t)
    if not (np.all(np.isfinite(fp)) and np.all(np.isfinite(r))):
        return None
    J = fp[:, None] * Xs
    g = -2.0 * (J.T @ r)
    H = 2.0 * (J.T @ J)  # Gauss-Newton curvature, positive definite with the ridge
    H = H + (1e-10 * max(1.0, float(np.trace(H)))) * np.eye(Xs.shape[1])
    return g, H


def _mle_working_response(prob: FitProblem) -> np.ndarray:
    fam, zero = prob.family, np.zeros(1)
    m0, v0 = float(fam.mean(zero)[0]), float(fam.variance(zero)[0])
    return (prob.y - m0) / v0 if v0 > 1e-12 else prob.y - m0


def _lse_working_response(prob: FitProblem) -> np.ndarray:
    f0, fp0 = prob.link(0.0), prob.link.coeff_k(1, 0.0)
    return (prob.y - f0) / fp0 if abs(fp0) > 1e-8 else prob.y - f0


# Per loss: value on row images t, (gradient, Hessian) on a support, working
# response of the ridge start, and whether the zero start is kept beside the
# ridge start (least squares is not convex, so it keeps the better of two).
_LOSSES = {
    "mle": (_mle_value, _mle_grad_hess, _mle_working_response, False),
    "lse": (_lse_value, _lse_grad_hess, _lse_working_response, True),
}


class _Support:
    """The inner problem on one support S: the columns X_S, their sup norms
    (the cap weights) and the loss pieces bound to the problem.  Iterates are
    v in R^|S|; every evaluation goes through the row images t = X_S v."""

    def __init__(self, prob: FitProblem, S: tuple):
        value, gh, _, self.two_starts = _LOSSES[prob.loss]
        self.prob, self.S = prob, list(S)
        self.Xs = prob.X.X[:, self.S]
        self.w = prob.X.column_norms(math.inf)[self.S]
        self.value = functools.partial(value, prob)
        self.grad_hess = functools.partial(gh, prob, self.Xs)

    def admits(self, v: np.ndarray, t: np.ndarray) -> bool:
        return self.prob.domain.admits(v, t, self.w)

    def embed(self, v: np.ndarray) -> np.ndarray:
        u = np.zeros(self.prob.X.p)
        u[self.S] = v
        return u


def _backtrack(sp: _Support, v, t, d, cur, gdotd):
    """Armijo backtracking along d; rejects infeasible steps.

    Each trial forms its row images X_S v once, for the membership test and
    the loss.  Returns (v, t, loss, step_ok, hit_boundary): the accepted
    trial and its row images, or the inputs when no step is accepted; only a
    membership failure counts as hitting the boundary.
    """
    alpha = 1.0
    dn = float(np.max(np.abs(d)))
    hit_boundary = False
    while alpha * dn > _STEP_TOL:
        trial = v + alpha * d
        t_trial = sp.Xs @ trial
        if not sp.admits(trial, t_trial):
            hit_boundary = True
        else:
            val = sp.value(t_trial)
            if val <= cur + 1e-4 * alpha * gdotd:
                return trial, t_trial, val, True, False
        alpha *= 0.5
    return v, t, cur, False, hit_boundary


def _active_constraints(sp: _Support, v: np.ndarray, t: np.ndarray):
    """Linearize the constraints binding at the support iterate v, whose row
    images are t = X_S v.

    The domain is an intersection of the weighted-l1 ball (linear on each
    sign orthant) and per-row interval half-spaces, so every active
    constraint contributes one linear row.  Coordinates sitting exactly at 0
    while the cap binds are frozen (the cap is nonsmooth there).

    Returns (A, kinds) with A of shape (m, |S|): the cap row, the binding
    upper rows, the binding lower rows (both in row order), then the frozen
    unit rows; None when nothing binds.
    """
    D, Xs, w = sp.prob.domain, sp.Xs, sp.w
    k = len(sp.S)
    cap_rows, kinds = [], []
    frozen: list[int] = []
    cap = D.l1inf_cap
    if cap is not None:
        if float(w @ np.abs(v)) >= cap * (1.0 - 1e-9):
            cap_rows.append((w * np.sign(v))[None, :])
            kinds.append("cap")
            frozen = [j for j in range(k) if abs(v[j]) <= 1e-12]
    I = D.interval
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
    feasible.  Z holds the right singular vectors of Au past its numerical
    rank, the number of singular values above max(s) max(m, k) eps."""
    _, s, vh = np.linalg.svd(Au)
    rank = int(np.sum(s > np.max(s) * max(Au.shape) * np.finfo(float).eps))
    Z = vh[rank:].T
    if Z.shape[1] == 0:
        return None
    return -Z @ np.linalg.solve(Z.T @ H @ Z, Z.T @ g)


def _active_set_newton(sp: _Support, v: np.ndarray, t: np.ndarray, cur: float):
    """Primal active-set Newton from one start (Nocedal & Wright, ch. 16).

    The state is v, its row images t = X_S v (those of the trial that
    accepted v) and its loss.  Each iteration takes (g, H) at t and one step
    judged by feasibility-rejecting Armijo backtracking.  A free step is the
    Newton step -H^{-1} g, until max |g| <= ``_GRAD_TOL``.  Once a free step
    is stopped by the domain, the constraints binding at v are linearized
    (they are linear on a sign orthant) and the step is Newton on their
    facet: d = -Z (Z'HZ)^{-1} Z'g, Z an orthonormal basis of the null space
    of the active rows.  On +-1 and 0/1 designs about n/2 rows can bind
    while a support of size k has at most 2^k distinct row images, so Z and
    the multipliers are taken from the distinct rows only: a step costs one
    sort of the m binding rows plus O(k^3), and no system of order k + m is
    ever formed.  A sign flip leaves the facet and is rejected exactly.  A
    vanishing projected gradient is converged, unless the cap binds alone
    with a negative multiplier; then, as when nothing binds, free steps
    resume, and an accepted free step ends the linearizing.  A failed step
    ends the solve, unless it is a free step stopped by the domain at a v
    not yet linearized.  Returns (v, loss, converged, boundary_clamped),
    clamped if constraints bind where the solve stopped or its last step
    was stopped by the domain.
    """
    on_boundary = converged = clamped = False
    for _ in range(_MAX_ITER):
        act = _active_constraints(sp, v, t) if on_boundary else None
        clamped = act is not None
        got = sp.grad_hess(t)
        if got is None:
            break
        g, H = got
        if clamped:
            Au = np.unique(act[0], axis=0)
            lam = np.linalg.lstsq(Au.T, -g, rcond=None)[0]
            pg = g + Au.T @ lam
            if float(np.max(np.abs(pg))) > _FACET_TOL * max(1.0, float(np.max(np.abs(g)))):
                d = _null_space_step(Au, g, H)
            elif act[1] == ["cap"] and lam[0] < -_FACET_TOL:
                clamped = False  # the cap does not bind at the optimum
            else:
                converged = True
                break
        if not clamped:
            if float(np.max(np.abs(g))) <= _GRAD_TOL:
                converged = True
                break
            try:
                d = np.linalg.solve(H, -g)
            except np.linalg.LinAlgError:
                d = np.linalg.lstsq(H, -g, rcond=None)[0]
        if d is None or not np.all(np.isfinite(d)) or float(np.max(np.abs(d))) == 0.0:
            break
        v, t, cur, ok, hit = _backtrack(sp, v, t, d, cur, float(g @ d))
        if not ok and (clamped or on_boundary or not hit):
            clamped = clamped or hit
            break
        on_boundary = clamped = clamped or hit
    return v, cur, converged, clamped


def _ridge_start(sp: _Support):
    """Ridge fit of the working response on X_S, shrunk into the domain: (v, X_S v) or None."""
    Xs, k = sp.Xs, len(sp.S)
    A = Xs.T @ Xs
    A = A + 1e-3 * max(1.0, float(np.trace(A)) / k) * np.eye(k)
    try:
        v = np.linalg.solve(A, Xs.T @ sp.prob.working_response)
    except np.linalg.LinAlgError:
        return None
    for _ in range(80):
        t = Xs @ v
        if sp.admits(v, t):
            return v, t
        v = v * 0.7
    return None


def inner_solve(prob: FitProblem, S: tuple):
    """Solve the smooth inner problem on a fixed support.

    Every start runs ``_active_set_newton`` with the loss's own derivative
    pair (exact Hessian for the likelihood, Gauss-Newton for least squares).
    Returns (u, loss, converged, boundary_clamped) or None when no feasible
    start exists for the support.
    """
    sp = _Support(prob, S)
    zero = np.zeros(len(sp.S))
    t0 = sp.Xs @ zero
    starts = [(zero, t0)] if sp.admits(zero, t0) else []
    if not S:
        return (sp.embed(zero), sp.value(t0), True, False) if starts else None
    if sp.two_starts or not starts:
        ridge = _ridge_start(sp)
        if ridge is not None and not (starts and np.array_equal(ridge[0], zero)):
            starts.append(ridge)
    if not starts:
        return None
    v, cur, converged, clamped = min(
        (_active_set_newton(sp, v, t, sp.value(t)) for v, t in starts), key=lambda r: r[1]
    )
    return sp.embed(v), cur, converged, clamped


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
        "enumeration budget exceeded" when sum_k C(p, k) for
        k <= min(p, max_support) passes 1e6; "empty domain" when no support
        admits a feasible point.
    """
    p = prob.X.p
    h = math.floor(min(p, prob.domain.max_support))  # an infinite budget means p
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
    check = _LOSSES[prob.loss][0](prob, prob.X.X @ u) + prob.c_r * int(np.count_nonzero(u))
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
