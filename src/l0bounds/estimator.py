"""Exact L0-penalized estimation by support enumeration.

beta_hat = argmin over feasible u of  loss(y, X u) + c_r |spt(u)|,

with loss either the negative log-likelihood of an exponential linear
family or the squared residual of an analytic link.  Supports up to the
domain's support budget are enumerated exhaustively (the penalty makes the
outer problem exact once every inner problem is solved); inner problems are
smooth in the support's coordinates and share one solver, a primal
active-set Newton loop whose free steps and facet steps (Newton on the
facet of binding constraints) share one state: exact Hessian and one start
for the likelihood (convex per support), Gauss-Newton and two starts for
least squares.  The loop runs in lockstep over members, one per start of
each support of a run (``fit``'s supports of equal floor): their
derivatives, free Newton steps and trial points are stacked into one numpy
call each, per number G of group rows (never padded), while facet steps
are taken member by member.  numpy's stacked matmul and solve call the
same BLAS/LAPACK routine per member with the same shapes, and stacked
reductions along the last axis sum as the 1-D ones do, so every member
does the floating-point operations of its solve alone.

Every inner problem depends on the rows only through the distinct row
images of X_S, their multiplicities m_g and their response sums, so the
rows are grouped a chunk of a level's supports at a time, and each
support solves on its G <= min(n, prod of the columns' level counts)
group rows: at most 2^k on a +-1 or 0/1 design with support size k, n on
a gaussian one.  A likelihood support of size <= 2 whose columns are in
the indicator Gram (``FitProblem.level_gram``) reads its groups from it,
with no row touched (the cells route, when 0 lies in the interval); every
other support keys its rows by the columns' level codes, which the
problem caches (the row route).  A trial
point costs one product of the G x k group rows with v, and those images
(with the link's values there) serve the domain test, the loss, the
derivatives and the binding constraints of the accepted point; no work per
trial scales with n.  ``fit`` rechecks the winner's objective on all n rows.

Each support size is one level for both losses: ``fit`` prices it with the
loss's floors, solves it in ascending floor order and stops at the first
support whose floor plus penalty cannot beat the incumbent.  The
likelihood's floor is its global loss floor, the same for every support.
On the group rows the least-squares loss is W_S + sum_g m_g (ybar_g -
f(t_g))^2, so its floor is the within-group sum of squares W_S (less a
rounding margin), formed for a whole level from its supports' cell counts
and response sums: for supports of size <= 2 of two-level columns, when
every y_i is an integer, read from the Gram of their 0/1 indicators,
otherwise from stacked level keys; it is 0 on a continuous column, where
every group is one row.  ``_level_keys`` keys the rows of a level's
supports, for the level pass and the row route alike; a support is
grouped only if the prune still admits it.

Determinism: equal floors keep itertools.combinations order; records come
in enumeration order, by size and then lexicographically; tie-breaking is
lexicographic and nothing is random, so refits are bit-for-bit
reproducible.
"""

from __future__ import annotations

import functools
import itertools
import math
from collections.abc import Callable
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .analytic import AnalyticFn
from .design import _SERIES_BLOCK_BYTES, DesignMatrix, _as_design, _dot
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
        return _LOSSES[self.loss].working_response(self)

    @functools.cached_property
    def level_codes(self) -> tuple:
        """(codes, levels): codes[j, i] is the rank of X_ij among the distinct
        values of column j, levels[j] their number.  Two-level columns (every
        entry the column's min or max, and min < max) are coded in one pass,
        X == max; the others by ``np.unique``."""
        X = self.X.X
        lo, hi = self.level_range
        at_hi = X == hi
        two = (at_hi | (X == lo)).all(axis=0) & (lo < hi)
        codes = np.empty((self.X.p, self.X.n), dtype=np.intp)
        levels = np.full(self.X.p, 2, dtype=np.intp)
        codes[two] = at_hi[:, two].T
        for j in np.flatnonzero(~two):
            values, codes[j] = np.unique(X[:, j], return_inverse=True)
            levels[j] = values.size
        return codes, levels

    @functools.cached_property
    def level_range(self) -> np.ndarray:
        """(2, p), of X's array type: each column's min and max, so that row
        c holds the value of level code c of every two-level column."""
        X = self.X.X
        out = np.empty_like(X, shape=(2, self.X.p))
        X.min(axis=0, out=out[0])
        X.max(axis=0, out=out[1])
        return out

    @functools.cached_property
    def level_gram(self) -> tuple:
        """(slot, N, M): N = Z'Z and M = Z' diag(y) Z for the 0/1 indicators
        Z of the two-level columns (their level codes as floats), column j at
        row slot[j] (-1 when left out), for ``_gram_cells``.  ``fit`` forms
        it once its budget reaches pairs; the least-squares floors and the
        likelihood's groups of supports of size <= 2 then read their cells
        from it (``_in_gram``) instead of keying rows.

        Z holds every two-level column, but only when n >= 4 (a pair's 4
        cells are then no more than the n keys of the level pass) and every
        y_i is an integer with sum |y_i| < 2^53, so that every entry, and
        every cell formed from them, is an exact integer in any summation
        order.  N and M are the only state, 16 q^2 bytes for q columns: at
        most 32 MB, since ``_ENUM_BUDGET`` admits pairs only when p <= 1413.
        Z is formed in blocks of r = max(q, ``_SERIES_BLOCK_BYTES`` // 8q)
        rows, as ``DesignMatrix.scaled_gram`` is, so forming peaks at 24 q^2
        bytes plus two blocks of 8 r q: 40 q^2 bytes once q >= 182."""
        codes, levels = self.level_codes
        y = self.y
        exact = self.X.n >= 4 and np.abs(y).sum() < 2.0**53 and (y == np.trunc(y)).all()
        cols = np.flatnonzero((levels == 2) & exact)
        slot = np.full(self.X.p, -1, dtype=np.intp)
        slot[cols] = np.arange(cols.size)
        q = cols.size
        N, M = np.zeros((q, q)), np.zeros((q, q))
        rows = max(q, _SERIES_BLOCK_BYTES // (8 * max(q, 1)))
        for i in range(0, self.X.n, rows):
            Zt = codes[cols, i:i + rows].astype(float)  # the block of Z, transposed
            N += Zt @ Zt.T
            M += (Zt * y[i:i + rows]) @ Zt.T
        return slot, N, M


@dataclass(frozen=True)
class SupportRecord:
    support: tuple
    loss: float
    feasible: bool
    converged: bool
    boundary_clamped: bool


@dataclass(frozen=True)
class FitResult:
    """beta_hat is the estimate as a length-p float array, support its
    nonzero coordinates."""

    beta_hat: np.ndarray
    objective: float
    loss_value: float
    support: tuple
    tie_break_applied: bool
    n_supports: int
    records: tuple


class _Rows:
    """Rows in groups, for one support or for a stack of supports of equal
    group count G, whose arrays then gain a leading support axis:
    ``inv[..., i]`` is the group of row i, m the multiplicities and Y the
    response sums.  Least squares reads the group means ybar and the
    within-group sum of squares W = sum_i (y_i - ybar_g(i))^2, the ridge
    start the working-response sums; each is formed on first use.  With one
    row per group (inv = 0..n-1, m = 1) the losses are their per-row forms.
    Groups read from the Gram (``_Cells``) come with their sums Y and no
    inv, so they serve only m and Y."""

    def __init__(self, prob: FitProblem, inv: np.ndarray | None, m: np.ndarray,
                 Y: np.ndarray | None = None):
        self.prob, self.inv, self.m = prob, inv, m
        if Y is None:
            # each row's group in the flat m: support b's groups offset past the ones before
            G = m.shape[-1]
            self.cell = inv.ravel() if len(m) == 1 or m.ndim == 1 else (
                inv + G * np.arange(len(m))[:, None]).ravel()
            Y = self._sums(prob.y)
        self.Y = Y

    def _sums(self, x: np.ndarray) -> np.ndarray:
        """The group sums of x, every support's in one bincount (the rows in
        their order)."""
        if self.inv.ndim > 1:
            x = np.concatenate([x] * len(self.inv))
        return np.bincount(self.cell, weights=x, minlength=self.m.size).reshape(self.m.shape)

    @functools.cached_property
    def ybar(self) -> np.ndarray:
        return self.Y / self.m

    @functools.cached_property
    def W(self) -> np.ndarray:
        r = self.prob.y - self.ybar.ravel()[self.cell].reshape(self.inv.shape)
        return _dot(r, r)

    @functools.cached_property
    def working_sums(self) -> np.ndarray:
        return self._sums(self.prob.working_response)


def _level_keys(prob: FitProblem, supports: np.ndarray):
    """(keys, radix, grouped) for a (B, k) array of supports, k >= 0: rows
    i, i' have equal images under X_S, S = supports[b], exactly when
    keys[b, i] == keys[b, i'], and 0 <= keys[b] < radix[b] <= n.

    The keys are mixed-radix over the columns' level codes (lexicographic
    in the column values).  Supports whose radix passes n are re-ranked
    together: one sort over their keys, each support's offset past the one
    before, so no row is sorted unless the levels multiply past n.  A
    support with a column of n levels (any continuous one has them) has n
    distinct row images: grouped[b] is False, its keys are the row numbers
    and its radix n, and it joins no product and no sort (which would add
    4-10% to a gaussian design's fit); each of its groups is one row, so
    its within-group sum of squares is 0.
    """
    codes, levels = prob.level_codes
    n, B = prob.X.n, len(supports)
    L = levels[supports]
    grouped = L.max(axis=1, initial=0) < n
    if not grouped.all():
        keys, radix = np.tile(np.arange(n), (B, 1)), np.full(B, n)
        keys[grouped], radix[grouped], _ = _level_keys(prob, supports[grouped])
        return keys, radix, grouped
    if not supports.shape[1]:  # the empty support: every row in one group
        return np.zeros((B, n), dtype=np.intp), np.ones(B, dtype=np.intp), grouped
    keys, radix = codes[supports[:, 0]], L[:, 0].copy()  # updated in place below
    for c in range(1, supports.shape[1]):
        keys *= L[:, c, None]
        keys += codes[supports[:, c]]
        radix *= L[:, c]
        if radix.max(initial=0) > n:
            over = np.flatnonzero(radix > n)
            offset = np.arange(over.size) * radix[over].max()
            uniq, rank = np.unique((keys[over] + offset[:, None]).ravel(), return_inverse=True)
            base = np.searchsorted(uniq, offset)
            keys[over] = rank.reshape(over.size, n) - base[:, None]
            radix[over] = np.diff(base, append=uniq.size)
    return keys, radix, grouped


def _group_rows(prob: FitProblem, supports: np.ndarray) -> list:
    """Group the rows of each support S of a (B, k) array by their image
    under X_S, in one pass (keys offset support by support, one bincount,
    one rank table): one (inv, m, rep) per support, rep holding one row of
    each group, each a view of one array for the whole pass (a row of inv,
    slices of the flat m and rep).  Groups come in key order
    (``_level_keys``): in row order when every row is its own group."""
    keys, radix, _ = _level_keys(prob, supports)
    start = np.cumsum(radix) - radix
    keys += start[:, None]
    counts = np.bincount(keys.ravel(), minlength=int(start[-1] + radix[-1]))
    present = np.flatnonzero(counts)
    inv = (np.cumsum(counts > 0) - 1)[keys]  # the rank table: each cell's rank among the present
    rep = np.empty(present.size, dtype=np.intp)
    rep[inv] = np.arange(keys.shape[1])  # the rows of a group are equal on S: any one serves
    first = np.searchsorted(present, start)  # each support's first group
    inv -= first[:, None]
    m = counts[present].astype(float)
    ends = np.append(first[1:], present.size).tolist()
    return [(inv[b], m[lo:hi], rep[lo:hi]) for b, (lo, hi) in enumerate(zip(first.tolist(), ends))]


_PASS_CELLS = 1 << 14  # keys (or Gram cells) per chunk of a level: 128 KB of them


def _key_cells(prob: FitProblem, supports: np.ndarray) -> tuple:
    """(m, Y, start, grouped): the cell counts and response sums of every
    support of a (B, k) array, support b's cells at start[b] on in key
    order, from the level pass: their keys (``_level_keys``), each offset
    past the one before, go through two bincounts."""
    keys, radix, grouped = _level_keys(prob, supports)
    start = np.cumsum(radix) - radix
    keys += start[:, None]
    cells = keys.ravel()
    m = np.bincount(cells, minlength=int(start[-1] + radix[-1]))
    Y = np.bincount(cells, weights=np.tile(prob.y, len(supports)), minlength=m.size)
    return m, Y, start, grouped


def _in_gram(prob: FitProblem, supports: np.ndarray) -> np.ndarray:
    """Which supports of a (B, k) array read their cells from the indicator
    Gram (``_gram_cells``): k <= 2, the Gram is formed and holds a column
    (so every y_i is an integer), and it holds every column of the
    support."""
    if supports.shape[1] > 2 or "level_gram" not in vars(prob):
        return np.zeros(len(supports), dtype=bool)
    slot = prob.level_gram[0]
    return (slot[supports] >= 0).all(axis=1) & bool((slot >= 0).any())


def _gram_cells(prob: FitProblem, supports: np.ndarray) -> tuple:
    """(m, Y, start) as ``_key_cells`` gives them, for a (B, k) array of
    supports with k <= 2 and every column in ``level_gram``, and no row
    touched: the cells of S in key order, all exact integers.  For
    S = (j, l) they are (z_j, z_l) = 00, 01, 10, 11, counting
    n - N_jj - N_ll + N_jl, N_ll - N_jl, N_jj - N_jl and N_jl rows; for
    S = (j,) z_j = 0, 1, counting n - N_jj and N_jj; for S = () the one cell
    of n rows.  Their response sums are the same in M and sum y."""
    slot, N, M = prob.level_gram
    s = slot[supports]

    def cells(G, total):
        if not s.shape[1]:
            return np.full(len(s), float(total))
        a = s[:, 0]
        jj = G[a, a]
        if s.shape[1] == 1:
            return np.column_stack([total - jj, jj]).ravel()
        b = s[:, 1]
        ll, jl = G[b, b], G[a, b]
        return np.column_stack([total - jj - ll + jl, ll - jl, jj - jl, jl]).ravel()

    return cells(N, prob.X.n), cells(M, prob.y.sum()), np.arange(len(s)) << s.shape[1]


def _lse_level_floors(prob: FitProblem, supports: np.ndarray) -> np.ndarray:
    """A lower bound on the least-squares loss, as ``_lse_value`` computes
    it, of every point on each support of a (B, k) array.

    On the group rows of S the loss is W_S + sum_g m_g (ybar_g - f(t_g))^2,
    so no point on S goes below the within-group sum of squares
    W_S = sum_i y_i^2 - sum_g Y_g^2 / m_g, formed from the cell counts m_g
    and response sums Y_g by one segmented sum of Y_g (Y_g / m_g) per
    support.  Supports of size <= 2 whose columns are all in the indicator
    Gram, once ``fit`` has formed it, read their cells from it
    (``_gram_cells``), in chunks of at most ``_PASS_CELLS`` cells; the rest
    go through the level pass
    (``_key_cells``) in chunks of at most ``_PASS_CELLS`` keys, so no
    temporary grows with the level.  A support that ``_level_keys``
    leaves ungrouped (every group one row) has floor 0.  The Gram is
    formed only for integer y with sum |y_i| < 2^53, where every m_g and
    Y_g is an exact integer on both paths, so both give the same floors bit
    for bit, and the bounds below, derived for the level pass, hold for
    both; real y goes through the level pass alone.

    Rounding (Higham, Accuracy and Stability of Numerical Algorithms, ch. 3;
    u = eps/2, gamma_k = k u / (1 - k u), Q = sum_i y_i^2, G <= n groups).
    Recursive summation of N terms in any order, blocked or pairwise
    included, is within gamma_(N-1) of the sum of their absolute values,
    so none of the bounds below depends on the order the pass sums in.
    y'y is within gamma_n Q of Q; each Y_g within gamma_n A_g of its value,
    A_g = sum over the group of |y_i|, and A_g^2 / m_g <= the group's sum
    of y_i^2 (Cauchy-Schwarz); each term Y_g (Y_g / m_g) takes two more
    roundings, so the computed segment sum is within
    (gamma_(G+1) (1 + gamma_n)^2 + gamma_n (2 + gamma_n)) Q of its value,
    and the difference, rounded once more, lies within about (4n + 3) u Q
    of W_S.  ``_Rows.W`` sums the rounded squares of y_i - ybar_g with a
    rounded ybar_g; the exact sum E is >= W_S (the mean minimizes it) and
    <= (1 + gamma_(n+1)^2) Q, and the computed one is >= (1 - gamma_(n+2)) E,
    so at most about (n + 2) u Q below W_S.  The margin
    4 (n + 2) eps Q = 8 (n + 2) u Q exceeds both together with their
    second-order terms.  ``_lse_value`` adds a rounded sum of nonnegative
    terms to W, and rounding is monotone, so the floor never exceeds the
    loss it reports.
    """
    n, y = prob.X.n, prob.y
    yy = float(y @ y)
    margin = 4.0 * (n + 2) * np.finfo(float).eps * yy

    def floor(m, Y, start):
        # an empty group has Y_g = 0 exactly, so dividing it by 1 adds 0
        return yy - np.add.reduceat(Y * (Y / np.maximum(m, 1)), start) - margin

    floors = np.empty(len(supports))
    gram = _in_gram(prob, supports)
    read, chunk = np.flatnonzero(gram), max(1, _PASS_CELLS >> supports.shape[1])
    for lo in range(0, read.size, chunk):
        at = read[lo:lo + chunk]
        floors[at] = floor(*_gram_cells(prob, supports[at]))
    rest = np.flatnonzero(~gram)
    chunk = max(1, _PASS_CELLS // n)
    for lo in range(0, rest.size, chunk):
        at = rest[lo:lo + chunk]
        m, Y, start, grouped = _key_cells(prob, supports[at])
        floors[at] = np.where(grouped, floor(m, Y, start), 0.0)
    return floors


def _all(b: np.ndarray) -> bool:
    """b.all() for a bool array b, counted in one C call: the solver's
    hot loop asks it several times per iteration, where the reduction
    machinery of ``ndarray.all`` costs more than the count."""
    return np.count_nonzero(b) == b.size


# The losses are evaluated only at admitted points, whose images are finite
# (an interval's infinite ends are open), so ``nll`` never raises here.


def _mle_value(prob: FitProblem, rows, t: np.ndarray, f: np.ndarray):
    return prob.family.nll(rows.Y, t, rows.m)


def _lse_value(prob: FitProblem, rows, t: np.ndarray, f: np.ndarray):
    r = rows.ybar - f
    if _all(np.isfinite(r)):
        return rows.W + _dot(rows.m * r, r)
    finite = np.isfinite(r).all(axis=-1)  # inf for the other members, with no arithmetic on their r
    r = np.where(finite[..., None], r, 0.0)
    return np.where(finite, rows.W + _dot(rows.m * r, r), math.inf)


def _mle_grad_hess(prob: FitProblem, st, t: np.ndarray, f: np.ndarray):
    g, H = prob.family.nll_derivatives(st.Y, st.Xs, t, st.m)
    return g, _ridged(H, 1e-12), None


def _lse_grad_hess(prob: FitProblem, st, t: np.ndarray, f: np.ndarray):
    fp = prob.link.deriv1(t)
    r = st.ybar - f
    ok = None
    if not (_all(np.isfinite(fp)) and _all(np.isfinite(r))):
        # a member whose values are not finite stops here: no arithmetic on them
        ok = np.isfinite(fp).all(axis=-1) & np.isfinite(r).all(axis=-1)
        fp, r = np.where(ok[:, None], fp, 0.0), np.where(ok[:, None], r, 0.0)
    J = fp[..., None] * st.Xs
    mJ = st.m[..., None] * J
    g = -2.0 * (mJ.transpose(0, 2, 1) @ r[..., None])[..., 0]
    H = 2.0 * (J.transpose(0, 2, 1) @ mJ)  # Gauss-Newton curvature, positive definite with the ridge
    return g, _ridged(H, 1e-10), ok


def _ridged(H: np.ndarray, c: float) -> np.ndarray:
    """H, C-contiguous, plus c max(1, tr H) on the diagonal of each member."""
    k = H.shape[-1]
    diag = H.reshape(H.shape[:-2] + (k * k,))[..., ::k + 1]  # a view
    diag += (c * np.fmax(1.0, np.add.reduce(diag, axis=-1)))[..., None]
    return H


def _mle_working_response(prob: FitProblem) -> np.ndarray:
    fam, zero = prob.family, np.zeros(1)
    m0, v0 = float(fam.mean(zero)[0]), float(fam.variance(zero)[0])
    return (prob.y - m0) / v0 if v0 > 1e-12 else prob.y - m0


def _lse_working_response(prob: FitProblem) -> np.ndarray:
    f0, fp0 = prob.link(0.0), prob.link.coeff_k(1, 0.0)
    return (prob.y - f0) / fp0 if abs(fp0) > 1e-8 else prob.y - f0


def _mle_loss_floor(prob: FitProblem) -> float:
    return prob.family.loss_floor(prob.y)


def _mle_level_floors(prob: FitProblem, supports: np.ndarray) -> np.ndarray:
    return np.full(len(supports), _mle_loss_floor(prob))


class _Loss(NamedTuple):
    """Per loss, each on a stack of members (one per leading index; a
    ``_Rows`` of one support serves as a stack of one): the ``_Rows``
    statistics value and grad_hess read besides m, what they read at images
    t besides t (least squares: the link values f(t); the likelihood's
    family takes t itself), the value on the images of grouped rows,
    (gradient, Hessian, ok) on a support, ok False where a member's
    derivatives are not finite (its solve stops there) and None when every
    member's are, the working response of the ridge start, whether the
    zero start is kept beside the ridge start (least squares is not
    convex, so it keeps the better of two), an exact lower bound on the
    loss over all u, and a lower bound on the loss of each support of a
    level (the likelihood's is its global floor, the same for every
    support; least squares has the within-group sum of squares)."""

    reads: tuple
    at: Callable
    value: Callable
    grad_hess: Callable
    working_response: Callable
    two_starts: bool
    loss_floor: Callable
    level_floors: Callable


_LOSSES = {
    "mle": _Loss(("Y",), lambda prob, t: t, _mle_value, _mle_grad_hess, _mle_working_response,
                 False, _mle_loss_floor, _mle_level_floors),
    "lse": _Loss(("ybar", "W"), lambda prob, t: prob.link(t), _lse_value, _lse_grad_hess,
                 _lse_working_response, True, lambda prob: 0.0, _lse_level_floors),
}


class _Members:
    """Members of one lockstep solve, row b of every array member b's: the
    G x k distinct rows Xs[b] of its support S, column-major like X[:, S]
    (XsT[b] is Xs[b].T, C-contiguous), the columns' sup norms w[b] (the cap
    weights), and the multiplicities m[b] with the statistics its loss reads
    (``_Loss.reads``) of S's grouped rows."""

    def __init__(self, XsT: np.ndarray, **arrays):
        self.XsT, self.Xs = XsT, XsT.transpose(0, 2, 1)
        vars(self).update(arrays)

    def take(self, idx) -> _Members:
        """The members idx (an index array or a mask)."""
        return _Members(**{name: a[idx] for name, a in vars(self).items() if name != "Xs"})


class _Cells:
    """The groups of a (B, k) array of supports read from the Gram, k <= 2,
    with no row keyed: the cells of support b in key order (``_gram_cells``)
    with their counts m[b] and response sums Y[b], and XsT[b][c] the value
    of column S[c] in each cell, its min or max as the cell's level code of
    the column is 0 or 1 (every entry of a two-level column is one of
    them).  Its groups are the cells with m > 0, G[b] of them, in key
    order, as ``_group_rows`` forms them from the rows."""

    def __init__(self, prob: FitProblem, supports: np.ndarray):
        B, k = supports.shape
        m, Y, _ = _gram_cells(prob, supports)
        self.m, self.Y = m.reshape(B, 1 << k), Y.reshape(B, 1 << k)
        code = (np.arange(1 << k) >> np.arange(k - 1, -1, -1)[:, None]) & 1  # (k, 2^k)
        self.XsT = prob.level_range[code, supports[:, :, None]]
        self.G = np.count_nonzero(self.m, axis=1).tolist()

    def stack(self, idx: list) -> tuple:
        """(m, Y, XsT) of the supports idx, of equal G, stacked."""
        m, Y, XsT = self.m[idx], self.Y[idx], self.XsT[idx]
        if self.G[idx[0]] < m.shape[1]:  # drop the empty cells, keeping key order
            cell = np.nonzero(m)[1].reshape(len(idx), -1)
            m, Y = np.take_along_axis(m, cell, 1), np.take_along_axis(Y, cell, 1)
            XsT = np.take_along_axis(XsT, cell[:, None, :], 2)
        return m, Y, XsT


class _Cell(NamedTuple):
    """The groups entry of support b of a ``_Cells``."""

    cells: _Cells
    b: int


def _groups(prob: FitProblem, supports: np.ndarray, on_cells: np.ndarray) -> list:
    """One groups entry per support of a (B, k) array: a ``_Cell`` where
    on_cells says so, otherwise its ``_group_rows`` entry, each route's
    supports in one pass."""
    on = on_cells.tolist()
    cells = _Cells(prob, supports[on_cells]) if any(on) else None
    rows = iter(_group_rows(prob, supports[~on_cells]) if not all(on) else ())
    b = itertools.count()
    return [_Cell(cells, next(b)) if c else next(rows) for c in on]


def _stack(prob: FitProblem, supports: np.ndarray, groups: list) -> tuple:
    """(rows, members) for a (B, k) array of supports of one route and equal
    G with their groups entries (``_groups``; ``_Cell`` entries of one
    ``_Cells``): their grouped rows stacked in one ``_Rows``, and one member
    per support."""
    if isinstance(groups[0], _Cell):
        m, Y, XsT = groups[0].cells.stack([e.b for e in groups])
        rows = _Rows(prob, None, m, Y)
    else:
        if len(groups) == 1:
            inv, m, rep = (a[None] for a in groups[0])
        else:
            inv, m, rep = (np.array(a) for a in zip(*groups))
        rows = _Rows(prob, inv, m)
        XsT = prob.X.X[rep[:, None, :], supports[:, :, None]]
    w = prob.X.column_norms(math.inf)[supports]
    stats = {name: getattr(rows, name) for name in _LOSSES[prob.loss].reads}
    return rows, _Members(XsT, w=w, m=m, **stats)


def _active_constraints(D: DomainSpec, Xs: np.ndarray, w: np.ndarray, v: np.ndarray,
                        t: np.ndarray):
    """Linearize the constraints of D binding at the support iterate v,
    whose images on the group rows Xs (the cap weights w) are t = Xs v.

    The domain is an intersection of the weighted-l1 ball (linear on each
    sign orthant) and per-row interval half-spaces, so every active
    constraint contributes one linear row; equal rows give equal
    half-spaces, so one per group row stands for all of them.  Coordinates
    sitting exactly at 0 while the cap binds are frozen (the cap is
    nonsmooth there).

    Returns (A, cap_alone) with A of shape (m, |S|): the cap row, the
    binding upper group rows, the binding lower group rows (both in group
    order), then the frozen unit rows; cap_alone says whether A is the cap
    row alone.  None when nothing binds.
    """
    k = len(v)
    cap_rows = []
    frozen: list[int] = []
    cap = D.l1inf_cap
    if cap is not None:
        if float(w @ np.abs(v)) >= cap * (1.0 - 1e-9):
            cap_rows.append((w * np.sign(v))[None, :])
            frozen = [j for j in range(k) if abs(v[j]) <= 1e-12]
    I = D.interval
    scale = max(1.0, abs(I.lo) if math.isfinite(I.lo) else 1.0,
                abs(I.hi) if math.isfinite(I.hi) else 1.0)
    rows = []
    if math.isfinite(I.hi):
        rows.append(Xs[t >= I.hi - 1e-9 * scale])
    if math.isfinite(I.lo):
        rows.append(-Xs[t <= I.lo + 1e-9 * scale])
    A = np.vstack(cap_rows + rows + [np.eye(k)[frozen]])
    if not len(A):
        return None
    return A, bool(cap_rows) and len(A) == 1


def _null_space_step(A: np.ndarray, g: np.ndarray, H: np.ndarray):
    """argmin of g'd + d'Hd/2 subject to A d = 0, or None when only d = 0 is
    feasible.  Z holds the right singular vectors of A past its numerical
    rank, the number of singular values above max(s) max(m, k) eps, so
    repeated rows change nothing."""
    _, s, vh = np.linalg.svd(A)
    rank = int(np.sum(s > np.max(s) * max(A.shape) * np.finfo(float).eps))
    Z = vh[rank:].T
    if Z.shape[1] == 0:
        return None
    return -Z @ np.linalg.solve(Z.T @ H @ Z, Z.T @ g)


# trial points a backtracking pass prices, shared by the members searching;
# 32 ran fastest of 4-128 on glm_boundary, and flip_enum is flat from 16 to
# 64 (BENCH_27.json, ladder_sweep)
_LADDER_TRIALS = 32
_RUNGS = np.ldexp(1.0, -np.arange(1100))  # the step sizes 2^-j, exactly; 2^-1074 is the last
_DECREASE = 1e-4 * _RUNGS  # the Armijo factor 1e-4 alpha of each rung


def _armijo(prob: FitProblem, mem: _Members, V, T, F, cur, d, dn, gdotd, careful: bool):
    """Armijo backtracking along d, rejecting infeasible steps, for every
    member at once: updates V, T, F and cur in place for the members that
    accept a trial and returns (moved, hit) per member.

    Member b tries v + 2^-j d for j = 0, 1, ... while 2^-j dn[b] exceeds
    ``_STEP_TOL`` (dn = max |d|) and accepts its first admitted trial whose
    loss passes the Armijo test.  A pass covers the same rungs for every
    member still searching, ceil(``_LADDER_TRIALS`` / their number) of them
    (one when ``careful``), in a fixed number of numpy calls: the images Xs
    v of every rung in one stacked product, one membership call, and one
    loss call on the admitted trials (a rejected one is priced at the
    member's current images instead, whose loss is known, and ignored).
    The rungs a member prices past its accepted one are discarded, and a
    member whose rungs run out leaves.  Only a membership failure counts as
    hitting the boundary, and only for a member that accepts no trial, as a
    sequential search reports it.
    """
    loss, D = _LOSSES[prob.loss], prob.domain
    moved = hit = None  # formed once a pass leaves a member searching or hitting the boundary
    idx = slice(None)  # the members searching (an index array once some have left)...
    Vi, Ti, di, dni, ci, gi = V, T, d, dn, cur, gdotd  # ...and their rows of these
    j0 = 0
    while True:
        width = 1 if careful else -(-_LADDER_TRIALS // len(Vi))
        alpha = _RUNGS[j0:j0 + width, None]
        # rung-major: row j of each array below is rung j0 + j of every member
        valid = alpha * dni > _STEP_TOL
        trial = Vi + alpha[..., None] * di
        t = (mem.Xs @ trial[..., None])[..., 0]
        ok = D.admits(trial, t, mem.w)
        ok &= valid
        if not _all(ok):
            hit = np.zeros(len(V), dtype=bool) if hit is None else hit
            hit[idx] |= (valid & ~ok).any(axis=0)
            t = np.where(ok[..., None], t, Ti)
        f = loss.at(prob, t)
        va = loss.value(prob, mem, t, f)
        passing = va <= ci + _DECREASE[j0:j0 + width, None] * gi
        passing &= ok
        if _all(passing[0]):  # every member accepts the first rung of the pass
            V[idx], T[idx], F[idx], cur[idx] = trial[0], t[0], f[0], va[0]
            if moved is None:
                return None
            moved[idx] = True
            break
        moved = np.zeros(len(V), dtype=bool) if moved is None else moved
        hit = np.zeros(len(V), dtype=bool) if hit is None else hit
        pos = np.arange(len(V))[idx]
        acc = np.flatnonzero(passing.any(axis=0))
        if acc.size:
            j = passing[:, acc].argmax(axis=0)  # each member's first passing rung
            at = pos[acc]
            moved[at] = True
            V[at], T[at], F[at], cur[at] = trial[j, acc], t[j, acc], f[j, acc], va[j, acc]
        left = valid[-1]
        left[acc] = False
        if not left.any():
            break
        idx, mem = pos[left], mem.take(left)
        Vi, Ti, di, dni, ci, gi = (x[left] for x in (Vi, Ti, di, dni, ci, gi))
        j0 += width
    hit &= ~moved
    return moved, hit


def _active_set_newton(prob: FitProblem, mem: _Members, V, T, F, cur, careful: bool = False):
    """Primal active-set Newton (Nocedal & Wright, ch. 16), in lockstep over
    members.

    A member's state is its iterate v, the images t = Xs v on its G group
    rows (those of the trial that accepted v), the ``_Loss.at`` values there
    and its loss.  Each iteration takes (g, H) at t and one step judged by
    feasibility-rejecting Armijo backtracking (``_armijo``).  A free step is
    the Newton step -H^{-1} g, until max |g| <= ``_GRAD_TOL``.  Once a free
    step is stopped by the domain, the constraints binding at v are
    linearized (they are linear on a sign orthant) and the step is Newton on
    their facet: d = -Z (Z'HZ)^{-1} Z'g, Z an orthonormal basis of the null
    space of the active rows.  On +-1 and 0/1 designs about n/2 rows can
    bind, but they fall into at most 2^k group rows, and at most 1 + 2G + k
    constraint rows bind, so an iteration costs O(G k^2 + k^3) whatever n
    is.  A sign flip leaves the facet and is rejected exactly.  A vanishing
    projected gradient is converged, unless the cap binds alone with a
    negative multiplier; then, as when nothing binds, free steps resume, and
    an accepted free step ends the linearizing.  A failed step ends the
    solve, unless it is a free step stopped by the domain at a v not yet
    linearized.

    The live members share the iteration count, one stacked (g, H) call,
    one stacked solve for their free steps (member by member, with the
    least-squares fallback, when one of them is singular) and the passes of
    one backtracking; facet steps are taken member by member.  A member
    does the floating-point operations of its solve alone, whatever else is
    in the stack.  Returns per member (v, loss, converged,
    boundary_clamped), clamped if constraints bind where the solve stopped
    or its last step was stopped by the domain.
    """
    loss, D = _LOSSES[prob.loss], prob.domain
    B, k = V.shape
    out = np.empty_like(V), np.empty_like(cur), np.zeros(B, dtype=bool), np.zeros(B, dtype=bool)
    ids = np.arange(B)  # the live members; every other array holds their rows, in this order
    on_boundary = np.zeros(B, dtype=bool)
    for _ in range(_MAX_ITER):
        clamped = np.zeros(ids.size, dtype=bool)
        acts = {}
        if np.count_nonzero(on_boundary):
            for i in np.flatnonzero(on_boundary):
                act = _active_constraints(D, mem.Xs[i], mem.w[i], V[i], T[i])
                if act is not None:
                    acts[i] = act
                    clamped[i] = True
        g, H, ok = loss.grad_hess(prob, mem, T, F)
        stop = np.zeros(ids.size, dtype=bool) if ok is None else ~ok
        d = _newton_steps(H, g)  # every member's; the facet steps replace theirs
        facet_done = []
        for i, (A, cap_alone) in acts.items():
            if stop[i]:
                continue
            lam = np.linalg.lstsq(A.T, -g[i], rcond=None)[0]
            pg = g[i] + A.T @ lam
            if float(np.abs(pg).max()) > _FACET_TOL * max(1.0, float(np.abs(g[i]).max())):
                step = _null_space_step(A, g[i], H[i])
                if step is None:
                    stop[i] = True
                else:
                    d[i] = step
            elif cap_alone and lam[0] < -_FACET_TOL:
                clamped[i] = False  # the cap does not bind at the optimum
            else:
                facet_done.append(i)
        converged = np.abs(g).max(axis=1) <= _GRAD_TOL
        if acts or ok is not None:  # otherwise no member stops or is clamped yet
            converged &= ~(stop | clamped)
        if facet_done:
            converged[facet_done] = True
        dn = np.abs(d).max(axis=1)
        stop |= converged | ~((dn > 0.0) & (dn < math.inf))  # as does a zero or non-finite step
        if np.count_nonzero(stop):
            ids, V, T, F, cur, clamped, on_boundary, g, d, dn = _retire(
                out, ids, stop, (V, cur, converged, clamped),
                (ids, V, T, F, cur, clamped, on_boundary, g, d, dn))
            if not ids.size:
                return out
            mem = mem.take(~stop)
        res = _armijo(prob, mem, V, T, F, cur, d, dn, _dot(g, d), careful)
        if res is not None:  # None: every member accepted its full step
            moved, hit = res
            stop = ~moved & (clamped | on_boundary | ~hit)
            clamped |= hit
            if np.count_nonzero(stop):
                ids, V, T, F, cur, clamped = _retire(
                    out, ids, stop, (V, cur, np.zeros_like(stop), clamped),
                    (ids, V, T, F, cur, clamped))
                if not ids.size:
                    return out
                mem = mem.take(~stop)
        on_boundary = clamped
    # members still live after _MAX_ITER: not converged, clamped as their last step left them
    for o, x in zip(out, (V, cur, np.zeros(ids.size, dtype=bool), on_boundary)):
        o[ids] = x
    return out


def _retire(out: tuple, ids: np.ndarray, stop: np.ndarray, final: tuple, live: tuple) -> list:
    """Write the final arrays (v, loss, converged, clamped) of the members
    that stop into out, at their ids, and return the rows of the live
    arrays that belong to the others."""
    for o, x in zip(out, final):
        o[ids[stop]] = x[stop]
    keep = ~stop
    return [x[keep] for x in live]


def _newton_steps(H: np.ndarray, g: np.ndarray) -> np.ndarray:
    """-H^{-1} g per member: one stacked solve, or member by member, with
    the least-squares fallback, when one of them is singular."""
    try:
        return np.linalg.solve(H, -g[..., None])[..., 0]
    except np.linalg.LinAlgError:
        d = np.empty_like(g)
        for i in range(len(g)):
            try:
                d[i] = np.linalg.solve(H[i], -g[i])
            except np.linalg.LinAlgError:
                d[i] = np.linalg.lstsq(H[i], -g[i], rcond=None)[0]
        return d


def _ridge_start(prob: FitProblem, Xs: np.ndarray, m: np.ndarray, sums: np.ndarray,
                 w: np.ndarray):
    """Ridge fit of the working response on the group rows Xs of a support,
    shrunk into the domain: (v, Xs v) or None.  The normal equations are
    summed over the group rows, sum_g m_g x_g x_g' and the working-response
    sums."""
    k = Xs.shape[1]
    A = Xs.T @ (m[:, None] * Xs)
    A.flat[::k + 1] += 1e-3 * max(1.0, float(A.trace()) / k)
    try:
        v = np.linalg.solve(A, Xs.T @ sums)
    except np.linalg.LinAlgError:
        return None
    for _ in range(80):
        t = Xs @ v
        if prob.domain.admits(v, t, w):
            return v, t
        v = v * 0.7
    return None


def _solve_stack(prob: FitProblem, supports: np.ndarray, groups: list, careful: bool) -> list:
    """Solve a (B, k) array of supports of one route and equal G, with
    their groups entries (``_groups``): the zero start where it is
    admitted, and the ridge start as well for least squares (or alone where
    zero is not admitted), all of them members of one
    ``_active_set_newton``.  Returns one result per support, as
    ``inner_solve`` does; a support's best start
    is its first of least loss."""
    loss = _LOSSES[prob.loss]
    rows, mem = _stack(prob, supports, groups)
    Bs, k = supports.shape
    zero, t0 = np.zeros(k), np.zeros(mem.Xs.shape[1])
    I = prob.domain.interval
    inside = I.lo <= 0.0 <= I.hi  # the zero start's images are 0 (finite), its norm is 0
    starts = []  # (support, v, t)
    for b in range(Bs):
        if inside:
            starts.append((b, zero, t0))
        if k and (loss.two_starts or not inside):
            ridge = _ridge_start(prob, mem.Xs[b], rows.m[b], rows.working_sums[b], mem.w[b])
            if ridge is not None and not (inside and not ridge[0].any()):
                starts.append((b, *ridge))
    out = [None] * Bs
    if not starts:
        return out
    sup, V, T = (np.array(a) for a in zip(*starts))
    if sup.tolist() != list(range(Bs)):
        mem = mem.take(sup)
    F = loss.at(prob, T)
    cur = loss.value(prob, mem, T, F)
    if k:
        V, cur, converged, clamped = _active_set_newton(prob, mem, V, T, F, cur, careful)
    else:
        converged, clamped = np.ones(len(sup), dtype=bool), np.zeros(len(sup), dtype=bool)
    for i, b in enumerate(sup.tolist()):
        if out[b] is None or cur[i] < out[b][1]:
            u = np.zeros(prob.X.p)
            u[supports[b]] = V[i]
            out[b] = (u, float(cur[i]), bool(converged[i]), bool(clamped[i]))
    return out


# What a solve raises on its own numbers, which the replay must defer to the
# support it belongs to: FloatingPointError under np.errstate(..="raise"),
# LinAlgError (a ValueError), the likelihood's ValueError outside its
# natural domain, and MemoryError; any other exception is a fault and
# propagates at once.
_SOLVE_ERRORS = (ArithmeticError, ValueError, MemoryError)


def _solve_run(prob: FitProblem, supports: np.ndarray, groups: list) -> list:
    """Solve a run of supports of one size, a (B, k) array with their
    groups entries (``_groups``): the supports of each route and G as one
    stack each, never padded.  Returns one result per support, as
    ``inner_solve`` does, or the exception (one of ``_SOLVE_ERRORS``) its
    solve raised.

    Members share arrays, so such an exception (say a link that overflows
    under np.errstate(over="raise")) stops the whole attempt; each support
    is then solved again alone, one rung per backtracking pass, which
    evaluates exactly the points a sequential solve does: an exception that
    recurs there is the support's own, and the others are unaffected."""
    try:
        return _lockstep(prob, supports, groups, careful=False)
    except _SOLVE_ERRORS:
        pass
    out = []
    for b in range(len(supports)):
        try:
            out += _lockstep(prob, supports[b:b + 1], groups[b:b + 1], careful=True)
        except _SOLVE_ERRORS as exc:
            out.append(exc)
    return out


class _Run:
    """A run of ``fit`` (supports of one size, a (B, k) array, with their
    groups entries), solved by ``_solve_run`` on the first
    ``inner_solve`` that asks for one of its supports."""

    def __init__(self, prob: FitProblem, supports: np.ndarray, groups: list):
        self.prob, self.supports, self.groups = prob, supports, groups
        self.results = None  # support tuple -> its result or exception, once solved

    def result(self, S: tuple):
        if self.results is None:
            got = _solve_run(self.prob, self.supports, self.groups)
            self.results = dict(zip(map(tuple, self.supports.tolist()), got))
        return self.results[S]


def _lockstep(prob: FitProblem, supports: np.ndarray, groups: list, careful: bool) -> list:
    """``_solve_stack`` on the supports of each route and G, their results
    in run order."""
    stacks = {}  # (route, G) -> the positions of its supports
    for i, e in enumerate(groups):
        key = (True, e.cells.G[e.b]) if isinstance(e, _Cell) else (False, len(e[1]))
        stacks.setdefault(key, []).append(i)
    if len(stacks) == 1:
        return _solve_stack(prob, supports, groups, careful)
    out = [None] * len(supports)
    for at in stacks.values():
        for i, got in zip(at, _solve_stack(prob, supports[at], [groups[i] for i in at], careful)):
            out[i] = got
    return out


def inner_solve(prob: FitProblem, S: tuple, groups: tuple | None = None,
                run: _Run | None = None):
    """Solve the smooth inner problem on a fixed support S: its starts are
    members of one ``_active_set_newton`` with the loss's own derivative
    pair (exact Hessian for the likelihood, Gauss-Newton for least
    squares).  Returns (u, loss, converged, boundary_clamped) or None when
    no feasible start exists for the support, and raises what its solve
    raised.

    ``run`` is a ``_Run`` holding S (``fit`` passes each support its run):
    the first inner_solve of a run solves every support of it at once, and
    each call returns its own support's result.  Without one, S is a run of
    one support, grouped by ``groups`` (its ``_group_rows`` entry, formed
    here if None).
    """
    S = tuple(S)
    if run is None:
        supports = np.array(S, dtype=np.intp).reshape(1, len(S))
        run = _Run(prob, supports, [groups or _group_rows(prob, supports)[0]])
    got = run.result(S)
    if isinstance(got, Exception):
        raise got
    return got


def fit(prob: FitProblem) -> FitResult:
    """Exhaustive-enumeration L0 fit.

    Support sizes are visited in increasing order; once the penalty alone
    (plus the loss's exact global floor) can no longer beat the incumbent,
    the remaining sizes are skipped.  Each size k is priced at once (the
    loss's ``level_floors``: the likelihood's global floor for
    every support; for least squares the within-group sum of squares, a
    floor on every loss on S, less an explicit rounding margin), solved in
    ascending floor order (a stable sort: equal floors keep combinations
    order), and stopped at the first support whose floor plus c_r k exceeds
    the incumbent by more than the tie tolerance; every later one fails the
    same test.  The solves are grouped in chunks, in solve order, one pass
    each (``_groups``) when its first support comes up.  A support takes the
    cells route when the loss is the likelihood, 0 lies in the interval
    (else its ridge start reads working-response sums, which only the rows
    give) and its cells are in the Gram (``_in_gram``: k <= 2, and ``fit``
    forms the Gram once its budget reaches pairs); its groups are then read
    from the Gram (``_Cells``) and no row is keyed.  Every other support
    keys its rows (``_group_rows``).  A chunk holds up to ``_PASS_CELLS`` of
    what its supports hold while grouped: n keys on the row route, 2^k cells
    on the cells route (4096 pairs).  The pass groups the chunk only up to
    its first support that fails the same test against the incumbent of
    that moment, which only falls, so no support the prune skips is grouped
    (a likelihood level, whose floors are all equal, groups whole chunks).

    The grouped supports of a chunk that share the floor of the one coming up
    form a run (a ``_Run``), solved at once by the first ``inner_solve``
    that asks for one of its supports (``_solve_run``: every start of every
    support a member of one lockstep loop).  The prune test is then
    replayed in solve order, one ``inner_solve`` per support it admits,
    each against the incumbent the solves before it leave, and the first
    support it rejects ends the level as it would have ended a sequential
    solve; the supports after it are dropped unrecorded, and a solve's
    exception is raised only where the replay reaches it.  Equal floors
    pass the same test until a solve returns exact zeros and beats
    floor + c_r k, so a likelihood run is its whole admitted chunk, and a
    least-squares run, whose floors differ, one support.  Records,
    incumbent and fit are exactly those of solving one support at a time.

    Both prunes are exact, so the reported minimizer is the same as under
    full enumeration; pruned supports simply do not appear in ``records``,
    which lists the solved ones in enumeration order (by size, then
    lexicographically) whatever order they were solved in.  The caveat both
    prunes share: they charge a support c_r |S|, while a solve that returns
    exact zeros is charged only for its nonzeros, so a pruned S could have
    returned such a point; it lies on a smaller support, and the result is
    exact when that support's own solve does at least as well.  (A constant
    floor stops a level only after such a solve: any other point on a
    size-k support costs at least that floor plus c_r k.)

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
    loss = _LOSSES[prob.loss]
    loss_floor = loss.loss_floor(prob)  # an exact lower bound on the unpenalized loss over all u
    if h >= 2:
        prob.level_gram  # formed here, so that sizes 0 and 1 read it too
    I = prob.domain.interval
    cells_ok = prob.loss == "mle" and I.lo <= 0.0 <= I.hi
    records = []
    candidates = []  # (objective, sparsity, support, u, loss)
    incumbent = math.inf
    for k in range(h + 1):
        # exact prune: penalty alone already beats any achievable loss
        if candidates and loss_floor + prob.c_r * k > incumbent + _TIE_TOL:
            break
        count = math.comb(p, k)
        combos = itertools.chain.from_iterable(itertools.combinations(range(p), k))
        supports = np.fromiter(combos, dtype=np.intp, count=count * k).reshape(count, k)
        floors = loss.level_floors(prob, supports)
        order = np.argsort(floors, kind="stable")
        on_cells = _in_gram(prob, supports) & cells_ok
        # what the supports before each one in solve order hold while grouped
        held = np.concatenate([[0], np.cumsum(np.where(on_cells[order], 1 << k, prob.X.n))])
        level = []  # (enumeration index, record, candidate or None)
        j = end = 0
        while j < count:
            # exact prune: no point on this support, nor (the floors ascend)
            # on any later one of this size, can beat the incumbent
            if floors[order[j]] + prob.c_r * k > incumbent + _TIE_TOL:
                break
            if j == end:
                end = max(j + 1, int(np.searchsorted(held, held[j] + _PASS_CELLS, "right")) - 1)
                # group only the supports the same test still admits: the
                # incumbent only falls, so the rest of the chunk is never solved
                nxt = order[j:end]
                cut = np.flatnonzero(floors[nxt] + prob.c_r * k > incumbent + _TIE_TOL)
                grouped = nxt[:cut[0] if cut.size else nxt.size]
                groups = _groups(prob, supports[grouped], on_cells[grouped])
                first = j
            o = j - first
            ties = int(np.count_nonzero(floors[grouped[o + 1:]] == floors[grouped[o]]))
            run = grouped[o:o + 1 + ties]
            solving = _Run(prob, supports[run], groups[o:o + run.size])
            for i in run:
                if floors[i] + prob.c_r * k > incumbent + _TIE_TOL:
                    break  # the replay: the test above ends the level here
                j += 1
                S = tuple(supports[i].tolist())
                got = inner_solve(prob, S, run=solving)
                if got is None:
                    level.append((i, SupportRecord(S, math.inf, False, False, False), None))
                    continue
                u, lval, conv, clamp = got
                spt = int(np.count_nonzero(u))
                obj = lval + prob.c_r * spt
                cand = (obj, spt, tuple(int(c) for c in np.nonzero(u)[0]), u, lval)
                level.append((i, SupportRecord(S, lval, True, conv, clamp), cand))
                incumbent = min(incumbent, obj)
        level.sort(key=lambda e: e[0])
        records += [rec for _, rec, _ in level]
        candidates += [cand for _, _, cand in level if cand is not None]
    if not candidates:
        raise ValueError("empty domain")
    best_obj = min(c[0] for c in candidates)
    tied = [c for c in candidates if c[0] <= best_obj + _TIE_TOL]
    tied.sort(key=lambda c: (c[1], c[2], c[0]))
    obj, spt, support, u, lval = tied[0]
    tie_break = len({c[2] for c in tied}) > 1
    # recompute the reported objective from the returned parameter on all n
    # rows, one per group: an independent check of the grouping
    n = prob.X.n
    rows = _Rows(prob, np.arange(n), np.ones(n))
    t = prob.X.X @ u
    check = loss.value(prob, rows, t, loss.at(prob, t)) + prob.c_r * int(np.count_nonzero(u))
    if not math.isclose(check, obj, rel_tol=0.0, abs_tol=1e-9 * max(1.0, abs(obj))):
        raise AssertionError("objective recomputation mismatch")
    return FitResult(
        beta_hat=u,
        objective=float(obj),
        loss_value=float(lval),
        support=support,
        tie_break_applied=tie_break,
        n_supports=total,
        records=tuple(records),
    )
