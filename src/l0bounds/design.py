"""Design-matrix functionals: coherence, capacity, weighted norms.

The error-bound constants consume a handful of quantities derived from the
design: mutual coherence mu(X), the support capacity it induces, the
column 2-norms and sup norms and, for the series bounds, the column
maxima max_j ||V_j||_{2k} of every order k <= K (``series_max``, which
raises a column to higher orders only while it can still be the maximum).
They live here with a validated wrapper that holds the sup norms and one
Gram of the sup-scaled columns, and with the seeded designs of ``DESIGNS``.
Parameter vectors are plain float arrays; a fit reports its support next to
its estimate.
"""

from __future__ import annotations

import functools
import math

import numpy as np

__all__ = [
    "DesignMatrix",
    "series_max",
    "coherence",
    "capacity",
    "weighted_l1_norm",
    "DESIGNS",
    "random_design",
]

# relative slack used when clamping coherence into [0, 1]
_MU_CLAMP_TOL = 1e-12

# bytes of design rows that series_max raises (or the scaled Gram sums, in
# blocks of at least p rows) together, and of series_max's stacked powers
_SERIES_BLOCK_BYTES = 2**18
# orders that series_max forms for every column before dropping any
_SERIES_HEAD = 6
# relative slack on the bound that drops a column (series_max docstring)
_SERIES_MARGIN = 2.0**-40

# the separability split: ||Xu||^2 >= _NU (1 + mu) sum_j u_j^2 ||V_j||^2 on
# supports within capacity(X) = (1 - _NU)(1 + 1/mu); c2 rests on it
_NU = 0.5


class DesignMatrix:
    """Validated n x p design with its column sup norms and one scaled Gram.

    Rejects non-finite entries and all-zero columns (a zero column makes
    coherence and every norm ratio meaningless).  The rows are held
    C-contiguous, so every column sum adds the rows in the same order
    whatever the layout of the input.  The sup norms m_j are stored; the
    2-norms and the coherence read ``scaled_gram``, formed on first use;
    each column's min and max, which validation computes, are kept too
    (``column_range``).
    The series bounds need the column maxima of the orders 2k, k <= ~60,
    all together; ``series_max`` serves them.
    """

    def __init__(self, X):
        X = np.atleast_2d(np.ascontiguousarray(X, dtype=float))
        if X.ndim != 2:
            raise ValueError("design must be a 2-d array")
        n, p = X.shape
        if n < 1 or p < 1:
            raise ValueError("design must have at least one row and one column")
        column_range = np.stack([X.min(axis=0), X.max(axis=0)])  # NaN and +-inf reach these
        if not np.all(np.isfinite(column_range)):
            raise ValueError("design contains non-finite entries")
        sup = np.maximum(column_range[1], -column_range[0])
        if np.any(sup == 0.0):
            j = int(np.argmin(sup > 0.0))
            raise ValueError(f"zero column in design (column {j})")
        self.X = X
        self.n = n
        self.p = p
        self.column_range = column_range  # (2, p): each column's min, then its max
        self._sup = sup

    @functools.cached_property
    def scaled_gram(self) -> np.ndarray:
        """Gram V'V of the sup-scaled columns V_j = X_j / m_j, whose diagonal
        lies in [1, n] at any scale (the scaling of LAPACK's dnrm2: Blue, ACM
        TOMS 1978), summed over row blocks of max(p, _SERIES_BLOCK_BYTES // 8p) rows."""
        rows = max(self.p, _SERIES_BLOCK_BYTES // (8 * self.p))
        G = np.zeros((self.p, self.p))
        for i in range(0, self.n, rows):
            V = self.X[i : i + rows] / self._sup
            G += V.T @ V
        return G

    def column_norms(self, s) -> np.ndarray:
        """Per-column norms ||V_j||_s: m_j sqrt(G_jj) from ``scaled_gram``
        for s = 2, the sup norms m_j for s = inf; other orders raise."""
        if s == math.inf:
            return self._sup
        if s == 2:
            return self._sup * np.sqrt(np.diag(self.scaled_gram))
        raise ValueError(f"column norm order must be 2 or inf, got {s!r}")

    def max_norm(self, s) -> float:
        return float(np.max(self.column_norms(s)))

    def min_norm(self, s) -> float:
        return float(np.min(self.column_norms(s)))

    def __repr__(self):  # pragma: no cover - debugging aid
        return f"DesignMatrix(n={self.n}, p={self.p})"


def _as_design(X) -> DesignMatrix:
    return X if isinstance(X, DesignMatrix) else DesignMatrix(X)


def _dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Dot products along the last axis, one per leading index of two
    stacks (leading axes broadcast): one BLAS dot each, the call a 1-D
    ``a @ b`` makes."""
    return (a[..., None, :] @ b[..., :, None])[..., 0, 0]


def _binary_iid(n: int, p: int, rng: np.random.Generator) -> np.ndarray:
    X = rng.integers(0, 2, size=(n, p)).astype(float)
    for j in range(p):
        if not X[:, j].any():
            X[int(rng.integers(n)), j] = 1.0
    return X


# n x p iid entries from rng: +-1 signs, standard normal, or 0/1 (an all-zero
# 0/1 column, which breaks every norm ratio, gets one 1)
DESIGNS = {
    "pm1_iid": lambda n, p, rng: rng.choice([-1.0, 1.0], size=(n, p)),
    "gaussian_iid": lambda n, p, rng: rng.normal(0.0, 1.0, size=(n, p)),
    "binary_iid": _binary_iid,
}


def random_design(tag: str, n: int, p: int, rng: np.random.Generator) -> DesignMatrix:
    """n x p design of kind ``tag`` (a key of ``DESIGNS``) drawn from ``rng``."""
    draw = DESIGNS.get(tag)
    if draw is None:
        raise ValueError(f"unknown design tag {tag!r}")
    if n < 1 or p < 1:
        raise ValueError("design needs n >= 1 and p >= 1")
    return DesignMatrix(draw(n, p, rng))


def series_max(X, K: int) -> np.ndarray:
    """Series column maxima: entry k-1 is max_j ||V_j||_{2k}, k = 1..K.

    *Power sums.*  Each column is first divided by its sup norm m_j, as in
    LAPACK's dnrm2 (Blue, ACM TOMS 1978): every y = (x/m_j)^2 lies in
    [0, 1] and the largest entry gives exactly 1, so the power sums
    S_k = sum_i y_i^k >= 1 neither overflow nor collapse to 0, whatever the
    scale of the design.  Row blocks of about 256 KB are squared once and
    multiplied up, y^k = y^(k-1) * y, while they sit in cache; each block is
    summed row by row and the block sums are added in block order, and
    ||V_j||_{2k} = m_j S_k^(1/(2k)).  Every value is bit for bit the one
    this scheme gives when it raises all p columns to all K orders; only
    the columns that cannot be the maximum are left out.

    *Elimination.*  Every computed power lies in [0, 1], so a rounded
    product y^(k-1) * y is <= y^(k-1), and a sum taken in a fixed order is
    monotone in its terms (Higham, *Accuracy and Stability of Numerical
    Algorithms*, 2002): the computed S_{k'} <= S_k for every k' > k, in
    floating point too.  With e = fl(1/(2k')) the exponent of order k', the
    exact m_j S_{k'}^e is at most m_j S_k^e.  The norm passes through one
    ``pow`` and one product, the bound m_j S_k^e through one pow and two
    products (the second by 1 + margin, which is exact).  With pow within c
    ulps (glibc: under 1, SVML: under 4) and unit roundoff u = 2^-53, the
    norm is at most the unscaled computed bound times
    (1 + c u)(1 + u) / ((1 - c u)(1 - u)^2) < 1 + (2c + 4) u, and
    ``_SERIES_MARGIN`` = 2^-40 = 2^13 u covers c up to 4000.  So once the
    bound is below the running maximum at every remaining order k', column
    j cannot raise any of those maxima and is dropped; the running maxima
    are norms of real columns, so they only grow.

    *Fixed point.*  A column whose every y is 0 or 1 (a +-1 or 0/1 column,
    up to scale) has y^k = y, hence S_k = S_1 exactly at every order, and
    its norms need no further sums.  A row block whose columns are all fixed
    adds its first sums to every head order.

    The first ``_SERIES_HEAD`` orders of every column come from one blocked
    pass (all K when p = 1: a lone column is its own maximum).  The columns
    that are not fixed then go on in descending order of their bound at
    order K (``_raise_columns``): first a pair, the likeliest maxima, whose
    norms then bound the rest, and then groups of at least four.  Working
    memory is O(n) per column, never n x p.

    Returns
    -------
    ndarray of shape (K,).
    """
    dm = _as_design(X)
    K = int(K)
    if K < 1:
        raise ValueError("need at least one series order")
    m = dm.column_norms(math.inf)
    rows = min(dm.n, max(1, _SERIES_BLOCK_BYTES // (8 * dm.p)))
    head = K if dm.p == 1 else min(K, _SERIES_HEAD)
    S = np.zeros((head, dm.p))
    fixed = np.ones(dm.p, dtype=bool)
    for i in range(0, dm.n, rows):
        y2 = (dm.X[i : i + rows] / m) ** 2
        s1 = _column_sums(y2)
        S[0] += s1
        if head == 1:
            continue
        acc = y2 * y2
        if head < K and fixed.any():
            settled = (acc == y2).all(axis=0)
            fixed &= settled
            if settled.all():  # y^k = y in the whole block
                S[1:] += s1
                continue
        for k in range(1, head):
            if k > 1:
                acc *= y2
            S[k] += _column_sums(acc)
    # k = 1 keeps numpy's sqrt path (the scalar exponent 0.5), so a +-1
    # design gets exactly sqrt(n), the value column_norms(2) gives
    e = 1.0 / (2.0 * np.arange(1.0, K + 1.0))
    top = np.concatenate([[(m * S[0] ** 0.5).max()], (m * S[1:] ** e[1:head, None]).max(axis=1)])
    if head == K:
        return top
    M = np.zeros(K - head)  # running maxima at orders head+1..K
    if fixed.any():
        M = (m[fixed] * S[0, fixed] ** e[head:, None]).max(axis=1)
    queue = np.flatnonzero(~fixed)
    queue = queue[np.argsort(-_series_bound(m[queue], S[-1, queue], e[head:])[-1], kind="stable")]
    width = 2
    while True:
        queue = queue[~(_series_bound(m[queue], S[-1, queue], e[head:]) < M[:, None]).all(axis=0)]
        if not queue.size:
            return np.concatenate([top, M])
        _raise_columns(dm.X, m, queue[:width], rows, head, e, M)
        queue = queue[width:]
        width = max(4, _SERIES_BLOCK_BYTES // (8 * dm.n))


def _column_sums(a: np.ndarray, axis: int = 0) -> np.ndarray:
    """Sums over one axis, in row order when a is C-contiguous and the axes
    after it hold two or more entries (numpy then adds the rows one by one;
    it sums a lone contiguous column pairwise, as the head pass of a
    one-column design does)."""
    return a.sum(axis=axis)


def _series_bound(m, s, e) -> np.ndarray:
    """(1 + margin) m_j s_j^e, one row per remaining order's exponent e."""
    return m * s ** e[:, None] * (1.0 + _SERIES_MARGIN)


def _pair(cols: np.ndarray, *arrays):
    """Columns ``cols`` (last axis) of each array, C-contiguous, with a zero
    column added when only one is taken, so that ``_column_sums`` adds each
    column in row order."""
    out = []
    for a in arrays:
        b = np.zeros(a.shape[:-1] + (max(2, cols.size),))
        b[..., : cols.size] = a[..., cols]
        out.append(b)
    return out


def _raise_columns(X, m, cols, rows, head, e, M):
    """Orders head+1..K of columns ``cols``, folded into the running maxima M.

    The columns' rows are laid out as (block row, block, column), zero rows
    filling the last block, and raised through a stack of orders at a time,
    (order, block row, block, column), about ``_SERIES_BLOCK_BYTES`` of
    powers.  Summing the stack over block rows and then over blocks adds
    each column as ``series_max``'s head pass does, and the zero rows add
    nothing.  After each stack, a column whose bound is below M at every
    remaining order is dropped.
    """
    n, K, q = X.shape[0], e.size, cols.size
    blocks = -(-n // rows)
    y2 = np.zeros((blocks * rows, q))
    y2[:n] = X[:, cols] / m[cols]
    mc, y2 = _pair(np.arange(q), m[cols], y2.reshape(blocks, rows, q).transpose(1, 0, 2))
    y2 *= y2
    acc = y2 * y2
    for _ in range(head - 2):
        acc *= y2
    k = head
    while True:
        c = min(K - k, max(1, _SERIES_BLOCK_BYTES // acc.nbytes))
        if c == 1:
            acc *= y2
            T = acc[None]
        else:
            T = np.empty((c,) + acc.shape)
            np.multiply(acc, y2, out=T[0])
            for j in range(1, c):
                np.multiply(T[j - 1], y2, out=T[j])
            acc = T[-1]
        sums = _column_sums(T, axis=1).sum(axis=1)  # block rows, then blocks
        span = slice(k - head, k - head + c)
        M[span] = np.maximum(M[span], (mc * sums ** e[k : k + c, None]).max(axis=1))
        k += c
        if k == K:
            return
        bound = _series_bound(mc[:q], sums[-1, :q], e[k:])
        live = np.flatnonzero(~(bound < M[k - head :, None]).all(axis=0))
        if live.size < q:
            if not live.size:
                return
            q = live.size
            mc, y2, acc = _pair(live, mc, y2, acc)


def coherence(X) -> float:
    """Mutual coherence mu(X) = max_{i<j} |V_i' V_j| / (||V_i|| ||V_j||),
    read as max_{i != j} |G_ij| / sqrt(G_ii G_jj) from ``scaled_gram`` G.

    Parameters
    ----------
    X : array_like or DesignMatrix
        Design with at least two columns.

    Returns
    -------
    float in [0, 1].  Floating-point excess above 1 within 1e-12 is clamped.
    """
    dm = _as_design(X)
    if dm.p < 2:
        raise ValueError("coherence undefined for single column")
    d = np.diag(dm.scaled_gram)
    C = np.abs(dm.scaled_gram) / np.sqrt(np.outer(d, d))
    np.fill_diagonal(C, 0.0)
    mu = float(C.max())
    if mu > 1.0:
        if mu > 1.0 + _MU_CLAMP_TOL:
            raise ValueError("coherence exceeded 1 beyond rounding tolerance")
        mu = 1.0
    return mu


def capacity(X) -> float:
    """Support budget (1 - _NU) (1 + 1/mu) of the separability split; +inf
    for orthogonal designs."""
    mu = coherence(X)
    return math.inf if mu == 0.0 else (1.0 - _NU) * (1.0 + 1.0 / mu)


def weighted_l1_norm(u, X) -> float:
    """||u||_{1,inf} = sum_j |u_j| * ||V_j||_inf."""
    dm = _as_design(X)
    u = np.asarray(u, dtype=float).ravel()
    if u.size != dm.p:
        raise ValueError("parameter length does not match design width")
    return float(np.abs(u) @ dm.column_norms(math.inf))

