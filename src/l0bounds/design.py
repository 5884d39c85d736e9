"""Design-matrix functionals: coherence, capacity, weighted norms.

The error-bound constants consume a handful of quantities derived from the
design: mutual coherence mu(X), the support capacity it induces and
per-column norms of several orders.  They live here together with a thin
validated wrapper that caches column norms between calls, and with the
seeded random designs of ``DESIGNS``.  Parameter vectors are plain float
arrays; a fit reports its support next to its estimate.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "DesignMatrix",
    "series_norms",
    "coherence",
    "capacity",
    "weighted_l1_norm",
    "DESIGNS",
    "random_design",
]

# relative slack used when clamping coherence into [0, 1]
_MU_CLAMP_TOL = 1e-12

# bytes of design rows that series_norms raises to all orders at once
_SERIES_BLOCK_BYTES = 2**18

# the separability split: ||Xu||^2 >= _NU (1 + mu) sum_j u_j^2 ||V_j||^2 on
# supports within capacity(X) = (1 - _NU)(1 + 1/mu); c2 rests on it
_NU = 0.5


class DesignMatrix:
    """Validated n x p design with cached per-column norms and coherence.

    Rejects non-finite entries and all-zero columns (a zero column makes
    coherence and every norm ratio meaningless).  Norms of any positive
    order, plus the sup norm, are computed once and cached, and so is the
    mutual coherence.  The series bounds need the orders 2k, k <= ~60, all
    together; ``series_norms`` serves them from one pass over the rows.
    """

    def __init__(self, X):
        X = np.atleast_2d(np.asarray(X, dtype=float))
        if X.ndim != 2:
            raise ValueError("design must be a 2-d array")
        n, p = X.shape
        if n < 1 or p < 1:
            raise ValueError("design must have at least one row and one column")
        if not np.all(np.isfinite(X)):
            raise ValueError("design contains non-finite entries")
        sup = np.max(np.abs(X), axis=0)
        if np.any(sup == 0.0):
            j = int(np.argmin(sup > 0.0))
            raise ValueError(f"zero column in design (column {j})")
        self.X = X
        self.n = n
        self.p = p
        self._norms = {math.inf: sup}
        self._mu = None

    def column_norms(self, s) -> np.ndarray:
        """Per-column ell_s norms ||V_j||_s (s = inf gives the sup norm)."""
        key = float(s)
        cached = self._norms.get(key)
        if cached is not None:
            return cached
        if key == math.inf:
            out = np.max(np.abs(self.X), axis=0)
        elif key > 0:
            a = np.abs(self.X)
            a **= key  # in place: one n x p temporary, not two
            out = np.sum(a, axis=0) ** (1.0 / key)
        else:
            raise ValueError("norm order must be positive")
        self._norms[key] = out
        return out

    def max_norm(self, s) -> float:
        return float(np.max(self.column_norms(s)))

    def min_norm(self, s) -> float:
        return float(np.min(self.column_norms(s)))

    def __repr__(self):  # pragma: no cover - debugging aid
        return f"DesignMatrix(n={self.n}, p={self.p})"


def _as_design(X) -> DesignMatrix:
    return X if isinstance(X, DesignMatrix) else DesignMatrix(X)


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
    m = dm._norms[math.inf]  # stored when the design was validated
    rows = max(1, _SERIES_BLOCK_BYTES // (8 * dm.p))
    S = np.zeros((K, dm.p))
    for i in range(0, dm.n, rows):
        y2 = (dm.X[i : i + rows] / m) ** 2
        acc = y2.copy()
        for k in range(K):
            S[k] += acc.sum(axis=0)
            acc *= y2
    # a scalar exponent per order keeps numpy's sqrt path for k = 1, so a
    # +-1 design gets exactly the values column_norms(2k) gives
    return np.array([m * S[k - 1] ** (1.0 / (2.0 * k)) for k in range(1, K + 1)])


def coherence(X) -> float:
    """Mutual coherence mu(X) = max_{i<j} |V_i' V_j| / (||V_i|| ||V_j||).

    Parameters
    ----------
    X : array_like or DesignMatrix
        Design with at least two columns.

    Returns
    -------
    float in [0, 1].  Floating-point excess above 1 within 1e-12 is clamped.
    The value is stored on the DesignMatrix, so the p x p Gram is formed
    once per design.
    """
    dm = _as_design(X)
    if dm.p < 2:
        raise ValueError("coherence undefined for single column")
    if dm._mu is not None:
        return dm._mu
    V = dm.X / dm.column_norms(2)
    G = np.abs(V.T @ V)
    np.fill_diagonal(G, 0.0)
    mu = float(G.max())
    if mu > 1.0:
        if mu > 1.0 + _MU_CLAMP_TOL:
            raise ValueError("coherence exceeded 1 beyond rounding tolerance")
        mu = 1.0
    dm._mu = mu
    return mu


def capacity(X) -> float:
    """Support budget (1 - _NU) (1 + 1/mu) of the separability split; +inf
    for orthogonal designs."""
    mu = coherence(X)
    if mu == 0.0:
        return math.inf
    return (1.0 - _NU) * (1.0 + 1.0 / mu)


def weighted_l1_norm(u, X) -> float:
    """||u||_{1,inf} = sum_j |u_j| * ||V_j||_inf."""
    dm = _as_design(X)
    u = np.asarray(u, dtype=float).ravel()
    if u.size != dm.p:
        raise ValueError("parameter length does not match design width")
    return float(np.abs(u) @ dm.column_norms(math.inf))

