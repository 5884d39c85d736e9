"""Design-matrix functionals: coherence, capacity, separability, scaling."""

import math

import numpy as np
import pytest

from l0bounds import (
    DesignMatrix,
    capacity,
    coherence,
    series_norms,
    weighted_l1_norm,
)
from l0bounds.design import _SERIES_BLOCK_BYTES
from oracles import nu_capacity, separability_lower_bound


def test_design_matrix_validation():
    assert DesignMatrix(np.array([1.0, 2.0])).X.shape == (1, 2)  # promoted to a row
    with pytest.raises(ValueError):
        DesignMatrix(np.array([[1.0, np.nan], [0.0, 1.0]]))
    with pytest.raises(ValueError, match=r"zero column in design \(column 1\)"):
        DesignMatrix(np.array([[1.0, 0.0], [2.0, 0.0]]))


def test_column_norms_match_numpy():
    rng = np.random.default_rng(3)
    X = DesignMatrix(rng.standard_normal((11, 4)))
    for s in (1, 2, 4, np.inf):
        want = np.linalg.norm(X.X, ord=None if s == 2 else s, axis=0)
        if s != 2:
            want = np.array([np.linalg.norm(X.X[:, j], ord=s) for j in range(4)])
        np.testing.assert_allclose(X.column_norms(s), want, rtol=1e-14)
    assert X.max_norm(2) == X.column_norms(2).max()
    assert X.min_norm(2) == X.column_norms(2).min()


def _series_designs():
    rng = np.random.default_rng(11)
    p = 64
    rows = _SERIES_BLOCK_BYTES // (8 * p)
    n = 3 * rows + 17  # several full row blocks and a partial one
    scales = np.exp(np.linspace(-3.0, 3.0, 5))  # columns from ~0.05 to ~20
    return {
        "gaussian": rng.standard_normal((n, p)),
        "zero_one": rng.integers(0, 2, size=(57, 6)).astype(float) + np.eye(57, 6),
        "wide_range": rng.standard_normal((300, 5)) * scales,
        "one_row": rng.standard_normal((1, 3)),
        "one_column": rng.standard_normal((50, 1)),
    }


@pytest.mark.parametrize("name", ["gaussian", "zero_one", "wide_range", "one_row", "one_column"])
def test_series_norms_match_per_order_norms(name):
    X = DesignMatrix(_series_designs()[name])
    got = series_norms(X, 60)
    assert got.shape == (60, X.p)
    for k in range(1, 61):
        np.testing.assert_allclose(got[k - 1], X.column_norms(2 * k), rtol=1e-13, atol=0.0)


def test_series_norms_exact_on_pm1_design():
    rng = np.random.default_rng(12)
    X = DesignMatrix(rng.choice([-1.0, 1.0], size=(1001, 9)))
    got = series_norms(X, 60)
    for k in range(1, 61):
        assert np.array_equal(got[k - 1], X.column_norms(2 * k)), k


def test_series_norms_scale_without_overflow_or_underflow():
    # |x|^(2k) alone overflows above ~370 and underflows for tiny entries at
    # k = 60; the sup-scaled sums keep every order exact up to the scale
    rng = np.random.default_rng(13)
    X = rng.standard_normal((200, 4))
    base = series_norms(X, 60)
    for t in (1e-200, 1e-4, 1e3, 1e200):
        np.testing.assert_allclose(series_norms(t * X, 60), t * base, rtol=1e-13, atol=0.0)
    with pytest.raises(ValueError):
        series_norms(X, 0)


def test_coherence_is_computed_once_per_design():
    rng = np.random.default_rng(14)
    dm = DesignMatrix(rng.standard_normal((40, 5)))
    mu = coherence(dm)
    dm.X = np.full_like(dm.X, np.nan)  # a recomputed Gram would be NaN
    assert coherence(dm) == mu


def test_coherence_hand_example():
    # v1 = (1,1,1), v2 = (1,-1,1): <v1,v2> = 1, norms sqrt(3) -> mu = 1/3
    X = np.array([[1.0, 1.0], [1.0, -1.0], [1.0, 1.0]])
    assert coherence(X) == pytest.approx(1.0 / 3.0, abs=1e-14)


def test_coherence_orthogonal_is_zero():
    assert coherence(np.eye(5)) == pytest.approx(0.0, abs=1e-15)


def test_coherence_single_column_raises():
    with pytest.raises(ValueError, match="coherence undefined for single column"):
        coherence(np.ones((4, 1)))


def test_capacity_hand_examples():
    # (1 - nu)(1 + 1/mu): worked examples; the library's nu is 1/2
    X13 = np.array([[1.0, 1.0], [1.0, -1.0], [1.0, 1.0]])  # mu = 1/3
    assert capacity(X13) == pytest.approx(2.0, abs=1e-12)
    assert nu_capacity(X13, 0.0) == pytest.approx(4.0, abs=1e-12)
    assert nu_capacity(X13, 1.0) == pytest.approx(0.0, abs=1e-12)
    # mu = 0.1, nu = 0.5 -> 0.5 * 11 = 5.5, via a synthetic Gram
    Xs = _matrix_with_coherence(0.1)
    assert capacity(Xs) == pytest.approx(5.5, rel=1e-9)
    assert nu_capacity(Xs, 0.5) == capacity(Xs)


def _matrix_with_coherence(mu, p=4):
    # equicorrelated unit columns: Gram = (1-mu) I + mu 11^T, take a square root
    G = (1 - mu) * np.eye(p) + mu * np.ones((p, p))
    w, V = np.linalg.eigh(G)
    return V @ np.diag(np.sqrt(w)) @ V.T


def test_capacity_orthogonal_is_infinite():
    assert capacity(np.eye(4)) == math.inf
    assert nu_capacity(np.eye(4), 0.9) == math.inf


def test_weighted_l1_norm_hand_example():
    X = np.array([[1.0, 0.0], [0.0, 2.0]])  # sup-norms (1, 2)
    assert weighted_l1_norm(np.array([1.0, -2.0]), X) == pytest.approx(5.0)


def test_separability_orthogonal_exact():
    X = np.eye(6) * 2.0
    u = np.array([1.0, -0.5, 0.0, 0.0, 0.0, 0.0])
    lhs, rhs, holds = separability_lower_bound(u, X, nu=1.0)
    # orthogonal: ||Xu||^2 = sum u_j^2 ||V_j||^2 and mu = 0, so lhs == rhs
    assert holds
    assert lhs == pytest.approx(rhs, rel=1e-12)


def test_separability_support_exceeds_capacity():
    X = _matrix_with_coherence(0.4)  # capacity(nu=0.9) = 0.1 * 3.5 = 0.35
    u = np.array([1.0, 1.0, 0.0, 0.0])
    with pytest.raises(ValueError, match="support exceeds capacity"):
        separability_lower_bound(u, X, nu=0.9)


def test_separability_random_instances():
    # mirrors the acceptance sweep at small scale
    rng = np.random.default_rng(11)
    for _ in range(200):
        n = int(rng.integers(8, 30))
        p = int(rng.integers(2, 7))
        X = rng.standard_normal((n, p))
        nu = float(rng.uniform(0.0, 0.95))
        cap = nu_capacity(X, nu)
        k = int(min(p, math.floor(cap)))
        if k < 1:
            continue
        u = np.zeros(p)
        S = rng.choice(p, size=int(rng.integers(1, k + 1)), replace=False)
        u[S] = rng.standard_normal(S.size)
        lhs, rhs, holds = separability_lower_bound(u, X, nu)
        assert holds, (lhs, rhs)
