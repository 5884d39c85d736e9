"""Design-matrix functionals: coherence, capacity, separability, scaling."""

import math
import sys
from fractions import Fraction

import numpy as np
import pytest

from l0bounds import (
    DesignMatrix,
    c1_glm,
    c2_glm,
    capacity,
    coherence,
    series_max,
    weighted_l1_norm,
)
from l0bounds import design
from l0bounds.bounds import _wk
from l0bounds.design import _SERIES_BLOCK_BYTES, random_design
from oracles import nu_capacity, separability_lower_bound, series_norms


def test_design_matrix_validation():
    assert DesignMatrix(np.array([1.0, 2.0])).X.shape == (1, 2)  # promoted to a row
    with pytest.raises(ValueError):
        DesignMatrix(np.array([[1.0, np.nan], [0.0, 1.0]]))
    with pytest.raises(ValueError, match=r"zero column in design \(column 1\)"):
        DesignMatrix(np.array([[1.0, 0.0], [2.0, 0.0]]))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("col", [0, 1, 2])
def test_design_matrix_refuses_non_finite_entries(bad, col):
    X = np.arange(1.0, 13.0).reshape(4, 3)
    X[2, col] = bad
    with pytest.raises(ValueError, match="design contains non-finite entries"):
        DesignMatrix(X)


def test_design_matrix_sup_norm_matches_abs_max():
    rng = np.random.default_rng(21)
    designs = [
        rng.standard_normal((300, 7)),
        rng.choice([-1.0, 1.0], size=(300, 7)),
        np.maximum(rng.integers(0, 2, size=(300, 7)), np.eye(300, 7)).astype(float),
        -np.abs(rng.standard_normal((300, 7))),  # every sup from a negative entry
        rng.standard_normal((300, 7)) * np.logspace(-150, 150, 7),
    ]
    for X in designs:
        assert np.array_equal(DesignMatrix(X).column_norms(np.inf), np.max(np.abs(X), axis=0))


def test_column_norms_match_numpy():
    rng = np.random.default_rng(3)
    X = DesignMatrix(rng.standard_normal((11, 4)))
    np.testing.assert_allclose(X.column_norms(2), np.linalg.norm(X.X, axis=0), rtol=1e-14)
    assert np.array_equal(X.column_norms(np.inf), np.max(np.abs(X.X), axis=0))
    for s in (1, 4, 0, -1):  # only the orders the bounds read
        with pytest.raises(ValueError, match="column norm order must be 2 or inf"):
            X.column_norms(s)
    assert X.max_norm(2) == X.column_norms(2).max()
    assert X.min_norm(2) == X.column_norms(2).min()


def _column_norms(X, s):
    """||V_j||_s as (sum_i |x_ij|^s)^(1/s), summed in row order."""
    return np.sum(np.abs(X) ** s, axis=0) ** (1.0 / s)


def test_layer_one_is_scale_equivariant():
    # at 1e-200 the squares underflow to 0 and at 1e160 they overflow to
    # inf; the sup-scaled Gram keeps every functional within rounding
    rng = np.random.default_rng(22)
    X = rng.standard_normal((300, 6))
    X[:, 2] *= 1e-3
    norms, mu = DesignMatrix(X).column_norms(2), coherence(X)
    c1, c2 = c1_glm(X, 1.0, 0.1), c2_glm(X, 0.25)
    for t in (1e-200, 1e-170, 1e150, 1e160, 1e200):
        tX = DesignMatrix(t * X)
        np.testing.assert_allclose(tX.column_norms(2), t * norms, rtol=1e-13, atol=0.0)
        assert coherence(tX) == pytest.approx(mu, rel=1e-13, abs=0.0), t
        assert c1_glm(tX, 1.0, 0.1) == pytest.approx(t * c1, rel=1e-13, abs=0.0), t
        # c2 scales as t^2: above the double range it raises (an infinite
        # curvature floor would certify a zero radius), below it rounds to 0
        want = t * t * c2
        if want > sys.float_info.max:
            with pytest.raises(OverflowError):
                c2_glm(tX, 0.25)
        elif want < sys.float_info.min:
            assert c2_glm(tX, 0.25) == want == 0.0, t
        else:
            assert c2_glm(tX, 0.25) == pytest.approx(want, rel=1e-13, abs=0.0), t


@pytest.mark.parametrize("tag", ["pm1_iid", "binary_iid"])
def test_two_level_column_norms_are_exact(tag):
    # +-1 and 0/1 columns scale by 1 and square to 0 or 1, so every Gram
    # sum is an integer count; rows span several blocks and a partial one
    X = random_design(tag, 10_001, 8, np.random.default_rng(23))
    counts = np.count_nonzero(X.X, axis=0).astype(float)
    assert np.array_equal(X.column_norms(2), np.sqrt(counts))
    assert np.array_equal(X.column_norms(2), _column_norms(X.X, 2))


def test_pm1_coherence_is_the_correctly_rounded_fraction():
    for n, p, seed in ((100, 20, 24), (1201, 12, 25), (10_001, 8, 26)):
        X = random_design("pm1_iid", n, p, np.random.default_rng(seed))
        A = X.X.astype(int).tolist()
        top = max(
            abs(sum(r[i] * r[j] for r in A)) for i in range(p) for j in range(i + 1, p)
        )
        assert coherence(X) == float(Fraction(top, n)), (n, p)


@pytest.mark.parametrize("block_bytes", [_SERIES_BLOCK_BYTES, 8])
@pytest.mark.parametrize("blocks", [(1, 0), (3, 0), (3, 1)])
def test_blocked_gram_is_exact_on_integer_designs(monkeypatch, blocks, block_bytes):
    # column j holds integers in [-2^j, 2^j] and reaches 2^j, so its sup is a
    # power of two and every scaled product and sum is exact: the blocked
    # Gram equals one X'X, rescaled, at one block, a whole number of blocks
    # and one row more; 8 bytes leaves blocks of p rows, the fewest allowed
    monkeypatch.setattr(design, "_SERIES_BLOCK_BYTES", block_bytes)
    p = 8
    full, extra = blocks
    n = full * max(p, block_bytes // (8 * p)) + extra
    rng = np.random.default_rng(27)
    top = 2 ** np.arange(p)
    X = rng.integers(-top, top + 1, size=(n, p)).astype(float)
    X[0] = top
    dm = DesignMatrix(X)
    assert np.array_equal(dm.column_norms(np.inf), top.astype(float))
    assert np.array_equal(dm.scaled_gram * np.outer(top, top), X.T @ X)
    assert np.array_equal(dm.column_norms(2), np.sqrt(np.diag(X.T @ X)))


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
    got = series_max(X, 60)
    assert got.shape == (60,)
    for k in range(1, 61):
        want = _column_norms(X.X, 2 * k).max()
        np.testing.assert_allclose(got[k - 1], want, rtol=1e-13, atol=0.0)


def test_series_norms_exact_on_pm1_design():
    rng = np.random.default_rng(12)
    X = DesignMatrix(rng.choice([-1.0, 1.0], size=(1001, 9)))
    got = series_max(X, 60)
    for k in range(1, 61):
        assert got[k - 1] == _column_norms(X.X, 2 * k).max(), k


def test_series_norms_scale_without_overflow_or_underflow():
    # |x|^(2k) alone overflows above ~370 and underflows for tiny entries at
    # k = 60; the sup-scaled sums keep every order exact up to the scale
    rng = np.random.default_rng(13)
    X = rng.standard_normal((200, 4))
    base = series_max(X, 60)
    for t in (1e-200, 1e-4, 1e3, 1e200):
        np.testing.assert_allclose(series_max(t * X, 60), t * base, rtol=1e-13, atol=0.0)
    with pytest.raises(ValueError):
        series_max(X, 0)


def _oracle_designs():
    rng = np.random.default_rng(17)
    rows = _SERIES_BLOCK_BYTES // (8 * 8)  # block rows of an 8-column design
    tied = rng.standard_normal((400, 6))
    tied[:, 1] = tied[:, 0] * (1.0 + 2.0**-52)  # sups one ulp apart
    tied[:, 2] = tied[::-1, 0]  # the same entries in another row order
    bulk = rng.standard_normal((2000, 4))
    # a lower sup but a heavy bulk: this column wins the low orders
    bulk[:, 1] = rng.choice([-1.0, 1.0], size=2000) * 0.9 * np.abs(bulk[:, 0]).max()
    bulk[0, 1] *= 0.5
    tiny = rng.standard_normal((500, 5))
    tiny[:, 2] *= 1e-300
    binary = rng.integers(0, 2, size=(700, 9)).astype(float)
    binary[0] = 1.0
    x = rng.standard_normal(2000)
    # the same entries in three row orders: the norms differ only by rounding
    copies = np.column_stack([x, x[::-1], rng.permutation(x), 0.5 * rng.standard_normal(2000)])
    return {
        "gaussian": rng.standard_normal((1200, 8)),
        "near_tied_sups": tied,
        "heavy_bulk": bulk,
        "tiny_column": tiny,
        "one_column_several_blocks": rng.standard_normal((100_000, 1)),
        "rows_exact_multiple": rng.standard_normal((3 * rows, 8)),
        "rows_exact_multiple_plus_one": rng.standard_normal((3 * rows + 1, 8)),
        "one_row": rng.standard_normal((1, 5)),
        "pm1": rng.choice([-1.0, 1.0], size=(20000, 8)),
        "zero_one": binary,
        "mixed": np.hstack([rng.choice([-1.0, 1.0], size=(700, 3)), rng.standard_normal((700, 3))]),
        "zero_one_with_twos": rng.integers(0, 2, size=(5000, 12)).astype(float) + np.eye(5000, 12),
        "permuted_copies": copies,
        # one row block in which the first group falls to a lone column
        "lone_column_in_row_block": np.random.default_rng(28).standard_normal((2000, 5)),
    }


@pytest.mark.parametrize("name", list(_oracle_designs()))
def test_series_max_is_the_oracle_column_maximum_bit_for_bit(name):
    X = DesignMatrix(_oracle_designs()[name])
    for K in (1, 2, 6, 7, 8, 13, 60):
        want = series_norms(X, K).max(axis=1)
        assert np.array_equal(series_max(X, K), want), K
        wk = [0.0] + [X.n ** (-1.0 / (2.0 * k)) * float(want[k - 1]) for k in range(1, K + 1)]
        assert _wk(X, K) == wk, K


def test_series_max_reads_values_not_memory_layout():
    X = np.random.default_rng(18).standard_normal((3000, 9))
    assert np.array_equal(series_max(np.asfortranarray(X), 60), series_max(X, 60))


def test_series_max_orders_are_a_prefix():
    for name in ("gaussian", "heavy_bulk", "zero_one", "mixed"):
        X = DesignMatrix(_oracle_designs()[name])
        full = series_max(X, 60)
        for K in (1, 5, 6, 7, 30, 59):
            assert np.array_equal(series_max(X, K), full[:K]), (name, K)


def _formed_share(monkeypatch, X, K=60):
    """Share of the K p column-orders whose power sums series_max forms,
    counted as summed entries over K n p (padding counts, so it is high)."""
    summed = []
    sums = design._column_sums

    def counting(a, axis=0):
        summed.append(a.size)
        return sums(a, axis)

    monkeypatch.setattr(design, "_column_sums", counting)
    dm = DesignMatrix(X)
    series_max(dm, K)
    return sum(summed) / (K * dm.n * dm.p)


def test_series_max_eliminates_columns(monkeypatch):
    rng = np.random.default_rng(19)
    assert _formed_share(monkeypatch, rng.standard_normal((5000, 40))) < 0.25
    # the fixed point settles every +-1 column after its first sums
    assert _formed_share(monkeypatch, rng.choice([-1.0, 1.0], size=(5000, 40))) <= 0.10


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
