"""Exponential linear families: closed forms, curvature, likelihood calculus."""

import math
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from scipy.special import expit

import l0bounds
from l0bounds import (
    DesignMatrix,
    Interval,
    bernoulli,
    gaussian,
    glm_report,
)
from l0bounds.expfam import FAMILIES

# inf over [-2, 2] of the Bernoulli variance s(t)(1 - s(t)), attained at the
# endpoints: (2 cosh(1))^-2; frozen before the implementation existed
BERNOULLI_CURV_2 = 0.10499358540350652


def test_gaussian_family_closed_forms():
    fam = gaussian(sigma2=4.0)
    t = np.linspace(-2, 2, 9)
    np.testing.assert_allclose(fam.log_partition(t), 4.0 * t**2 / 2.0, rtol=1e-14)
    np.testing.assert_allclose(fam.mean(t), 4.0 * t, rtol=1e-14)
    np.testing.assert_allclose(fam.variance(t), 4.0 * np.ones_like(t), rtol=1e-14)


def test_bernoulli_family_closed_forms():
    fam = bernoulli()
    t = np.linspace(-30, 30, 13)
    np.testing.assert_allclose(fam.log_partition(t), np.logaddexp(0.0, t), rtol=1e-14)
    np.testing.assert_allclose(fam.mean(t), expit(t), rtol=1e-14)
    # stable product form; s*(1-s) cancels catastrophically in the tails
    np.testing.assert_allclose(fam.variance(t), expit(t) * expit(-t), rtol=1e-12)


def test_bernoulli_curvature_frozen_value():
    got = bernoulli().curvature_floor(Interval(-2.0, 2.0))
    assert got == pytest.approx(BERNOULLI_CURV_2, abs=1e-14)
    assert got == pytest.approx((2.0 * math.cosh(1.0)) ** -2, abs=1e-14)


def test_gaussian_curvature_is_sigma2():
    assert gaussian(2.5).curvature_floor(Interval(-7.0, 3.0)) == pytest.approx(2.5)


@pytest.mark.parametrize("name", sorted(FAMILIES))
def test_every_family_has_closed_forms(name):
    fam = FAMILIES[name]()
    floor = fam.curvature_floor(Interval(-3.0, 3.0))
    assert floor > 0
    assert math.isfinite(fam.loss_floor(np.array([0.0, 1.0, 1.0])))


def test_import_leaves_scipy_optimize_out():
    # the library depends on numpy alone: no scipy module at all is loaded
    src = str(Path(l0bounds.__file__).parent.parent)
    code = (
        f"import sys; sys.path.insert(0, {src!r}); import l0bounds; "
        "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))"
    )
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


@pytest.mark.parametrize("fam_name", ["bernoulli", "gaussian"])
def test_loss_floor_below_mle_loss(fam_name):
    rng = np.random.default_rng(12)
    for _ in range(200):
        n, p = int(rng.integers(1, 30)), int(rng.integers(1, 5))
        X = rng.normal(size=(n, p))
        u = rng.normal(size=p) * rng.choice([0.1, 1.0, 5.0])
        if fam_name == "bernoulli":
            fam, y = bernoulli(), rng.integers(0, 2, n).astype(float)
        else:
            fam, y = gaussian(float(rng.uniform(0.1, 4.0))), rng.normal(size=n) * 3.0
        assert fam.loss_floor(y) <= fam.nll(y, X @ u)
    # the gaussian floor is attained where every row completes its square
    fam, y = gaussian(2.0), np.array([1.0, -3.0])
    assert fam.nll(y, y / 2.0) == pytest.approx(fam.loss_floor(y), rel=1e-15)


def test_flat_family_raises():
    # the Bernoulli variance tends to 0 as |t| grows
    X = DesignMatrix(np.array([[1.0, -1.0], [1.0, 1.0], [-1.0, 1.0]]))
    for I in (Interval(-math.inf, math.inf), Interval(-1500.0, 1500.0)):
        # cosh(sup|t| / 2) overflows at sup |t| = 1500: the floor is 0, not an OverflowError
        assert bernoulli().curvature_floor(I) == 0.0
        with pytest.raises(ValueError, match="flat family on I"):
            glm_report(X, bernoulli(), I, 1.0, 0.1)


def test_check_natural_reports_row():
    with pytest.raises(ValueError, match="natural parameter outside family domain at row 2"):
        bernoulli().check_natural(np.array([0.0, 0.5, math.inf, math.nan]))


@pytest.mark.parametrize("fam_name", sorted(FAMILIES))
@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
def test_non_finite_natural_parameter_raises_with_its_row(fam_name, bad):
    # nll checks the natural domain only when its value is not finite: any
    # non-finite t_g makes it so (y_g = 0 turns -inf into nan), and the error
    # names the first bad row, with no RuntimeWarning on the way
    fam = FAMILIES[fam_name]()
    rng = np.random.default_rng(13)
    Xs = rng.standard_normal((6, 2))
    t = rng.standard_normal(6)
    t[3], t[5] = bad, math.nan
    for y3 in (0.0, 1.0):
        y = rng.integers(0, 2, 6).astype(float)
        y[3] = y3
        for m in (1.0, rng.integers(1, 4, 6).astype(float)):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(ValueError, match="outside family domain at row 3$"):
                    fam.nll(y, t, m)
                with pytest.raises(ValueError, match="outside family domain at row 3$"):
                    fam.nll_derivatives(y, Xs, t, m)


def test_gaussian_nll_overflow_at_a_finite_parameter_is_inf():
    # t is in the natural domain, so no error: the value overflows to inf
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert gaussian().nll(np.array([1.0, 0.0]), np.array([0.5, 1e200])) == math.inf


@pytest.mark.parametrize("fam_name", sorted(FAMILIES))
def test_nll_is_bit_equal_to_the_plain_sum(fam_name):
    fam = FAMILIES[fam_name]()
    rng = np.random.default_rng(14)
    for _ in range(20):
        n = int(rng.integers(1, 300))
        t = 3.0 * rng.standard_normal(n)
        m = rng.integers(2, 9, n).astype(float)
        Y = rng.binomial(m.astype(int), 0.4).astype(float)
        y = rng.integers(0, 2, n).astype(float)
        for resp, mult in ((y, 1.0), (Y, m)):  # plain rows, then grouped ones
            want = float(np.sum(mult * fam.log_partition(t)) - resp @ t)
            assert fam.nll(resp, t, mult).hex() == want.hex()


def test_mle_loss_at_zero_is_n_log2():
    rng = np.random.default_rng(0)
    n = 17
    X = DesignMatrix(rng.standard_normal((n, 3)))
    y = rng.integers(0, 2, n).astype(float)
    got = bernoulli().nll(y, X.X @ np.zeros(3))
    assert got == pytest.approx(n * math.log(2.0), rel=1e-14)


def _fd_gradient(fun, u, h=1e-6):
    g = np.zeros_like(u)
    for j in range(u.size):
        e = np.zeros_like(u)
        e[j] = h
        g[j] = (fun(u + e) - fun(u - e)) / (2 * h)
    return g


@pytest.mark.parametrize("fam_name", ["bernoulli", "gaussian"])
def test_gradient_hessian_match_finite_differences(fam_name):
    fam = bernoulli() if fam_name == "bernoulli" else gaussian(1.3)
    rng = np.random.default_rng(42)
    for _ in range(5):
        n, p = 12, 4
        X = DesignMatrix(rng.standard_normal((n, p)))
        y = (
            rng.integers(0, 2, n).astype(float)
            if fam_name == "bernoulli"
            else rng.standard_normal(n)
        )
        u = 0.3 * rng.standard_normal(p)
        g, H = fam.nll_derivatives(y, X.X, X.X @ u)
        fun = lambda v: fam.nll(y, X.X @ v)
        g_fd = _fd_gradient(fun, u)
        np.testing.assert_allclose(g, g_fd, rtol=1e-6, atol=1e-8)
        # Hessian column-by-column from gradient differences
        h = 1e-6
        for j in range(p):
            e = np.zeros(p)
            e[j] = h
            col = (
                fam.nll_derivatives(y, X.X, X.X @ (u + e))[0]
                - fam.nll_derivatives(y, X.X, X.X @ (u - e))[0]
            ) / (2 * h)
            np.testing.assert_allclose(H[:, j], col, rtol=1e-5, atol=1e-7)


def test_gradient_hessian_support_restriction():
    rng = np.random.default_rng(9)
    X = DesignMatrix(rng.standard_normal((8, 4)))
    y = rng.integers(0, 2, 8).astype(float)
    u = np.array([0.5, 0.0, -0.4, 0.0])
    t = X.X @ u
    g, H = bernoulli().nll_derivatives(y, X.X, t)
    gs, Hs = bernoulli().nll_derivatives(y, X.X[:, [0, 2]], t)
    np.testing.assert_allclose(gs, g[[0, 2]], rtol=1e-14)
    np.testing.assert_allclose(Hs, H[np.ix_([0, 2], [0, 2])], rtol=1e-14)


@pytest.mark.parametrize("fam_name", sorted(FAMILIES))
def test_multiplicities_equal_repeated_rows(fam_name):
    # rows with multiplicities m and response sums Y give the likelihood and
    # derivatives of the rows written out m times each
    rng = np.random.default_rng(12)
    fam = FAMILIES[fam_name]()
    Xg = rng.standard_normal((6, 3))
    m = rng.integers(1, 5, 6)
    X = np.repeat(Xg, m, axis=0)
    y = rng.integers(0, 2, X.shape[0]).astype(float)
    Y = np.bincount(np.repeat(np.arange(6), m), weights=y)
    u = 0.4 * rng.standard_normal(3)
    w = m.astype(float)
    assert fam.nll(Y, Xg @ u, w) == pytest.approx(fam.nll(y, X @ u), rel=1e-13)
    g, H = fam.nll_derivatives(Y, Xg, Xg @ u, w)
    g0, H0 = fam.nll_derivatives(y, X, X @ u)
    np.testing.assert_allclose(g, g0, rtol=1e-12, atol=1e-13)
    np.testing.assert_allclose(H, H0, rtol=1e-12)


def test_mle_convexity_on_segment():
    # NLL of an exponential linear family is convex in u
    rng = np.random.default_rng(21)
    X = DesignMatrix(rng.standard_normal((15, 3)))
    y = rng.integers(0, 2, 15).astype(float)
    fam = bernoulli()
    for _ in range(50):
        a = rng.standard_normal(3)
        b = rng.standard_normal(3)
        lam = rng.uniform()
        mid = lam * a + (1 - lam) * b
        nll = lambda v: fam.nll(y, X.X @ v)
        assert nll(mid) <= lam * nll(a) + (1 - lam) * nll(b) + 1e-9
