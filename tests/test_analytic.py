"""Analytic links: Taylor coefficients, radii, slopes, coefficient envelopes."""

import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from scipy.special import expit

import l0bounds
from l0bounds import (
    DesignMatrix,
    Interval,
    coefficient_envelope,
    custom_fn,
    exp_fn,
    linear,
    logistic_flip,
    min_slope,
    multi_radius,
    polynomial,
    strip_sup_logistic,
    taylor_eval,
)

# frozen oracle values (computed independently before the implementation)
RADIUS_AT_1 = 3.296908309475615  # sqrt(1 + pi^2)
FLIP_MIN_SLOPE_2 = 0.08399486832280523  # 0.8 * (2 cosh 1)^-2 on [-2, 2]
LOGISTIC_MIN_SLOPE_2 = 0.10499358540350652  # (2 cosh 1)^-2

# a_k(t) of the standard logistic at the float64 centers t, from 150-digit
# arithmetic (mpmath, mp.dps = 150) by two routes that agree to > 100
# digits: the integer derivative polynomials s^(k) = P_k(s) with
# P_{k+1} = P_k' (s - s^2), divided by k!, and the Taylor-mode recurrence
# (k+1) a_{k+1} = a_k - sum_j a_j a_{k-j}.  Rounded to 20 digits.
LOGISTIC_COEFF_REF = {
    (0.3, 5): 0.0017059820457908458640,
    (0.3, 20): 6.0025396749586704155e-11,
    (0.3, 60): -3.2771405665120481970e-31,
    (-1.3, 5): -0.00091165850883029299502,
    (-1.3, 20): -1.2795430177246306738e-11,
    (-1.3, 60): 7.0895131655359210954e-33,
    (2.0, 5): -0.00072355384875959893198,
    (2.0, 20): -1.2519510082475362910e-12,
    (2.0, 60): -7.0751775946711637809e-37,
}


def test_polynomial_eval_and_coeffs():
    f = polynomial([1.0, -2.0, 3.0])  # 1 - 2t + 3t^2
    t = np.linspace(-2, 2, 7)
    np.testing.assert_allclose(f(t), 1 - 2 * t + 3 * t**2, rtol=1e-14)
    # recenter at c: a_1(c) = -2 + 6c, a_2(c) = 3, a_3(c) = 0
    assert f.coeff_k(1, 0.5) == pytest.approx(1.0)
    assert f.coeff_k(2, 0.5) == pytest.approx(3.0)
    assert f.coeff_k(3, 0.5) == 0.0
    assert f.radius_at(0.0) == math.inf


def test_linear_and_exp_closed_forms():
    g = linear(2.0, b=-1.0)
    assert g(3.0) == pytest.approx(5.0)
    assert g.coeff_k(1, 7.0) == pytest.approx(2.0)
    assert g.coeff_k(2, 7.0) == 0.0
    h = exp_fn()
    for k in (0, 1, 3, 10):
        assert h.coeff_k(k, 0.7) == pytest.approx(
            math.exp(0.7) / math.factorial(k), rel=1e-12
        )


def test_logistic_flip_values_and_radius():
    f = logistic_flip(0.1, 0.9)
    assert f(0.0) == pytest.approx(0.5)
    assert f(50.0) == pytest.approx(0.9, abs=1e-12)
    assert f(-50.0) == pytest.approx(0.1, abs=1e-12)
    assert f.radius_at(1.0) == pytest.approx(RADIUS_AT_1, abs=1e-12)
    # the poles sit at +- i pi above each real center
    for x in (-3.0, 0.0, 0.25, 10.0):
        assert f.radius_at(x) == pytest.approx(math.hypot(x, math.pi), rel=1e-12)
    with pytest.raises(ValueError):
        logistic_flip(0.9, 0.1)


def test_logistic_flip_low_order_coeffs():
    f = logistic_flip(0.1, 0.9)
    # f = p01 + delta * s(t): a_1(0) = delta/4, a_2(0) = 0 by symmetry
    assert f.coeff_k(1, 0.0) == pytest.approx(0.2, rel=1e-12)
    assert abs(f.coeff_k(2, 0.0)) < 1e-15
    # derivative scaling: deriv_k = k! * coeff_k
    assert f.deriv_k(3, 0.0) == pytest.approx(6.0 * f.coeff_k(3, 0.0), rel=1e-10)


def test_logistic_coeffs_match_finite_differences():
    f = logistic_flip(0.0, 1.0)
    h = 1e-3
    x = 0.4
    fd2 = (f(x + h) - 2 * f(x) + f(x - h)) / h**2
    assert f.deriv_k(2, x) == pytest.approx(fd2, rel=1e-5)


@pytest.mark.parametrize(
    "f,center,radius",
    [
        (logistic_flip(0.1, 0.9), 0.3, math.hypot(0.3, math.pi)),
        (exp_fn(), -0.5, 2.0),  # entire: any finite test radius
        (polynomial([0.5, 1.0, -0.25, 0.1]), 1.0, 2.0),
        (linear(1.5, 0.5), 2.0, 3.0),
    ],
)
def test_taylor_reconstruction_inside_radius(f, center, radius):
    # partial sums at an offset of 0.6 * radius reach 1e-8 relative by K = 60
    dz = 0.6 * radius
    got = taylor_eval(f, center, dz, K=60)
    want = f(center + dz)
    assert got == pytest.approx(want, rel=1e-8, abs=1e-12)


def test_min_slope_closed_forms():
    assert min_slope(linear(-2.5), Interval(-9, 4)) == pytest.approx(2.5)
    f = logistic_flip(0.1, 0.9)
    assert min_slope(f, Interval(-2.0, 2.0)) == pytest.approx(FLIP_MIN_SLOPE_2, abs=1e-14)
    s = logistic_flip(0.0, 1.0)
    assert min_slope(s, Interval(-2.0, 2.0)) == pytest.approx(
        LOGISTIC_MIN_SLOPE_2, abs=1e-14
    )


def test_min_slope_grid_path_close_to_closed_form():
    # a custom copy of the flipped logistic exercises the certified grid bound
    f = logistic_flip(0.1, 0.9)
    g = custom_fn(evalf=lambda t: f(t), coeff=f.coeff_k, radius=f.radius_at)
    got = min_slope(g, Interval(-2.0, 2.0))
    assert 0.0 <= got <= FLIP_MIN_SLOPE_2 + 1e-12  # certified: never above truth
    assert got == pytest.approx(FLIP_MIN_SLOPE_2, abs=2e-3)


def test_strip_sup_logistic_values():
    assert strip_sup_logistic(0.0) == pytest.approx(0.25)
    assert strip_sup_logistic(math.pi / 2) == pytest.approx(0.5, abs=1e-14)
    with pytest.raises(ValueError):
        strip_sup_logistic(math.pi)


def test_strip_envelope_logistic_dominates_grid():
    f = logistic_flip(0.1, 0.9)
    env = coefficient_envelope(f, "strip", Interval(-2.0, 2.0), K=20, contour_radius=2.0)
    assert env.mode == "strip"
    assert env.tail is not None and env.tail[0] == "logistic"
    xs = np.linspace(-2.0, 2.0, 41)
    for k in range(1, 21):
        grid_max = max(abs(f.coeff_k(k, x)) for x in xs)
        assert env.dk[k] >= grid_max * (1 - 1e-9), k


def test_interval_envelope_logistic_equals_per_order_grid_max():
    f = logistic_flip(0.1, 0.9)
    I = Interval(-1.5, 1.5)
    env = coefficient_envelope(f, "interval", I, K=60)
    xs = np.unique(np.abs(I.grid(2001)))
    for k in range(1, 61):
        assert env.dk[k] == np.max(f.coeff_abs_batch(k, xs)), k


def test_interval_envelope_exp_exact():
    env = coefficient_envelope(exp_fn(), "interval", Interval(0.0, 1.0), K=12)
    want = np.array([math.e / math.factorial(k) for k in range(1, 13)])
    np.testing.assert_allclose(env.dk[1:], want, rtol=1e-12)
    assert env.tail[0] == "factorial"


def test_interval_envelope_polynomial_finite_tail():
    f = polynomial([0.0, 1.0, 2.0, -1.0])
    env = coefficient_envelope(f, "interval", Interval(-1.0, 1.0), K=8)
    assert env.tail == ("finite", 3)
    assert np.all(env.dk[4:] == 0.0)  # d_k = 0 past the degree


def test_strip_envelope_unavailable_for_exp():
    with pytest.raises(ValueError, match="strip envelope unavailable"):
        coefficient_envelope(exp_fn(), "strip", Interval(-1.0, 1.0), K=10)


def test_multi_radius_logistic_at_zero():
    rng = np.random.default_rng(6)
    X = DesignMatrix(rng.standard_normal((12, 3)))
    f = logistic_flip(0.1, 0.9)
    r, A = multi_radius(f, X, np.zeros(3))
    assert r == pytest.approx(math.pi, rel=1e-12)
    assert A(1) == pytest.approx(0.2, rel=1e-12)  # delta/4 at t = 0


def test_multi_radius_singular_row():
    bad = custom_fn(
        evalf=lambda t: np.asarray(t, dtype=float),
        coeff=lambda k, t: float(k == 1),
        radius=lambda t: 0.0,
    )
    X = DesignMatrix(np.ones((3, 2)))
    with pytest.raises(ValueError, match="function singular at row 0"):
        multi_radius(bad, X, np.array([1.0, 0.0]))


def test_custom_fn_without_radius_uses_limsup():
    # coefficient data for 1/(1-t): a_k = 1 -> radius 1 everywhere it is probed
    g = custom_fn(
        evalf=lambda t: 1.0 / (1.0 - np.asarray(t)),
        coeff=lambda k, t: (1.0 / (1.0 - t)) ** (k + 1),
        params={},
    )
    r = g.radius_at(0.0)
    assert r == pytest.approx(1.0, rel=0.05)


def test_deriv_k_overflow_saturates():
    f = logistic_flip(0.0, 1.0)
    # even orders vanish at 0 by symmetry; odd high orders overflow k!
    assert f.deriv_k(200, 0.0) == 0.0
    v = f.deriv_k(301, 0.0)
    assert math.isinf(v) or abs(v) > 1e300  # k! overwhelms float range; documented


def _bernoulli(m: int) -> list[Fraction]:
    """B_0..B_m exactly, from sum_{j<=n} C(n+1, j) B_j = 0."""
    B = [Fraction(1)]
    for n in range(1, m + 1):
        B.append(-sum(math.comb(n + 1, j) * B[j] for j in range(n)) / (n + 1))
    return B


def test_logistic_coeff_symmetry_is_exact():
    f = logistic_flip(0.0, 1.0)
    ts = np.array([0.0, 0.3, 1.3, 2.0, 7.5, 40.0, 60.0])
    for k in range(1, 61):
        pos = f.coeff_abs_batch(k, ts)  # magnitudes agree exactly...
        np.testing.assert_array_equal(pos, f.coeff_abs_batch(k, -ts))
        for t in ts:  # ...and the signs follow a_k(-t) = (-1)^(k+1) a_k(t)
            assert f.coeff_k(k, -t) == (-1) ** (k + 1) * f.coeff_k(k, t), (k, t)


def test_logistic_first_coeff_at_large_centers():
    f = logistic_flip(0.0, 1.0)
    for t in (-60.0, -40.0, 40.0, 60.0):
        want = expit(t) * expit(-t)
        assert f.coeff_k(1, t) == pytest.approx(want, rel=1e-14, abs=0.0), t


def test_logistic_odd_coeffs_at_zero_match_bernoulli_closed_form():
    # s(t) = 1/2 + tanh(t/2)/2, so a_{2n-1}(0) = (2^{2n} - 1) B_{2n} / (2n)!
    f = logistic_flip(0.0, 1.0)
    B = _bernoulli(60)
    for k in range(1, 60, 2):
        n2 = k + 1
        want = float((2**n2 - 1) * B[n2] / math.factorial(n2))
        assert f.coeff_k(k, 0.0) == pytest.approx(want, rel=1e-13, abs=0.0), k
        assert f.coeff_k(k + 1, 0.0) == 0.0


@pytest.mark.parametrize("t,k", sorted(LOGISTIC_COEFF_REF))
def test_logistic_coeffs_match_high_precision_reference(t, k):
    f = logistic_flip(0.0, 1.0)
    want = LOGISTIC_COEFF_REF[(t, k)]
    assert f.coeff_k(k, t) == pytest.approx(want, rel=1e-11, abs=0.0)
    assert f.coeff_abs_batch(k, [t])[0] == pytest.approx(abs(want), rel=1e-11, abs=0.0)


def test_logistic_envelope_needs_no_mpmath():
    # a None entry in sys.modules makes any import of mpmath fail
    code = (
        "import sys\n"
        "sys.modules['mpmath'] = None\n"
        "import l0bounds as lb\n"
        "env = lb.coefficient_envelope(lb.logistic_flip(0.1, 0.9), 'interval',\n"
        "                              lb.Interval(-1.5, 1.5), K=60)\n"
        "assert env.dk[1] > 0\n"
    )
    src = str(Path(l0bounds.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
