"""Analytic links: Taylor coefficients, radii, slopes, coefficient envelopes."""

import math
import os
import subprocess
import sys
import warnings
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from scipy.special import expit

import l0bounds
from l0bounds import (
    AnalyticFn,
    Interval,
    coefficient_envelope,
    exp_fn,
    linear,
    logistic_flip,
    polynomial,
    strip_sup_logistic,
)
from l0bounds.analytic import LINKS, _logistic, _logistic_slope
from oracles import taylor_eval

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


def test_logistic_coeffs_match_finite_differences():
    f = logistic_flip(0.0, 1.0)
    h = 1e-3
    x = 0.4
    fd2 = (f(x + h) - 2 * f(x) + f(x - h)) / h**2
    assert 2.0 * f.coeff_k(2, x) == pytest.approx(fd2, rel=1e-5)


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
    assert linear(-2.5).slope_floor(Interval(-9, 4)) == pytest.approx(2.5)
    f = logistic_flip(0.1, 0.9)
    assert f.slope_floor(Interval(-2.0, 2.0)) == pytest.approx(FLIP_MIN_SLOPE_2, abs=1e-14)
    # (2 cosh(M/2))^-2 holds until cosh overflows (M > ~1420), then the floor is 0
    assert f.slope_floor(Interval(-1400.0, 1400.0)) == 0.8 * (2.0 * math.cosh(700.0)) ** -2
    assert f.slope_floor(Interval(-1500.0, 1500.0)) == 0.0
    s = logistic_flip(0.0, 1.0)
    assert s.slope_floor(Interval(-2.0, 2.0)) == pytest.approx(
        LOGISTIC_MIN_SLOPE_2, abs=1e-14
    )


@pytest.mark.parametrize("a,b", [(1.7, 0.5), (-2.5, 0.0), (0.0, 3.0)])
def test_min_slope_degree_one_polynomial_closed_form(a, b):
    # linear(a, b) is the polynomial [b, a]: the closed form |a| holds on
    # the whole line, with no grid search
    line = Interval(-math.inf, math.inf)
    assert polynomial([b, a]).slope_floor(line) == abs(a)
    assert linear(a, b).slope_floor(line) == abs(a)
    assert polynomial([b, a]).slope_floor(Interval(-9.0, 4.0)) == abs(a)


def test_min_slope_grid_path_close_to_closed_form():
    # a polynomial of degree >= 2 takes the certified grid bound
    f, I, truth = polynomial([0.0, 1.0, 0.5]), Interval(-0.5, 1.0), 0.5  # inf |1 + t|
    got = f.slope_floor(I)
    assert 0.0 <= got <= truth + 1e-12  # certified: never above truth
    assert got == pytest.approx(truth, abs=2e-3)
    # exp's slope e^t increases: the floor is its value at the left end
    for lo, hi in [(0.0, 1.0), (-1.5, 1.5), (-3.0, -0.25), (0.5, math.inf), (-math.inf, 1.0)]:
        assert exp_fn().slope_floor(Interval(lo, hi)) == math.exp(lo)


@pytest.mark.parametrize(
    "coeffs,lo,hi",
    [
        ([0.0, 1.0, 0.5], -0.5, 1.0),
        ([0.5, -1.0, 0.25, 0.1], 0.0, 1.0),
        ([0.5, -1.0, 0.25, 0.1, 0.05], -3.0, -0.25),
        ([2.0, 3.0, -1.0, 0.2], -1.0, 2.5),
        # f' = 1 - 1.2 t^3 changes sign inside an off-center interval
        ([0.0, 1.0, 0.0, 0.0, -0.3], -1.0003, 1.0007),
    ],
)
def test_min_slope_polynomial_never_exceeds_the_dense_infimum(coeffs, lo, hi):
    f = polynomial(coeffs)
    xs = np.linspace(lo, hi, 2_000_000)
    dense = float(np.min(np.abs(f.deriv1(xs))))
    got = f.slope_floor(Interval(lo, hi))
    assert 0.0 <= got <= dense
    assert got == pytest.approx(dense, abs=5e-3)


def test_min_slope_polynomial_needs_a_bounded_interval():
    with pytest.raises(ValueError, match="bounded interval"):
        polynomial([0.0, 1.0, 0.5]).slope_floor(Interval(0.0, math.inf))


def test_strip_sup_logistic_values():
    assert strip_sup_logistic(0.0) == pytest.approx(0.25)
    assert strip_sup_logistic(math.pi / 2) == pytest.approx(0.5, abs=1e-14)
    with pytest.raises(ValueError):
        strip_sup_logistic(math.pi)


def test_strip_envelope_logistic_dominates_grid():
    f = logistic_flip(0.1, 0.9)
    env = coefficient_envelope(f, "strip", Interval(-2.0, 2.0), K=20, contour_radius=2.0)
    assert env.mode == "strip"
    assert env.f is f and env.t_hi == math.inf
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
    assert env.t_hi == 1.0 and env.f.degree == math.inf


def test_interval_envelope_polynomial_finite_tail():
    f = polynomial([0.0, 1.0, 2.0, -1.0])
    env = coefficient_envelope(f, "interval", Interval(-1.0, 1.0), K=8)
    assert env.f.degree == 3
    assert np.all(env.dk[4:] == 0.0)  # d_k = 0 past the degree
    assert env.f.series_tail(1.0, 0.5, 8, env.t_hi) == 0.0
    with pytest.raises(ValueError, match="increase K beyond the polynomial degree"):
        env.f.series_tail(1.0, 0.5, 2, env.t_hi)


def test_strip_envelope_unavailable_for_exp():
    with pytest.raises(ValueError, match="strip envelope unavailable"):
        coefficient_envelope(exp_fn(), "strip", Interval(-1.0, 1.0), K=10)


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


def test_logistic_matches_expit_to_4_ulp():
    t = np.linspace(-700.0, 700.0, 140_001)
    want = expit(t)
    assert np.all(np.abs(_logistic(t) - want) <= 4.0 * np.spacing(want))


@pytest.mark.parametrize("t", [40.0, 60.0, 700.0])
def test_logistic_small_root_and_slope_keep_relative_accuracy(t):
    e = math.exp(-t)
    assert _logistic(-t) == pytest.approx(e / (1.0 + e), rel=1e-14, abs=0.0)
    for x in (t, -t):  # s (1 - s) would be 0 at +t for t > ~37
        assert _logistic_slope(x) == pytest.approx(e / (1.0 + e) ** 2, rel=1e-14, abs=0.0)
        assert logistic_flip(0.0, 1.0).deriv1(np.array([x]))[0] == pytest.approx(
            e / (1.0 + e) ** 2, rel=1e-14, abs=0.0
        )


def test_logistic_raises_no_warning_far_out():
    t = np.array([-1e4, 1e4])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        s, ds = _logistic(t), _logistic_slope(t)
    assert s[1] == 1.0 and 0.0 <= s[0] < 1e-307
    assert np.all((0.0 <= ds) & (ds < 1e-307))


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


BUILTIN_LINKS = {
    "polynomial": polynomial([0.5, -1.0, 0.25, 0.1]),
    "linear": linear(1.5, 0.5),
    "exp": exp_fn(),
    "logistic_flip": logistic_flip(0.1, 0.9),
}


@pytest.mark.parametrize("name", sorted(LINKS))
@pytest.mark.parametrize("lo,hi", [(-1.5, 1.5), (0.5, 2.0), (-3.0, -0.25)])
def test_radius_floor_bounds_the_radius_on_the_interval(name, lo, hi):
    # every link in the table (a KeyError here means a new link lacks an
    # instance above): build_grid's one construction needs a positive radius
    # floor over the whole line, and the series constants need a certified
    # series tail
    f = BUILTIN_LINKS[name]
    I = Interval(lo, hi)
    xs = np.linspace(lo, hi, 20001)
    assert f.radius_floor(I) <= min(f.radius_at(x) for x in xs)
    assert f.radius_floor(None) <= f.radius_floor(I)
    assert f.radius_floor(None) > 0
    for t in (0.0, 1.5):
        assert f.series_tail(1.0, 0.5, 20, t) >= 0.0, t


@pytest.mark.parametrize("name", sorted(BUILTIN_LINKS))
def test_deriv1_matches_first_coefficient(name):
    f = BUILTIN_LINKS[name]
    xs = np.linspace(-4.0, 4.0, 41)
    want = np.array([f.coeff_k(1, x) for x in xs])
    np.testing.assert_allclose(f.deriv1(xs), want, rtol=1e-13, atol=1e-15)


@pytest.mark.parametrize("name", sorted(BUILTIN_LINKS))
def test_builtin_links_inherit_the_traced_methods(name):
    # profilers patch these three on AnalyticFn; an override would hide a
    # link's calls from them
    cls = type(BUILTIN_LINKS[name])
    for attr in ("__call__", "coeff_k", "coeff_abs_batch"):
        assert getattr(cls, attr) is getattr(AnalyticFn, attr), attr


@pytest.mark.parametrize("name", sorted(BUILTIN_LINKS))
def test_abs_coeff_table_equals_per_order_batches(name):
    f = BUILTIN_LINKS[name]
    ts = np.linspace(-2.0, 2.0, 37)
    table = f.abs_coeff_table(12, ts)
    np.testing.assert_array_equal(table, np.abs(f.coeff_table(12, ts)))
    for k in range(1, 13):
        assert np.array_equal(table[k - 1], f.coeff_abs_batch(k, ts)), k


@pytest.mark.parametrize("name", sorted(LINKS))
def test_coeff_table_equals_coeff_k_at_each_center(name):
    f = BUILTIN_LINKS[name]
    ts = np.linspace(-2.0, 2.0, 37)
    K = 24
    table = f.coeff_table(K, ts)
    assert table.shape == (K, ts.size)
    single = np.array([[f.coeff_k(k, t) for t in ts] for k in range(1, K + 1)])
    # bit for bit: a coefficient does not depend on the other centers
    assert table.tobytes() == single.tobytes()


@pytest.mark.parametrize("m", [1, 2, 3, 37])
def test_logistic_coefficients_do_not_depend_on_the_center_count(m):
    # the recurrence's convolution is summed in one order however many
    # centers share the table, so every column equals its lone-center table
    f = logistic_flip(0.1, 0.9)
    ts = np.linspace(-2.0, 2.0, m) + 0.3
    table = f.coeff_table(80, ts)
    for i, t in enumerate(ts):
        assert table[:, i].tobytes() == f.coeff_table(80, [t])[:, 0].tobytes(), t
        assert table[:, i].tobytes() == f.coeff_table(80, np.float64(t)).tobytes()
