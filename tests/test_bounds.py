"""Theorem constants: penalty levels, radius factors, certified series tails."""

import json
import math

import numpy as np
import pytest

from l0bounds import (
    CoefficientEnvelope,
    DesignMatrix,
    DomainSpec,
    Interval,
    bernoulli,
    build_grid,
    c1_glm,
    c1_multi_disc,
    c1_one_disc,
    c1_ub,
    c2_glm,
    c2_lse,
    coefficient_envelope,
    coherence,
    curvature_inf,
    error_radius,
    exp_fn,
    glm_report,
    lambda_p,
    linear,
    logistic_flip,
    min_slope,
    multi_disc_report,
    one_disc_report,
    polynomial,
    ub_report,
)

LN_110 = 4.700480365792417  # lambda_p(10, 0.1) = ln(10 * (1 + 1/0.1))


def _design(n=40, p=8, seed=0):
    rng = np.random.default_rng(seed)
    return DesignMatrix(rng.choice([-1.0, 1.0], size=(n, p)))


def test_lambda_p_frozen_value_and_domain():
    assert lambda_p(10, 0.1) == pytest.approx(LN_110, abs=1e-12)
    with pytest.raises(ValueError):
        lambda_p(10, 0.0)
    with pytest.raises(ValueError):
        lambda_p(10, 0.5)


def test_c1_glm_closed_form():
    X = _design()
    sigma, q = 1.3, 0.1
    want = sigma * math.sqrt(math.log(X.p / q) / (2.0 * X.n)) * X.max_norm(2)
    assert c1_glm(X, sigma, q) == pytest.approx(want, rel=1e-14)


def test_c2_glm_closed_form():
    X = _design()
    nu, delta = 0.5, 0.11  # the library's separability split
    mu = coherence(X.X)
    want = nu * delta * (1 + mu) * X.min_norm(2) ** 2 / (2.0 * X.n)
    assert c2_glm(X, delta) == pytest.approx(want, rel=1e-14)


def test_c2_lse_closed_form_and_identifiability():
    X = _design()
    f = logistic_flip(0.1, 0.9)
    I = Interval(-2.0, 2.0)
    dmin = min_slope(f, I)
    mu = coherence(X.X)
    want = dmin**2 * 0.5 * (1 + mu) * X.min_norm(2) ** 2 / X.n
    assert c2_lse(X, dmin) == pytest.approx(want, rel=1e-14)
    with pytest.raises(ValueError, match="non-identifiable link on I"):
        c2_lse(X, 0.0)


def test_constant_identities_glm():
    X = _design()
    I = Interval(-2.0, 2.0)
    rep = glm_report(X, bernoulli(), I, sigma=1.0, q=0.1)
    assert rep.c_r == pytest.approx(3.0 * rep.c1**2 / rep.c2, rel=1e-14)
    assert rep.kappa_r == pytest.approx(3.0 * rep.c1 / rep.c2, rel=1e-14)


def test_glm_report_matches_explicit_prefactor_form():
    # sigma = 1 Bernoulli on I = [-M, M]: delta = (2 cosh(M/2))^-2, so
    # c_r = 3 c1^2 / c2 = 12 cosh(M/2)^2 ln(p/q) max||V||^2 / (nu (1+mu) min||V||^2)
    # (the 1/(2n) factors of c1^2 and c2 cancel); both forms must agree
    X = _design(seed=3)
    M = 2.0
    q, nu = 0.1, 0.5
    rep = glm_report(X, bernoulli(), Interval(-M, M), sigma=1.0, q=q)
    assert rep.inputs["nu"] == nu
    mu = coherence(X.X)
    explicit = (
        12.0
        * math.cosh(M / 2.0) ** 2
        * math.log(X.p / q)
        * X.max_norm(2) ** 2
        / (nu * (1 + mu) * X.min_norm(2) ** 2)
    )
    assert rep.c_r == pytest.approx(explicit, rel=1e-12)
    # and the curvature constant really is the closed form used above
    assert curvature_inf(bernoulli(), Interval(-M, M)) == pytest.approx(
        (2.0 * math.cosh(M / 2.0)) ** -2, abs=1e-14
    )


def test_one_disc_linear_collapses_to_first_term():
    X = _design()
    f = linear(1.7)
    sb = c1_one_disc(X, f, sigma=1.1, q=0.1, theta=0.5)
    lam = lambda_p(X.p, 0.1)
    w1 = X.max_norm(2) / math.sqrt(X.n)
    want = 1.1 * math.sqrt(2 * lam) * 1.0 * abs(1.7) * w1
    assert float(sb) == pytest.approx(want, rel=1e-12)
    assert sb.tail == 0.0


def test_one_disc_logistic_series_behaviour():
    X = _design()
    f = logistic_flip(0.1, 0.9)
    sb40 = c1_one_disc(X, f, sigma=1.0, q=0.1, theta=0.6, K=40)
    sb60 = c1_one_disc(X, f, sigma=1.0, q=0.1, theta=0.6, K=60)
    assert sb40.tail >= 0.0 and sb60.tail >= 0.0
    assert sb60.partial >= sb40.partial - 1e-15  # partial sums grow with K
    assert sb60.value <= sb40.value + 1e-12  # certified bound tightens
    assert sb60.value >= sb60.partial


def test_one_disc_divergence_and_unsupported_links():
    X = _design()
    with pytest.raises(ValueError, match="theta too close to 1"):
        c1_one_disc(X, logistic_flip(0.1, 0.9), 1.0, 0.1, theta=0.999)
    with pytest.raises(ValueError, match="series diverges: infinite radius"):
        c1_one_disc(X, exp_fn(), 1.0, 0.1, theta=0.5)


def test_one_disc_nonlinear_polynomial_diverges():
    # entire nonlinear links make the single-disc series infinite (rho = inf),
    # degree-2 and up included; degree <= 1 collapses to the first term
    X = _design()
    with pytest.raises(ValueError, match="series diverges: infinite radius"):
        c1_one_disc(X, polynomial([0.0, 2.0, -0.5]), sigma=1.0, q=0.2, theta=0.5)
    sb = c1_one_disc(X, polynomial([3.0, 2.0]), sigma=1.0, q=0.2, theta=0.5)
    assert sb.tail == 0.0 and float(sb) > 0.0


def test_c1_multi_disc_logistic():
    X = _design(n=30, p=6, seed=1)
    f = logistic_flip(0.1, 0.9)
    D = DomainSpec(Interval(-1.5, 1.5), max_support=1.0, l1inf_cap=1.5)
    G = build_grid(X, f, D)
    sb = c1_multi_disc(X, G, sigma=1.0, q=0.1, K=40)
    assert float(sb) > 0 and sb.tail >= 0
    assert sb.value == pytest.approx(sb.partial + sb.tail, rel=1e-12)


def test_c1_ub_strip_logistic_and_guards():
    X = _design(n=30, p=6, seed=2)
    f = logistic_flip(0.1, 0.9)
    I = Interval(-2.0, 2.0)
    rho1 = math.pi / 2
    env = coefficient_envelope(f, "strip", I, K=40, contour_radius=rho1 / 0.75)
    sb = c1_ub(X, env, sigma=1.0, q=0.1, h=2.0, delta_D=2.0, rho1=rho1)
    assert float(sb) > 0 and sb.tail >= 0
    # the contour must stay inside the pole-free strip ...
    with pytest.raises(ValueError, match=r"contour_radius must lie in \(0, pi\)"):
        coefficient_envelope(f, "strip", I, K=40, contour_radius=3.3)
    # ... and rho1 must stay below the envelope's radius floor
    env2 = coefficient_envelope(f, "interval", I, K=40)
    with pytest.raises(ValueError, match="rho1 must stay below the envelope radius floor"):
        c1_ub(X, env2, sigma=1.0, q=0.1, h=2.0, delta_D=2.0, rho1=3.3)


def test_c1_ub_polynomial_needs_k_past_degree():
    X = _design(n=30, p=6, seed=4)
    f = polynomial([0.0, 1.0, 0.0, 0.0, 0.5, 0.0, 0.0, 0.1])  # degree 7
    I = Interval(-1.0, 1.0)
    env = coefficient_envelope(f, "interval", I, K=5)
    with pytest.raises(ValueError, match="increase K beyond the polynomial degree"):
        c1_ub(X, env, 1.0, 0.1, h=2.0, delta_D=1.0, rho1=0.5)
    env2 = coefficient_envelope(f, "interval", I, K=10)
    sb = c1_ub(X, env2, 1.0, 0.1, h=2.0, delta_D=1.0, rho1=0.5)
    assert sb.tail == 0.0


def test_c1_ub_custom_envelope_refused():
    X = _design(n=30, p=6, seed=5)
    # a hand-built envelope with no certified tail
    dk = np.concatenate(([0.0], 0.3 ** np.arange(1, 11)))
    env = CoefficientEnvelope("interval", 10, dk, 2.0, None, "hand")
    with pytest.raises(ValueError, match="certified tail unavailable for custom envelopes"):
        c1_ub(X, env, 1.0, 0.1, h=2.0, delta_D=1.0, rho1=1.0)


def test_error_radius_formula():
    assert error_radius(10.0, 4, 25) == pytest.approx(10.0 * 2.0 / 5.0)
    assert error_radius(3.0, 0, 100) == 0.0


def test_reports_identities_and_json():
    X = _design(n=30, p=6, seed=6)
    f = logistic_flip(0.1, 0.9)
    I = Interval(-1.5, 1.5)
    D = DomainSpec(I, max_support=1.0, l1inf_cap=1.5)
    G = build_grid(X, f, D)
    reports = [
        glm_report(X, bernoulli(), I, 1.0, 0.1),
        one_disc_report(X, f, I, 1.0, 0.1, theta=0.6),
        multi_disc_report(X, G, I, 1.0, 0.1, K=40),
        ub_report(X, f, I, 1.0, 0.1, rho1=math.pi / 2, theta=0.75),
    ]
    tags = [r.theorem for r in reports]
    assert tags == ["glm", "one_disc", "multi_disc", "ub_strip"]
    for r in reports:
        assert r.c_r == pytest.approx(3.0 * r.c1**2 / r.c2, rel=1e-12)
        assert r.kappa_r == pytest.approx(3.0 * r.c1 / r.c2, rel=1e-12)
        blob = json.loads(r.to_json())
        assert blob["theorem"] == r.theorem
        assert blob["c_r"] == pytest.approx(r.c_r)
        assert "inputs" in blob
        # a radius is computable from any report
        assert r.error_radius(2, X.n) == pytest.approx(r.kappa_r * math.sqrt(2.0 / X.n))


@pytest.mark.parametrize("t", [1e-4, 1e2, 1e3])
def test_series_c1_is_scale_equivariant(t):
    # c1 carries the design only through the factors max_j ||V_j||_{2k}, so
    # scaling the design by t scales c1 by t; |x|^(2k) taken directly
    # overflows at t = 1e2 and underflows at t = 1e-4
    rng = np.random.default_rng(8)
    X = DesignMatrix(2.0 * rng.standard_normal((30, 6)))
    tX = DesignMatrix(t * X.X)
    f = logistic_flip(0.1, 0.9)
    I = Interval(-1.5, 1.5)
    G = build_grid(X, f, DomainSpec(I, max_support=1.0, l1inf_cap=1.5))
    reports = [
        lambda Y: one_disc_report(Y, f, I, 1.0, 0.1, theta=0.6),
        lambda Y: ub_report(Y, f, I, 1.0, 0.1, rho1=math.pi / 2, theta=0.75),
        lambda Y: multi_disc_report(Y, G, I, 1.0, 0.1, K=40),
    ]
    for report in reports:
        assert report(tX).c1 == pytest.approx(t * report(X).c1, rel=1e-12, abs=0.0)


def test_ub_report_defaults_h_from_capacity():
    X = _design(n=30, p=6, seed=7)
    f = logistic_flip(0.1, 0.9)
    I = Interval(-1.5, 1.5)
    rep = ub_report(X, f, I, 1.0, 0.1, rho1=math.pi / 2, theta=0.75)
    mu = coherence(X.X)
    half_cap = 0.5 * (1 - 0.5) * (1 + 1 / mu)
    assert rep.inputs["h"] == pytest.approx(max(1.0, half_cap))
    assert rep.inputs["delta_D"] == pytest.approx(I.sup_abs)



@pytest.mark.parametrize("a,b", [(1.7, 0.5), (-0.8, 0.0)])
def test_linear_equals_degree_one_polynomial(a, b):
    X = _design(n=30, p=6, seed=3)
    I = Interval(-1.5, 1.5)
    lin, poly = linear(a, b), polynomial([b, a])
    for mode in ("strip", "interval"):
        got = ub_report(X, lin, I, 1.0, 0.1, rho1=0.5, theta=0.75, mode=mode, K=10)
        want = ub_report(X, poly, I, 1.0, 0.1, rho1=0.5, theta=0.75, mode=mode, K=10)
        assert got.c1 == want.c1 and got.c2 == want.c2, mode
    got = one_disc_report(X, lin, I, 1.0, 0.1, theta=0.5)
    want = one_disc_report(X, poly, I, 1.0, 0.1, theta=0.5)
    assert got.c1 == want.c1 and got.c2 == want.c2
