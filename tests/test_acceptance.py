"""End-to-end acceptance suite: one test per shipped guarantee.

Each test states its tolerance and wall-clock budget inline and fails hard
when either is exceeded, so `pytest -v tests/test_acceptance.py` prints one
pass/fail line per guarantee.  Budgets are generous upper limits, not
typical runtimes (the whole file finishes in a few minutes on one core).
"""

import itertools
import math
import time

import numpy as np
import pytest
from scipy.optimize import minimize
from scipy.special import expit

import l0bounds as lb
from oracles import (
    multinomial_identity_gap,
    nu_capacity,
    sample_domain,
    segment_hull_sample,
    separability_lower_bound,
    taylor_eval,
)

RNG_SEED = 20260819


def test_criterion_01_constant_identities():
    """kappa_r = 3 c1/c2 and c_r = 3 c1^2/c2 on every theorem path (1e-12)."""
    t0 = time.monotonic()
    rng = np.random.default_rng(42)
    X = lb.DesignMatrix(rng.choice([-1.0, 1.0], size=(40, 6)))
    I = lb.Interval(-1.5, 1.5)
    f = lb.logistic_flip(0.1, 0.9)
    D = lb.DomainSpec(I, max_support=1, l1inf_cap=1.5)
    G = lb.build_grid(X, f, D)
    reports = [
        lb.glm_report(X, lb.bernoulli(), I, 1.0, 0.1),
        lb.one_disc_report(X, f, I, 1.0, 0.1, theta=0.75),
        lb.multi_disc_report(X, G, I, 1.0, 0.1),
        lb.ub_report(X, f, I, 1.0, 0.1, rho1=math.pi / 2, theta=0.75),
    ]
    assert [r.theorem for r in reports] == ["glm", "one_disc", "multi_disc", "ub_strip"]
    for r in reports:
        assert r.kappa_r == pytest.approx(3.0 * r.c1 / r.c2, rel=1e-12)
        assert r.c_r == pytest.approx(3.0 * r.c1**2 / r.c2, rel=1e-12)
    # closed-form GLM constants feed the same identity
    delta = lb.curvature_inf(lb.bernoulli(), I)
    c1 = lb.c1_glm(X, 1.0, 0.1)
    c2 = lb.c2_glm(X, delta)
    assert reports[0].kappa_r == pytest.approx(3.0 * c1 / c2, rel=1e-12)
    assert reports[0].c_r == pytest.approx(3.0 * c1**2 / c2, rel=1e-12)
    assert time.monotonic() - t0 < 1.0


def test_criterion_02_column_separability():
    """10^4 seeded (X, u, nu) instances with |spt(u)| within capacity satisfy
    ||Xu||^2 >= nu (1+mu) sum u_j^2 ||V_j||^2 with relative slack >= -1e-9."""
    t0 = time.monotonic()
    rng = np.random.default_rng(RNG_SEED)
    checked = 0
    while checked < 10_000:
        n = int(rng.integers(20, 51))
        p = int(rng.integers(4, 11))
        X = lb.DesignMatrix(rng.standard_normal((n, p)))
        nu = float(rng.uniform(0.05, 0.95))
        h = min(int(nu_capacity(X, nu)), p)
        if h < 1:
            continue  # capacity below one support coordinate: nothing to claim
        k = int(rng.integers(1, h + 1))
        u = np.zeros(p)
        S = rng.choice(p, size=k, replace=False)
        u[S] = rng.uniform(0.2, 2.0, size=k) * rng.choice([-1.0, 1.0], size=k)
        lhs, rhs, holds = separability_lower_bound(u, X, nu)
        assert holds, f"separability violated: lhs={lhs!r} rhs={rhs!r}"
        checked += 1
    assert time.monotonic() - t0 < 10.0


def test_criterion_03_noise_tail_bounds():
    """Projection tails stay sub-gaussian at sigma for the iid gaussian,
    bounded (sigma = 1 bernoulli-residual), and unit-spectral-radius
    correlated gaussian models, 1e5 trials each."""
    t0 = time.monotonic()
    models = [
        lb.gaussian_iid(1.0),
        lb.bounded_iid(1.0),
        lb.bernoulli_residual(),
        lb.gaussian_correlated(1.0),
    ]
    for noise in models:
        out = lb.verify_tail(noise, trials=100_000)
        assert out["all_ok"], f"{noise.tag}: tail bound violated: {out['rows']}"
    assert time.monotonic() - t0 < 30.0


def _oracle_objective(prob):
    """Brute force reference: support enumeration x (grid -> refine -> simplex
    polish), plus a facet-parameterized polish for minima on the weighted-l1
    cap, where unconstrained simplex descent stalls."""
    X, y, D = prob.X, prob.y, prob.domain
    p = X.p
    cap = D.l1inf_cap
    w = X.column_norms(np.inf)

    def loss(u):
        if not lb.in_domain(u, X, D):
            return np.inf
        if prob.loss == "mle":
            try:
                return lb.mle_loss(prob.y, X, u, prob.family)
            except ValueError:
                return np.inf
        return float(np.sum((y - prob.link(X.X @ u)) ** 2))

    def sub_loss(S, v):
        u = np.zeros(p)
        u[list(S)] = v
        return loss(u)

    def grid_losses(S, pts):
        # sub_loss at every row of pts as one array operation: the same
        # support-size, interval, cap and natural-domain tests, on the
        # (n, points) matrix of linear predictors.  Grid points land exactly
        # on the cap, where a batched product can round the other way than
        # in_domain's, so points within rounding of the cap or of an
        # interval end are re-tested by in_domain itself.
        S = list(S)
        T = X.X[:, S] @ pts.T
        I = D.interval
        ok = np.count_nonzero(pts, axis=1) <= D.max_support
        ok &= np.all((T >= I.lo) & (T <= I.hi), axis=0)
        tol = 1e-12 * max(1.0, I.sup_abs if I.bounded else 1.0)
        near = np.any((np.abs(T - I.lo) <= tol) | (np.abs(T - I.hi) <= tol), axis=0)
        if cap is not None:
            norms = np.abs(pts) @ w[S]
            ok &= norms <= cap
            near |= np.abs(norms - cap) <= 1e-12 * cap
        for i in np.nonzero(near)[0]:
            u = np.zeros(p)
            u[S] = pts[i]
            ok[i] = lb.in_domain(u, X, D)
        if prob.loss == "mle":
            fam = prob.family
            ok &= np.all(np.isfinite(T), axis=0)
            vals = np.sum(fam.log_partition(T), axis=0) - y @ T
        else:
            vals = np.sum((y[:, None] - prob.link(T)) ** 2, axis=0)
        return np.where(ok, vals, np.inf)

    def facet_min(S):
        # minimize on { sum w_j |v_j| = cap } per sign orthant, where the
        # facet is smooth: magnitudes m_1..m_{k-1} free, the last one
        # determined by the cap.  Minima on orthant edges (some m_j = 0)
        # coincide with smaller supports, which the outer loop prices with a
        # lower penalty, so interior accuracy per orthant suffices.
        k = len(S)
        ws = w[list(S)]
        best = np.inf
        if k == 1:
            for s in (1.0, -1.0):
                best = min(best, sub_loss(S, np.array([s * cap / ws[0]])))
            return best
        centroid = cap / (k * ws[:-1])
        skew = np.full(k - 1, 0.1 * cap) / ws[:-1]
        skew[0] = 0.7 * cap / ws[0]
        for signs in itertools.product((1.0, -1.0), repeat=k):
            sg = np.array(signs)

            def obj(mfree):
                mfree = np.asarray(mfree)
                if np.any(mfree < 0):
                    return np.inf
                m_last = (cap - float(ws[:-1] @ mfree)) / ws[-1]
                if m_last < 0:
                    return np.inf
                v = sg * np.concatenate([mfree, [m_last]])
                return sub_loss(S, v)

            for x0 in (centroid, skew):
                r = minimize(
                    obj, x0, method="Nelder-Mead",
                    options=dict(xatol=1e-11, fatol=1e-13, maxiter=4000),
                )
                best = min(best, r.fun)
        return best

    best = loss(np.zeros(p))
    for k in range(1, int(prob.domain.max_support) + 1):
        for S in itertools.combinations(range(p), k):
            box = [cap / w[j] for j in S]
            axes = [np.linspace(-b, b, 17) for b in box]
            pts = np.stack(np.meshgrid(*axes, indexing="ij"), -1).reshape(-1, k)
            vals = grid_losses(S, pts)
            center = pts[int(np.argmin(vals))]
            step = np.array([2 * b / 16 for b in box])
            while step.max() >= 0.01:
                axes = [np.linspace(c - s, c + s, 9) for c, s in zip(center, step)]
                pts = np.stack(np.meshgrid(*axes, indexing="ij"), -1).reshape(-1, k)
                vals = grid_losses(S, pts)
                center = pts[int(np.argmin(vals))]
                step = step / 4
            r = minimize(
                lambda v: sub_loss(S, v), center, method="Nelder-Mead",
                options=dict(xatol=1e-11, fatol=1e-13, maxiter=4000),
            )
            inner = min(r.fun, sub_loss(S, center))
            v_star = r.x if r.fun <= sub_loss(S, center) else center
            if float(w[list(S)] @ np.abs(v_star)) >= cap * (1 - 1e-3):
                inner = min(inner, facet_min(S))
            best = min(best, inner + prob.c_r * k)
    return best


def test_criterion_04_estimator_matches_bruteforce():
    """50 seeded fits (p <= 8, support budget <= 3; penalized-MLE/bernoulli and
    least-squares/flipped-logistic alternating) land within 1e-6 of the
    grid + polish brute-force objective."""
    t0 = time.monotonic()
    rng = np.random.default_rng(77)
    shapes = [(40, 5, 2), (40, 6, 2), (50, 8, 3)]
    worst = 0.0
    for i in range(50):
        n, p, h = shapes[i % 3]
        Xm = rng.standard_normal((n, p))
        X = lb.DesignMatrix(Xm)
        D = lb.DomainSpec(lb.Interval(-3.0, 3.0), max_support=float(h), l1inf_cap=3.0)
        beta = np.zeros(p)
        S = rng.choice(p, 2, replace=False)
        beta[S] = rng.uniform(0.2, 0.5, 2) * rng.choice([-1.0, 1.0], 2)
        beta *= min(1.0, 2.9 / lb.weighted_l1_norm(beta, X))
        t = Xm @ beta
        if i % 2 == 0:
            y = (rng.random(n) < expit(t)).astype(float)
            prob = lb.FitProblem(y=y, X=X, domain=D, c_r=0.6, family=lb.bernoulli())
        else:
            f = lb.logistic_flip(0.1, 0.9)
            y = f(t) + rng.normal(0.0, 0.05, n)
            prob = lb.FitProblem(y=y, X=X, domain=D, c_r=0.05, link=f)
        res = lb.fit(prob)
        gap = abs(res.objective - _oracle_objective(prob))
        worst = max(worst, gap)
        assert gap <= 1e-6, f"instance {i} ({prob.loss}): objective gap {gap:.3e}"
    assert time.monotonic() - t0 < 300.0, f"too slow (worst gap {worst:.1e})"


def test_criterion_05_glm_coverage():
    """Penalized bernoulli MLE on a +-1 design (n=100, p=20, 2-sparse truth,
    q=0.1, theorem penalty): Wilson lower bound of the event
    ||beta_hat - beta|| <= kappa_r sqrt(2/n) reaches 0.8 over 200 runs."""
    t0 = time.monotonic()
    cfg = lb.ExperimentConfig(
        n=100, p=20, spt_size=2, replicates=200, q=0.1,
        model="glm", family="bernoulli", design="pm1_iid", seed=RNG_SEED,
    )
    res = lb.run_coverage(cfg)
    assert res.n_fit_errors == 0
    assert res.wilson_lo >= 0.8, (
        f"coverage {res.coverage:.3f}, wilson_lo {res.wilson_lo:.3f}"
    )
    assert time.monotonic() - t0 < 600.0


def test_criterion_06_flip_channel_coverage():
    """Flipped-logistic least squares (p01=0.1, p11=0.9, n=100, p=15,
    2-sparse truth, q=0.1, strip-envelope series penalty): Wilson lower
    bound reaches 0.8 over 200 runs."""
    t0 = time.monotonic()
    cfg = lb.ExperimentConfig(
        n=100, p=15, spt_size=2, replicates=200, q=0.1,
        model="flip", p01=0.1, p11=0.9, design="pm1_iid", seed=RNG_SEED,
    )
    res = lb.run_coverage(cfg)
    assert res.n_fit_errors == 0
    assert res.wilson_lo >= 0.8, (
        f"coverage {res.coverage:.3f}, wilson_lo {res.wilson_lo:.3f}"
    )
    assert time.monotonic() - t0 < 900.0


def test_criterion_07_grid_cover_certificates():
    """20 seeded domains: every one of 10^4 segment-hull samples lies within
    b(g)/2 of a grid point in the weighted-l1 metric, and the grid size
    respects the cover-cardinality bound."""
    t0 = time.monotonic()
    rng = np.random.default_rng(7)
    total = 0
    for dom in range(20):
        n = int(rng.integers(25, 45))
        p = int(rng.integers(4, 8))
        pm1 = rng.random() < 0.5
        Xm = rng.choice([-1.0, 1.0], size=(n, p)) if pm1 else rng.standard_normal((n, p))
        X = lb.DesignMatrix(Xm)
        if dom % 3 == 0:
            f = lb.polynomial([0.3, 1.0, -0.4, 0.05])
            b_rule = ("constant", 0.75)
        elif dom % 3 == 1:
            f = lb.logistic_flip(0.1, 0.9)
            b_rule = ("half_radius",)
        else:
            f = lb.exp_fn()
            b_rule = ("constant", 0.6)
        cap = float(rng.uniform(0.8, 1.6))
        D = lb.DomainSpec(lb.Interval(-2.0, 2.0), max_support=1, l1inf_cap=cap)
        G = lb.build_grid(X, f, D, b_rule=b_rule)
        assert len(G) <= G.cardinality_bound
        pts = sample_domain(D, X, 40, seed=100 + dom)
        hull = segment_hull_sample(pts, grid_per_edge=14)
        samples = hull[:500]
        total += len(samples)
        ok, worst = lb.covers(G, samples)
        assert ok, f"domain {dom} ({f.tag}): worst covering slack {worst:.3e}"
    assert total == 10_000
    assert time.monotonic() - t0 < 120.0


def test_criterion_08_series_machinery():
    """Taylor partial sums reconstruct every tagged function at 0.9 x its
    convergence radius to 1e-8 relative; the flipped-logistic radius equals
    sqrt(x^2 + pi^2) to 1e-10; the multinomial weight identity is exact to
    1e-9 for p <= 4, k <= 5."""
    t0 = time.monotonic()
    flip = lb.logistic_flip(0.1, 0.9)
    entire = [
        lb.linear(2.0, 1.0),
        lb.exp_fn(),
        lb.polynomial([1.0, -2.0, 0.5, 0.3]),
    ]
    for center in (0.0, 0.7, -1.3):
        # finite radius: offset at 0.9 x radius, deep partial sum
        z = 0.9 * flip.radius_at(center)
        truth = flip(center + z)
        val = taylor_eval(flip, center, z, 320)
        assert abs(val - truth) <= 1e-8 * max(1.0, abs(truth))
        # entire links: radius is infinite, reconstruct at a fixed offset
        for f in entire:
            truth = f(center + 2.5)
            val = taylor_eval(f, center, 2.5, 80)
            assert abs(val - truth) <= 1e-8 * max(1.0, abs(truth))
    for x in (0.0, 0.3, -1.7, 4.0):
        assert flip.radius_at(x) == pytest.approx(math.hypot(x, math.pi), rel=1e-10)
    rng = np.random.default_rng(8)
    for p in range(1, 5):
        for k in range(1, 6):
            x = rng.uniform(0.2, 1.5, size=p)
            assert multinomial_identity_gap(x, k) <= 1e-9
    assert time.monotonic() - t0 < 60.0


def test_criterion_09_gradient_hessian_fd():
    """Closed-form MLE gradient/Hessian match central finite differences to
    1e-6 relative on 100 random instances."""
    t0 = time.monotonic()
    rng = np.random.default_rng(99)
    eps = 1e-5
    for i in range(100):
        n = int(rng.integers(15, 40))
        p = int(rng.integers(2, 7))
        X = lb.DesignMatrix(0.7 * rng.standard_normal((n, p)))
        fam = lb.bernoulli() if i % 2 == 0 else lb.gaussian(1.3)
        u = 0.3 * rng.standard_normal(p)
        if fam.tag == "bernoulli":
            y = (rng.random(n) < expit(X.X @ u)).astype(float)
        else:
            y = X.X @ u + rng.standard_normal(n)
        g, H = lb.mle_gradient_hessian(y, X, u, fam)
        scale_g = max(1.0, float(np.max(np.abs(g))))
        for j in range(p):
            e = np.zeros(p)
            e[j] = eps
            fd = (lb.mle_loss(y, X, u + e, fam) - lb.mle_loss(y, X, u - e, fam)) / (2 * eps)
            assert abs(g[j] - fd) <= 1e-6 * scale_g, f"instance {i}, grad coord {j}"
            gp, _ = lb.mle_gradient_hessian(y, X, u + e, fam)
            gm, _ = lb.mle_gradient_hessian(y, X, u - e, fam)
            col = (gp - gm) / (2 * eps)
            scale_h = max(1.0, float(np.max(np.abs(H))))
            assert np.max(np.abs(H[:, j] - col)) <= 1e-6 * scale_h, (
                f"instance {i}, hessian col {j}"
            )
    assert time.monotonic() - t0 < 30.0


def test_criterion_10_moment_control_event():
    """Simultaneous moment-control event at p=2, n=10, orders up to 3,
    q=0.1: empirical frequency over 10^4 gaussian trials reaches
    1 - 2q - 3 SE."""
    t0 = time.monotonic()
    rng = np.random.default_rng(10)
    X = lb.DesignMatrix(rng.choice([-1.0, 1.0], size=(10, 2)))
    f = lb.logistic_flip(0.1, 0.9)
    out = lb.verify_control_event(
        X, f, centers=[np.zeros(2)], noise=lb.gaussian_iid(1.0),
        q=0.1, K_check=3, trials=10_000,
    )
    assert out["ok"], f"freq {out['freq']:.4f} < target {out['target']} - 3 SE"
    assert out["freq"] >= out["target"] - 3.0 * out["se"]
    assert time.monotonic() - t0 < 120.0
