"""L0 estimator: enumeration, inner solves, ties, pruning, boundary handling."""

import itertools
import math

import numpy as np
import pytest
from scipy.linalg import null_space
from scipy.special import expit

from l0bounds import (
    DesignMatrix,
    DomainSpec,
    FitProblem,
    Interval,
    bernoulli,
    fit,
    gaussian,
    inner_solve,
    linear,
    logistic_flip,
    mle_loss,
)


def _wide(budget=3):
    return DomainSpec(Interval(-50.0, 50.0), max_support=float(budget), l1inf_cap=50.0)


WIDE = _wide()


def _problem_gaussian(y, X, c_r, budget=3):
    return FitProblem(y=y, X=X, domain=_wide(budget), c_r=c_r, family=gaussian(1.0))


def test_orthonormal_gaussian_hard_threshold():
    # orthonormal design, sigma^2 = 1: the penalized MLE keeps exactly the
    # coordinates with z_j^2 > 2 c_r, z = X'y, and sets them to z_j
    rng = np.random.default_rng(0)
    n = 8
    Q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    X = DesignMatrix(Q[:, :4])
    y = rng.standard_normal(n) * 2.0
    z = X.X.T @ y
    c_r = 1.0
    want = tuple(int(j) for j in range(4) if z[j] ** 2 > 2 * c_r)
    res = fit(_problem_gaussian(y, X, c_r, budget=4))
    assert res.support == want
    np.testing.assert_allclose(res.beta_hat.values[list(want)], z[list(want)], atol=1e-8)


def test_lse_linear_matches_mle_gaussian_at_half_penalty():
    # gaussian NLL = ||y - Xu||^2 / 2 - ||y||^2 / 2, so the two estimators
    # coincide when c_r(lse) = 2 c_r(mle)
    rng = np.random.default_rng(1)
    X = DesignMatrix(rng.standard_normal((25, 5)))
    y = rng.standard_normal(25)
    mle = fit(_problem_gaussian(y, X, c_r=0.7, budget=2))
    lse = fit(
        FitProblem(
            y=y, X=X, domain=_wide(2), c_r=1.4, link=linear(1.0)
        )
    )
    assert mle.support == lse.support
    np.testing.assert_allclose(mle.beta_hat.values, lse.beta_hat.values, atol=1e-6)


def test_lse_noiseless_recovery():
    rng = np.random.default_rng(2)
    X = DesignMatrix(rng.standard_normal((60, 6)))
    f = logistic_flip(0.1, 0.9)
    beta = np.zeros(6)
    beta[[1, 4]] = [0.8, -0.6]
    y = f(X.X @ beta)
    D = DomainSpec(Interval(-8.0, 8.0), max_support=2.0, l1inf_cap=8.0)
    res = fit(FitProblem(y=y, X=X, domain=D, c_r=1e-4, link=f))
    assert res.support == (1, 4)
    np.testing.assert_allclose(res.beta_hat.values, beta, atol=1e-6)
    assert res.loss_value < 1e-12


# the likelihood builds no ridge start where the zero start is feasible
@pytest.mark.parametrize("loss,builds", [("mle", 0), ("lse", 1)])
def test_ridge_working_response_is_built_once_per_problem(monkeypatch, loss, builds):
    from l0bounds import estimator

    value, gh, working_response, two_starts = estimator._LOSSES[loss]
    calls = []

    def counted(prob):
        calls.append(prob)
        return working_response(prob)

    monkeypatch.setitem(estimator._LOSSES, loss, (value, gh, counted, two_starts))
    rng = np.random.default_rng(5)
    X = DesignMatrix(rng.choice([-1.0, 1.0], size=(80, 5)))
    y = rng.integers(0, 2, 80).astype(float)
    D = DomainSpec(Interval(-3.0, 3.0), max_support=2.0, l1inf_cap=3.0)
    model = {"family": bernoulli()} if loss == "mle" else {"link": logistic_flip(0.1, 0.9)}
    res = fit(FitProblem(y=y, X=X, domain=D, c_r=0.5, **model))
    assert len(res.records) == 16
    assert len(calls) == builds


def test_mle_bernoulli_support_recovery():
    rng = np.random.default_rng(7)
    n, p = 400, 6
    X = DesignMatrix(rng.choice([-1.0, 1.0], size=(n, p)))
    beta = np.zeros(p)
    beta[[0, 3]] = [1.2, -0.9]
    t = X.X @ beta
    y = (rng.random(n) < expit(t)).astype(float)
    D = DomainSpec(Interval(-20.0, 20.0), max_support=2.0, l1inf_cap=20.0)
    res = fit(
        FitProblem(y=y, X=X, domain=D, c_r=4.0, family=bernoulli())
    )
    assert res.support == (0, 3)
    np.testing.assert_allclose(res.beta_hat.values[[0, 3]], beta[[0, 3]], atol=0.35)


def test_tie_breaking_prefers_smaller_then_lexicographic():
    # duplicate columns give exactly tied supports; lexicographic wins
    col = np.array([1.0, 2.0, -1.0, 0.5])
    X = DesignMatrix(np.column_stack([col, col, np.array([0.1, -0.2, 0.3, 0.9])]))
    y = 2.0 * col
    res = fit(_problem_gaussian(y, X, c_r=0.5, budget=2))
    assert res.support == (0,)
    assert res.tie_break_applied


def test_penalty_prune_is_exact():
    # huge penalty: only the empty support is ever solved, and the result
    # equals the unpruned optimum (the zero fit)
    rng = np.random.default_rng(3)
    X = DesignMatrix(rng.standard_normal((30, 5)))
    y = rng.standard_normal(30)
    res = fit(_problem_gaussian(y, X, c_r=1e9))
    assert res.support == ()
    assert len(res.records) == 1
    # moderate penalty: pruning must not change the answer vs the full sweep
    res2 = fit(_problem_gaussian(y, X, c_r=0.4))
    best = min(
        (r for r in res2.records if r.feasible),
        key=lambda r: r.loss + 0.4 * len(r.support),
    )
    assert res2.objective == pytest.approx(best.loss + 0.4 * len(best.support), abs=1e-9)


@pytest.mark.parametrize("budget", [0.0, 1.0, 1.5, 2.0, 3.7, math.inf])
def test_fit_visits_every_support_within_the_budget(budget):
    # fit enumerates the sizes k <= min(p, max_support), all of them when
    # nothing is pruned (c_r = 0)
    rng = np.random.default_rng(6)
    p = 5
    X = DesignMatrix(rng.standard_normal((20, p)))
    y = rng.standard_normal(20)
    res = fit(FitProblem(y=y, X=X, domain=_wide(budget), c_r=0.0, family=gaussian(1.0)))
    h = math.floor(min(p, budget))
    want = [S for k in range(h + 1) for S in itertools.combinations(range(p), k)]
    assert res.n_supports == sum(math.comb(p, k) for k in range(h + 1)) == len(want)
    assert [r.support for r in res.records] == want
    assert len(res.support) <= h


def test_enumeration_budget_guard():
    rng = np.random.default_rng(4)
    X = DesignMatrix(rng.standard_normal((10, 45)))
    y = rng.standard_normal(10)
    prob = FitProblem(
        y=y, X=X, domain=_wide(22), c_r=0.1, family=gaussian(1.0)
    )
    with pytest.raises(ValueError, match="enumeration budget exceeded"):
        fit(prob)


def test_empty_domain_raises():
    X = DesignMatrix(np.eye(3))
    D = DomainSpec(Interval(1.0, 2.0), max_support=0.0, l1inf_cap=5.0)
    prob = FitProblem(
        y=np.ones(3), X=X, domain=D, c_r=0.1, family=gaussian(1.0)
    )
    with pytest.raises(ValueError, match="empty domain"):
        fit(prob)


def test_problem_validation():
    X = DesignMatrix(np.eye(3))
    with pytest.raises(ValueError, match="response length"):
        FitProblem(y=np.ones(4), X=X, domain=WIDE, c_r=0.1, family=gaussian())
    one_model = r"give exactly one of family \(likelihood\) or link \(least squares\)"
    with pytest.raises(ValueError, match=one_model):
        FitProblem(y=np.ones(3), X=X, domain=WIDE, c_r=0.1)
    with pytest.raises(ValueError, match=one_model):
        FitProblem(y=np.ones(3), X=X, domain=WIDE, c_r=0.1, family=gaussian(), link=linear(1.0))
    with pytest.raises(ValueError, match="c_r must be nonnegative"):
        FitProblem(y=np.ones(3), X=X, domain=WIDE, c_r=-1.0, family=gaussian())
    # the model picks the loss, and the loss cannot be set
    assert FitProblem(y=np.ones(3), X=X, domain=WIDE, c_r=0.1, family=gaussian()).loss == "mle"
    prob = FitProblem(y=np.ones(3), X=X, domain=WIDE, c_r=0.1, link=linear(1.0))
    assert prob.loss == "lse"
    with pytest.raises(AttributeError):
        prob.loss = "mle"
    for key, value in (("loss", "mle"), ("h_max", 1)):  # the domain's budget caps the sizes
        with pytest.raises(TypeError):
            FitProblem(y=np.ones(3), X=X, domain=WIDE, c_r=0.1, family=gaussian(), **{key: value})


def test_fit_is_deterministic():
    rng = np.random.default_rng(5)
    X = DesignMatrix(rng.standard_normal((20, 5)))
    y = rng.integers(0, 2, 20).astype(float)
    prob = lambda: FitProblem(
        y=y, X=X, domain=_wide(2), c_r=0.3, family=bernoulli()
    )
    a, b = fit(prob()), fit(prob())
    assert a.objective == b.objective
    assert a.support == b.support
    np.testing.assert_array_equal(a.beta_hat.values, b.beta_hat.values)


def test_boundary_clamped_flag_and_facet_optimum():
    # y == 1 on a single positive column: the bernoulli MLE runs to the cap
    X = DesignMatrix(np.ones((12, 1)))
    y = np.ones(12)
    D = DomainSpec(Interval(-2.0, 2.0), max_support=1.0, l1inf_cap=2.0)
    prob = FitProblem(
        y=y, X=X, domain=D, c_r=0.01, family=bernoulli()
    )
    res = fit(prob)
    rec = {r.support: r for r in res.records}[(0,)]
    assert rec.boundary_clamped
    assert res.beta_hat.values[0] == pytest.approx(2.0, abs=1e-9)
    assert res.loss_value == pytest.approx(
        mle_loss(y, X, np.array([2.0]), bernoulli()), rel=1e-12
    )


def test_facet_newton_matches_constrained_truth_2d():
    # separable data in two coordinates: minimizer sits on the weighted-l1
    # facet; compare against a dense parameterized search over that facet
    rng = np.random.default_rng(9)
    n = 30
    Xm = np.column_stack([rng.choice([-1.0, 1.0], n), rng.choice([-1.0, 1.0], n)])
    y = (Xm[:, 0] + 0.3 * Xm[:, 1] > 0).astype(float)
    X = DesignMatrix(Xm)
    cap = 1.5
    D = DomainSpec(Interval(-cap, cap), max_support=2.0, l1inf_cap=cap)
    prob = FitProblem(
        y=y, X=X, domain=D, c_r=0.0, family=bernoulli()
    )
    got = inner_solve(prob, (0, 1))
    u, lval, _conv, clamped = got
    assert clamped
    # dense search over the facet |v0| + |v1| = cap, both sign patterns
    ts = np.linspace(0.0, cap, 20001)
    best = math.inf
    for s0 in (1.0, -1.0):
        for s1 in (1.0, -1.0):
            v0 = s0 * ts
            v1 = s1 * (cap - ts)
            t = np.outer(Xm[:, 0], v0) + np.outer(Xm[:, 1], v1)
            ll = np.logaddexp(0.0, t).sum(axis=0) - y @ t
            best = min(best, float(ll.min()))
    assert lval <= best + 1e-6


def test_objective_recompute_assertion_holds():
    rng = np.random.default_rng(11)
    X = DesignMatrix(rng.standard_normal((15, 4)))
    y = rng.integers(0, 2, 15).astype(float)
    res = fit(
        FitProblem(
            y=y, X=X, domain=_wide(2), c_r=0.2, family=bernoulli()
        )
    )
    direct = mle_loss(y, X, res.beta_hat.values, bernoulli())
    assert res.objective == pytest.approx(
        direct + 0.2 * len(res.support), rel=1e-12
    )


def _active_rows_loop(prob, S, u):
    """Row-by-row reference for the binding constraints: cap row, upper rows
    ascending, lower rows ascending, frozen unit rows."""
    D, dm = prob.domain, prob.X
    v = u[S]
    rows, kinds, frozen = [], [], []
    if D.l1inf_cap is not None:
        w = dm.column_norms(np.inf)[S]
        if float(w @ np.abs(v)) >= D.l1inf_cap * (1.0 - 1e-9):
            rows.append(w * np.sign(v))
            kinds.append("cap")
            frozen = [j for j in range(len(S)) if abs(v[j]) <= 1e-12]
    I = D.interval
    t = dm.X[:, S] @ v
    scale = max(1.0, abs(I.lo) if math.isfinite(I.lo) else 1.0,
                abs(I.hi) if math.isfinite(I.hi) else 1.0)
    if math.isfinite(I.hi):
        for i in np.nonzero(t >= I.hi - 1e-9 * scale)[0]:
            rows.append(dm.X[i, S].astype(float))
            kinds.append("row")
    if math.isfinite(I.lo):
        for i in np.nonzero(t <= I.lo + 1e-9 * scale)[0]:
            rows.append(-dm.X[i, S].astype(float))
            kinds.append("row")
    for j in frozen:
        e = np.zeros(len(S))
        e[j] = 1.0
        rows.append(e)
        kinds.append("frozen")
    return (np.vstack(rows), kinds) if rows else None


def test_active_constraints_match_row_loop():
    from l0bounds.estimator import _active_constraints, _Support

    rng = np.random.default_rng(21)
    seen = {"cap": 0, "row": 0, "frozen": 0, "none": 0}
    for trial in range(400):
        n, p = int(rng.integers(2, 40)), int(rng.integers(1, 5))
        X = rng.choice([-1.0, 1.0], size=(n, p)) if trial % 2 else rng.normal(size=(n, p))
        dm = DesignMatrix(X)
        S = sorted(rng.choice(p, size=int(rng.integers(1, p + 1)), replace=False).tolist())
        u = np.zeros(p)
        u[S] = rng.normal(size=len(S)) * rng.choice([0.0, 1.0], size=len(S), p=[0.25, 0.75])
        t = dm.X[:, S] @ u[S]
        hi = float(np.max(t)) if rng.random() < 0.7 else math.inf
        lo = float(np.min(t)) if rng.random() < 0.7 else -math.inf
        if not lo < hi:
            lo, hi = lo - 1.0, hi + 1.0
        wn = float(dm.column_norms(np.inf)[S] @ np.abs(u[S]))
        cap = wn if wn > 0 and rng.random() < 0.5 else None
        D = DomainSpec(Interval(lo, hi), max_support=float(p), l1inf_cap=cap)
        prob = FitProblem(y=np.zeros(n), X=dm, domain=D, c_r=0.0, family=bernoulli())
        want, got = _active_rows_loop(prob, S, u), _active_constraints(_Support(prob, S), u[S], t)
        if want is None:
            assert got is None
            seen["none"] += 1
            continue
        assert got[1] == want[1]
        assert got[0].dtype == want[0].dtype and got[0].shape == want[0].shape
        assert got[0].tobytes() == want[0].tobytes()
        for kind in set(want[1]):
            seen[kind] += 1
    assert min(seen.values()) > 10, seen


def _boundary_instance(n):
    """A glm/bernoulli instance on a +-1 design whose truth sits on the
    interval facet |x_i'beta| = 1, so about n/2 rows bind there."""
    from l0bounds.harness import ExperimentConfig, generate_instance

    cfg = ExperimentConfig(
        n=n, p=8, spt_size=2, replicates=1, model="glm", family="bernoulli",
        design="pm1_iid", interval_halfwidth=1.0, seed=1,
    )
    inst = generate_instance(cfg, 0)
    return cfg, inst, inst.domain


def test_facet_phase_solves_no_system_of_order_above_distinct_rows(monkeypatch):
    import sys

    from l0bounds import estimator

    _cfg, inst, D = _boundary_instance(5000)
    prob = FitProblem(
        y=inst.y, X=inst.X, domain=D, c_r=0.5, family=bernoulli()
    )
    seen = []
    for name in ("solve", "lstsq"):
        real = getattr(np.linalg, name)

        def wrapped(a, *args, _real=real, _name=name, **kwargs):
            if sys._getframe(1).f_code.co_name in ("_active_set_newton", "_null_space_step"):
                seen.append((_name, np.shape(a)))
            return _real(a, *args, **kwargs)

        monkeypatch.setattr(estimator.np.linalg, name, wrapped)
    res = fit(prob)
    k = 2
    assert {r.support for r in res.records if r.boundary_clamped}, "no facet phase entered"
    assert any(name == "solve" for name, _ in seen), seen
    assert max(max(shape) for _, shape in seen) <= k + 2**k, seen


def _reference_block_kkt(Au, g, H):
    """Block KKT solve [[H, Au'], [Au, 0]] [d; lam] = [-g; 0] on the distinct
    rows; None unless Au has full row rank m < k (otherwise the matrix is
    singular or only d = 0 is feasible)."""
    m, k = Au.shape
    if m >= k or np.linalg.matrix_rank(Au) < m:
        return None
    K = np.block([[H, Au.T], [Au, np.zeros((m, m))]])
    return np.linalg.solve(K, np.concatenate([-g, np.zeros(m)]))[:k]


def test_null_space_step_matches_scipy_null_space():
    from l0bounds.estimator import _null_space_step

    rng = np.random.default_rng(707)
    for i in range(600):
        k, m = int(rng.integers(1, 5)), int(rng.integers(1, 8))
        kind = i % 3
        if kind == 0:
            A = rng.choice([-1.0, 1.0], size=(m, k))
        elif kind == 1:
            A = rng.integers(0, 2, size=(m, k)).astype(float)
        else:
            A = rng.standard_normal((m, k))
        Au = np.unique(A, axis=0)
        B = rng.standard_normal((k, k))
        H, g = B @ B.T + np.eye(k), rng.standard_normal(k)
        Z = null_space(Au)
        d = _null_space_step(Au, g, H)
        if Z.shape[1] == 0:
            assert d is None
        else:
            want = -Z @ np.linalg.solve(Z.T @ H @ Z, Z.T @ g)
            np.testing.assert_allclose(d, want, rtol=1e-12, atol=1e-12)


def test_null_space_step_matches_block_kkt_on_facets():
    from l0bounds.estimator import (
        _active_constraints,
        _lse_grad_hess,
        _mle_grad_hess,
        _null_space_step,
        _Support,
    )

    rng = np.random.default_rng(606)
    f = logistic_flip(0.1, 0.9)
    compared = {"pm1": 0, "binary": 0, "gaussian": 0, "cap": 0, "row": 0}
    for i in range(42):
        design = ("pm1", "binary", "gaussian")[i % 3]
        mle = (i // 3) % 2 == 0
        cap_facet = (i // 6) % 2 == 1
        n, p = int(rng.integers(20, 200)), int(rng.integers(2, 5))
        if design == "pm1":
            Xm = rng.choice([-1.0, 1.0], size=(n, p))
        elif design == "binary":
            Xm = rng.integers(0, 2, size=(n, p)).astype(float)
            Xm[0] = 1.0
        else:
            Xm = rng.standard_normal((n, p))
        dm = DesignMatrix(Xm)
        S = list(range(p)) if p <= 2 else sorted(rng.choice(p, 3, replace=False).tolist())
        v = rng.uniform(0.3, 1.0, len(S)) * rng.choice([-1.0, 1.0], len(S))
        u = np.zeros(p)
        u[S] = v
        t = Xm[:, S] @ v
        if cap_facet:  # cap binds, rows stay strictly inside
            cap = float(dm.column_norms(np.inf)[S] @ np.abs(v))
            h = 2.0 * float(np.max(np.abs(t))) + 1.0
        else:  # the extreme row image binds at the interval end
            cap = None
            h = float(np.max(np.abs(t)))
        D = DomainSpec(Interval(-h, h), max_support=float(p), l1inf_cap=cap)
        if mle:
            y = (rng.random(n) < expit(t)).astype(float)
            prob = FitProblem(y=y, X=dm, domain=D, c_r=0.0, family=bernoulli())
            g, H = _mle_grad_hess(prob, Xm[:, S], t)
        else:
            y = f(t) + rng.normal(0.0, 0.05, n)
            prob = FitProblem(y=y, X=dm, domain=D, c_r=0.0, link=f)
            g, H = _lse_grad_hess(prob, Xm[:, S], t)
        A, kinds = _active_constraints(_Support(prob, S), v, t)
        assert ("cap" in kinds) == cap_facet
        Au = np.unique(A, axis=0)
        d = _null_space_step(Au, g, H)
        ref = _reference_block_kkt(Au, g, H)
        if ref is None:
            continue
        assert d is not None
        scale = float(np.linalg.norm(ref))
        assert np.linalg.norm(d - ref) <= 1e-10 * scale, (i, d, ref)
        # the duplicated rows span the same null space
        full = _null_space_step(A, g, H)
        assert np.linalg.norm(full - ref) <= 1e-10 * scale, (i, full, ref)
        compared[design] += 1
        compared["cap" if cap_facet else "row"] += 1
    assert min(compared.values()) >= 5, compared
    assert compared["pm1"] + compared["binary"] + compared["gaussian"] >= 30, compared
    # rows spanning the support leave no facet direction
    assert _null_space_step(np.vstack([np.eye(2), [1.0, 1.0]]), g[:2], H[:2, :2]) is None


def test_large_n_boundary_replicates_fit_in_seconds():
    # on replicate 1 about 10 000 rows with a single distinct image bind on
    # the facet; a facet phase that solves a system of that order takes
    # minutes
    import dataclasses
    import time

    from l0bounds.harness import run_coverage

    cfg, _inst, _D = _boundary_instance(20_000)
    t0 = time.monotonic()
    res = run_coverage(dataclasses.replace(cfg, replicates=2))
    wall = time.monotonic() - t0
    for row in res.rows:
        assert row["fit_error"] == ""
        assert row["spt_hat"] == 2 and row["hit"] == 1 and row["budget_ok"] == 1
        assert row["error"] < 0.05
    assert wall < 10.0, f"two replicates took {wall:.1f} s"


def test_fit_does_not_call_the_full_vector_helpers_per_trial(monkeypatch):
    # every trial point is judged on one product X_S v; the public helpers
    # in_domain and mle_loss form X u over all p columns, and a fit that
    # called them per trial made thousands of such products
    import l0bounds
    from l0bounds import domains, estimator, expfam, harness

    _cfg, inst, D = _boundary_instance(1200)
    calls = {"in_domain": 0, "mle_loss": 0}
    for mod, name in ((domains, "in_domain"), (expfam, "mle_loss")):
        real = getattr(mod, name)

        def counted(*args, _real=real, _name=name, **kwargs):
            calls[_name] += 1
            return _real(*args, **kwargs)

        for ns in (l0bounds, domains, expfam, estimator, harness):
            if getattr(ns, name, None) is real:
                monkeypatch.setattr(ns, name, counted)
    res = fit(
        FitProblem(y=inst.y, X=inst.X, domain=D, c_r=0.5, family=bernoulli())
    )
    assert {r.support for r in res.records if r.boundary_clamped}, "no facet phase entered"
    assert len(res.records) == 37
    assert calls["in_domain"] <= 5 and calls["mle_loss"] <= 5, calls


def test_every_iterate_carries_the_row_images_its_trial_admitted(monkeypatch):
    # an inner solve forms X_S v once per point, where the membership test
    # judges it: the derivatives and the binding constraints of the
    # accepted point are computed on those very row images, never on a
    # fresh product
    from l0bounds import estimator

    _cfg, inst, D = _boundary_instance(1200)
    inside = [False]
    products = [0]

    class CountedDesign(np.ndarray):
        def __matmul__(self, other):
            if inside[0] and self.ndim == 2 and self.shape[0] == inst.X.n and np.ndim(other) == 1:
                products[0] += 1
            return np.asarray(self) @ np.asarray(other)

    dm = DesignMatrix(inst.X.X)
    dm.X = dm.X.view(CountedDesign)
    admitted = {}  # id -> row images, kept alive so that ids stay unique
    received = {"grad_hess": [], "active": []}

    real_admits = estimator._Support.admits

    def admits(self, v, t):
        admitted[id(t)] = t
        return real_admits(self, v, t)

    value, grad_hess, working_response, two_starts = estimator._LOSSES["mle"]

    def counted_grad_hess(*args):
        received["grad_hess"].append(args[-1])
        return grad_hess(*args)

    real_active = estimator._active_constraints

    def active(*args):
        received["active"].append(args[-1])
        return real_active(*args)

    real_inner = estimator.inner_solve

    def inner(prob, S):
        inside[0] = True
        try:
            return real_inner(prob, S)
        finally:
            inside[0] = False

    monkeypatch.setattr(estimator._Support, "admits", admits)
    monkeypatch.setitem(
        estimator._LOSSES, "mle", (value, counted_grad_hess, working_response, two_starts)
    )
    monkeypatch.setattr(estimator, "_active_constraints", active)
    monkeypatch.setattr(estimator, "inner_solve", inner)
    res = fit(FitProblem(y=inst.y, X=dm, domain=D, c_r=0.5, family=bernoulli()))
    assert {r.support for r in res.records if r.boundary_clamped}, "no facet step taken"
    assert received["active"] and received["grad_hess"]
    for kind, ts in received.items():
        assert all(admitted.get(id(t)) is t for t in ts), kind
    assert products[0] == len(admitted)


def test_lse_interior_solves_are_stationary():
    # least squares runs the same damped Newton as the likelihood, with the
    # Gauss-Newton curvature; wherever no constraint stopped it, the loss
    # gradient on the support must vanish (recomputed here from X u)
    rng = np.random.default_rng(808)
    f = logistic_flip(0.1, 0.9)
    checked = {"pm1": 0, "gaussian": 0}
    for i in range(12):
        design = ("pm1", "gaussian")[i % 2]
        n, p = int(rng.integers(80, 300)), int(rng.integers(3, 6))
        if design == "pm1":
            Xm = rng.choice([-1.0, 1.0], size=(n, p))
        else:
            Xm = rng.standard_normal((n, p))
        beta = np.zeros(p)
        beta[rng.choice(p, 2, replace=False)] = rng.uniform(0.3, 0.8, 2) * rng.choice([-1.0, 1.0], 2)
        t = Xm @ beta
        if design == "pm1":  # flip-channel binary response
            y = (rng.random(n) < f(t)).astype(float)
        else:
            y = f(t) + rng.normal(0.0, 0.05, n)
        D = DomainSpec(Interval(-3.0, 3.0), max_support=3.0, l1inf_cap=3.0)
        prob = FitProblem(y=y, X=DesignMatrix(Xm), domain=D, c_r=0.0, link=f)
        for k in (1, 2, 3):
            for S in itertools.combinations(range(p), k):
                got = inner_solve(prob, S)
                assert got is not None
                u, lval, _conv, clamped = got
                if clamped:
                    continue
                tu = Xm @ u
                r = y - f(tu)
                assert lval == pytest.approx(float(r @ r), rel=1e-12)
                grad = -2.0 * Xm[:, list(S)].T @ (f.deriv1(tu) * r)
                assert float(np.max(np.abs(grad))) <= 1e-6, (i, S, grad)
                checked[design] += 1
    assert min(checked.values()) >= 50, checked


def test_likelihood_derivatives_are_the_public_ones():
    # the solver's (g, H) is expfam's formula plus a 1e-12 trace ridge, so the
    # finite-difference checks of mle_gradient_hessian cover what fit uses
    from l0bounds import mle_gradient_hessian
    from l0bounds.estimator import _mle_grad_hess

    rng = np.random.default_rng(9)
    for fam in (bernoulli(), gaussian(1.3)):
        Xm = rng.standard_normal((30, 5))
        u = np.zeros(5)
        S = [0, 2, 3]
        u[S] = 0.3 * rng.standard_normal(3)
        y = rng.integers(0, 2, 30).astype(float)
        prob = FitProblem(y=y, X=DesignMatrix(Xm), domain=WIDE, c_r=0.0, family=fam)
        g, H = _mle_grad_hess(prob, Xm[:, S], Xm[:, S] @ u[S])
        g0, H0 = mle_gradient_hessian(y, Xm, u, fam, support=S)
        np.testing.assert_allclose(g, g0, rtol=1e-12, atol=1e-12)
        ridge = 1e-12 * max(1.0, float(np.trace(H0)))
        np.testing.assert_allclose(H - ridge * np.eye(3), H0, rtol=1e-12, atol=1e-12)
