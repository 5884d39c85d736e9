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
    harness,
    inner_solve,
    linear,
    logistic_flip,
)
from oracles import full_enumeration_fit


def _wide(budget=3):
    return DomainSpec(Interval(-50.0, 50.0), max_support=float(budget), l1inf_cap=50.0)


WIDE = _wide()


class _Solo:
    """One support as the solver holds it: the single member of a stack, with
    its distinct rows Xs, cap weights w and grouped rows (inv, m, Y), and the
    loss's value and (g, H) at images t of those rows."""

    def __init__(self, prob, S):
        from types import SimpleNamespace

        from l0bounds import estimator

        supports = np.array([S], dtype=np.intp).reshape(1, len(S))
        self.prob, self.loss = prob, estimator._LOSSES[prob.loss]
        rows, self.mem = estimator._stack(prob, supports, estimator._group_rows(prob, supports))
        self.rows = SimpleNamespace(inv=rows.inv[0], m=rows.m[0], Y=rows.Y[0])
        self.Xs, self.w = self.mem.Xs[0], self.mem.w[0]

    def value(self, t):
        t = t[None]
        return self.loss.value(self.prob, self.mem, t, self.loss.at(self.prob, t))[0]

    def grad_hess(self, t):
        t = t[None]
        g, H, ok = self.loss.grad_hess(self.prob, self.mem, t, self.loss.at(self.prob, t))
        return (g[0], H[0]) if ok is None or ok[0] else None


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
    np.testing.assert_allclose(res.beta_hat[list(want)], z[list(want)], atol=1e-8)


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
    np.testing.assert_allclose(mle.beta_hat, lse.beta_hat, atol=1e-6)


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
    np.testing.assert_allclose(res.beta_hat, beta, atol=1e-6)
    assert res.loss_value < 1e-12


# the likelihood builds no ridge start where the zero start is feasible
@pytest.mark.parametrize("loss,builds", [("mle", 0), ("lse", 1)])
def test_ridge_working_response_is_built_once_per_problem(monkeypatch, loss, builds):
    from l0bounds import estimator

    working_response = estimator._LOSSES[loss].working_response
    calls = []

    def counted(prob):
        calls.append(prob)
        return working_response(prob)

    monkeypatch.setitem(
        estimator._LOSSES, loss, estimator._LOSSES[loss]._replace(working_response=counted)
    )
    rng = np.random.default_rng(5)
    X = DesignMatrix(rng.choice([-1.0, 1.0], size=(80, 5)))
    y = rng.integers(0, 2, 80).astype(float)
    D = DomainSpec(Interval(-3.0, 3.0), max_support=2.0, l1inf_cap=3.0)
    model = {"family": bernoulli()} if loss == "mle" else {"link": logistic_flip(0.1, 0.9)}
    res = fit(FitProblem(y=y, X=X, domain=D, c_r=0.5, **model))
    # several nonempty supports are solved (least squares prunes the rest),
    # yet the working response is built at most once
    assert sum(1 for r in res.records if r.support) > 1
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
    np.testing.assert_allclose(res.beta_hat[[0, 3]], beta[[0, 3]], atol=0.35)


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
    np.testing.assert_array_equal(a.beta_hat, b.beta_hat)


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
    assert res.beta_hat[0] == pytest.approx(2.0, abs=1e-9)
    assert res.loss_value == pytest.approx(
        bernoulli().nll(y, X.X @ np.array([2.0])), rel=1e-12
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
    direct = bernoulli().nll(y, X.X @ res.beta_hat)
    assert res.objective == pytest.approx(
        direct + 0.2 * len(res.support), rel=1e-12
    )


def _active_rows_loop(prob, S, u, Xs=None):
    """Row-by-row reference for the binding constraints: cap row, upper rows
    ascending, lower rows ascending, frozen unit rows.  The rows looped over
    are those of Xs (default: all n rows of X_S)."""
    D, dm = prob.domain, prob.X
    Xs = dm.X[:, S] if Xs is None else Xs
    v = u[S]
    rows, kinds, frozen = [], [], []
    if D.l1inf_cap is not None:
        w = dm.column_norms(np.inf)[S]
        if float(w @ np.abs(v)) >= D.l1inf_cap * (1.0 - 1e-9):
            rows.append(w * np.sign(v))
            kinds.append("cap")
            frozen = [j for j in range(len(S)) if abs(v[j]) <= 1e-12]
    I = D.interval
    t = Xs @ v
    scale = max(1.0, abs(I.lo) if math.isfinite(I.lo) else 1.0,
                abs(I.hi) if math.isfinite(I.hi) else 1.0)
    if math.isfinite(I.hi):
        for i in np.nonzero(t >= I.hi - 1e-9 * scale)[0]:
            rows.append(Xs[i].astype(float))
            kinds.append("row")
    if math.isfinite(I.lo):
        for i in np.nonzero(t <= I.lo + 1e-9 * scale)[0]:
            rows.append(-Xs[i].astype(float))
            kinds.append("row")
    for j in frozen:
        e = np.zeros(len(S))
        e[j] = 1.0
        rows.append(e)
        kinds.append("frozen")
    return (np.vstack(rows), kinds) if rows else None


def _distinct(A):
    return np.unique(A, axis=0)


def test_active_constraints_match_row_loop():
    # the solver sees each support's distinct rows once: its constraint rows
    # equal a loop over those group rows, and, up to repeats, a loop over
    # all n rows of X_S
    from l0bounds.estimator import _active_constraints

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
        sp = _Solo(prob, S)
        assert sp.Xs.shape == _distinct(dm.X[:, S]).shape
        np.testing.assert_array_equal(_distinct(sp.Xs), _distinct(dm.X[:, S]))
        want = _active_rows_loop(prob, S, u, sp.Xs)
        per_row = _active_rows_loop(prob, S, u)
        got = _active_constraints(D, sp.Xs, sp.w, u[S], sp.Xs @ u[S])
        if want is None:
            assert got is None and per_row is None
            seen["none"] += 1
            continue
        assert got[1] == (want[1] == ["cap"])
        assert got[0].dtype == want[0].dtype and got[0].shape == want[0].shape
        assert got[0].tobytes() == want[0].tobytes()
        assert set(per_row[1]) == set(want[1])
        np.testing.assert_array_equal(_distinct(got[0]), _distinct(per_row[0]))
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
            if sys._getframe(1).f_code.co_name in (
                "_active_set_newton", "_newton_steps", "_null_space_step"
            ):
                seen.append((_name, np.shape(a)))
            return _real(a, *args, **kwargs)

        monkeypatch.setattr(estimator.np.linalg, name, wrapped)
    res = fit(prob)
    k = 2
    assert {r.support for r in res.records if r.boundary_clamped}, "no facet phase entered"
    assert any(name == "solve" for name, _ in seen), seen
    # a stacked solve has one system per member: its order is the last two axes
    assert max(max(shape[-2:]) for _, shape in seen) <= k + 2**k, seen


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
    # the facet step the solver takes from a support's group rows and grouped
    # derivatives is the block-KKT step, and the per-row constraints (every
    # binding row, repeats included) and per-row derivatives give the same
    from l0bounds.estimator import _active_constraints, _null_space_step

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
            g_row, H_row = bernoulli().nll_derivatives(y, Xm[:, S], t)
        else:
            y = f(t) + rng.normal(0.0, 0.05, n)
            prob = FitProblem(y=y, X=dm, domain=D, c_r=0.0, link=f)
            J = f.deriv1(t)[:, None] * Xm[:, S]
            g_row, H_row = -2.0 * J.T @ (y - f(t)), 2.0 * J.T @ J
        sp = _Solo(prob, S)
        ts = sp.Xs @ v
        g, H = sp.grad_hess(ts)
        np.testing.assert_allclose(g, g_row, rtol=1e-10, atol=1e-10 * float(np.max(np.abs(g_row))))
        np.testing.assert_allclose(H, H_row, rtol=1e-10, atol=1e-9 * float(np.max(np.abs(H_row))))
        A, cap_alone = _active_constraints(D, sp.Xs, sp.w, v, ts)
        assert cap_alone == cap_facet
        Au = np.unique(A, axis=0)
        d = _null_space_step(Au, g, H)
        ref = _reference_block_kkt(Au, g, H)
        if ref is None:
            continue
        assert d is not None
        scale = float(np.linalg.norm(ref))
        assert np.linalg.norm(d - ref) <= 1e-10 * scale, (i, d, ref)
        # the duplicated rows span the same null space, as do all n rows
        full = _null_space_step(A, g, H)
        assert np.linalg.norm(full - ref) <= 1e-10 * scale, (i, full, ref)
        per_row = _null_space_step(_active_rows_loop(prob, S, u)[0], g, H)
        assert np.linalg.norm(per_row - ref) <= 1e-10 * scale, (i, per_row, ref)
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
    # every trial point is judged on one product X_S v; the public helper
    # in_domain forms X u over all p columns, and a fit that called it per
    # trial made thousands of such products
    import l0bounds
    from l0bounds import domains, estimator, harness

    _cfg, inst, D = _boundary_instance(1200)
    calls = {"in_domain": 0}
    real = domains.in_domain

    def counted(*args, **kwargs):
        calls["in_domain"] += 1
        return real(*args, **kwargs)

    for ns in (l0bounds, domains, estimator, harness):
        if getattr(ns, "in_domain", None) is real:
            monkeypatch.setattr(ns, "in_domain", counted)
    res = fit(
        FitProblem(y=inst.y, X=inst.X, domain=D, c_r=0.5, family=bernoulli())
    )
    assert {r.support for r in res.records if r.boundary_clamped}, "no facet phase entered"
    assert len(res.records) == 37
    assert calls["in_domain"] <= 5, calls


def test_every_iterate_carries_the_row_images_its_trial_admitted(monkeypatch):
    # a solve forms the images of its group rows once per trial, where the
    # membership test judges them: the derivatives and the binding
    # constraints of an accepted point are computed on those very images (or
    # on the zero start's), never on a fresh product, and no product runs
    # over all n rows.  Stacked members hold copies of the images they
    # accepted, so the images are matched by their bytes, and the count
    # rules out a fresh product: exactly one image product (Xs v, on the
    # G x k group rows the members hold) per membership test
    from l0bounds import domains, estimator

    _cfg, inst, D = _boundary_instance(1200)
    inside = [False]
    products = {"all_rows": 0, "images": 0}
    held = []  # every stack's G x k group rows, as the members hold them

    class CountedDesign(np.ndarray):
        def __matmul__(self, other):
            if inside[0] and self.ndim >= 2:
                if self.shape[-2] == inst.X.n:
                    products["all_rows"] += 1
                # Xs (column-major, a view of XsT), not its transpose XsT
                column_major = self.strides[-2] == self.itemsize
                if column_major and any(np.shares_memory(self, a) for a in held):
                    products["images"] += 1
            return np.asarray(self) @ np.asarray(other)

    dm = DesignMatrix(inst.X.X)
    dm.X = dm.X.view(CountedDesign)  # the members' rows are gathered from it, and stay counted
    admitted = set()  # the bytes of every row of images the membership test admitted
    tests = [0]
    received = {"grad_hess": [], "active": []}
    real_admits = domains.DomainSpec._admits  # the kernel the solver calls (admits calls it too)

    def admits(self, u, t, w):
        tests[0] += 1
        ok = real_admits(self, u, t, w)
        admitted.update(r.tobytes() for r in t.reshape(-1, t.shape[-1])[np.ravel(ok)])
        return ok

    real_init = estimator._Members.__init__

    def init(self, XsT, **arrays):
        real_init(self, XsT, **arrays)
        G, k = XsT.shape[-1], XsT.shape[-2]
        assert 2 <= G <= 2**k or G == 1 > k  # a +-1 design: G >= 2 keeps Xs and XsT apart
        held.append(XsT)

    grad_hess = estimator._LOSSES["mle"].grad_hess

    def counted_grad_hess(prob, mem, t, f):
        received["grad_hess"] += [r.tobytes() for r in np.asarray(t)]
        return grad_hess(prob, mem, t, f)

    real_active = estimator._active_constraints

    def active(D, Xs, w, v, t):
        received["active"].append(np.asarray(t).tobytes())
        return real_active(D, Xs, w, v, t)

    real_run = estimator._solve_run

    def run(*args):
        inside[0] = True
        try:
            return real_run(*args)
        finally:
            inside[0] = False

    monkeypatch.setattr(domains.DomainSpec, "_admits", admits)
    monkeypatch.setattr(estimator._Members, "__init__", init)
    monkeypatch.setitem(
        estimator._LOSSES, "mle", estimator._LOSSES["mle"]._replace(grad_hess=counted_grad_hess)
    )
    monkeypatch.setattr(estimator, "_active_constraints", active)
    monkeypatch.setattr(estimator, "_solve_run", run)
    res = fit(FitProblem(y=inst.y, X=dm, domain=D, c_r=0.5, family=bernoulli()))
    assert {r.support for r in res.records if r.boundary_clamped}, "no facet step taken"
    assert received["active"] and received["grad_hess"]
    for kind, ts in received.items():
        assert all(t in admitted or not np.frombuffer(t).any() for t in ts), kind
    assert any(t in admitted for t in received["grad_hess"])
    assert products == {"all_rows": 0, "images": tests[0]} and tests[0] > 0


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
    # the solver's loss and (g, H) on a support are ExpFamily.nll and
    # nll_derivatives with the group multiplicities and response sums (plus
    # a 1e-12 trace ridge), so criterion 09's finite-difference checks cover
    # what fit uses; and they equal the per-row sums over all n rows
    rng = np.random.default_rng(9)
    for fam in (bernoulli(), gaussian(1.3)):
        for design in ("pm1", "gaussian"):
            if design == "pm1":
                Xm = rng.choice([-1.0, 1.0], size=(30, 5))
            else:
                Xm = rng.standard_normal((30, 5))
            u = np.zeros(5)
            S = [0, 2, 3]
            u[S] = 0.3 * rng.standard_normal(3)
            y = rng.integers(0, 2, 30).astype(float)
            prob = FitProblem(y=y, X=DesignMatrix(Xm), domain=WIDE, c_r=0.0, family=fam)
            sp = _Solo(prob, S)
            assert len(sp.Xs) <= (8 if design == "pm1" else 30)
            t = sp.Xs @ u[S]
            g, H = sp.grad_hess(t)
            g1, H1 = fam.nll_derivatives(sp.rows.Y, sp.Xs, t, sp.rows.m)
            ridge = 1e-12 * max(1.0, float(np.trace(H1)))
            np.testing.assert_array_equal(g, g1)
            np.testing.assert_array_equal(H, H1 + ridge * np.eye(3))
            assert sp.value(t) == fam.nll(sp.rows.Y, t, sp.rows.m)
            g0, H0 = fam.nll_derivatives(y, Xm[:, S], Xm @ u)
            np.testing.assert_allclose(g, g0, rtol=1e-12, atol=1e-12)
            np.testing.assert_allclose(H - ridge * np.eye(3), H0, rtol=1e-12, atol=1e-12)
            assert sp.value(t) == pytest.approx(fam.nll(y, Xm @ u), rel=1e-12)


def _grouping_problem(design, loss, n, p, rng):
    """make(c_r, reps): a problem on a +-1, 0/1 or gaussian design, its rows
    stacked reps times."""
    if design == "pm1":
        Xm = rng.choice([-1.0, 1.0], size=(n, p))
    elif design == "binary":
        Xm = rng.integers(0, 2, size=(n, p)).astype(float)
        Xm[0] = 1.0
    else:
        Xm = rng.standard_normal((n, p))
    beta = np.zeros(p)
    beta[:2] = [0.7, -0.5]
    t = Xm @ beta
    f = logistic_flip(0.1, 0.9)
    if loss == "mle":
        y = (rng.random(n) < expit(t)).astype(float)
        model = {"family": bernoulli()}
    elif design == "gaussian":
        y = f(t) + rng.normal(0.0, 0.1, n)
        model = {"link": f}
    else:
        y = (rng.random(n) < f(t)).astype(float)
        model = {"link": f}
    # a cap and an interval that bind on some supports
    D = DomainSpec(Interval(-1.2, 1.2), max_support=2.0, l1inf_cap=1.2)

    def make(c_r, reps=1):
        X = DesignMatrix(np.tile(Xm, (reps, 1)))
        return FitProblem(y=np.tile(y, reps), X=X, domain=D, c_r=c_r, **model)

    return make


GROUPING_CASES = [(d, loss) for d in ("pm1", "binary", "gaussian") for loss in ("mle", "lse")]


@pytest.mark.parametrize("design,loss", GROUPING_CASES)
def test_stacking_the_data_twice_doubles_every_record_loss(design, loss):
    # every loss is a sum over rows, so stacking (X, y) twice doubles each
    # support's loss and, at a doubled penalty, keeps the fitted support
    rng = np.random.default_rng(31)
    make = _grouping_problem(design, loss, 90, 5, rng)
    once, twice = fit(make(0.5, 1)), fit(make(1.0, 2))
    assert twice.support == once.support
    assert [r.support for r in twice.records] == [r.support for r in once.records]
    for a, b in zip(once.records, twice.records):
        assert a.feasible == b.feasible
        if a.feasible:
            assert b.loss == pytest.approx(2.0 * a.loss, rel=1e-12, abs=1e-12), a.support


@pytest.mark.parametrize("design,loss", GROUPING_CASES)
def test_group_rows_are_the_distinct_row_images(design, loss):
    rng = np.random.default_rng(32)
    n, p = 120, 5
    prob = _grouping_problem(design, loss, n, p, rng)(0.0)
    for k in range(p + 1):
        for S in itertools.combinations(range(p), k):
            sp = _Solo(prob, S)
            G = len(sp.Xs)
            if design == "gaussian" and k:
                assert G == n
            else:
                assert G <= 2**k
            distinct = np.unique(prob.X.X[:, list(S)], axis=0)
            assert G == len(distinct)
            np.testing.assert_array_equal(np.unique(sp.Xs, axis=0), distinct)
            # each row's group holds its row image, with the counts and sums
            np.testing.assert_array_equal(sp.Xs[sp.rows.inv], prob.X.X[:, list(S)])
            for g in range(G):
                members = sp.rows.inv == g
                assert sp.rows.m[g] == np.count_nonzero(members)
                assert sp.rows.Y[g] == pytest.approx(prob.y[members].sum(), rel=1e-15, abs=1e-15)


def _levels_design(design, n, rng):
    """A 6-column design: +-1, 0/1, few levels (with two columns whose
    level counts multiply past n), or gaussian (n levels per column)."""
    if design == "pm1":
        return rng.choice([-1.0, 1.0], size=(n, 6))
    if design == "binary":
        return rng.integers(0, 2, size=(n, 6)).astype(float)
    if design == "few":
        return np.column_stack([rng.integers(0, L, n) for L in (3, 5, 2, 12, 25, 4)]).astype(float)
    return rng.standard_normal((n, 6))


@pytest.mark.parametrize("design", ["pm1", "binary", "few", "gaussian"])
def test_batched_grouping_matches_unique_per_support(design):
    # one batch pass groups each support's rows as np.unique does: groups in
    # lexicographic order of the images, or in row order when a column has
    # n levels; in batches of every support of a level, of one support and
    # of three (so the last batch of a level is short)
    from l0bounds import estimator

    rng = np.random.default_rng(38)
    n = 60
    Xm = _levels_design(design, n, rng)
    prob = FitProblem(y=rng.standard_normal(n), X=DesignMatrix(Xm), domain=WIDE, c_r=0.0,
                      family=gaussian(1.0))
    for k in range(4):
        combos = list(itertools.combinations(range(6), k))
        supports = np.array(combos, dtype=np.intp).reshape(len(combos), k)
        for size in (len(supports), 1, 3):
            groups = []
            for lo in range(0, len(supports), size):
                groups += estimator._group_rows(prob, supports[lo:lo + size])
            assert len(groups) == len(supports)
            for S, (inv, m, rep) in zip(supports.tolist(), groups):
                images, want = np.unique(Xm[:, S], axis=0, return_inverse=True)
                if design == "gaussian" and k:
                    want = np.arange(n)  # ungrouped: each row its own group
                np.testing.assert_array_equal(inv, want.ravel())
                np.testing.assert_array_equal(m, np.bincount(inv).astype(float))
                np.testing.assert_array_equal(Xm[rep][:, S][inv], Xm[:, S])
                assert len(rep) == len(images)


@pytest.mark.parametrize("design,loss", GROUPING_CASES)
def test_fit_is_the_same_whatever_the_grouping_chunk(monkeypatch, design, loss):
    # the solves group their rows a chunk of a level at a time; chunks of
    # one support, and of three (a short last chunk on each level), give
    # the fit of whole-level chunks bit for bit, on the row route (n keys a
    # support) and on the cells route (the likelihood on two-level columns:
    # 2^k cells a support, so 4 cells make pairs one at a time)
    from l0bounds import estimator

    rng = np.random.default_rng(39)
    prob = _grouping_problem(design, loss, 90, 5, rng)(0.3)
    base = fit(prob)
    assert base.n_supports == 16
    for cells in (4, 3 * 4, 90, 3 * 90):
        with monkeypatch.context() as patch:
            patch.setattr(estimator, "_PASS_CELLS", cells)
            res = fit(prob)
        assert res.support == base.support
        assert res.objective.hex() == base.objective.hex()
        assert res.beta_hat.tobytes() == base.beta_hat.tobytes()
        assert res.tie_break_applied == base.tie_break_applied
        assert res.records == base.records


def test_rows_are_keyed_once_per_chunk_of_a_level_not_once_per_solve(monkeypatch):
    # a 37-support glm fit on a +-1 design with n = 1200 and 0/1 responses:
    # every support of size <= 2 reads its groups from the Gram, so no row
    # is keyed at all, and each level is one chunk (1, 8 and 28 supports)
    from l0bounds import estimator

    _cfg, inst, D = _boundary_instance(1200)
    calls, chunks = [0], []
    real, real_cells = estimator._level_keys, estimator._Cells

    def counted(*args):
        calls[0] += 1
        return real(*args)

    def cells(prob, supports):
        chunks.append(len(supports))
        return real_cells(prob, supports)

    monkeypatch.setattr(estimator, "_level_keys", counted)
    monkeypatch.setattr(estimator, "_Cells", cells)
    res = fit(FitProblem(y=inst.y, X=inst.X, domain=D, c_r=0.5, family=bernoulli()))
    assert len(res.records) == 37
    assert calls[0] == 0
    assert chunks == [1, 8, 28]


@pytest.mark.parametrize("design,loss", GROUPING_CASES)
def test_inner_solve_losses_match_the_per_row_recomputation(design, loss):
    rng = np.random.default_rng(33)
    prob = _grouping_problem(design, loss, 150, 4, rng)(0.0)
    Xm, y = prob.X.X, prob.y
    for k in range(3):
        for S in itertools.combinations(range(4), k):
            got = inner_solve(prob, S)
            assert got is not None
            u, lval = got[0], got[1]
            t = Xm @ u
            if loss == "mle":
                want = prob.family.nll(y, t)
            else:
                r = y - prob.link(t)
                want = float(r @ r)
            assert lval == pytest.approx(want, rel=1e-12), S


@pytest.mark.parametrize("twin", [False, True])
@pytest.mark.parametrize("c_r", [0.0, 0.5, 1.0, 5.0])
@pytest.mark.parametrize("design,loss", GROUPING_CASES)
def test_fit_equals_full_enumeration(design, loss, c_r, twin):
    # the prunes skip supports, never the answer: support, objective,
    # beta_hat and the tie flag are those of solving every support, and each
    # record is its support's own solve; a twin of column 1 makes exact ties
    rng = np.random.default_rng(34)
    prob = _grouping_problem(design, loss, 90, 5, rng)(c_r)
    if twin:
        Xm = prob.X.X.copy()
        Xm[:, 4] = Xm[:, 1]
        prob = FitProblem(
            y=prob.y, X=DesignMatrix(Xm), domain=prob.domain, c_r=c_r,
            family=prob.family, link=prob.link,
        )
    res = fit(prob)
    support, obj, u, tie, solved = full_enumeration_fit(prob)
    assert res.support == support
    assert res.objective.hex() == obj.hex()
    assert res.beta_hat.tobytes() == u.tobytes()
    assert res.tie_break_applied == tie
    for rec in res.records:
        got = solved[rec.support]
        assert rec.feasible == (got is not None)
        if got is not None:
            assert (rec.loss, rec.converged, rec.boundary_clamped) == got[1:], rec.support


@pytest.mark.parametrize("scale", [1e-6, 1.0, 1e6])
def test_least_squares_floor_is_below_every_loss_on_its_support(monkeypatch, scale):
    # one level pass prices every support of a size; each floor lies below
    # the two-pass W_S by no more than the rounding margin, and below every
    # loss inner_solve reaches on the support
    from l0bounds import estimator

    rng = np.random.default_rng(35)
    n = 60
    Xm = np.column_stack([
        rng.choice([-1.0, 1.0], n),
        rng.integers(0, 2, n).astype(float),
        rng.integers(0, 25, n).astype(float),  # many singleton groups
        rng.integers(0, 12, n).astype(float),  # with the column before: levels multiply past n
        rng.standard_normal(n),  # n levels: every row its own group
    ])
    f = logistic_flip(0.1, 0.9)
    y = scale * (f(0.5 * Xm[:, 0]) + rng.normal(0.0, 0.3, n))
    D = DomainSpec(Interval(-1.2, 1.2), max_support=3.0, l1inf_cap=1.2)
    prob = FitProblem(y=y, X=DesignMatrix(Xm), domain=D, c_r=0.0, link=f)
    seen = set()  # (holds the n-level column, levels multiply past n)
    for k in (1, 2, 3):
        supports = np.array(list(itertools.combinations(range(5), k)))
        floors = estimator._lse_level_floors(prob, supports)
        # the keys against an independent reference, batched and one support
        # at a time (as each solve groups its rows): two rows share a key
        # exactly when their images under X_S agree, and the keys ascend
        # lexicographically in the column values; with the n-level column 4
        # every row is its own group, keyed by its row number
        batch = estimator._level_keys(prob, supports)
        for b, S in enumerate(supports.tolist()):
            lex = np.unique(Xm[:, S], axis=0, return_inverse=True)[1].ravel()
            radix_past_n = math.prod(len(np.unique(Xm[:, j])) for j in S) > n
            seen.add((4 in S, radix_past_n))
            one = estimator._level_keys(prob, supports[b:b + 1])
            for key, r, grouped in ([a[b] for a in batch], [a[0] for a in one]):
                assert grouped == (4 not in S), S
                assert 0 <= key.min() and key.max() < r <= n, S
                if 4 in S:
                    np.testing.assert_array_equal(key, np.arange(n))
                    assert r == n and lex.max() == n - 1, S
                else:
                    np.testing.assert_array_equal(np.unique(key, return_inverse=True)[1].ravel(), lex)
        # chunks of two supports, so every level spans several chunks
        with monkeypatch.context() as patch:
            patch.setattr(estimator, "_PASS_CELLS", 2 * n)
            np.testing.assert_array_equal(estimator._lse_level_floors(prob, supports), floors)
        for S, floor in zip(map(tuple, supports.tolist()), floors):
            # two-pass within-group sum of squares over the distinct rows of X_S
            inv = np.unique(Xm[:, list(S)], axis=0, return_inverse=True)[1].ravel()
            W = sum(float(np.sum((y[inv == g] - y[inv == g].mean()) ** 2)) for g in range(inv.max() + 1))
            got = inner_solve(prob, S)
            assert got is not None
            assert floor <= W, S
            assert floor <= got[1], S
            assert floor >= W - 1e-9 * float(y @ y), S  # below W by the rounding margin only
    assert seen == {(False, False), (False, True), (True, False), (True, True)}


def test_least_squares_solves_each_level_in_floor_order_and_records_it_in_enumeration_order(
    monkeypatch,
):
    # the signal sits mostly on the last column, so ascending floors solve
    # its supports first, and a narrow domain keeps every fit far from its
    # floor, so most of them are solved; column 6 twins column 5, so equal
    # floors meet and keep combinations order; records still come by size,
    # then lexicographically
    from l0bounds import estimator

    rng = np.random.default_rng(37)
    n, p = 200, 7
    Xm = rng.choice([-1.0, 1.0], size=(n, p))
    Xm[:, 6] = Xm[:, 5]
    f = logistic_flip(0.1, 0.9)
    y = (rng.random(n) < f(1.5 * Xm[:, 5] - 1.0 * Xm[:, 3] + 0.8 * Xm[:, 1])).astype(float)
    D = DomainSpec(Interval(-0.5, 0.5), max_support=2.0, l1inf_cap=0.5)
    prob = FitProblem(y=y, X=DesignMatrix(Xm), domain=D, c_r=0.0, link=f)
    solved = []  # the supports of each run, in solve order (c_r = 0: no run stops partway)
    real_run = estimator._solve_run

    def run(prob, supports, groups, tally=None):
        solved.extend(map(tuple, supports.tolist()))
        return real_run(prob, supports, groups, tally)

    monkeypatch.setattr(estimator, "_solve_run", run)
    res = fit(prob)
    assert [r.support for r in res.records] == sorted(solved, key=lambda S: (len(S), S))
    assert solved != sorted(solved, key=lambda S: (len(S), S))
    for k in (1, 2):
        level = [S for S in solved if len(S) == k]
        floors = estimator._lse_level_floors(prob, np.array(level))
        assert all(a < b or (a == b and S < T) for a, b, S, T in zip(
            floors, floors[1:], level, level[1:])), level
    assert solved.index((5,)) < solved.index((6,))


def test_least_squares_prune_keeps_exact_ties():
    # a noiseless fit on a +-1 column and on its twin: both supports reach
    # their floor (loss 0), and the prune still solves the twin, so the tie
    # is seen and broken toward the earlier column
    rng = np.random.default_rng(36)
    col = rng.choice([-1.0, 1.0], 40)
    X = DesignMatrix(np.column_stack([col, rng.choice([-1.0, 1.0], 40), col]))
    f = logistic_flip(0.1, 0.9)
    D = DomainSpec(Interval(-3.0, 3.0), max_support=2.0, l1inf_cap=3.0)
    res = fit(FitProblem(y=f(0.8 * col), X=X, domain=D, c_r=0.5, link=f))
    assert res.support == (0,)
    assert res.tie_break_applied
    assert (2,) in {r.support for r in res.records}


def test_least_squares_prune_solves_few_supports_of_a_flip_enum_instance():
    # n=400, p=15, +-1 design, c_r=1, budget 2: solved in ascending floor
    # order, the within-group floors rule out all but 3 of the 121 supports
    cfg = harness.ExperimentConfig(
        n=400, p=15, spt_size=2, model="flip", p01=0.1, p11=0.9, design="pm1_iid",
        interval_halfwidth=3.0, c_r=1.0, replicates=1, seed=1,
    )
    inst = harness.generate_instance(cfg, 0)
    f = logistic_flip(cfg.p01, cfg.p11)
    res = fit(FitProblem(y=inst.y, X=inst.X, domain=inst.domain, c_r=1.0, link=f))
    assert res.n_supports == 121
    assert len(res.records) <= 3


# ----------------------------------------------------------------------------
# level codes, the indicator Gram and the chunks the prune admits
# ----------------------------------------------------------------------------

LEVEL_COLUMNS = {
    "pm1": lambda rng, n: rng.choice([-1.0, 1.0], n),
    "binary": lambda rng, n: rng.integers(0, 2, n).astype(float),
    "two": lambda rng, n: rng.choice([-3.0, 5.0], n),
    "three": lambda rng, n: rng.integers(0, 3, n) - 1.0,
    "constant": lambda rng, n: np.full(n, 2.5),
    "signed_zero": lambda rng, n: rng.choice([-0.0, 0.0, 1.0], n),  # two levels: -0.0 == 0.0
    "many": lambda rng, n: rng.integers(0, 12, n).astype(float),
    "more": lambda rng, n: rng.integers(0, 25, n).astype(float),  # with "many": past n = 60 cells
    "gaussian": lambda rng, n: rng.standard_normal(n),
}


def _level_design(kind, n, rng):
    """Three columns of one kind, or one of every kind ("mixed")."""
    kinds = list(LEVEL_COLUMNS) if kind == "mixed" else [kind] * 3
    return np.column_stack([LEVEL_COLUMNS[k](rng, n) for k in kinds])


@pytest.mark.parametrize("kind", ["pm1", "binary", "two", "three", "constant", "signed_zero", "mixed"])
def test_level_codes_equal_per_column_unique(kind):
    rng = np.random.default_rng(40)
    Xm = _level_design(kind, 50, rng)
    prob = FitProblem(y=np.zeros(50), X=DesignMatrix(Xm), domain=WIDE, c_r=0.0,
                      link=logistic_flip(0.1, 0.9))
    codes, levels = prob.level_codes
    assert codes.dtype == np.intp and codes.shape == (Xm.shape[1], 50)
    for j in range(Xm.shape[1]):
        values, want = np.unique(Xm[:, j], return_inverse=True)
        np.testing.assert_array_equal(codes[j], want)
        assert levels[j] == values.size


def _gram_problem(kind, y_kind, n=60, seed=42):
    """A least-squares problem on ``_level_design``; y is 0/1 ("int"), an
    integer in -4..8 ("count") or the link's mean plus noise ("real")."""
    rng = np.random.default_rng(seed)
    Xm = _level_design(kind, n, rng)
    f = logistic_flip(0.1, 0.9)
    mean = f(0.8 * Xm[:, 0] - 0.5 * Xm[:, 1])
    y = {
        "int": lambda: (rng.random(n) < mean).astype(float),
        "count": lambda: rng.integers(-4, 9, n).astype(float),
        "real": lambda: mean + rng.normal(0.0, 0.3, n),
    }[y_kind]()
    D = DomainSpec(Interval(-1.2, 1.2), max_support=3.0, l1inf_cap=1.2)
    return FitProblem(y=y, X=DesignMatrix(Xm), domain=D, c_r=0.0, link=f)


def _with_y(prob, y):
    return FitProblem(y=y, X=prob.X, domain=prob.domain, c_r=prob.c_r, family=prob.family,
                      link=prob.link)


def _without_gram(prob):
    """prob with an empty Gram: every support prices its level and groups
    its rows by keying them."""
    fresh = _with_y(prob, prob.y)
    fresh.level_gram = (np.full(prob.X.p, -1, dtype=np.intp), np.zeros((0, 0)), np.zeros((0, 0)))
    return fresh


def _level_pass_floors(prob, supports):
    """The floors with no column in the Gram: every support on the level pass."""
    from l0bounds import estimator

    return estimator._lse_level_floors(_without_gram(prob), supports)


GRAM_KINDS = ["pm1", "binary", "three", "mixed"]


@pytest.mark.parametrize("kind", GRAM_KINDS)
def test_gram_floors_equal_the_level_pass_bit_for_bit_on_integer_data(kind):
    # with integer y every m_g and Y_g is an exact integer, so reading the
    # cells from the Gram changes no bit of any floor; other sizes and the
    # pairs of other columns stay on the level pass
    from l0bounds import estimator

    for y_kind in ("int", "count"):
        prob = _gram_problem(kind, y_kind)
        p = prob.X.p
        slot, N, M = prob.level_gram
        two = prob.level_codes[1] == 2
        np.testing.assert_array_equal(slot >= 0, two)
        np.testing.assert_array_equal(slot[two], np.arange(two.sum()))
        assert N.shape == M.shape == (int(two.sum()),) * 2
        for k in range(4):
            combos = list(itertools.combinations(range(p), k))
            supports = np.array(combos, dtype=np.intp).reshape(len(combos), k)
            floors = estimator._lse_level_floors(prob, supports)
            assert floors.tobytes() == _level_pass_floors(prob, supports).tobytes(), (y_kind, k)


@pytest.mark.parametrize("kind", ["pm1", "binary", "mixed"])
def test_gram_cells_are_the_level_pass_cells_in_key_order(kind):
    # the cells of each pair of two-level columns, formed from the Gram, are
    # those the level pass counts, in the same order (z_j, z_l) = 00, 01,
    # 10, 11, empty cells included, whether read one support at a time or a
    # level at once
    from l0bounds import estimator

    for y_kind in ("int", "count"):
        prob = _gram_problem(kind, y_kind)
        gram = prob.level_gram[0] >= 0
        supports = np.array([S for S in itertools.combinations(range(prob.X.p), 2) if gram[list(S)].all()])
        assert len(supports)
        m_all, Y_all, start_all = estimator._gram_cells(prob, supports)
        assert start_all.tolist() == list(range(0, 4 * len(supports), 4))
        for b in range(len(supports)):
            m, Y, start = estimator._gram_cells(prob, supports[b:b + 1])
            np.testing.assert_array_equal(m, m_all[4 * b:4 * b + 4])
            np.testing.assert_array_equal(Y, Y_all[4 * b:4 * b + 4])
            assert start.tolist() == [0]
            mk, Yk, _, grouped = estimator._key_cells(prob, supports[b:b + 1])
            assert grouped.all()
            np.testing.assert_array_equal(m, mk)
            np.testing.assert_array_equal(Y, Yk)


def test_gram_reads_are_chunked_and_hold_only_two_level_columns(monkeypatch):
    # reading a level in chunks of _PASS_CELLS cells changes no floor; the
    # Gram holds every two-level column, none when n < 4 (a pair's 4 cells
    # would outnumber its keys), N = Z'Z and M = Z' diag(y) Z for their 0/1
    # indicators Z, and its row blocks change no entry
    from l0bounds import estimator

    prob = _gram_problem("mixed", "count")
    supports = np.array(list(itertools.combinations(range(prob.X.p), 2)))
    floors = estimator._lse_level_floors(prob, supports)
    slot, N, M = prob.level_gram
    assert slot.tolist() == [0, 1, 2, -1, -1, 3, -1, -1, -1]  # pm1, binary, two, signed_zero
    Z = prob.level_codes[0][slot >= 0].T.astype(float)
    np.testing.assert_array_equal(N, Z.T @ Z)
    np.testing.assert_array_equal(M, Z.T @ (prob.y[:, None] * Z))
    read = []
    real = estimator._gram_cells

    def cells(prob, supports):
        read.extend(map(tuple, supports.tolist()))
        assert 4 * len(supports) <= estimator._PASS_CELLS
        return real(prob, supports)

    with monkeypatch.context() as patch:
        patch.setattr(estimator, "_PASS_CELLS", 8)
        patch.setattr(estimator, "_SERIES_BLOCK_BYTES", 8)  # blocks of q = 4 rows
        patch.setattr(estimator, "_gram_cells", cells)
        fresh = _with_y(prob, prob.y)
        assert fresh.level_gram[0].tolist() == slot.tolist()
        np.testing.assert_array_equal(fresh.level_gram[1], N)
        np.testing.assert_array_equal(fresh.level_gram[2], M)
        assert estimator._lse_level_floors(fresh, supports).tobytes() == floors.tobytes()
    assert read == list(itertools.combinations([0, 1, 2, 5], 2))
    tiny = FitProblem(y=[0.0, 1.0, 1.0], X=DesignMatrix(np.array([[1.0, -1.0], [-1.0, 1.0], [1.0, 1.0]])),
                      domain=prob.domain, c_r=0.0, link=prob.link)
    assert (tiny.level_gram[0] == -1).all() and tiny.level_gram[1].shape == (0, 0)


def test_only_integer_responses_form_the_gram():
    # the Gram's cells are exact only when every y_i is an integer and
    # sum |y_i| < 2^53; any other response leaves every column out, so its
    # floors come from the level pass alone
    from l0bounds import estimator

    prob = _gram_problem("pm1", "int")
    n = prob.X.n
    big = np.where(np.arange(n) < 2, 2.0**52 - 1, 0.0)  # sum |y| = 2^53 - 2
    cases = {
        "int": (prob.y, True),
        "count": (np.arange(n) - 30.0, True),
        "large": (big, True),
        "too_large": (big + np.where(np.arange(n) == 2, 2.0, 0.0), False),  # sum |y| = 2^53
        "half": (prob.y + 0.5, False),
        "one_real": (np.where(np.arange(n) == 7, 0.25, prob.y), False),
        "nan": (np.where(np.arange(n) == 7, np.nan, prob.y), False),
        "inf": (np.where(np.arange(n) == 7, np.inf, prob.y), False),
    }
    pairs = np.array(list(itertools.combinations(range(prob.X.p), 2)))
    for name, (y, formed) in cases.items():
        case = _with_y(prob, y)
        slot = case.level_gram[0]
        assert (slot >= 0).all() if formed else (slot == -1).all(), name
        if formed:  # exact cells: the level pass's floors bit for bit
            floors = estimator._lse_level_floors(case, pairs)
            assert floors.tobytes() == _level_pass_floors(case, pairs).tobytes(), name


@pytest.mark.parametrize("scale", [1e-6, 1.0, 1e6])
@pytest.mark.parametrize("kind", GRAM_KINDS)
def test_gram_floors_on_real_data_lie_below_every_loss(kind, scale):
    # a real response goes through the level pass alone, whose margin
    # covers its rounding: the floors are the level pass's bit for bit, and
    # each stays below the within-group sum of squares and every loss
    # inner_solve reaches on its support
    from l0bounds import estimator

    prob = _gram_problem(kind, "real")
    prob = _with_y(prob, scale * prob.y)
    assert (prob.level_gram[0] == -1).all()
    for k in (1, 2):
        supports = np.array(list(itertools.combinations(range(prob.X.p), k)))
        floors = estimator._lse_level_floors(prob, supports)
        assert floors.tobytes() == _level_pass_floors(prob, supports).tobytes(), k
        for S, floor in zip(map(tuple, supports.tolist()), floors):
            inv, m, _rep = estimator._group_rows(prob, np.array([S]))[0]
            assert floor <= estimator._Rows(prob, inv, m).W, S
            got = inner_solve(prob, S)
            assert got is not None
            assert floor <= got[1], S


@pytest.mark.parametrize("kind", ["pm1", "binary", "mixed"])
def test_floors_lie_below_the_grouped_loss_at_a_large_offset(kind):
    # y = 1e6 + noise: y'y - sum_g Y_g^2 / m_g cancels about 12 of its 16
    # digits, the case where summing column sums in another order would
    # leave the margin's derivation; every floor stays below W_S and the loss
    from l0bounds import estimator

    prob = _gram_problem(kind, "real")
    prob = _with_y(prob, 1e6 + prob.y)
    for k in (1, 2, 3):
        supports = np.array(list(itertools.combinations(range(prob.X.p), k)))
        floors = estimator._lse_level_floors(prob, supports)
        for S, floor in zip(map(tuple, supports.tolist()), floors):
            inv, m, _rep = estimator._group_rows(prob, np.array([S]))[0]
            assert floor <= estimator._Rows(prob, inv, m).W, S
            if k < 3:
                got = inner_solve(prob, S)
                assert got is not None and floor <= got[1], S


def test_the_margin_keeps_a_lifted_floor_below_the_grouped_loss():
    # y constant on the groups of column 0: every support holding column 0
    # has W_S = 0 exactly, yet rounding lifts y'y - sum_g Y_g^2 / m_g above
    # the within-group sum that _lse_value adds to; the margin takes the
    # floor back below it (a real response: every size on the level pass)
    from l0bounds import estimator

    rng = np.random.default_rng(41)
    n = 40
    Xm = rng.choice([-1.0, 1.0], size=(n, 3))
    D = DomainSpec(Interval(-3.0, 3.0), max_support=3.0, l1inf_cap=3.0)
    lifted = 0
    for seed in range(4):
        level = np.random.default_rng(seed).random(2)
        y = np.where(Xm[:, 0] > 0, level[0], level[1])
        prob = FitProblem(y=y, X=DesignMatrix(Xm), domain=D, c_r=0.0, link=logistic_flip(0.1, 0.9))
        margin = 4.0 * (n + 2) * np.finfo(float).eps * float(y @ y)
        for k in (1, 2, 3):
            supports = np.array([S for S in itertools.combinations(range(3), k) if 0 in S])
            for S, floor in zip(supports.tolist(), estimator._lse_level_floors(prob, supports)):
                inv, m, _rep = estimator._group_rows(prob, np.array([S]))[0]
                W = estimator._Rows(prob, inv, m).W
                assert floor <= W, (seed, S)
                lifted += floor + margin > W
    assert lifted  # the case the margin is there for does occur


@pytest.mark.parametrize("y_kind", ["int", "real"])
@pytest.mark.parametrize("c_r", [0.0, 0.5, 2.0])
@pytest.mark.parametrize("kind", ["three", "mixed"])
def test_fit_on_few_level_designs_equals_full_enumeration(kind, c_r, y_kind):
    prob = _gram_problem(kind, y_kind)
    prob = FitProblem(
        y=prob.y, X=prob.X, domain=DomainSpec(Interval(-1.2, 1.2), max_support=2.0, l1inf_cap=1.2),
        c_r=c_r, link=prob.link,
    )
    res = fit(prob)
    support, obj, u, tie, solved = full_enumeration_fit(prob)
    assert res.support == support
    assert res.objective.hex() == obj.hex()
    assert res.beta_hat.tobytes() == u.tobytes()
    assert res.tie_break_applied == tie
    for rec in res.records:
        got = solved[rec.support]
        assert rec.feasible == (got is not None)
        if got is not None:
            assert (rec.loss, rec.converged, rec.boundary_clamped) == got[1:], rec.support


def _flip_enum_problem(seed=1):
    cfg = harness.ExperimentConfig(
        n=400, p=15, spt_size=2, model="flip", p01=0.1, p11=0.9, design="pm1_iid",
        interval_halfwidth=3.0, c_r=1.0, replicates=1, seed=seed,
    )
    inst = harness.generate_instance(cfg, 0)
    return FitProblem(y=inst.y, X=inst.X, domain=inst.domain, c_r=1.0, link=logistic_flip(0.1, 0.9))


BASIC_CONFIGS = {
    "glm": dict(n=300, p=6, spt_size=2, model="glm", family="bernoulli", design="pm1_iid",
                interval_halfwidth=1.0, c_r=1.0, seed=1),
    "flip": dict(n=300, p=6, spt_size=2, model="flip", p01=0.1, p11=0.9, design="pm1_iid",
                 interval_halfwidth=3.0, c_r=1.0, seed=1),
}


@pytest.mark.parametrize("model", sorted(BASIC_CONFIGS))
def test_the_fit_satisfies_the_basic_inequality(model):
    # the truth lies in the fit domain, so an exact fit's objective is at
    # most the truth's: loss(beta) + c_r |spt beta| on all n rows (plus the
    # tie tolerance), whatever the radius says; a prune that skips the true
    # support breaks it
    from l0bounds import estimator

    cfg = harness.ExperimentConfig(replicates=30, **BASIC_CONFIGS[model])
    fit_kw = harness._MODELS[cfg.model](cfg).fit_kw
    n = cfg.n
    for rep in range(cfg.replicates):
        inst = harness.generate_instance(cfg, rep)
        prob = FitProblem(y=inst.y, X=inst.X, domain=inst.domain, c_r=cfg.c_r, **fit_kw)
        assert inst.domain.admits(inst.beta, inst.X.X @ inst.beta, inst.X.column_norms(math.inf))
        rows = estimator._Rows(prob, np.arange(n), np.ones(n))
        loss, t = estimator._LOSSES[prob.loss], inst.X.X @ inst.beta
        truth = loss.value(prob, rows, t, loss.at(prob, t))
        truth += cfg.c_r * int(np.count_nonzero(inst.beta))
        assert fit(prob).objective <= truth + estimator._TIE_TOL, rep


@pytest.mark.parametrize("case", ["flip_enum", "pm1", "binary", "narrow"])
def test_rows_are_keyed_only_for_supports_the_prune_admits(monkeypatch, case):
    # each chunk is cut at its first support whose floor + c_r k exceeds the
    # incumbent of the moment (+ the tie tolerance); the incumbent only
    # falls, so every support keyed was admitted when it was keyed, and none
    # past the cut is ever solved
    from l0bounds import estimator

    if case == "flip_enum":
        prob = _flip_enum_problem()
    elif case == "narrow":  # a narrow domain keeps fits far from their floors
        prob = _gram_problem("mixed", "int")
        prob = FitProblem(y=prob.y, X=prob.X, domain=DomainSpec(Interval(-0.3, 0.3), 2.0, 0.3),
                          c_r=0.05, link=prob.link)
    else:
        prob = _grouping_problem(case, "lse", 90, 6, np.random.default_rng(43))(0.5)
    keyed, solved = [], []
    incumbent = [math.inf]
    real_group = estimator._group_rows

    def group(prob, supports):
        k = supports.shape[1]
        floors = estimator._lse_level_floors(prob, supports)
        assert np.all(floors + prob.c_r * k <= incumbent[0] + estimator._TIE_TOL), supports
        keyed.extend(map(tuple, supports.tolist()))
        return real_group(prob, supports)

    real_run = estimator._solve_run

    def run(prob, supports, groups, tally=None):
        out = real_run(prob, supports, groups, tally)
        for S, got in zip(map(tuple, supports.tolist()), out):
            solved.append(S)
            if got is not None:
                incumbent[0] = min(incumbent[0], got[1] + prob.c_r * int(np.count_nonzero(got[0])))
        return out

    monkeypatch.setattr(estimator, "_group_rows", group)
    monkeypatch.setattr(estimator, "_solve_run", run)
    res = fit(prob)
    assert solved == [S for S in keyed if S in set(solved)]  # solved in keying order
    assert set(solved) <= set(keyed)
    if case == "flip_enum":
        assert res.n_supports == 121 and len(keyed) <= 2 * len(res.records)
    assert len(keyed) < res.n_supports


def test_only_a_priced_least_squares_pair_level_forms_the_gram():
    # a fit whose budget reaches pairs forms the Gram: a likelihood fit reads
    # its groups from it; a least-squares fit that prices no pairs has no use
    # for it and does not form it
    rng = np.random.default_rng(44)
    lik = _grouping_problem("pm1", "mle", 90, 5, rng)(0.3)
    fit(lik)
    assert "level_gram" in vars(lik)
    lse = _grouping_problem("pm1", "lse", 90, 5, rng)(0.3)
    singles = FitProblem(y=lse.y, X=lse.X, domain=DomainSpec(Interval(-1.2, 1.2), 1.0, 1.2),
                         c_r=0.3, link=lse.link)
    assert fit(singles).n_supports == 6
    assert "level_gram" not in vars(singles)
    fit(lse)
    assert "level_gram" in vars(lse)


def _records_digest(res) -> str:
    import hashlib

    h = hashlib.sha256()
    for r in res.records:
        h.update(repr((r.support, float(r.loss).hex(), r.feasible, r.converged,
                       r.boundary_clamped)).encode())
    h.update(res.beta_hat.tobytes())
    h.update(f"{res.objective.hex()} {res.tie_break_applied}".encode())
    return h.hexdigest()


def _handoff_problem(case):
    if case.startswith("flip_enum"):
        return _flip_enum_problem(int(case[-1]))
    return _grouping_problem(case, "lse", 90, 5, np.random.default_rng(45))(0.0)


# sha256 of every record, beta_hat, the objective and the tie flag, recorded
# while the derivatives still evaluated the link for themselves and every
# start was solved alone
HANDOFF_DIGESTS = {
    "flip_enum1": "54d84da0abc8ec7a42619e4442650173b535e379e3a0873acd2758350778faaf",
    "flip_enum2": "e44f0eaf87e554cde465a30fc3d4f3918f71d36fbe88a7093a483996c574f27a",
    "pm1": "026fbcbf81f13767fa9401a70923bc9ee493bb48bf3ce13699db07f2968368b8",
    "binary": "4db23162ad2943fb6b685d9e265cc238a8356255a7c156835eabe25f721e0de0",
    "gaussian": "dbc4a68c8a638c38010f3bf96cbbf46dc26ef3dde44e520a7cd03510dc8db418",
}


@pytest.mark.parametrize("case", sorted(HANDOFF_DIGESTS))
def test_newton_steps_take_the_link_values_of_the_trial_they_accepted(monkeypatch, case):
    # the link is evaluated where the loss is priced (a start, a pass of
    # trials), and each accepted point's values are carried to its next
    # (g, H), which evaluates no link; they are the link's values at that
    # point's images, and the records are those of evaluating it afresh, bit
    # for bit
    from l0bounds import estimator

    prob = _handoff_problem(case)
    plain = prob.link
    evals = [0]

    class Counted(type(prob.link)):
        def __call__(self, t):
            evals[0] += 1
            return super().__call__(t)

    prob.link = Counted(prob.link.tag, prob.link.params)
    loss = estimator._LOSSES["lse"]
    steps = []  # link evaluations in each derivative call

    def grad_hess(prob, mem, t, f):
        before = evals[0]
        got = loss.grad_hess(prob, mem, t, f)
        steps.append(evals[0] - before)
        assert f.tobytes() == plain(t).tobytes()
        return got

    monkeypatch.setitem(estimator._LOSSES, "lse", loss._replace(grad_hess=grad_hess))
    res = fit(prob)
    assert steps and not any(steps)
    assert _records_digest(res) == HANDOFF_DIGESTS[case]


def _glm_boundary_problem(seed):
    """The glm_boundary benchmark's operation with this seed, as
    ``harness.run_coverage`` fits it: n = 1200, p = 8, +-1 design,
    bernoulli, interval [-1, 1], theorem penalty."""
    cfg = harness.ExperimentConfig(
        n=1200, p=8, spt_size=2, model="glm", family="bernoulli", design="pm1_iid",
        interval_halfwidth=1.0, c_r="theorem", replicates=1, seed=seed,
    )
    inst = harness.generate_instance(cfg, 0)
    c_r = harness.replicate_report(cfg, inst).c_r
    return FitProblem(y=inst.y, X=inst.X, domain=inst.domain, c_r=c_r,
                      **harness._MODELS[cfg.model](cfg).fit_kw)


# sha256 (``_records_digest``) of glm_boundary fits, recorded before the
# lockstep step lost its per-call validation and index bookkeeping: seed
# 2579376181 is operation 8 of seed 1, whose pair run ends with one member
# creeping to the boundary by halved steps
LOCKSTEP_DIGESTS = {
    2579376181: "ac76478788187fa3a23b1fecc5dc179db082ca552e6554eebd910d5507943c3e",
}


@pytest.mark.parametrize("seed", sorted(LOCKSTEP_DIGESTS))
def test_the_benchmark_glm_records_are_pinned(monkeypatch, seed):
    # every record, beta_hat, the objective and the tie flag of a
    # glm_boundary fit, bit for bit; its pair run backtracks member by
    # member (some members accept a later rung than others, some none),
    # and its last live member takes at least 15 iterations alone, of
    # which the last stops without moving and retires after the step
    from l0bounds import estimator

    prob = _glm_boundary_problem(seed)
    passes = []  # per _armijo call: (members, every member moved)
    real = estimator._armijo

    def armijo(prob, mem, V, *rest):
        got = real(prob, mem, V, *rest)
        passes.append((len(V), got is None))
        return got

    monkeypatch.setattr(estimator, "_armijo", armijo)
    res = fit(prob)
    assert _records_digest(res) == LOCKSTEP_DIGESTS[seed]
    assert any(B > 1 and not all_moved for B, all_moved in passes)
    alone = list(itertools.takewhile(lambda e: e[0] == 1, reversed(passes)))
    assert len(alone) >= 15 and not all(all_moved for _, all_moved in alone)


FIT_CASES = ["glm_boundary", "flip_enum1", "pm1-lse", "binary-mle", "gaussian-mle"]


def _fit_case(case):
    if case == "glm_boundary":
        return _glm_boundary_problem(2579376181)
    if case == "flip_enum1":
        return _flip_enum_problem(1)
    design, loss = case.split("-")
    return _grouping_problem(design, loss, 120, 5, np.random.default_rng(54))(0.05)


@pytest.mark.parametrize("case", FIT_CASES)
def test_fit_diagnostics_count_the_solves_of_each_level(monkeypatch, case):
    # diagnostics["levels"] has one entry per support size entered: its
    # records, and the lockstep iterations and member steps of its runs,
    # which are the stacked Newton solves and the members they serve
    from l0bounds import estimator

    prob = _fit_case(case)
    steps = []  # per stacked Newton solve: (support size, members)
    real = estimator._newton_steps

    def newton_steps(H, g):
        steps.append((g.shape[1], len(g)))
        return real(H, g)

    monkeypatch.setattr(estimator, "_newton_steps", newton_steps)
    res = fit(prob)
    levels = res.diagnostics["levels"]
    assert [e["k"] for e in levels] == list(range(len(levels)))
    assert max(len(r.support) for r in res.records) == len(levels) - 1
    for e in levels:
        k = e["k"]
        assert e["supports_solved"] == sum(len(r.support) == k for r in res.records)
        assert e["lockstep_iterations"] == sum(1 for kk, _ in steps if kk == k)
        assert e["member_steps"] == sum(B for kk, B in steps if kk == k)
    assert sum(e["lockstep_iterations"] for e in levels) == len(steps) > 0


# ----------------------------------------------------------------------------
# runs: the supports of equal floor solved in one lockstep loop
# ----------------------------------------------------------------------------


def _result_bytes(got):
    """An inner-solve result as bytes: beta_hat, loss hex and both flags."""
    if got is None or isinstance(got, Exception):
        return got
    u, lval, conv, clamp = got
    return u.tobytes(), float(lval).hex(), conv, clamp


def _run_and_alone(monkeypatch, prob, supports):
    """(the run's results, each support's solved as a run of one), checking
    that neither took the member-by-member path meant for exceptions."""
    from l0bounds import estimator

    careful = []
    real = estimator._lockstep

    def lockstep(prob, supports, groups, **kw):
        careful.append(kw["careful"])
        return real(prob, supports, groups, **kw)

    monkeypatch.setattr(estimator, "_lockstep", lockstep)
    groups = estimator._group_rows(prob, supports)
    run = estimator._solve_run(prob, supports, groups)
    alone = [estimator._solve_run(prob, supports[b:b + 1], groups[b:b + 1])[0]
             for b in range(len(supports))]
    assert not any(careful)
    return run, alone


@pytest.mark.parametrize("careful", [False, True])
def test_the_ladder_accepts_what_a_sequential_search_accepts(careful):
    # each member takes the first of v + 2^-j d, j = 0, 1, ..., that the
    # domain admits and whose loss is at most cur + 1e-4 2^-j g'd, as a
    # search one trial at a time finds it (written out below); cur is set
    # just above the Armijo threshold of a chosen rung, so that both the
    # rung and the constant decide which trial is accepted
    from l0bounds import estimator

    rng = np.random.default_rng(52)
    n, p = 60, 4
    Xm = rng.choice([-1.0, 1.0], size=(n, p))
    D = DomainSpec(Interval(-3.0, 3.0), max_support=2.0)
    y = rng.choice([0.0, 1.0], size=n)
    for model in ({"family": bernoulli()}, {"link": logistic_flip(0.1, 0.9)}):
        prob = FitProblem(y=y, X=DesignMatrix(Xm), domain=D, c_r=0.1, **model)
        loss = estimator._LOSSES[prob.loss]
        supports = np.array([[0, 1], [0, 2], [1, 3], [2, 3], [0, 3], [1, 2]] * 2, dtype=np.intp)
        groups = estimator._group_rows(prob, supports)
        assert len({len(m) for _, m, _ in groups}) == 1
        _rows, mem = estimator._stack(prob, supports, groups)
        B = len(supports)
        V = rng.uniform(-0.5, 0.5, (B, 2))
        d = rng.standard_normal((B, 2)) * np.ldexp(1.0, rng.integers(-3, 4, B))[:, None]
        d[0] *= 1e-11  # its rungs run out after a few trials
        target = rng.integers(0, 12, B)  # the rung whose threshold cur sits above
        gd = -np.abs(rng.standard_normal(B))
        T = (mem.Xs @ V[..., None])[..., 0]
        F = loss.at(prob, T)
        cur = np.empty(B)
        for b in range(B):
            tv = V[b] + np.ldexp(1.0, -int(target[b])) * d[b]
            tt = (mem.Xs[b:b + 1] @ tv[None, :, None])[..., 0]
            val = loss.value(prob, mem.take([b]), tt, loss.at(prob, tt))[0]
            cur[b] = val - 0.75e-4 * np.ldexp(1.0, -int(target[b])) * gd[b]
        expect = []
        for b in range(B):  # the sequential search
            one = mem.take([b])
            alpha, dn, hit, got = 1.0, float(np.abs(d[b]).max()), False, None
            while alpha * dn > estimator._STEP_TOL:
                tv = V[b] + alpha * d[b]
                tt = (one.Xs @ tv[None, :, None])[..., 0]
                if not D.admits(tv, tt[0], one.w[0]):
                    hit = True
                else:
                    val = loss.value(prob, one, tt, loss.at(prob, tt))[0]
                    if val <= cur[b] + 1e-4 * alpha * gd[b]:
                        got = (tv.tobytes(), tt[0].tobytes(), float(val).hex())
                        break
                alpha *= 0.5
            expect.append((got, got is None and hit))
        Vs, Ts, Fs, cs = V.copy(), T.copy(), F.copy(), cur.copy()
        res = estimator._armijo(prob, mem, Vs, Ts, Fs, cs, d, np.abs(d).max(axis=1), gd, careful)
        moved, hit = res if res is not None else (np.ones(B, dtype=bool), np.zeros(B, dtype=bool))
        got = [((Vs[b].tobytes(), Ts[b].tobytes(), float(cs[b]).hex()) if moved[b] else None,
                bool(hit[b])) for b in range(B)]
        assert got == expect
        assert any(e[0] is None for e in expect) and sum(e[0] is not None for e in expect) > B // 2
        for b in np.flatnonzero(~moved):  # a member that takes no trial keeps its state
            assert Vs[b].tobytes() == V[b].tobytes() and cs[b] == cur[b]


@pytest.mark.parametrize("design,loss", GROUPING_CASES)
def test_a_run_solves_each_member_as_it_would_alone(monkeypatch, design, loss):
    # the members of a run share every numpy call, but each does the
    # floating-point operations of its own solve: loss hex, beta_hat bytes
    # and flags are those of the support solved alone
    rng = np.random.default_rng(46)
    prob = _grouping_problem(design, loss, 90, 5, rng)(0.3)
    for k in (1, 2):
        supports = np.array(list(itertools.combinations(range(5), k)), dtype=np.intp)
        run, alone = _run_and_alone(monkeypatch, prob, supports)
        assert [_result_bytes(r) for r in run] == [_result_bytes(r) for r in alone]
        assert all(r is not None for r in run)


def test_a_run_whose_members_differ_in_g_is_stacked_by_g(monkeypatch):
    # a column twin of another and a three-level column give pairs of 2, 3,
    # 4 and 6 group rows: each G is its own stack, never padded
    from l0bounds import estimator

    rng = np.random.default_rng(47)
    n = 80
    x0 = rng.choice([-1.0, 1.0], n)
    Xm = np.column_stack([x0, rng.choice([-1.0, 1.0], n), x0, rng.integers(0, 3, n) - 1.0])
    Xm[0, 3], Xm[1, 3] = 0.0, 1.0
    y = (rng.random(n) < expit(0.8 * x0)).astype(float)
    D = DomainSpec(Interval(-1.5, 1.5), max_support=2.0, l1inf_cap=1.5)
    for model in ({"family": bernoulli()}, {"link": logistic_flip(0.1, 0.9)}):
        prob = FitProblem(y=y, X=DesignMatrix(Xm), domain=D, c_r=0.3, **model)
        supports = np.array(list(itertools.combinations(range(4), 2)), dtype=np.intp)
        sizes = {len(m) for _, m, _ in estimator._group_rows(prob, supports)}
        assert len(sizes) >= 3, sizes
        run, alone = _run_and_alone(monkeypatch, prob, supports)
        assert [_result_bytes(r) for r in run] == [_result_bytes(r) for r in alone]


def test_a_run_with_members_in_the_facet_phase(monkeypatch):
    # the glm boundary instance: some pairs end on a facet, linearized member
    # by member inside the shared loop, while the others take free steps
    from l0bounds import estimator

    _cfg, inst, D = _boundary_instance(1200)
    prob = FitProblem(y=inst.y, X=inst.X, domain=D, c_r=0.5, family=bernoulli())
    linearized = [0]
    real = estimator._active_constraints

    def active(*args):
        linearized[0] += 1
        return real(*args)

    monkeypatch.setattr(estimator, "_active_constraints", active)
    supports = np.array(list(itertools.combinations(range(8), 2)), dtype=np.intp)
    run, alone = _run_and_alone(monkeypatch, prob, supports)
    assert [_result_bytes(r) for r in run] == [_result_bytes(r) for r in alone]
    assert linearized[0] > 0
    assert 0 < sum(r[3] for r in run) < len(run)  # clamped and free members side by side


def test_a_singular_hessian_falls_back_member_by_member(monkeypatch):
    # members whose Hessian is exactly singular (forced here: a matrix of
    # ones for those with a positive first gradient entry) make the stacked
    # solve raise; every member is then solved alone, with the least-squares
    # fallback for the singular ones, as each would be alone
    from l0bounds import estimator

    rng = np.random.default_rng(48)
    prob = _grouping_problem("pm1", "mle", 90, 5, rng)(0.3)
    grad_hess = estimator._LOSSES["mle"].grad_hess
    singular = [0]

    def forced(prob, mem, t, f):
        g, H, ok = grad_hess(prob, mem, t, f)
        flat = g[:, 0] > 0
        H[flat] = 1.0
        singular[0] += int(flat.sum())
        return g, H, ok

    monkeypatch.setitem(estimator._LOSSES, "mle", estimator._LOSSES["mle"]._replace(grad_hess=forced))
    supports = np.array(list(itertools.combinations(range(5), 2)), dtype=np.intp)
    run, alone = _run_and_alone(monkeypatch, prob, supports)
    assert [_result_bytes(r) for r in run] == [_result_bytes(r) for r in alone]
    assert singular[0] > 0


def test_a_run_stops_where_a_member_returns_exact_zeros(monkeypatch):
    # the replay tests each result against the incumbent the ones before it
    # leave: a member returning exact zeros below floor + c_r k ends the
    # level right after it, as a support-by-support loop would, and the
    # members after it are neither recorded nor allowed to raise.  Forced
    # here: the single (0,) reports a poor point, and the pair (0, 1) the
    # optimum on (0,), whose exact zero makes it cost c_r less than 2 c_r
    from l0bounds import estimator

    rng = np.random.default_rng(49)
    n = 200
    Xm = rng.choice([-1.0, 1.0], size=(n, 4))
    y = ((Xm[:, 0] > 0) ^ (rng.random(n) < 0.05)).astype(float)
    D = DomainSpec(Interval(-3.0, 3.0), max_support=2.0, l1inf_cap=3.0)
    empty = bernoulli().nll(y, np.zeros(n))
    single = inner_solve(FitProblem(y=y, X=DesignMatrix(Xm), domain=D, c_r=0.0,
                                    family=bernoulli()), (0,))
    c_r = 0.5 * (single[1] + empty / 2)  # single loss < c_r < empty / 2: level 2 is entered
    assert single[1] < c_r < empty / 2
    prob = FitProblem(y=y, X=DesignMatrix(Xm), domain=D, c_r=c_r, family=bernoulli())
    real = estimator._solve_run

    def run(prob, supports, groups, tally=None):
        out = real(prob, supports, groups, tally)
        where = [tuple(S) for S in supports.tolist()]
        if (0,) in where:
            poor = np.zeros(prob.X.p)
            poor[0] = 1e-3
            out[where.index((0,))] = (poor, empty + 1.0, True, False)
        if (0, 1) in where:
            i = where.index((0, 1))
            out[i] = single
            out[i + 1:] = [RuntimeError("never reached")] * (len(out) - i - 1)
        return out

    monkeypatch.setattr(estimator, "_solve_run", run)
    res = fit(prob)
    assert [r.support for r in res.records if len(r.support) == 2] == [(0, 1)]
    assert len(res.records) == 1 + 4 + 1
    assert res.support == (0,) and res.objective == single[1] + c_r


def test_an_overflow_in_one_member_leaves_the_others(monkeypatch):
    # an exp link overflows (np.errstate(over="raise")) on the support whose
    # groups' means are huge, and never on the one whose groups' means are 1:
    # the run returns the overflow for the first, and the second's result
    # is its own, as inner_solve gives them
    from l0bounds import estimator, exp_fn

    n = 64
    x0 = np.repeat([1.0, -1.0], n // 2)
    x1 = np.tile([1.0, -1.0], n // 2)  # each of its groups holds half of each x0 group
    y = np.where(x0 > 0, 1000.0, -998.0)
    D = DomainSpec(Interval(-2000.0, 2000.0), max_support=1.0)
    prob = FitProblem(y=y, X=DesignMatrix(np.column_stack([x0, x1])), domain=D, c_r=0.1,
                      link=exp_fn())
    supports = np.array([[1], [0]], dtype=np.intp)
    with np.errstate(over="raise"):
        groups = estimator._group_rows(prob, supports)
        run = estimator._solve_run(prob, supports, groups)
        ok = inner_solve(prob, (1,))
        with pytest.raises(FloatingPointError):
            inner_solve(prob, (0,))
    assert isinstance(run[1], FloatingPointError)
    assert _result_bytes(run[0]) == _result_bytes(ok)


def test_a_fault_in_the_lockstep_loop_is_raised_not_retried(monkeypatch):
    # only what a solve raises on its own numbers (overflow, a singular
    # system, a value outside the natural domain) sends a run to the
    # member-by-member retry; a fault in the code, here a TypeError forced
    # into the backtracking, leaves fit at once
    from l0bounds import estimator

    rng = np.random.default_rng(50)
    prob = _grouping_problem("pm1", "mle", 90, 5, rng)(0.3)
    retried = []
    real = estimator._lockstep

    def lockstep(prob, supports, groups, **kw):
        retried.append(kw["careful"])
        return real(prob, supports, groups, **kw)

    def broken(*args):
        raise TypeError("forced")

    monkeypatch.setattr(estimator, "_lockstep", lockstep)
    monkeypatch.setattr(estimator, "_armijo", broken)
    with pytest.raises(TypeError, match="forced"):
        fit(prob)
    assert retried and not any(retried)  # no support was solved again alone


@pytest.mark.parametrize("design,loss", GROUPING_CASES)
def test_fit_asks_inner_solve_once_per_recorded_support(monkeypatch, design, loss):
    # fit solves a run at once, but hands each support the replay admits to
    # inner_solve: one call per record, whose result is the record's, and
    # every run is solved inside the first call that asks for one of its
    # supports (so that call's time is the run's)
    from l0bounds import estimator

    rng = np.random.default_rng(51)
    prob = _grouping_problem(design, loss, 120, 5, rng)(0.05)
    asked, depth, solved_inside = [], [0], []
    real_inner, real_run = estimator.inner_solve, estimator._solve_run

    def inner(prob, S, groups=None, run=None):
        depth[0] += 1
        try:
            got = real_inner(prob, S, groups, run)
        finally:
            depth[0] -= 1
        asked.append((S, got))
        return got

    def run(prob, supports, groups, tally=None):
        solved_inside.append(depth[0] == 1)
        return real_run(prob, supports, groups, tally)

    monkeypatch.setattr(estimator, "inner_solve", inner)
    monkeypatch.setattr(estimator, "_solve_run", run)
    res = fit(prob)
    assert sorted(S for S, _ in asked) == sorted(r.support for r in res.records)
    by_support = {r.support: r for r in res.records}
    for S, got in asked:
        rec = by_support[S]
        assert (got is not None) == rec.feasible
        assert got is None or (got[1], got[2], got[3]) == (rec.loss, rec.converged, rec.boundary_clamped)
    assert solved_inside and all(solved_inside)


# ----------------------------------------------------------------------------
# the cells route: likelihood groups read from the indicator Gram
# ----------------------------------------------------------------------------


def _cells_design(kind, n, rng):
    """Four two-level columns, the last a twin of the first (its pairs with
    column 0 have empty cells: G = 2 < 4), and for "mixed" a three-level
    column the Gram leaves out."""
    cols = {
        "pm1": [LEVEL_COLUMNS["pm1"](rng, n) for _ in range(3)],
        "binary": [LEVEL_COLUMNS["binary"](rng, n) for _ in range(3)],
        "mixed": [LEVEL_COLUMNS[k](rng, n) for k in ("pm1", "binary", "two")],
    }[kind]
    extra = [LEVEL_COLUMNS["three"](rng, n)] if kind == "mixed" else []
    return np.column_stack(cols + [cols[0]] + extra)


@pytest.mark.parametrize("y_kind", ["int", "count"])
@pytest.mark.parametrize("kind", ["pm1", "binary", "mixed"])
def test_cells_route_groups_equal_the_keyed_groups(kind, y_kind):
    # the groups read from the Gram are those _group_rows keys from the
    # rows, bit for bit: the same G, the cells with m > 0 in key order,
    # their counts, response sums and distinct rows X[rep][:, S]; stacked,
    # they give _stack's rows and members bit for bit
    from l0bounds import estimator

    rng = np.random.default_rng(53)
    n = 60
    Xm = _cells_design(kind, n, rng)
    y = ((rng.random(n) < 0.4) if y_kind == "int" else rng.integers(-4, 9, n)).astype(float)
    prob = FitProblem(y=y, X=DesignMatrix(Xm), domain=WIDE, c_r=0.0, family=bernoulli())
    prob.level_gram  # as fit forms it
    seen = set()
    for k in range(3):
        combos = list(itertools.combinations(range(Xm.shape[1]), k))
        supports = np.array(combos, dtype=np.intp).reshape(len(combos), k)
        on = estimator._in_gram(prob, supports)
        assert on.tolist() == [4 not in S or kind != "mixed" for S in combos]
        supports = supports[on]
        cells = estimator._Cells(prob, supports)
        keyed = estimator._group_rows(prob, supports)
        for b, (S, (inv, m, rep)) in enumerate(zip(supports.tolist(), keyed)):
            cm, cY, cXsT = cells.stack([b])
            seen.add(len(m))
            assert cells.G[b] == len(m) == cm.shape[1], S
            assert cm[0].tobytes() == m.tobytes(), S
            assert cY[0].tobytes() == estimator._Rows(prob, inv, m).Y.tobytes(), S
            assert cXsT[0].tobytes() == np.ascontiguousarray(Xm[rep][:, S].T).tobytes(), S
        for G in set(cells.G):  # one stack per G, as _lockstep forms it
            at = [b for b in range(len(supports)) if cells.G[b] == G]
            rows, mem = estimator._stack(prob, supports[at], [estimator._Cell(cells, b) for b in at])
            krows, kmem = estimator._stack(prob, supports[at], [keyed[b] for b in at])
            pairs = ((rows.m, krows.m), (rows.Y, krows.Y), (mem.XsT, kmem.XsT), (mem.w, kmem.w))
            for a, want in pairs:
                assert a.shape == want.shape and a.flags.c_contiguous
                assert a.tobytes() == want.tobytes()
    assert {1, 2, 4} <= seen  # the empty support, singles and pairs, the twin's G = 2


@pytest.mark.parametrize("c_r", [0.0, 0.5, 3.0])
@pytest.mark.parametrize("case", ["bernoulli", "gaussian_counts", "zero_outside"])
@pytest.mark.parametrize("kind", ["pm1", "binary", "mixed"])
def test_fit_on_the_cells_route_equals_the_row_route(monkeypatch, kind, case, c_r):
    # a likelihood fit that reads its groups from the Gram is the fit that
    # keys every support's rows, bit for bit, and the fit of solving every
    # support alone; with 0 outside the interval the ridge start reads
    # working-response sums, and every support keys its rows whatever the
    # Gram holds
    from l0bounds import estimator

    rng = np.random.default_rng(54)
    n = 90
    Xm = _cells_design(kind, n, rng)
    t = 0.6 * Xm[:, 0] - 0.4 * Xm[:, 1]
    if case == "gaussian_counts":
        y, model = np.round(3.0 * t + rng.normal(0.0, 1.0, n)), {"family": gaussian(1.0)}
    else:
        y, model = (rng.random(n) < expit(t)).astype(float), {"family": bernoulli()}
    D = DomainSpec(Interval(-1.2, 1.2), max_support=2.0, l1inf_cap=1.2)
    if case == "zero_outside":  # columns of positive levels and mostly 1s: positive ridge starts
        Xm = Xm - Xm.min(axis=0) + 1.0
        y = (rng.random(n) < 0.8).astype(float)
        D = DomainSpec(Interval(0.1, 10.0), max_support=2.0, l1inf_cap=10.0)
    prob = FitProblem(y=y, X=DesignMatrix(Xm), domain=D, c_r=c_r, **model)
    made = []
    real = estimator._Cells

    def cells(prob, supports):
        made.append(len(supports))
        return real(prob, supports)

    monkeypatch.setattr(estimator, "_Cells", cells)
    res = fit(prob)
    assert (sum(made) > 0) == (case != "zero_outside")
    assert (prob.level_gram[0] >= 0).sum() == 4
    made.clear()
    rows = fit(_without_gram(prob))
    assert (res.support, res.objective.hex(), res.beta_hat.tobytes(), res.tie_break_applied) == (
        rows.support, rows.objective.hex(), rows.beta_hat.tobytes(), rows.tie_break_applied)
    assert res.records == rows.records and res.n_supports == rows.n_supports
    assert not made
    if case != "zero_outside":
        support, obj, u, tie, _solved = full_enumeration_fit(prob)
        assert (res.support, res.objective.hex(), res.beta_hat.tobytes(), res.tie_break_applied) == (
            support, obj.hex(), u.tobytes(), tie)


def test_a_large_two_level_likelihood_fit_keys_no_row(monkeypatch):
    # n = 20 000, p = 40 on a +-1 design with 0/1 responses: every support
    # reads its groups from the Gram, and each level's 40 singles and 780
    # pairs are one chunk, so one _active_set_newton call serves each
    # (level, G), where keying rows would have grouped one support per pass
    from l0bounds import estimator

    rng = np.random.default_rng(55)
    n, p = 20_000, 40
    Xm = rng.choice([-1.0, 1.0], size=(n, p))
    y = (rng.random(n) < expit(0.3 * Xm[:, 0] - 0.2 * Xm[:, 1])).astype(float)
    prob = FitProblem(y=y, X=DesignMatrix(Xm), domain=DomainSpec(Interval(-1.0, 1.0), 2.0, 1.0),
                      c_r=5.0, family=bernoulli())
    keyed, calls = [0], []
    real_keys, real_newton = estimator._level_keys, estimator._active_set_newton

    def keys(*args):
        keyed[0] += 1
        return real_keys(*args)

    def newton(prob, mem, V, *args, **kw):
        calls.append((V.shape[1], mem.Xs.shape[1], len(V)))
        return real_newton(prob, mem, V, *args, **kw)

    monkeypatch.setattr(estimator, "_level_keys", keys)
    monkeypatch.setattr(estimator, "_active_set_newton", newton)
    res = fit(prob)
    assert len(res.records) == 1 + p + p * (p - 1) // 2  # a constant floor prunes nothing
    assert res.support == (0, 1)
    assert keyed[0] == 0
    assert calls == [(1, 2, p), (2, 4, p * (p - 1) // 2)]
