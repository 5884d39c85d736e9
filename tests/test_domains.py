"""Domain specifications, membership, and the hull-sampling test oracles."""

import math

import numpy as np
import pytest

from l0bounds import (
    DesignMatrix,
    DomainSpec,
    Interval,
    in_domain,
    weighted_l1_norm,
)
from oracles import sample_domain, segment_hull_sample


def test_interval_basics():
    I = Interval(-1.0, 2.0)
    assert I.contains(-1.0) and I.contains(2.0) and I.contains(0.3)
    assert not I.contains(2.0000001)
    assert I.sup_abs == 2.0
    assert I.bounded
    np.testing.assert_allclose(I.grid(3), [-1.0, 0.5, 2.0])


def test_interval_validation_and_open_ends():
    with pytest.raises(ValueError):
        Interval(1.0, 1.0)
    with pytest.raises(ValueError):
        Interval(2.0, -2.0)
    I = Interval(-math.inf, 0.0)
    assert not I.bounded
    assert not I.contains(-math.inf)
    assert I.contains(-1e300) and I.contains(0.0)


def _contains_entrywise(I, x) -> bool:
    # every entry on its own: closed at a finite end, open at an infinite one
    x = np.asarray(x, dtype=float)
    lo_ok = (x >= I.lo) if math.isfinite(I.lo) else (x > I.lo)
    hi_ok = (x <= I.hi) if math.isfinite(I.hi) else (x < I.hi)
    return bool((lo_ok & hi_ok).all())


INTERVALS = [(-1.0, 2.0), (-math.inf, 0.0), (0.0, math.inf), (-math.inf, math.inf), (-0.0, 1e-300)]
POINTS = [
    0.0, -0.0, -1.0, 2.0, 2.0000001, -1.0000001, 1e-300, -1e300, 1e300, 5e-324,
    math.inf, -math.inf, math.nan,
]


@pytest.mark.parametrize("lo,hi", INTERVALS)
def test_contains_compares_its_extremes_as_every_entry_would(lo, hi):
    # scalars, 0-d arrays, pairs (NaN in either place, +-inf, the ends
    # themselves) and the empty array give the entrywise test's booleans
    I = Interval(lo, hi)
    cases = POINTS + [np.float64(x) for x in POINTS] + [np.array(x) for x in POINTS]
    cases += [np.array([a, b]) for a in POINTS for b in POINTS]
    cases += [[lo, hi], [0.5 * lo, 0.5 * hi], np.empty(0), [], np.empty((0, 3))]
    for x in cases:
        assert I.contains(x) is _contains_entrywise(I, x), (lo, hi, x)
    assert I.contains(np.empty(0)) is True


def test_support_budget_rejects_nan_and_keeps_inf():
    # a nan budget compares false both ways, so every support size would pass
    for bad in (math.nan, -1.0):
        with pytest.raises(ValueError, match="max_support must be nonnegative"):
            DomainSpec(Interval(-3.0, 3.0), max_support=bad, l1inf_cap=3.0)
    D = DomainSpec(Interval(-3.0, 3.0), max_support=math.inf, l1inf_cap=3.0)
    X = DesignMatrix(np.eye(4))
    assert in_domain(np.full(4, 0.5), X, D)


def test_in_domain_checks_each_constraint():
    X = DesignMatrix(np.array([[1.0, 0.0], [0.0, 2.0]]))
    D = DomainSpec(Interval(-2.0, 2.0), max_support=1.0, l1inf_cap=2.0)
    assert in_domain(np.zeros(2), X, D)
    assert in_domain(np.array([2.0, 0.0]), X, D)  # cap met with equality
    assert not in_domain(np.array([2.0001, 0.0]), X, D)  # cap exceeded
    assert not in_domain(np.array([1.0, 0.5]), X, D)  # support 2 > 1
    D2 = DomainSpec(Interval(-0.5, 0.5), max_support=2.0, l1inf_cap=10.0)
    assert not in_domain(np.array([1.0, 0.0]), X, D2)  # row leaves I


def test_admits_on_a_support_restriction_matches_in_domain():
    # the inner solver tests (v, X_S v, ||V_j||_inf for j in S); on a +-1
    # design with |S| <= 2 those are the very numbers in_domain sees
    rng = np.random.default_rng(5)
    X = DesignMatrix(rng.choice([-1.0, 1.0], size=(40, 5)))
    w = X.column_norms(math.inf)
    D = DomainSpec(Interval(-1.0, 1.0), max_support=2.0, l1inf_cap=1.2)
    seen = set()
    for _ in range(400):
        S = sorted(rng.choice(5, size=int(rng.integers(1, 4)), replace=False).tolist())
        v = rng.uniform(-0.8, 0.8, len(S)) * rng.choice([0.0, 1.0], len(S), p=[0.2, 0.8])
        u = np.zeros(5)
        u[S] = v
        want = in_domain(u, X, D)
        assert D.admits(v, X.X[:, S] @ v, w[S]) == want
        seen.add(want)
    assert seen == {True, False}


def test_segment_hull_sample_hand_example():
    got = segment_hull_sample([np.zeros(2), np.array([1.0, 0.0])], grid_per_edge=3)
    pts = sorted(tuple(p) for p in got)
    assert pts == [(0.0, 0.0), (0.5, 0.0), (1.0, 0.0)]


def test_segment_hull_sample_stays_in_convex_domain():
    rng = np.random.default_rng(2)
    X = DesignMatrix(rng.standard_normal((10, 3)))
    D = DomainSpec(Interval(-3.0, 3.0), max_support=3.0, l1inf_cap=3.0)
    base = sample_domain(D, X, 6, seed=9)
    hull = segment_hull_sample(base, grid_per_edge=9)
    # the domain is convex only within a fixed support; same-support pairs
    # must stay inside, so filter the mixed ones the way the grid tests do
    for u in hull:
        if np.count_nonzero(u) <= D.max_support:
            assert weighted_l1_norm(u, X) <= D.l1inf_cap + 1e-9


def test_sample_domain_deterministic_and_feasible():
    rng = np.random.default_rng(0)
    X = DesignMatrix(rng.choice([-1.0, 1.0], size=(20, 5)))
    D = DomainSpec(Interval(-1.5, 1.5), max_support=2.0, l1inf_cap=1.5)
    a = sample_domain(D, X, 25, seed=4, support_size=2)
    b = sample_domain(D, X, 25, seed=4, support_size=2)
    assert all(np.array_equal(x, y) for x, y in zip(a, b))
    for u in a:
        assert in_domain(u, X, D)
        assert np.count_nonzero(u) <= 2
