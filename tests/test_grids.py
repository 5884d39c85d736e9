"""Covering grids: construction, certificates, coverage, cardinality."""

import dataclasses
import hashlib
import json
import math

import numpy as np
import pytest

from l0bounds import (
    DesignMatrix,
    DomainSpec,
    Interval,
    build_grid,
    covers,
    exp_fn,
    grid_statistics,
    logistic_flip,
    singleton_grid,
)
from oracles import sample_domain, segment_hull_sample

F = logistic_flip(0.1, 0.9)


def _design(n=30, p=6, seed=0):
    rng = np.random.default_rng(seed)
    return DesignMatrix(rng.choice([-1.0, 1.0], size=(n, p)))


def _domain(cap=1.5):
    return DomainSpec(Interval(-cap, cap), max_support=1.0, l1inf_cap=cap)


def test_build_grid_basic_certificates():
    X = _design()
    D = _domain(cap=1.5)
    G = build_grid(X, F, D)
    assert len(G.points) >= 1
    assert len(G.points) <= G.cardinality_bound + 1e-9
    # kept cell centres may overshoot the cap by at most the cell radius d
    # (a cell survives the prune when its nearest corner is feasible)
    w = X.column_norms(np.inf)
    for u in G.points:
        assert np.count_nonzero(u) <= 2
        assert float(w @ np.abs(u)) <= D.l1inf_cap + G.d * (1 + 1e-9)
    # b stays consistent with the covering step
    assert np.all(G.b >= 2.0 * G.d * (1 - 1e-12))


def test_grid_covers_hull_samples():
    X = _design()
    D = _domain(cap=1.5)
    G = build_grid(X, F, D)
    base = sample_domain(D, X, 40, seed=3, support_size=1)
    samples = segment_hull_sample(base, grid_per_edge=7)
    ok, margin = covers(G, samples)
    assert ok, margin


def test_grid_cardinality_hand_example():
    # p = 3, h = 1, cap * h = 1, d_b = 2: C(3,1) * (2*1/2 + 1) = 6
    X = DesignMatrix(np.eye(3))
    D = DomainSpec(Interval(-1.0, 1.0), max_support=0.5, l1inf_cap=1.0)
    G = build_grid(X, exp_fn(), D, b_rule=("constant", 2.0))
    assert G.cardinality_bound == pytest.approx(6.0)
    assert len(G.points) <= 6


# (max_support, cap, h, size, cardinality bound, sha256 of the points) of the
# grids built with an explicit h = 2 max_support (at least 1) on _design()
EXPLICIT_H_GRIDS = [
    (0.5, 1.5, 1, 12, 17.459155902616466,
     "41ed38970c55f1c73fc6edae6d538d96212d071740cb9c8e51b74053f2c59c86"),
    (1.0, 1.5, 2, 240, 348.44531569361425,
     "38e426096503909063eb5253951c96b08389580a8c896cd42f03a8fd50aee548"),
    (2.0, 0.6, 4, 2640, 4058.6970410979175,
     "ace4d92bb7728ecba1e537a77e984026d9878e1e133bc1551803050be1fa8188"),
]


@pytest.mark.parametrize("budget,cap,h,size,bound,digest", EXPLICIT_H_GRIDS)
def test_cover_support_size_follows_from_the_budget(budget, cap, h, size, bound, digest):
    # segments of members have supports up to twice the budget, so the cover
    # is the one an explicit h = max(1, ceil(2 budget)) gave
    X = _design()
    D = DomainSpec(Interval(-cap, cap), max_support=budget, l1inf_cap=cap)
    G = build_grid(X, F, D)
    db = 2.0 * G.d
    assert G.cardinality_bound == bound == math.comb(X.p, h) * (2 * (h * cap) / db + 1.0) ** h
    assert len(G) == size
    assert max(np.count_nonzero(u) for u in G.points) == h
    assert hashlib.sha256(G.points.tobytes()).hexdigest() == digest


def test_cover_of_an_unbudgeted_domain_spans_every_column():
    # with no support budget a segment can use all p columns, so h = p
    X = _design(n=20, p=3, seed=2)
    D = DomainSpec(Interval(-0.5, 0.5), max_support=math.inf, l1inf_cap=0.5)
    G = build_grid(X, F, D)
    assert max(np.count_nonzero(u) for u in G.points) == X.p
    assert len(G) <= G.cardinality_bound


def test_build_grid_requires_cap():
    X = _design()
    D = DomainSpec(Interval(-1.0, 1.0), max_support=1.0, l1inf_cap=None)
    with pytest.raises(ValueError, match="covering requires an l1inf cap"):
        build_grid(X, F, D)


def test_build_grid_enumeration_budget():
    rng = np.random.default_rng(1)
    X = DesignMatrix(rng.choice([-1.0, 1.0], size=(10, 60)))
    D = DomainSpec(Interval(-1.0, 1.0), max_support=10.0, l1inf_cap=1.0)
    with pytest.raises(ValueError, match=r"enumeration budget exceeded \(C\(p, h\) > 1e6\)"):
        build_grid(X, F, D)  # h = 20


def test_half_radius_rejected_for_entire_links():
    X = _design()
    D = _domain(cap=1.0)
    with pytest.raises(ValueError, match="half_radius undefined for entire links"):
        build_grid(X, exp_fn(), D)
    G = build_grid(X, exp_fn(), D, b_rule=("constant", 1.0))
    assert np.all(G.b == 1.0)


def test_grid_monotone_in_cap():
    X = _design(seed=4)
    sizes = []
    for cap in (0.8, 1.6, 2.4):
        D = _domain(cap=cap)
        sizes.append(len(build_grid(X, F, D).points))
    assert sizes[0] <= sizes[1] <= sizes[2]


def test_grid_statistics_keys_and_radius_guard():
    X = _design()
    D = _domain(cap=1.5)
    G = build_grid(X, F, D)
    st = grid_statistics(G, K=10)
    assert set(st) == {"A_sup", "b_inf", "cardinality_bound", "r_inf", "size"}
    assert st["size"] == len(G.points)
    assert st["b_inf"] > 0 and st["r_inf"] >= math.pi
    # build_grid validates b itself, so forge an oversized b to hit the guard
    bad = dataclasses.replace(G, b=np.full(len(G.points), math.pi * 1.01))
    with pytest.raises(ValueError, match="b must stay strictly inside the radius"):
        grid_statistics(bad, K=10)


def test_covers_detects_missing_point():
    X = _design()
    D = _domain(cap=1.5)
    G = build_grid(X, F, D)
    far = np.zeros(X.p)
    far[0] = D.l1inf_cap / X.column_norms(np.inf)[0]
    # a point at the cap along one axis is covered by construction ...
    ok, _ = covers(G, [far])
    assert ok
    # ... but nothing covers a point far outside the domain
    ok2, margin2 = covers(G, [far * 5.0])
    assert not ok2 and margin2 > 0


def test_singleton_grid_and_errors():
    X = _design()
    w = np.zeros(X.p)
    D = DomainSpec(Interval(-0.1, 0.1), max_support=1.0, l1inf_cap=0.1)
    G = singleton_grid(w, X, F, D, d=1.0)
    assert len(G.points) == 1
    with pytest.raises(ValueError, match=r"domain not certified inside B\(w, d/2\)"):
        singleton_grid(w, X, F, D, d=0.05)
    big = DomainSpec(Interval(-10.0, 10.0), max_support=1.0, l1inf_cap=10.0)
    with pytest.raises(ValueError, match="domain exceeds analytic radius"):
        singleton_grid(w, X, F, big, d=30.0)


def test_grid_to_json_round_trip():
    X = _design()
    D = _domain(cap=1.0)
    G = build_grid(X, F, D)
    blob = json.loads(G.to_json())
    assert blob["size"] == len(G.points)
    assert blob["case"] == 1
    assert blob["cardinality_bound"] >= blob["size"]


def test_A_sup_table_equals_per_order_grid_max():
    # one coefficient table serves every order; each entry is the max of the
    # per-order batch over the distinct row images
    X = _design()
    G = build_grid(X, F, _domain())
    A = G.A_sup(30)
    flat = np.unique(G.row_images().ravel())
    for k in range(1, 31):
        assert A[k] == np.max(F.coeff_abs_batch(k, flat)), k
    assert np.array_equal(G.A_sup(12), A[:13])


def test_radii_match_the_per_row_loop():
    # r(u) is taken once per distinct row image; the values must be the
    # per-(point, row) minimum bit for bit, so the grid JSON does not move
    X = _design(n=60, p=5, seed=3)
    G = build_grid(X, F, _domain(cap=1.5))
    want = np.array([min(F.radius_at(t) for t in row) for row in G.row_images()])
    assert G.r_values().tobytes() == want.tobytes()
    w = np.zeros(5)
    w[[0, 3]] = [0.02, -0.01]
    small = DomainSpec(Interval(-1.5, 1.5), max_support=1.0, l1inf_cap=0.05)
    S = singleton_grid(w, X, F, small, d=1.0)
    r = min(F.radius_at(t) for t in X.X @ w)
    assert S.b[0] == min((1.0 + r) / 2.0, 0.999 * r)
