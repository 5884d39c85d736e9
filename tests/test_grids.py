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
    exp_fn,
    logistic_flip,
)
from l0bounds import grids
from l0bounds.design import random_design
from oracles import cover_points_loop, covers, sample_domain, segment_hull_sample

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
     "322b346ac0d6a65f29896cedf855b2d262c8015768b3e8170fc30f3ea0c72b10"),
]

# sha256 of the indented JSON of the same grids
EXPLICIT_H_GRID_JSON = {
    (0.5, 1.5): "62f25991482cb76c4fddbfbcf541977d6950f8c5265edcedc4fff1296a3efc7a",
    (1.0, 1.5): "1552f83d7c5e2444602caf68dd04979d4f676149dcd24ae5b2f643c2dec9b013",
    (2.0, 0.6): "8c0083b9b6c060712c92389019ae0168f82d1236244bc783e1dc0e3c4c1021fb",
}


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
    blob = json.dumps(G.to_dict(), indent=2).encode()
    assert hashlib.sha256(blob).hexdigest() == EXPLICIT_H_GRID_JSON[budget, cap]


def test_exp_grid_json_bytes_are_pinned():
    # a gaussian design: every row image is distinct
    X = DesignMatrix(np.random.default_rng(5).standard_normal((30, 6)))
    D = DomainSpec(Interval(-1.0, 1.0), max_support=1.0, l1inf_cap=1.0)
    G = build_grid(X, exp_fn(), D, b_rule=("constant", 1.0))
    assert len(G) == 240 and G.images.size == len(G) * X.n
    blob = json.dumps(G.to_dict(), indent=2).encode()
    assert hashlib.sha256(blob).hexdigest() == (
        "01c9462419b37a539e619d51bce492327905bdc45d4a98880f7709d3d834a7ac"
    )


def test_odd_cell_count_centres_its_middle_cell_at_zero():
    # m = 3 cells per side: the middle cell's centre is exactly 0, so the
    # supports' copies of the origin are one point and no two points are
    # near-copies of each other
    X = random_design("gaussian_iid", 40, 6, np.random.default_rng(7))
    D = DomainSpec(Interval(-2.0, 2.0), max_support=0.5, l1inf_cap=2.0)
    G = build_grid(X, F, D)
    assert len(G) == 13
    gaps = np.abs(G.points[:, None, :] - G.points[None, :, :]).max(axis=2)
    np.fill_diagonal(gaps, np.inf)
    assert gaps.min() > 1e-12


@pytest.mark.parametrize(
    "design,budget,cap",
    [("pm1_iid", 1.0, 1.5), ("pm1_iid", 1.5, 0.9), ("pm1_iid", 1.0, 1.0),
     ("gaussian_iid", 0.5, 2.0), ("binary_iid", 1.0, 1.2)],
)
def test_cells_match_the_per_cell_loop(design, budget, cap):
    # the array construction keeps the loop's cells, bit for bit and in order;
    # at cap 1.0 and 2.0 the cell count per side is odd, so centers with a
    # zero coordinate repeat across supports and only the first copy stays
    X = random_design(design, 40, 6, np.random.default_rng(7))
    D = DomainSpec(Interval(-cap, cap), max_support=budget, l1inf_cap=cap)
    G = build_grid(X, F, D)
    P, sups = cover_points_loop(X, D, G.d)
    assert G.points.tobytes() == P.tobytes()
    assert G.supports == sups


def test_grid_is_frozen():
    G = build_grid(_design(), F, _domain())
    with pytest.raises(dataclasses.FrozenInstanceError):
        G.b = np.zeros(len(G))


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


def test_grid_summary_properties():
    # the cover's summary is read from the grid itself
    X = _design()
    D = _domain(cap=1.5)
    G = build_grid(X, F, D)
    assert 0 < G.b_inf < np.min(G.r) and np.min(G.r) >= math.pi
    assert G.t_signed_max() == np.max(G.points @ X.X.T)
    assert len(G) == len(G.points) <= G.cardinality_bound
    A = G.A_sup(10)
    assert A.shape == (11,) and A[0] == 0.0 and np.all(A[1:] > 0)


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


def test_grid_to_json_round_trip():
    X = _design()
    D = _domain(cap=1.0)
    G = build_grid(X, F, D)
    blob = json.loads(json.dumps(G.to_dict(), indent=2))
    assert blob["size"] == len(G.points)
    assert blob["construction"] == "per_support_box" and blob["case"] == 1
    assert blob["cardinality_bound"] >= blob["size"]


def test_A_sup_table_equals_per_order_grid_max():
    # one coefficient table serves every order; each entry is the max of the
    # per-order batch over the distinct row images
    X = _design()
    G = build_grid(X, F, _domain())
    A = G.A_sup(30)
    flat = np.unique((G.points @ X.X.T).ravel())
    assert np.array_equal(G.images, flat)
    for k in range(1, 31):
        assert A[k] == np.max(F.coeff_abs_batch(k, flat)), k
    assert np.array_equal(G.A_sup(12), A[:13])


def test_radii_match_the_per_row_loop(monkeypatch):
    # r(u) is taken once per distinct row image; the values must be the
    # per-(point, row) minimum bit for bit, so the grid JSON does not move;
    # blocks of 7 points, the last one short, stand in for the 2^20-image blocks
    monkeypatch.setattr(grids, "_BLOCK", 7 * 60)
    X = _design(n=60, p=5, seed=3)
    G = build_grid(X, F, _domain(cap=1.5))
    assert len(G) % 7
    want = np.array([min(F.radius_at(t) for t in row) for row in G.points @ X.X.T])
    assert G.r.tobytes() == want.tobytes()
