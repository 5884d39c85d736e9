"""Covering grids for the segment hull of a sparse, capped parameter domain.

The series error constants are evaluated on a finite set G that must cover
the segment hull of the feasible set in the weighted l1 norm, each point u
covering a ball of radius b(u)/2 where b(u) stays strictly inside the local
convergence radius r(u) of the link.  Construction is per support: a segment
between two members of a domain with support budget s has support size at
most h = max(1, ceil(2 s)) (and at most p), so each of the C(p, h)
coordinate boxes is subdivided into equal cells whose weighted-l1 radius is
below the covering step d.

Every link in ``analytic.LINKS`` is analytic on a neighborhood of the whole
real line with its radius bounded below (``f.radius_floor(None) > 0``), so
cell centers are valid cover points as-is and d = inf b / 2, b coming from
the radius floor over the line.

``build_grid`` computes every grid quantity once (points, radii, disc
parameters, the distinct row images) and returns them in a frozen
``CoveringGrid``; the series constants read its fields.

All reported radii are overestimates by construction (box radius
delta-hat = h * cap bounds the true hull radius), so the cardinality
certificate |G| <= C(p,h) (2 delta-hat / d_b + 1)^h holds exactly.  The
covering property itself is checked against segment-hull samples by the
test oracles (``tests/oracles.py``), not here.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .analytic import AnalyticFn
from .design import DesignMatrix, _as_design
from .domains import DomainSpec

__all__ = ["CoveringGrid", "build_grid"]

_ENUM_BUDGET = 1_000_000
_POINT_BUDGET = 2_000_000
_BLOCK = 1 << 20  # row images per block of the per-point radius minimum


@dataclass(frozen=True)
class CoveringGrid:
    """A finite cover of the segment hull with per-point disc radii.

    Attributes
    ----------
    points : (N, p) array of cover centers, in canonical (support, center)
        lexicographic order, exact duplicates removed.
    supports : generating support per point.
    b : per-point disc parameter b(u) (strictly below the local radius).
    r : per-point joint radius min_i rho(X_i'u).
    d : covering step; every hull point is within d of some cover point
        in the weighted l1 norm, and d <= b/2.
    cardinality_bound : certified upper bound on N.
    images : the distinct row images X_i'u over every point and row, sorted.
    """

    points: np.ndarray
    supports: list
    b: np.ndarray
    r: np.ndarray
    d: float
    cardinality_bound: float
    images: np.ndarray
    f: AnalyticFn
    X: DesignMatrix

    def __len__(self):
        return self.points.shape[0]

    @property
    def b_inf(self) -> float:
        return float(np.min(self.b))

    def t_signed_max(self) -> float:
        return float(self.images[-1])

    def A_sup(self, K: int) -> np.ndarray:
        """A[k] = max over grid points and rows of |a_k(X_i'u)| for
        k = 1..K (A[0] = 0), from one coefficient table."""
        return np.concatenate(([0.0], np.max(self.f.abs_coeff_table(K, self.images), axis=1)))

    def to_dict(self) -> dict:
        rows = zip(self.supports, self.points.tolist(), self.b.tolist(), self.r.tolist())
        entries = [
            {"support": list(S), "center": c, "b": b, "r": r if math.isfinite(r) else "inf"}
            for S, c, b, r in rows
        ]
        return {
            # one construction; both keys keep the JSON layout
            "construction": "per_support_box",
            "case": 1,
            "d": self.d,
            "cardinality_bound": self.cardinality_bound,
            "size": len(self),
            "points": entries,
        }


def build_grid(X, f: AnalyticFn, D: DomainSpec, b_rule: tuple = ("half_radius",)) -> CoveringGrid:
    """Cover the segment hull of D at the support size h of its points.

    A segment between two members of D has support size at most twice the
    budget, so h = max(1, ceil(2 D.max_support)), at most p.

    Parameters
    ----------
    b_rule : ("half_radius",) or ("constant", c)
        Per-point disc parameter: half the local radius, or a constant c
        (mandatory for entire links, whose radius is infinite).

    Raises
    ------
    ValueError on non-compact domains, budget blow-ups, or b rules that
    violate 0 < b < r.
    """
    dm = _as_design(X)
    if D.l1inf_cap is None:
        raise ValueError("covering requires an l1inf cap (compact domain)")
    h = max(1, math.ceil(min(dm.p, 2.0 * D.max_support)))
    n_supports = math.comb(dm.p, h)
    if n_supports > _ENUM_BUDGET:
        raise ValueError("enumeration budget exceeded (C(p, h) > 1e6)")

    rho_floor = f.radius_floor(None)
    if b_rule[0] == "half_radius":
        if math.isinf(rho_floor):
            raise ValueError(
                "half_radius undefined for entire links; use ('constant', c)"
            )
        db = rho_floor / 2.0
    elif b_rule[0] == "constant":
        db = float(b_rule[1])
        if not 0.0 < db:
            raise ValueError("constant b must be positive")
        if db >= rho_floor:
            raise ValueError("constant b must stay below the radius floor")
    else:
        raise ValueError("unknown b rule")
    d = db / 2.0

    cap = float(D.l1inf_cap)
    w = dm.column_norms(math.inf)
    m = max(1, math.ceil(h * cap / d))
    if n_supports * m**h > _POINT_BUDGET:
        raise ValueError("grid too large; shrink the cap or the support size")

    # every support's m^h equal cells at once: (support, cell, coordinate)
    supports = np.array(list(itertools.combinations(range(dm.p), h)))
    steps = 2 * np.array(list(itertools.product(range(m), repeat=h))) + 1 - m
    hw = (cap / w[supports])[:, None, :] / m  # per-coordinate cell half-widths
    centers = steps * hw  # an odd m's middle cell is centred at exactly 0
    # certified prune: nearest point of each cell to the origin
    near = np.maximum(0.0, np.abs(centers) - hw)
    s, c = np.nonzero(np.einsum("sch,sh->sc", near, w[supports]) <= cap * (1 + 1e-12))
    if not s.size:
        raise ValueError("empty cover: no feasible cells")
    P = np.zeros((s.size, dm.p))
    P[np.arange(s.size)[:, None], supports[s]] = centers[s, c]
    # exact duplicates (a zero center coordinate) keep their first copy
    keys = P.view(np.dtype((np.void, P.itemsize * dm.p))).ravel()  # each point's bytes
    _, first = np.unique(keys, return_index=True)
    first.sort()
    P, s = P[first], s[first]
    # r(u) = min_i rho(X_i'u), rho taken once per distinct row image
    T = P @ dm.X.T
    images = np.unique(T)
    rad = np.array([f.radius_at(t) for t in images])
    step = max(1, _BLOCK // dm.n)
    blocks = (T[i : i + step] for i in range(0, len(P), step))
    r = np.concatenate([np.min(rad[np.searchsorted(images, B)], axis=1) for B in blocks])
    if b_rule[0] == "half_radius":
        b = r / 2.0
    else:
        if np.any(db >= r):
            raise ValueError("constant b reaches the radius at some grid point")
        b = np.full(len(P), db)
    # coverage needs dist <= b/2, and cells have radius d
    if np.any(b < 2.0 * d * (1 - 1e-12)):
        raise ValueError("covering step exceeds b/2; inconsistent rule")
    return CoveringGrid(
        points=P,
        supports=[tuple(S) for S in supports[s].tolist()],
        b=b,
        r=r,
        d=d,
        cardinality_bound=float(n_supports * (2 * (h * cap) / db + 1.0) ** h),
        images=images,
        f=f,
        X=dm,
    )
