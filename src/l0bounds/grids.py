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

All reported radii are overestimates by construction (box radius
delta-hat = h * cap bounds the true hull radius), so the cardinality
certificate |G| <= C(p,h) (2 delta-hat / d_b + 1)^h holds exactly.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass, field

import numpy as np

from .analytic import AnalyticFn
from .design import DesignMatrix, _as_design
from .domains import DomainSpec

__all__ = ["CoveringGrid", "build_grid", "singleton_grid", "grid_statistics", "covers"]

_ENUM_BUDGET = 1_000_000
_POINT_BUDGET = 2_000_000


def _row_radii(f: AnalyticFn, T: np.ndarray) -> np.ndarray:
    """min over each row of T of f.radius_at, called once per distinct value
    of T (row by row, so no temporary of the size of T is formed)."""
    vals = np.unique(T)
    rad = np.array([f.radius_at(t) for t in vals])
    return np.array([np.min(rad[np.searchsorted(vals, row)]) for row in T])


@dataclass
class CoveringGrid:
    """A finite cover of the segment hull with per-point disc radii.

    Attributes
    ----------
    points : (N, p) array of cover centers, in canonical (support, center)
        lexicographic order, exact duplicates removed.
    supports : generating support per point.
    b : per-point disc parameter b(u) (strictly below the local radius).
    d : covering step; every hull point is within d of some cover point
        in the weighted l1 norm, and d <= b/2.
    cardinality_bound : certified upper bound on N.
    """

    points: np.ndarray
    supports: list
    b: np.ndarray
    d: float
    construction: str
    cardinality_bound: float
    f: AnalyticFn
    X: DesignMatrix
    b_rule: tuple
    _r: np.ndarray | None = field(default=None, repr=False)
    _rows: np.ndarray | None = field(default=None, repr=False)
    _A: np.ndarray | None = field(default=None, repr=False)

    def __len__(self):
        return self.points.shape[0]

    def row_images(self) -> np.ndarray:
        if self._rows is None:
            self._rows = self.points @ self.X.X.T
        return self._rows

    def r_values(self) -> np.ndarray:
        """Per-point joint radius min_i rho(X_i'u)."""
        if self._r is None:
            self._r = _row_radii(self.f, self.row_images())
        return self._r

    @property
    def b_inf(self) -> float:
        return float(np.min(self.b))

    @property
    def r_inf(self) -> float:
        return float(np.min(self.r_values()))

    def t_signed_max(self) -> float:
        return float(np.max(self.row_images()))

    def A_sup(self, K: int) -> np.ndarray:
        """A[k] = max over grid points and rows of |a_k(X_i'u)| for
        k = 1..K (A[0] = 0), from one coefficient table (cached)."""
        if self._A is None or self._A.size <= K:
            flat = np.unique(self.row_images().ravel())
            self._A = np.concatenate(([0.0], np.max(self.f.abs_coeff_table(K, flat), axis=1)))
        return self._A[: K + 1]

    def to_json(self) -> str:
        r = self.r_values()
        entries = [
            {
                "support": [int(j) for j in self.supports[i]],
                "center": [float(v) for v in self.points[i]],
                "b": float(self.b[i]),
                "r": float(r[i]) if math.isfinite(r[i]) else "inf",
            }
            for i in range(len(self))
        ]
        return json.dumps(
            {
                "construction": self.construction,
                "case": 1,  # one construction; the key keeps the JSON layout
                "d": self.d,
                "cardinality_bound": self.cardinality_bound,
                "size": len(self),
                "points": entries,
            },
            indent=2,
        )


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

    pts: list[np.ndarray] = []
    sups: list[tuple] = []
    seen: set[bytes] = set()
    cell_idx = list(itertools.product(range(m), repeat=h))
    for S in itertools.combinations(range(dm.p), h):
        a = cap / w[list(S)]  # raw per-coordinate half-widths
        hw = a / m
        for idx in cell_idx:
            center = -a + (2 * np.asarray(idx) + 1) * hw
            # certified prune: nearest point of the cell to the origin
            near = np.maximum(0.0, np.abs(center) - hw)
            if float(near @ w[list(S)]) > cap * (1 + 1e-12):
                continue
            u = np.zeros(dm.p)
            u[list(S)] = center
            key = u.tobytes()
            if key in seen:
                continue
            seen.add(key)
            pts.append(u)
            sups.append(S)

    if not pts:
        raise ValueError("empty cover: no feasible cells")
    P = np.array(pts)
    grid = CoveringGrid(
        points=P,
        supports=sups,
        b=np.empty(len(pts)),
        d=d,
        construction="per_support_box",
        cardinality_bound=float(n_supports * (2 * (h * cap) / db + 1.0) ** h),
        f=f,
        X=dm,
        b_rule=b_rule,
    )
    r = grid.r_values()
    if b_rule[0] == "half_radius":
        grid.b = r / 2.0
    else:
        if np.any(db >= r):
            raise ValueError("constant b reaches the radius at some grid point")
        grid.b = np.full(len(pts), db)
    # coverage needs dist <= b/2, and cells have radius d
    if np.any(grid.b < 2.0 * d * (1 - 1e-12)):
        raise ValueError("covering step exceeds b/2; inconsistent rule")
    return grid


def singleton_grid(w, X, f: AnalyticFn, D: DomainSpec, d: float) -> CoveringGrid:
    """One-point cover at w, valid when D sits inside B(w, d/2).

    Containment is certified through the triangle inequality
    cap + ||w||_{1,inf} <= d/2 (requires a capped domain).  b is the
    midpoint (d + r(w))/2 capped at 0.999 r(w), or 2d for entire links.
    """
    dm = _as_design(X)
    w = np.asarray(w, dtype=float).ravel()
    if D.l1inf_cap is None:
        raise ValueError("singleton cover requires an l1inf cap")
    wn = float(np.abs(w) @ dm.column_norms(math.inf))
    if D.l1inf_cap + wn > d / 2.0:
        raise ValueError("domain not certified inside B(w, d/2)")
    r = float(_row_radii(f, (dm.X @ w)[None, :])[0])
    if not r > 0:
        raise ValueError("function singular at the cover center")
    if math.isinf(r):
        b = 2.0 * d
    else:
        if d >= r:
            raise ValueError("domain exceeds analytic radius")
        b = min((d + r) / 2.0, 0.999 * r)
    return CoveringGrid(
        points=w[None, :],
        supports=[tuple(int(j) for j in np.nonzero(w)[0])],
        b=np.array([b]),
        d=d,
        construction="singleton",
        cardinality_bound=1.0,
        f=f,
        X=dm,
        b_rule=("singleton", d),
    )


def grid_statistics(G: CoveringGrid, K: int = 60) -> dict:
    """Summary triple (b_inf, r_inf, A_sup[1..K]); checks r_inf > b_inf."""
    b_inf, r_inf = G.b_inf, G.r_inf
    if not b_inf < r_inf:
        raise ValueError("b must stay strictly inside the radius")
    return {
        "b_inf": b_inf,
        "r_inf": r_inf,
        "A_sup": {k: float(a) for k, a in enumerate(G.A_sup(K)[1:], start=1)},
        "size": len(G),
        "cardinality_bound": G.cardinality_bound,
    }


def covers(G: CoveringGrid, samples) -> tuple:
    """Check the covering property on explicit hull samples.

    Returns
    -------
    (ok, worst) : ok is True when every sample u has a grid point g with
        ||u - g||_{1,inf} <= b(g)/2; worst is the largest slack
        min_g (dist - b(g)/2) over the samples (<= 0 when covered).
    """
    S = np.asarray([np.asarray(s, float).ravel() for s in samples])
    if S.size == 0:
        raise ValueError("no samples supplied")
    w = G.X.column_norms(math.inf)
    worst = -math.inf
    half_b = G.b / 2.0
    for i0 in range(0, S.shape[0], 128):
        blk = S[i0 : i0 + 128]
        dist = np.abs(blk[:, None, :] - G.points[None, :, :]) @ w
        margin = np.min(dist - half_b[None, :], axis=1)
        worst = max(worst, float(np.max(margin)))
    return worst <= 1e-12, worst
