"""Computable constants for the finite-sample L0-estimation error bounds.

The guarantee has one shape everywhere: with penalty level c_r = 3 c1^2/c2
and radius factor kappa_r = 3 c1/c2, the estimate lands within
kappa_r sqrt(|spt(beta)|/n) of the truth with probability at least 1 - 2q.
What changes between settings is how c1 (stochastic term) and c2 (curvature
term) are computed:

* exponential linear models: closed forms from column norms, coherence and
  the curvature floor of the family;
* analytic least squares: c1 is a series over Taylor-coefficient envelopes;
  three series variants are provided (single disc at the origin, discs on a
  covering grid, and the explicit-envelope form with the cover-cardinality
  logarithm folded in).

Every series value is a partial sum plus a *certified* geometric tail
majorant -- never a bare truncation.  When the terms have not started
decaying by the last computed order, the series is refused ("theta too
close to 1") rather than reported optimistically.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .analytic import (
    AnalyticFn,
    CoefficientEnvelope,
    coefficient_envelope,
    min_slope,
    strip_sup_logistic,
)
from .design import _NU, DesignMatrix, _as_design, capacity, coherence, series_norms
from .domains import Interval
from .expfam import ExpFamily, curvature_inf
from .grids import CoveringGrid

__all__ = [
    "SeriesBound",
    "BoundsReport",
    "lambda_p",
    "c1_glm",
    "c2_glm",
    "c2_lse",
    "c1_one_disc",
    "c1_multi_disc",
    "c1_ub",
    "error_radius",
    "glm_report",
    "one_disc_report",
    "multi_disc_report",
    "ub_report",
]

_DECAY_ERR = "theta too close to 1: series terms not decaying by k = K"


@dataclass(frozen=True)
class SeriesBound:
    """A series-valued constant: partial sum + certified tail majorant."""

    value: float
    partial: float
    tail: float
    K: int

    def __float__(self):
        return self.value


def _check_q(q: float):
    if not 0.0 < q < 0.5:
        raise ValueError("q must lie in (0, 1/2)")


def lambda_p(p: int, q: float) -> float:
    """Union-bound log factor lambda_p = ln(p (1 + 1/q))."""
    if p < 1:
        raise ValueError("p must be >= 1")
    _check_q(q)
    return math.log(p * (1.0 + 1.0 / q))


def _wk(dm: DesignMatrix, K: int) -> list:
    """Norm factors w[k] = n^{-1/(2k)} max_j ||V_j||_{2k} (<= max_j ||V_j||_inf)
    for k = 1..K, from one ``series_norms`` pass; w[0] is unused."""
    top = series_norms(dm, K).max(axis=1)
    return [0.0] + [dm.n ** (-1.0 / (2.0 * k)) * float(top[k - 1]) for k in range(1, K + 1)]


def _tail(kind: tuple, amp: float, x: float, K: int) -> float:
    """Certified bound on the terms amp k sqrt(k) d_k x^(k-1), k > K, where d_k
    follows the envelope tail ``kind`` (see ``CoefficientEnvelope``) and amp
    carries the prefactor, sup_k w_k and the order weight at k = 1.  Past its
    degree a finite series has no terms.
    Otherwise the term ratio is at most gamma < 1 -- sqrt(2) x/(K+1) when
    d_k <= A/k!, sqrt((K+2)/(K+1)) x/c for the logistic majorant at contour
    c = (x + pi)/2 < pi -- so the first omitted term over 1 - gamma bounds it.
    """
    name, arg = kind
    if name == "finite":
        if K < arg:
            raise ValueError("increase K beyond the polynomial degree")
        return 0.0
    if name == "factorial":
        A = amp * arg
        if A == 0.0:
            return 0.0
        gamma = math.sqrt(2.0) * x / (K + 1.0)
        if gamma >= 1.0:
            raise ValueError("increase K: factorial tail not yet decaying")
        first = A * math.sqrt(K + 1.0) * x**K / math.factorial(K)
    else:
        if x >= math.pi:
            raise ValueError("certified tail unavailable: disc size >= pi for a logistic link")
        c = 0.5 * (x + math.pi)
        A = amp * (arg * strip_sup_logistic(c))
        if A == 0.0:
            return 0.0
        ratio = x / c
        gamma = math.sqrt((K + 2.0) / (K + 1.0)) * ratio
        if gamma >= 1.0:
            raise ValueError(_DECAY_ERR)
        first = A * math.sqrt(K + 1.0) * ratio**K
    return first / (1.0 - gamma)


def _c1_series(dm: DesignMatrix, weight, d, x: float, K: int, kind: tuple, pref: float) -> SeriesBound:
    """pref sum_{k<=K} weight(k) d[k] x^(k-1) w_k plus the certified tail.

    Every weight satisfies weight(k) <= k sqrt(k) weight(1) (k sqrt(L + k
    lambda_p) <= k sqrt(k) sqrt(L + lambda_p) for L >= 0), so the tail
    amplitude is pref weight(1) sup_k w_k.  A series whose last two nonzero
    computed terms are not decaying is refused (a finite series needs no
    decay).
    """
    w = _wk(dm, K)
    T = np.zeros(K + 1)
    for k in range(1, K + 1):
        T[k] = weight(k) * d[k] * x ** (k - 1) * w[k]
    nz = np.nonzero(T)[0]
    if kind[0] != "finite" and nz.size >= 2 and T[nz[-1]] >= T[nz[-2]]:
        raise ValueError(_DECAY_ERR)
    partial = pref * float(T.sum())
    tail = _tail(kind, pref * weight(1) * dm.max_norm(math.inf), x, K)
    return SeriesBound(partial + tail, partial, tail, K)


# ----------------------------------------------------------------------------
# exponential linear model constants
# ----------------------------------------------------------------------------


def c1_glm(X, sigma: float, q: float) -> float:
    """c1 = sigma sqrt(ln(p/q) / (2n)) max_j ||V_j||_2."""
    dm = _as_design(X)
    _check_q(q)
    if sigma <= 0:
        raise ValueError("sigma must be positive")
    return sigma * math.sqrt(math.log(dm.p / q) / (2.0 * dm.n)) * dm.max_norm(2)


def c2_glm(X, delta: float) -> float:
    """c2 = nu delta (1 + mu) min_j ||V_j||_2^2 / (2n), nu = ``design._NU``."""
    dm = _as_design(X)
    if delta <= 0:
        raise ValueError("curvature floor must be positive")
    mu = coherence(dm)
    return _NU * delta * (1.0 + mu) * dm.min_norm(2) ** 2 / (2.0 * dm.n)


def c2_lse(X, dmin: float) -> float:
    """c2 = d(f, I)^2 nu (1 + mu) min_j ||V_j||_2^2 / n, nu = ``design._NU``."""
    dm = _as_design(X)
    if not dmin > 0:
        raise ValueError("non-identifiable link on I")
    mu = coherence(dm)
    return dmin**2 * _NU * (1.0 + mu) * dm.min_norm(2) ** 2 / dm.n


# ----------------------------------------------------------------------------
# series constants for analytic least squares
# ----------------------------------------------------------------------------


def c1_one_disc(X, f: AnalyticFn, sigma: float, q: float, theta: float, K: int = 60) -> SeriesBound:
    """Single-disc series at center 0, domain scaled to theta * radius:

    c1 = sigma sqrt(2 lambda_p) sum_k sqrt(k) |f^(k)(0)|/(k-1)!
         (theta rho)^(k-1) n^{-1/(2k)} max_j ||V_j||_{2k}.

    Entire nonlinear links are refused (the disc radius is infinite, so the
    series has no finite domain scale); polynomials of degree <= 1 collapse
    to the k = 1 term exactly.
    """
    dm = _as_design(X)
    _check_q(q)
    if not 0.0 < theta < 1.0:
        raise ValueError("theta must lie in (0, 1)")
    lam = lambda_p(dm.p, q)
    pref = sigma * math.sqrt(2.0 * lam)
    rho = f.radius_at(0.0)
    kind = f.tail(0.0)
    # |f^(k)(0)|/(k-1)! = k |a_k(0)|
    d = [0.0] + f.abs_coeff_table(K, [0.0])[:, 0].tolist()
    if math.isinf(rho):
        if kind[0] == "finite" and kind[1] <= 1:
            v = pref * d[1] * _wk(dm, 1)[1]
            return SeriesBound(v, v, 0.0, 1)
        raise ValueError(
            "series diverges: infinite radius with a nonlinear link; "
            "use the envelope form on a bounded region"
        )
    return _c1_series(dm, lambda k: math.sqrt(k) * k, d, theta * rho, K, kind, pref)


def c1_multi_disc(X, G: CoveringGrid, sigma: float, q: float, K: int = 60) -> SeriesBound:
    """Covering-grid series: discs of size b(G) = inf b at every grid point,

    c1 = sqrt(2) sigma sum_k k sqrt(ln|G| + k lambda_p) A_k(G) b^(k-1)
         n^{-1/(2k)} max_j ||V_j||_{2k}.
    """
    dm = _as_design(X)
    _check_q(q)
    lam = lambda_p(dm.p, q)
    lg = math.log(len(G))
    return _c1_series(
        dm, lambda k: k * math.sqrt(lg + k * lam), G.A_sup(K), G.b_inf, K,
        G.f.tail(G.t_signed_max()), math.sqrt(2.0) * sigma,
    )


def c1_ub(
    X,
    envelope: CoefficientEnvelope,
    sigma: float,
    q: float,
    h: float,
    delta_D: float,
    rho1: float,
) -> SeriesBound:
    """Envelope series with the cover cardinality folded into the log factor:

    c1 = sqrt(2) sigma sum_k k sqrt(h ln(p Q) + k lambda_p) d_k rho1^(k-1)
         n^{-1/(2k)} max_j ||V_j||_{2k},

    summed over the envelope's K orders, where Q = 2 delta_D / rho1 + 1 for
    a strip envelope (d_k over the real line) and Q = 4 delta_D / rho1 + 1
    for an interval envelope.  delta_D is the hull radius of the domain and
    h the support size of hull points.
    """
    dm = _as_design(X)
    _check_q(q)
    if envelope.tail is None:
        raise ValueError("certified tail unavailable for custom envelopes")
    if not rho1 > 0:
        raise ValueError("rho1 must be positive")
    if delta_D < 0:
        raise ValueError("delta_D must be nonnegative")
    if h < 1:
        raise ValueError("h must be >= 1")
    if rho1 >= envelope.rho0:
        raise ValueError("rho1 must stay below the envelope radius floor")
    if envelope.contour_radius is not None and rho1 >= envelope.contour_radius:
        raise ValueError("rho1 exceeds the envelope contour radius")
    lam = lambda_p(dm.p, q)
    Q = (2.0 if envelope.mode == "strip" else 4.0) * delta_D / rho1 + 1.0
    L = h * math.log(dm.p * Q)
    return _c1_series(
        dm, lambda k: k * math.sqrt(L + k * lam), envelope.dk, rho1, envelope.K,
        envelope.tail, math.sqrt(2.0) * sigma,
    )


# ----------------------------------------------------------------------------
# assembled reports
# ----------------------------------------------------------------------------


@dataclass(frozen=True)
class BoundsReport:
    """All constants of one guarantee: c1, c2, the penalty c_r = 3 c1^2/c2,
    the radius factor kappa_r = 3 c1/c2, and the inputs they came from."""

    theorem: str
    c1: float
    c2: float
    c_r: float
    kappa_r: float
    lambda_p: float
    K: int
    c1_tail: float
    inputs: dict = field(default_factory=dict)

    def error_radius(self, spt_size: int, n: int) -> float:
        return error_radius(self.kappa_r, spt_size, n)

    def to_json(self) -> str:
        out = {
            "theorem": self.theorem,
            "c1": self.c1,
            "c2": self.c2,
            "c_r": self.c_r,
            "kappa_r": self.kappa_r,
            "lambda_p": self.lambda_p,
            "K": self.K,
            "c1_tail": self.c1_tail,
            "inputs": {
                k: (v if not isinstance(v, float) or math.isfinite(v) else str(v))
                for k, v in self.inputs.items()
            },
        }
        return json.dumps(out, indent=2)


def error_radius(kappa_r: float, spt_size: int, n: int) -> float:
    """Guaranteed radius kappa_r sqrt(|spt(beta)| / n)."""
    if spt_size < 0 or n < 1:
        raise ValueError("need spt_size >= 0 and n >= 1")
    return kappa_r * math.sqrt(spt_size / n)


def _assemble(theorem, c1v, c2v, dm, q, K, tail, inputs) -> BoundsReport:
    c_r = 3.0 * c1v**2 / c2v
    kappa = 3.0 * c1v / c2v
    return BoundsReport(
        theorem=theorem,
        c1=c1v,
        c2=c2v,
        c_r=c_r,
        kappa_r=kappa,
        lambda_p=lambda_p(dm.p, q),
        K=K,
        c1_tail=tail,
        inputs=inputs,
    )


def glm_report(X, family: ExpFamily, I: Interval, sigma: float, q: float) -> BoundsReport:
    """Constants for penalized MLE in an exponential linear family on I."""
    dm = _as_design(X)
    delta = curvature_inf(family, I)
    c1v = c1_glm(dm, sigma, q)
    c2v = c2_glm(dm, delta)
    return _assemble(
        "glm", c1v, c2v, dm, q, 0, 0.0,
        {
            "n": dm.n, "p": dm.p, "sigma": sigma, "q": q, "nu": _NU,
            "delta": delta, "mu": coherence(dm), "family": family.tag,
            "interval": [I.lo, I.hi],
        },
    )


def _lse_report(theorem, s: SeriesBound, dm, f: AnalyticFn, I: Interval, sigma, q, extra) -> BoundsReport:
    """Least-squares report: c1 from the series s, c2 from the slope floor
    of f on I; ``extra`` holds the theorem's own inputs."""
    dmin = min_slope(f, I)
    c2v = c2_lse(dm, dmin)
    return _assemble(
        theorem, s.value, c2v, dm, q, s.K, s.tail,
        {
            "n": dm.n, "p": dm.p, "sigma": sigma, "q": q, "nu": _NU, **extra,
            "dmin": dmin, "mu": coherence(dm), "link": f.tag, "interval": [I.lo, I.hi],
        },
    )


def one_disc_report(
    X, f: AnalyticFn, I: Interval, sigma: float, q: float, theta: float, K: int = 60,
) -> BoundsReport:
    """Least-squares constants from the single-disc series at the origin."""
    dm = _as_design(X)
    s = c1_one_disc(dm, f, sigma, q, theta, K=K)
    return _lse_report("one_disc", s, dm, f, I, sigma, q, {"theta": theta})


def multi_disc_report(
    X, G: CoveringGrid, I: Interval, sigma: float, q: float, K: int = 60,
) -> BoundsReport:
    """Least-squares constants from the covering-grid series."""
    dm = _as_design(X)
    s = c1_multi_disc(dm, G, sigma, q, K=K)
    return _lse_report(
        "multi_disc", s, dm, G.f, I, sigma, q, {"grid_size": len(G), "b_inf": G.b_inf}
    )


def ub_report(
    X, f: AnalyticFn, I: Interval, sigma: float, q: float,
    rho1: float, theta: float, h: float | None = None,
    delta_D: float | None = None, mode: str = "strip", K: int = 60,
) -> BoundsReport:
    """Least-squares constants from the explicit-envelope series.

    Defaults follow the channel analysis: the cover support size h is half
    the coherence capacity (at least 1), the hull radius delta_D falls back
    to the interval half-width, and strip envelopes use contour half-width
    rho1/theta.
    """
    dm = _as_design(X)
    if h is None:
        cap = capacity(dm)
        h = max(1.0, cap / 2.0) if math.isfinite(cap) else 1.0
    if delta_D is None:
        if not I.bounded:
            raise ValueError("delta_D required for unbounded intervals")
        delta_D = I.sup_abs
    if mode == "strip":
        env = coefficient_envelope(f, "strip", None, K=K, contour_radius=rho1 / theta)
    else:
        env = coefficient_envelope(f, mode, I, K=K)
    s = c1_ub(dm, env, sigma, q, h, delta_D, rho1)
    return _lse_report(
        f"ub_{mode}", s, dm, f, I, sigma, q,
        {"rho1": rho1, "theta": theta, "h": h, "delta_D": delta_D},
    )
