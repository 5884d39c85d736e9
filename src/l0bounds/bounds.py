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
from .design import DesignMatrix, _as_design, capacity, coherence, series_norms
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


def _w_inf(dm: DesignMatrix) -> float:
    return dm.max_norm(math.inf)


def _sqrt_geom_tail(A: float, ratio: float, K: int) -> float:
    """Certified bound on sum_{k > K} A sqrt(k) ratio^(k-1).

    Consecutive terms grow by at most gamma = sqrt((K+2)/(K+1)) * ratio, so
    the tail is dominated by the first term times a geometric series.
    """
    if A == 0.0:
        return 0.0
    gamma = math.sqrt((K + 2.0) / (K + 1.0)) * ratio
    if gamma >= 1.0:
        raise ValueError(_DECAY_ERR)
    return A * math.sqrt(K + 1.0) * ratio**K / (1.0 - gamma)


def _factorial_tail(A: float, base: float, K: int) -> float:
    """Certified bound on sum_{k > K} A sqrt(k) base^(k-1) / (k-1)!.

    Term ratio is sqrt((k+1)/k) base / k <= sqrt(2) base / (K+1) =: gamma.
    """
    if A == 0.0:
        return 0.0
    gamma = math.sqrt(2.0) * base / (K + 1.0)
    if gamma >= 1.0:
        raise ValueError("increase K: factorial tail not yet decaying")
    first = A * math.sqrt(K + 1.0) * base**K / math.factorial(K)
    return first / (1.0 - gamma)


def _check_decay(T: np.ndarray):
    """Refuse a series whose last two nonzero computed terms are not decaying."""
    nz = np.nonzero(T)[0]
    if nz.size >= 2 and T[nz[-1]] >= T[nz[-2]]:
        raise ValueError(_DECAY_ERR)


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


def c2_glm(X, nu: float, delta: float) -> float:
    """c2 = nu delta (1 + mu) min_j ||V_j||_2^2 / (2n)."""
    dm = _as_design(X)
    if delta <= 0:
        raise ValueError("curvature floor must be positive")
    if not 0.0 < nu <= 1.0:
        raise ValueError("nu must lie in (0, 1]")
    mu = coherence(dm)
    return nu * delta * (1.0 + mu) * dm.min_norm(2) ** 2 / (2.0 * dm.n)


def c2_lse(X, nu: float, dmin: float) -> float:
    """c2 = d(f, I)^2 nu (1 + mu) min_j ||V_j||_2^2 / n."""
    dm = _as_design(X)
    if not dmin > 0:
        raise ValueError("non-identifiable link on I")
    if not 0.0 < nu <= 1.0:
        raise ValueError("nu must lie in (0, 1]")
    mu = coherence(dm)
    return dmin**2 * nu * (1.0 + mu) * dm.min_norm(2) ** 2 / dm.n


# ----------------------------------------------------------------------------
# series constants for analytic least squares
# ----------------------------------------------------------------------------


def c1_one_disc(X, f: AnalyticFn, sigma: float, q: float, theta: float, K: int = 60) -> SeriesBound:
    """Single-disc series at center 0, domain scaled to theta * radius:

    c1 = sigma sqrt(2 lambda_p) sum_k sqrt(k) |f^(k)(0)|/(k-1)!
         (theta rho)^(k-1) n^{-1/(2k)} max_j ||V_j||_{2k}.

    Entire nonlinear links are refused (the disc radius is infinite, so the
    series has no finite domain scale); linear links collapse to the k = 1
    term exactly.
    """
    dm = _as_design(X)
    _check_q(q)
    if not 0.0 < theta < 1.0:
        raise ValueError("theta must lie in (0, 1)")
    lam = lambda_p(dm.p, q)
    pref = sigma * math.sqrt(2.0 * lam)
    rho = f.radius_at(0.0)
    if math.isinf(rho):
        deg = f.params.get("degree", 1 if f.tag == "linear" else None)
        if f.tag == "linear" or (f.tag == "polynomial" and deg <= 1):
            v = pref * abs(f.coeff_k(1, 0.0)) * _wk(dm, 1)[1]
            return SeriesBound(v, v, 0.0, 1)
        raise ValueError(
            "series diverges: infinite radius with a nonlinear link; "
            "use the envelope form on a bounded region"
        )
    x = theta * rho
    w = _wk(dm, max(K, f.params["degree"]) if f.tag == "polynomial" else K)
    T = np.zeros(K + 1)
    for k in range(1, K + 1):
        # |f^(k)(0)|/(k-1)! = k |a_k(0)|
        T[k] = math.sqrt(k) * k * abs(f.coeff_k(k, 0.0)) * x ** (k - 1) * w[k]
    if f.tag not in ("polynomial", "linear"):  # finite series need no decay
        _check_decay(T)
    partial = pref * float(T.sum())
    if f.tag == "logistic_flip":
        c = 0.5 * (x + rho)  # strictly inside the disc of analyticity
        M = f.params["delta"] * strip_sup_logistic(c)
        tail = _sqrt_geom_tail(pref * M * _w_inf(dm), x / c, K)
    elif f.tag == "polynomial":
        deg = f.params["degree"]
        tail = pref * sum(
            math.sqrt(k) * k * abs(f.coeff_k(k, 0.0)) * x ** (k - 1) * w[k]
            for k in range(K + 1, deg + 1)
        )
    else:
        raise ValueError("certified tail unavailable for custom links")
    return SeriesBound(partial + tail, partial, tail, K)


def c1_multi_disc(X, G: CoveringGrid, sigma: float, q: float, K: int = 60) -> SeriesBound:
    """Covering-grid series: discs of size b(G) = inf b at every grid point,

    c1 = sqrt(2) sigma sum_k k sqrt(ln|G| + k lambda_p) A_k(G) b^(k-1)
         n^{-1/(2k)} max_j ||V_j||_{2k}.
    """
    dm = _as_design(X)
    _check_q(q)
    lam = lambda_p(dm.p, q)
    lg = math.log(len(G))
    b = G.b_inf
    w = _wk(dm, max(K, G.f.params["degree"]) if G.f.tag == "polynomial" else K)
    T = np.zeros(K + 1)
    for k in range(1, K + 1):
        T[k] = k * math.sqrt(lg + k * lam) * G.A_sup(k) * b ** (k - 1) * w[k]
    if G.f.tag not in ("polynomial", "linear"):
        _check_decay(T)
    pref = math.sqrt(2.0) * sigma
    partial = pref * float(T.sum())
    tail_amp = pref * math.sqrt(lg + lam) * _w_inf(dm)
    tag = G.f.tag
    if tag == "logistic_flip":
        ceil = min(G.r_inf, math.pi)
        if b >= ceil:
            raise ValueError("grid b too large for a certified tail")
        c = 0.5 * (b + ceil)
        M = G.f.params["delta"] * strip_sup_logistic(c)
        tail = _sqrt_geom_tail(tail_amp * M, b / c, K)
    elif tag == "exp":
        tail = _factorial_tail(tail_amp * math.exp(G.t_signed_max()), b, K)
    elif tag == "polynomial":
        deg = G.f.params["degree"]
        tail = pref * sum(
            k * math.sqrt(lg + k * lam) * G.A_sup(k) * b ** (k - 1) * w[k]
            for k in range(K + 1, deg + 1)
        )
    elif tag == "linear":
        tail = 0.0
    else:
        raise ValueError("certified tail unavailable for custom links")
    return SeriesBound(partial + tail, partial, tail, K)


def c1_ub(
    X,
    envelope: CoefficientEnvelope,
    sigma: float,
    q: float,
    h: float,
    delta_D: float,
    rho1: float,
    mode: str = "strip",
    K: int = 60,
) -> SeriesBound:
    """Envelope series with the cover cardinality folded into the log factor:

    c1 = sqrt(2) sigma sum_k k sqrt(h ln(p Q) + k lambda_p) d_k rho1^(k-1)
         n^{-1/(2k)} max_j ||V_j||_{2k},

    where Q = 2 delta_D / rho1 + 1 (strip mode, d_k over the real line) or
    Q = 4 delta_D / rho1 + 1 (interval mode).  delta_D is the hull radius of
    the domain and h the support size of hull points.
    """
    dm = _as_design(X)
    _check_q(q)
    if mode not in ("strip", "interval"):
        raise ValueError("mode must be 'strip' or 'interval'")
    if envelope.mode != mode:
        raise ValueError("envelope mode does not match the requested mode")
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
    Q = (2.0 if mode == "strip" else 4.0) * delta_D / rho1 + 1.0
    L = h * math.log(dm.p * Q)
    K_use = min(K, envelope.K)
    if K_use < K and envelope.tail is not None and envelope.tail[0] != "finite":
        raise ValueError("envelope stores fewer orders than requested K")
    w = _wk(dm, K_use)
    T = np.zeros(K_use + 1)
    for k in range(1, K_use + 1):
        T[k] = k * math.sqrt(L + k * lam) * envelope.dk[k] * rho1 ** (k - 1) * w[k]
    if envelope.tail is None or envelope.tail[0] != "finite":
        _check_decay(T)
    pref = math.sqrt(2.0) * sigma
    partial = pref * float(T.sum())
    tail_amp = pref * math.sqrt(L + lam) * _w_inf(dm)
    tail_kind = envelope.tail
    if tail_kind is None:
        raise ValueError("certified tail unavailable for custom envelopes")
    kind = tail_kind[0]
    if kind == "finite":
        deg = tail_kind[1]
        if K_use < deg:
            raise ValueError("increase K beyond the polynomial degree")
        tail = 0.0
    elif kind == "factorial":
        tail = _factorial_tail(tail_amp * tail_kind[1], rho1, K_use)
    elif kind == "logistic":
        if rho1 >= math.pi:
            raise ValueError(
                "certified tail unavailable: rho1 >= pi for a logistic link"
            )
        c = 0.5 * (rho1 + math.pi)
        M = tail_kind[1] * strip_sup_logistic(c)
        tail = _sqrt_geom_tail(tail_amp * M, rho1 / c, K_use)
    else:  # pragma: no cover - defensive
        raise ValueError(f"unknown tail kind {kind!r}")
    return SeriesBound(partial + tail, partial, tail, K_use)


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


def glm_report(X, family: ExpFamily, I: Interval, sigma: float, q: float, nu: float) -> BoundsReport:
    """Constants for penalized MLE in an exponential linear family on I."""
    dm = _as_design(X)
    delta = curvature_inf(family, I)
    c1v = c1_glm(dm, sigma, q)
    c2v = c2_glm(dm, nu, delta)
    return _assemble(
        "glm", c1v, c2v, dm, q, 0, 0.0,
        {
            "n": dm.n, "p": dm.p, "sigma": sigma, "q": q, "nu": nu,
            "delta": delta, "mu": coherence(dm), "family": family.tag,
            "interval": [I.lo, I.hi],
        },
    )


def one_disc_report(
    X, f: AnalyticFn, I: Interval, sigma: float, q: float, nu: float,
    theta: float, K: int = 60,
) -> BoundsReport:
    """Least-squares constants from the single-disc series at the origin."""
    dm = _as_design(X)
    s = c1_one_disc(dm, f, sigma, q, theta, K=K)
    dmin = min_slope(f, I)
    c2v = c2_lse(dm, nu, dmin)
    return _assemble(
        "one_disc", s.value, c2v, dm, q, s.K, s.tail,
        {
            "n": dm.n, "p": dm.p, "sigma": sigma, "q": q, "nu": nu,
            "theta": theta, "dmin": dmin, "mu": coherence(dm), "link": f.tag,
            "interval": [I.lo, I.hi],
        },
    )


def multi_disc_report(
    X, G: CoveringGrid, I: Interval, sigma: float, q: float, nu: float, K: int = 60,
) -> BoundsReport:
    """Least-squares constants from the covering-grid series."""
    dm = _as_design(X)
    s = c1_multi_disc(dm, G, sigma, q, K=K)
    dmin = min_slope(G.f, I)
    c2v = c2_lse(dm, nu, dmin)
    return _assemble(
        "multi_disc", s.value, c2v, dm, q, s.K, s.tail,
        {
            "n": dm.n, "p": dm.p, "sigma": sigma, "q": q, "nu": nu,
            "grid_size": len(G), "b_inf": G.b_inf, "dmin": dmin,
            "mu": coherence(dm), "link": G.f.tag, "interval": [I.lo, I.hi],
        },
    )


def ub_report(
    X, f: AnalyticFn, I: Interval, sigma: float, q: float, nu: float,
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
        cap = capacity(dm, nu)
        h = max(1.0, cap / 2.0) if math.isfinite(cap) else 1.0
    if delta_D is None:
        if not I.bounded:
            raise ValueError("delta_D required for unbounded intervals")
        delta_D = I.sup_abs
    if mode == "strip":
        env = coefficient_envelope(f, "strip", None, K=K, contour_radius=rho1 / theta)
    else:
        env = coefficient_envelope(f, "interval", I, K=K)
    s = c1_ub(dm, env, sigma, q, h, delta_D, rho1, mode=mode, K=K)
    dmin = min_slope(f, I)
    c2v = c2_lse(dm, nu, dmin)
    return _assemble(
        f"ub_{mode}", s.value, c2v, dm, q, s.K, s.tail,
        {
            "n": dm.n, "p": dm.p, "sigma": sigma, "q": q, "nu": nu,
            "rho1": rho1, "theta": theta, "h": h, "delta_D": delta_D,
            "dmin": dmin, "mu": coherence(dm), "link": f.tag,
            "interval": [I.lo, I.hi],
        },
    )
