"""Real-analytic link functions with certified Taylor-coefficient control.

Least-squares estimation with a nonlinear link f needs, beyond pointwise
evaluation, three analytic quantities: local Taylor coefficients
a_k(t) = f^(k)(t)/k!, the convergence radius as a function of the center,
and a secant-slope floor over an interval.  Coefficient *envelopes* (upper
bounds d_k on sup |a_k| over a strip or an interval) feed the series
constants; everything that enters an error bound is an overestimate, which
only loosens the bound.

The standard logistic s(t) = 1/(1 + e^-t) lives here, with its slope
s(t) s(-t) = e^-|t|/(1 + e^-|t|)^2 and the slope floor (2 cosh(M/2))^-2
over |t| <= M; the flip link, the Bernoulli family (``expfam``) and the
harness's noise draws all use these, and numpy alone computes them.

Taylor coefficients of the logistic s (and so of the logistic-type links)
come from the Taylor-mode recurrence of s' = s - s^2 (Griewank & Walther,
*Evaluating Derivatives*, Taylor arithmetic):

    (k+1) a_{k+1} = a_k - sum_{j<=k} a_j a_{k-j},    a_0 = s(t),

run in float64 over all centers at once.  It starts from the small root
a_0 = s(-|t|) <= 1/2, so a_1 = a_0 - a_0^2 does not cancel, and folds back
with a_k(t) = (-1)^(k+1) a_k(-t) (from s(t) = 1 - s(-t)).  float64 suffices
because the recurrence works on the coefficients themselves, never on the
raw derivatives or on the ~1e91-sized integer coefficients of the
derivative polynomials s^(k) = P_k(s).  Against 150-digit references the
worst pointwise relative error over k <= 320 at t in {0, 0.3, -1.3, 2,
+-40, +-60} is 4.6e-12 (t = 2, k = 132), counting every coefficient that
does not underflow the float64 normal range.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .domains import Interval

__all__ = [
    "AnalyticFn",
    "polynomial",
    "exp_fn",
    "linear",
    "logistic_flip",
    "LINKS",
    "strip_sup_logistic",
    "min_slope",
    "CoefficientEnvelope",
    "coefficient_envelope",
]

# points of I in the slope-floor grid search and in interval envelopes
_GRID = 2001

# ----------------------------------------------------------------------------
# the logistic s(t) = 1/(1 + e^-t) and its Taylor coefficients
# ----------------------------------------------------------------------------


def _logistic(t) -> np.ndarray:
    """s(t) = 1/(1 + e^-t), one ufunc chain; the exponent is capped at 709
    so np.exp never overflows (s(t) < 1e-307 there anyway)."""
    return 1.0 / (1.0 + np.exp(np.minimum(-np.asarray(t, dtype=float), 709.0)))


def _logistic_slope(t) -> np.ndarray:
    """s'(t) = s(t) s(-t) = e/(1 + e)^2 with e = e^-|t| <= 1: one exp that
    cannot overflow, no cancellation in either tail, within 3 ulp."""
    e = np.exp(-np.abs(np.asarray(t, dtype=float)))
    return e / (1.0 + e) ** 2


def _logistic_slope_floor(m: float) -> float:
    """inf of s' over |t| <= m, which is (2 cosh(m/2))^-2 (s' decreases in
    |t|); 0.0 once cosh overflows (m above about 1420) and at m = inf."""
    try:
        return (2.0 * math.cosh(m / 2.0)) ** -2
    except OverflowError:
        return 0.0


def _sig_coeff_table(K: int, ts) -> np.ndarray:
    """Rows a_0..a_K of the standard logistic's coefficients at the centers
    -|t|; the k-th row is a_k(t) up to the sign (-1)^(k+1) where t > 0."""
    t = np.asarray(ts, dtype=float)
    a = np.empty((K + 1,) + t.shape)
    a[0] = _logistic(-np.abs(t))  # the small root: a_0 - a_0^2 does not cancel
    for m in range(K):
        a[m + 1] = (a[m] - np.sum(a[: m + 1] * a[m::-1], axis=0)) / (m + 1)
    return a


def _sig_coeff_batch(k: int, ts) -> np.ndarray:
    """a_k(t) = s^(k)(t)/k! of the standard logistic s, for each center t."""
    if k < 1:
        raise ValueError("derivative order must be >= 1")
    t = np.asarray(ts, dtype=float)
    return np.where(t > 0, (-1.0) ** (k + 1), 1.0) * _sig_coeff_table(k, t)[k]


def strip_sup_logistic(y: float) -> float:
    """sup over the strip |Im z| <= y of |2 cosh(z/2)|^-2 = 1/(4 cos^2(y/2)).

    This is the derivative envelope of the logistic on a horizontal strip;
    it blows up as y -> pi (the nearest poles sit at +-(pi)i).
    """
    if not 0.0 <= y < math.pi:
        raise ValueError("strip half-width must lie in [0, pi)")
    return 1.0 / (4.0 * math.cos(y / 2.0) ** 2)


# ----------------------------------------------------------------------------
# analytic function objects
# ----------------------------------------------------------------------------


class AnalyticFn:
    """A real-analytic scalar function with Taylor-coefficient access.

    Attributes
    ----------
    tag : str
        Label of the link kind ("polynomial", "exp", "linear",
        "logistic_flip"), written into reports as ``"link"``; behaviour
        never branches on it.
    params : dict
        Constructor parameters (coefficients, channel probabilities, ...).

    Notes
    -----
    ``coeff_k(k, t)`` returns a_k(t) = f^(k)(t)/k! and is the numerically
    stable surface: raw derivatives overflow float64 once k! does (k > 170),
    so ``deriv_k`` is only finite where the product a_k * k! is.

    Links are built through the constructors in ``LINKS``, never from this
    base class directly.  Everything a link knows is a method of its kind:
    each kind defines ``_eval`` (f on an array), ``_coeff`` (a_k at one
    center, k >= 1), ``radius_at`` (convergence radius of the Taylor series
    at a real center), ``deriv1`` (f' at grid points),
    ``radius_floor`` and ``tail``, and overrides ``_coeff_batch`` (a_k at
    many centers), ``slope_floor``, ``abs_coeff_table``, ``strip_dk`` and
    ``interval_dk`` where it has vectorized or closed forms; the kinds whose
    slope floor needs ``min_slope``'s grid search also define
    ``deriv2_sup`` (max |f''| over grid points).
    """

    def __init__(self, tag: str, params: dict):
        self.tag = tag
        self.params = params

    def __call__(self, t):
        t = np.asarray(t, dtype=float)
        out = self._eval(t)
        return float(out) if np.ndim(out) == 0 else out

    def coeff_k(self, k: int, t: float = 0.0) -> float:
        """Taylor coefficient a_k(t) = f^(k)(t)/k!."""
        if k < 0:
            raise ValueError("coefficient order must be >= 0")
        if k == 0:
            return float(self._eval(np.asarray(float(t))))
        return float(self._coeff(int(k), float(t)))

    def coeff_abs_batch(self, k: int, ts) -> np.ndarray:
        """|a_k| at many centers (vectorized where the link allows)."""
        ts = np.asarray(ts, dtype=float).ravel()
        if k == 0:
            return np.abs(self._eval(ts))
        return np.abs(self._coeff_batch(int(k), ts))

    def _coeff_batch(self, k: int, ts: np.ndarray) -> np.ndarray:
        return np.array([self._coeff(k, float(t)) for t in ts])

    def deriv_k(self, k: int, t: float = 0.0) -> float:
        """Raw derivative f^(k)(t); +-inf once k! overflows the double range."""
        if k == 0:
            return self.coeff_k(0, t)
        a = self.coeff_k(k, t)
        try:
            return a * math.factorial(k)
        except OverflowError:
            return math.copysign(math.inf, a) if a else 0.0

    # -- per-link facts shared by every link kind ---------------------------

    def slope_floor(self, I: Interval) -> float | None:
        """Closed form of inf_I |f'|, or None when only a grid search gives it."""
        return None

    def abs_coeff_table(self, K: int, ts) -> np.ndarray:
        """(K, m) array whose row k-1 holds |a_k| at the m centers ts."""
        return np.stack([self.coeff_abs_batch(k, ts) for k in range(1, K + 1)])

    def strip_dk(self, K: int, c: float | None) -> np.ndarray:
        """d_1..d_K >= sup |a_k| over all real centers (contour half-width c)."""
        raise ValueError(
            "strip envelope unavailable: derivative unbounded on horizontal strips"
        )

    def interval_dk(self, K: int, I: Interval) -> np.ndarray:
        """d_1..d_K: the max of |a_k| over ``_GRID`` points of I."""
        return np.max(self.abs_coeff_table(K, I.grid(_GRID)), axis=1)


class _Polynomial(AnalyticFn):
    """Entire; coefficients vanish above the degree, and f' is constant for
    degree <= 1."""

    def _eval(self, t):
        return np.polynomial.polynomial.polyval(t, self.params["coeffs"])

    def _coeff(self, k, t):
        c, deg = self.params["coeffs"], self.params["degree"]
        if k > deg:
            return 0.0
        return float(
            sum(c[m] * math.comb(m, k) * t ** (m - k) for m in range(k, deg + 1))
        )

    def radius_at(self, t):
        return math.inf

    def deriv1(self, xs):
        c = self.params["coeffs"]
        dc = c[1:] * np.arange(1, c.size)
        return np.polynomial.polynomial.polyval(xs, dc) if dc.size else np.zeros_like(xs)

    def deriv2_sup(self, xs):
        c = self.params["coeffs"]
        if c.size < 3:
            return 0.0
        d2 = c[2:] * np.arange(2, c.size) * np.arange(1, c.size - 1)
        return float(np.max(np.abs(np.polynomial.polynomial.polyval(xs, d2))))

    def slope_floor(self, I):
        if self.params["degree"] > 1:
            return None
        c = self.params["coeffs"]
        return float(abs(c[1])) if c.size > 1 else 0.0

    def radius_floor(self, I=None):
        return math.inf

    def tail(self, t_hi):
        return ("finite", self.params["degree"])

    def abs_coeff_table(self, K, ts):
        out = np.zeros((K, np.size(ts)))
        deg = min(K, self.params["degree"])
        if deg:
            out[:deg] = super().abs_coeff_table(deg, ts)
        return out

    def strip_dk(self, K, c):
        if self.params["degree"] > 1:
            return super().strip_dk(K, c)
        dk = np.zeros(K)
        dk[0] = self.slope_floor(None)
        return dk


class _Exp(AnalyticFn):
    """Entire; a_k(t) = e^t / k! is largest at the right end of an interval."""

    def _eval(self, t):
        return np.exp(t)

    def _coeff(self, k, t):
        return math.exp(t) / math.factorial(k) if k <= 170 else math.exp(t) * math.exp(-math.lgamma(k + 1))

    def radius_at(self, t):
        return math.inf

    def deriv1(self, xs):
        return np.exp(xs)

    def deriv2_sup(self, xs):
        return float(np.exp(np.max(xs)))

    def radius_floor(self, I=None):
        return math.inf

    def tail(self, t_hi):
        return ("factorial", math.exp(t_hi))

    def interval_dk(self, K, I):
        ks = np.arange(1, K + 1)
        return np.exp(I.hi - np.cumsum(np.log(ks)))


class _LogisticFlip(AnalyticFn):
    """p01 + delta s(t): poles at t +- (2m+1) pi i, slope decreasing in |t|."""

    def _eval(self, t):
        return self.params["p01"] + self.params["delta"] * _logistic(t)

    def _coeff(self, k, t):
        return self.params["delta"] * _sig_coeff_batch(k, [t])[0]

    def _coeff_batch(self, k, ts):
        return self.params["delta"] * _sig_coeff_batch(k, ts)

    def radius_at(self, t):
        return math.hypot(float(t), math.pi)

    def deriv1(self, xs):
        return self.params["delta"] * _logistic_slope(xs)

    def slope_floor(self, I):
        return self.params["delta"] * _logistic_slope_floor(I.sup_abs)

    def radius_floor(self, I=None):
        if I is None:
            return math.pi
        m = min(abs(I.lo), abs(I.hi)) if I.lo * I.hi > 0 else 0.0
        return math.hypot(m, math.pi)

    def tail(self, t_hi):
        return ("logistic", self.params["delta"])

    def abs_coeff_table(self, K, ts):
        # |a_k| is even in the center, which the table's rows at -|t| use
        return np.abs(self.params["delta"] * _sig_coeff_table(K, ts)[1:])

    def strip_dk(self, K, c):
        if c is None:
            raise ValueError("strip mode needs a contour_radius")
        c = float(c)
        if not 0.0 < c < math.pi:
            raise ValueError("contour_radius must lie in (0, pi)")
        M = self.params["delta"] * strip_sup_logistic(c)
        ks = np.arange(1, K + 1, dtype=float)
        return M / (ks * c ** (ks - 1.0))


def polynomial(coeffs) -> AnalyticFn:
    """f(t) = sum_m coeffs[m] t^m (entire, radius infinity everywhere)."""
    c = np.asarray(coeffs, dtype=float).ravel()
    if c.size == 0:
        raise ValueError("polynomial needs at least one coefficient")
    deg = int(np.max(np.nonzero(c)[0])) if np.any(c) else 0
    return _Polynomial("polynomial", {"coeffs": c, "degree": deg})


def linear(a: float, b: float = 0.0) -> AnalyticFn:
    """f(t) = a t + b: the polynomial with coefficients [b, a], labelled
    "linear"."""
    f = polynomial([b, a])
    f.tag = "linear"
    return f


def exp_fn() -> AnalyticFn:
    """f(t) = e^t."""
    return _Exp("exp", {})


def logistic_flip(p01: float, p11: float) -> AnalyticFn:
    """Success curve of a flipped binary channel: f(t) = p01 + (p11-p01) s(t).

    s is the standard logistic.  Poles of the continuation sit at the odd
    multiples of pi on the imaginary axis shifted by the center, so the
    radius at real t is sqrt(t^2 + pi^2) and never drops below pi.
    """
    p01, p11 = float(p01), float(p11)
    for name, v in (("p01", p01), ("p11", p11)):
        if not 0.0 <= v <= 1.0:
            raise ValueError(f"{name} must lie in [0, 1]")
    if p11 <= p01:
        raise ValueError("p11 must exceed p01 (monotone channel)")
    return _LogisticFlip("logistic_flip", {"p01": p01, "p11": p11, "delta": p11 - p01})


LINKS = {"logistic_flip": logistic_flip, "linear": linear, "polynomial": polynomial, "exp": exp_fn}


# ----------------------------------------------------------------------------
# slope floor and coefficient envelopes
# ----------------------------------------------------------------------------


def min_slope(f: AnalyticFn, I: Interval) -> float:
    """Certified lower bound on the secant-slope floor
    d(f, I) = inf_{x != y in I} |f(x) - f(y)| / |x - y|.

    For continuously differentiable f this infimum equals inf_I |f'| (mean
    value theorem; nearby pairs approach the derivative minimum).  The bound
    scans the difference quotients of all pairs of ``_GRID`` points of I and
    the derivative at those points, then subtracts the Lipschitz correction
    (h/2) sup |f''| for the grid spacing h.  Where the floor has a closed
    form (logistic-type links: slope decreasing in |t|, so
    delta * (2 cosh(M/2))^-2 at M = sup_I |t|; polynomials of degree <= 1,
    linear links included: |c_1|) the exact value is returned, on unbounded
    intervals too.

    Returns 0.0 for non-identifiable links (the estimation constants reject
    that downstream).
    """
    floor = f.slope_floor(I)
    if floor is not None:
        return floor
    if not I.bounded:
        raise ValueError("min_slope needs a bounded interval for grid search")
    xs = I.grid(_GRID)
    vals = np.asarray(f(xs), dtype=float)
    h = xs[1] - xs[0]
    best = math.inf
    block = 256
    for i0 in range(0, _GRID, block):
        dv = vals[i0 : i0 + block, None] - vals[None, :]
        dx = xs[i0 : i0 + block, None] - xs[None, :]
        m = np.abs(dx) > 0
        if np.any(m):
            best = min(best, float(np.min(np.abs(dv[m]) / np.abs(dx[m]))))
    best = min(best, float(np.min(np.abs(f.deriv1(xs)))))
    corr = 0.5 * h * f.deriv2_sup(xs)
    return max(0.0, best - corr)


@dataclass(frozen=True)
class CoefficientEnvelope:
    """Upper bounds d_k >= sup |a_k| over a strip (whole real line through a
    contour of half-width ``contour_radius``) or over an interval (grid max).

    ``tail`` describes a certified majorant valid for *all* orders, used to
    close the series bounds beyond the stored K terms:

    - ("finite", deg): d_k = 0 for k > deg;
    - ("factorial", A): d_k <= A / k!;
    - ("logistic", delta): d_k <= delta/(4 cos^2(c/2)) / (k c^(k-1)) for any
      contour half-width c < pi, chosen by the consumer.

    Every link in ``LINKS`` has one of these; an envelope built by hand
    with ``tail=None`` carries no certificate, and ``c1_ub`` refuses it.
    """

    mode: str
    K: int
    dk: np.ndarray
    rho0: float
    tail: tuple | None
    tag: str
    contour_radius: float | None = None


def coefficient_envelope(
    f: AnalyticFn,
    mode: str,
    region,
    K: int = 60,
    contour_radius: float | None = None,
) -> CoefficientEnvelope:
    """Build a coefficient envelope.

    Parameters
    ----------
    mode : "strip" or "interval"
        Strip envelopes bound sup over all real centers via a Cauchy contour
        (available only when f' is bounded on horizontal strips); interval
        envelopes maximize |a_k| over ``_GRID`` points of ``region`` (an
        Interval), which is the recipe the downstream constants expect --
        the grid max underestimates the true sup, so certified tails come
        from the closed forms instead.
    region : Interval or None
        Required for interval mode.
    contour_radius : float
        Strip half-width c for strip mode (0 < c < rho0); entire links
        ignore it.
    """
    if K < 1:
        raise ValueError("K must be >= 1")
    dk = np.zeros(K + 1)
    if mode == "strip":
        dk[1:] = f.strip_dk(K, contour_radius)
        rho0 = f.radius_floor(None)
        c = None if math.isinf(rho0) else float(contour_radius)
        return CoefficientEnvelope(
            "strip", K, dk, rho0, f.tail(math.inf), f.tag, contour_radius=c
        )
    if mode != "interval":
        raise ValueError("mode must be 'strip' or 'interval'")
    I = region
    if not isinstance(I, Interval) or not I.bounded:
        raise ValueError("interval mode needs a bounded Interval region")
    dk[1:] = f.interval_dk(K, I)
    return CoefficientEnvelope("interval", K, dk, f.radius_floor(I), f.tail(I.hi), f.tag)
