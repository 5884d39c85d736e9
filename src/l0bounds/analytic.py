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
    "CoefficientEnvelope",
    "coefficient_envelope",
]

# points of I in the polynomial slope floor and in interval envelopes
_GRID = 2001

# refusal of a series whose terms are not yet decaying at its last order K;
# it names K and the disc size x, which decide it (multi_disc_report's
# series has no theta at all)
_DECAY_ERR = "series terms not decaying by k = {K} at disc size x = {x:.6g}"

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
    -|t|; the k-th row is a_k(t) up to the sign (-1)^(k+1) where t > 0.

    The convolution is summed in order with ``np.cumsum``: ``np.sum`` adds
    pairwise along one contiguous axis, so a lone center would round
    differently from the same center among many."""
    t = np.asarray(ts, dtype=float)
    a = np.empty((K + 1,) + t.shape)
    a[0] = _logistic(-np.abs(t))  # the small root: a_0 - a_0^2 does not cancel
    for m in range(K):
        a[m + 1] = (a[m] - np.cumsum(a[: m + 1] * a[m::-1], axis=0)[-1]) / (m + 1)
    return a


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
    degree : int or float
        The polynomial degree (coefficients vanish above it); ``math.inf``
        for every other kind.

    Notes
    -----
    ``coeff_k(k, t)`` returns a_k(t) = f^(k)(t)/k!, the numerically stable
    surface: raw derivatives overflow float64 once k! does (k > 170).

    Links are built through the constructors in ``LINKS``, never from this
    base class directly.  Everything a link knows is a method of its kind,
    and each kind has one coefficient method: ``coeff_table(K, ts)``, the
    signed a_1..a_K at the centers ts as a (K, m) array, which ``coeff_k``,
    ``coeff_abs_batch``, ``abs_coeff_table`` and every consumer read.  Each
    kind also defines

    - ``_eval``: f on an array;
    - ``radius_at``: the convergence radius of the Taylor series at a real
      center, non-decreasing in |t|;
    - ``deriv1``: f' at grid points;
    - ``slope_floor(I)``: a certified lower bound on the secant-slope floor
      d(f, I) = inf_{x != y in I} |f(x) - f(y)| / |x - y|, which equals
      inf_I |f'| for continuously differentiable f (mean value theorem);
      0.0 for a link that is not identifiable on I (the estimation
      constants reject that downstream);
    - ``series_tail(amp, x, K, t_hi)``: a certified bound on the terms
      amp k sqrt(k) d_k x^(k-1), k > K, of a c1 series, where d_k bounds
      |a_k| at every center up to t_hi (amp carries the prefactor, sup_k
      w_k and the order weight at k = 1; the series constants in
      ``bounds`` sum the first K terms);

    and overrides ``strip_dk`` and ``interval_dk`` where it has closed forms.
    """

    degree = math.inf

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
        return float(self.coeff_table(int(k), [float(t)])[-1, 0])

    def coeff_abs_batch(self, k: int, ts) -> np.ndarray:
        """|a_k| at many centers."""
        if k == 0:
            return np.abs(self._eval(np.asarray(ts, dtype=float).ravel()))
        return self.abs_coeff_table(int(k), ts)[-1]

    # -- per-link facts shared by every link kind ---------------------------

    def abs_coeff_table(self, K: int, ts) -> np.ndarray:
        """(K, m) array whose row k-1 holds |a_k| at the m centers ts."""
        return np.abs(self.coeff_table(K, np.asarray(ts, dtype=float).ravel()))

    def radius_floor(self, I: Interval | None = None) -> float:
        """inf of the radius over I (the real line when I is None): the radius
        at the point of I nearest 0, as every kind's radius is non-decreasing
        in |t|."""
        if I is None or I.lo <= 0.0 <= I.hi:
            return self.radius_at(0.0)
        return self.radius_at(min(abs(I.lo), abs(I.hi)))

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

    @property
    def degree(self):
        return self.params["degree"]

    def _eval(self, t):
        return np.polynomial.polynomial.polyval(t, self.params["coeffs"])

    def coeff_table(self, K, ts):
        # a_k(t) = sum_m c_m C(m, k) t^(m-k), summed in Python floats with
        # libm pow (numpy.power can differ from it in the last bit)
        c, deg = self.params["coeffs"], self.degree
        ts = np.asarray(ts, dtype=float).tolist()
        out = np.zeros((K, len(ts)))
        for k in range(1, min(K, deg) + 1):
            terms = [(c[m] * math.comb(m, k), m - k) for m in range(k, deg + 1)]
            out[k - 1] = [sum(b * t**e for b, e in terms) for t in ts]
        return out

    def radius_at(self, t):
        return math.inf

    def deriv1(self, xs):
        c = self.params["coeffs"]
        dc = c[1:] * np.arange(1, c.size)
        return np.polynomial.polynomial.polyval(xs, dc) if dc.size else np.zeros_like(xs)

    def slope_floor(self, I):
        """|c_1| for degree <= 1, linear links included.  Otherwise the
        certified grid bound over ``_GRID`` points of a bounded I: within
        r = h/2 of a grid point g, |f'| >= |f'(g)| - r sup |f''|, and the
        finite expansion at g bounds that sup by sum_j j(j-1) |a_j(g)| r^(j-2)."""
        c, deg = self.params["coeffs"], self.degree
        if deg <= 1:
            return float(abs(c[1])) if c.size > 1 else 0.0
        if not I.bounded:
            raise ValueError("slope floor needs a bounded interval for grid search")
        xs = I.grid(_GRID)
        r = 0.5 * (xs[1] - xs[0])
        a = self.coeff_table(deg, xs)
        j = np.arange(2, deg + 1)[:, None]
        curv = np.max(np.sum(j * (j - 1) * np.abs(a[1:]) * r ** (j - 2), axis=0))
        return max(0.0, float(np.min(np.abs(a[0])) - r * curv))

    def series_tail(self, amp, x, K, t_hi):
        # d_k = 0 past the degree: no terms are left
        if K < self.degree:
            raise ValueError("increase K beyond the polynomial degree")
        return 0.0

    def strip_dk(self, K, c):
        if self.degree > 1:
            return super().strip_dk(K, c)
        dk = np.zeros(K)
        dk[0] = self.slope_floor(None)
        return dk


class _Exp(AnalyticFn):
    """Entire; a_k(t) = e^t / k! is largest at the right end of an interval."""

    def _eval(self, t):
        return np.exp(t)

    def coeff_table(self, K, ts):
        # libm exp per center (numpy's SIMD exp can differ in the last bit),
        # then e^t / k!, or e^t e^-lgamma(k+1) once k! overflows
        e = np.array([math.exp(t) for t in np.asarray(ts, dtype=float).tolist()])
        out = np.empty((K, e.size))
        for k in range(1, K + 1):
            out[k - 1] = e / float(math.factorial(k)) if k <= 170 else e * math.exp(-math.lgamma(k + 1))
        return out

    def radius_at(self, t):
        return math.inf

    def deriv1(self, xs):
        return np.exp(xs)

    def slope_floor(self, I):
        """e^(inf I): f' = e^t increases, so the floor sits at the left end."""
        return math.exp(I.lo)

    def series_tail(self, amp, x, K, t_hi):
        """d_k <= e^t_hi / k!, so the term ratio is at most gamma =
        sqrt(2) x/(K+1) < 1, and the first omitted term over 1 - gamma
        bounds the tail."""
        A = amp * math.exp(t_hi)
        if A == 0.0:
            return 0.0
        gamma = math.sqrt(2.0) * x / (K + 1.0)
        if gamma >= 1.0:
            raise ValueError("increase K: factorial tail not yet decaying")
        first = A * math.sqrt(K + 1.0) * x**K / math.factorial(K)
        return first / (1.0 - gamma)

    def interval_dk(self, K, I):
        ks = np.arange(1, K + 1)
        with np.errstate(over="raise"):  # past sup I ~ 709.78: FloatingPointError
            return np.exp(I.hi - np.cumsum(np.log(ks)))


class _LogisticFlip(AnalyticFn):
    """p01 + delta s(t): poles at t +- (2m+1) pi i, slope decreasing in |t|."""

    def _eval(self, t):
        return self.params["p01"] + self.params["delta"] * _logistic(t)

    def coeff_table(self, K, ts):
        t = np.asarray(ts, dtype=float)
        a = _sig_coeff_table(K, t)[1:]
        a[1::2] *= np.where(t > 0, -1.0, 1.0)  # a_k(t) = (-1)^(k+1) a_k(-t)
        return self.params["delta"] * a

    def radius_at(self, t):
        return math.hypot(float(t), math.pi)

    def deriv1(self, xs):
        return self.params["delta"] * _logistic_slope(xs)

    def slope_floor(self, I):
        """delta (2 cosh(M/2))^-2 at M = sup_I |t|: the slope decreases in |t|."""
        return self.params["delta"] * _logistic_slope_floor(I.sup_abs)

    def series_tail(self, amp, x, K, t_hi):
        """d_k <= delta/(4 cos^2(c/2)) / (k c^(k-1)) at every real center for
        any contour half-width c < pi (the poles sit at +-(pi)i); at
        c = (x + pi)/2 the term ratio is at most gamma = sqrt((K+2)/(K+1)) x/c
        < 1, and the first omitted term over 1 - gamma bounds the tail."""
        if x >= math.pi:
            raise ValueError("certified tail unavailable: disc size >= pi for a logistic link")
        c = 0.5 * (x + math.pi)
        A = amp * (self.params["delta"] * strip_sup_logistic(c))
        if A == 0.0:
            return 0.0
        ratio = x / c
        gamma = math.sqrt((K + 2.0) / (K + 1.0)) * ratio
        if gamma >= 1.0:
            raise ValueError(_DECAY_ERR.format(K=K, x=x))
        first = A * math.sqrt(K + 1.0) * ratio**K
        return first / (1.0 - gamma)

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
# coefficient envelopes
# ----------------------------------------------------------------------------


@dataclass(frozen=True)
class CoefficientEnvelope:
    """Upper bounds d_k >= sup |a_k| over a strip (whole real line through a
    contour of half-width ``contour_radius``) or over an interval (grid max).

    The envelope carries its link ``f`` and ``t_hi``, the largest center it
    covers (sup I, or inf for a strip), so that the series constants close
    beyond the stored K orders with ``f.series_tail(amp, x, K, t_hi)``, a
    certified majorant valid for *all* orders.
    """

    mode: str
    K: int
    dk: np.ndarray
    rho0: float
    f: AnalyticFn
    t_hi: float
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
        envelopes take ``f.interval_dk``: the max of |a_k| over ``_GRID``
        points of ``region`` (an Interval), read from one coefficient
        table, or exp's closed form e^(sup I)/k!.  This is the recipe the
        downstream constants expect -- the grid max underestimates the
        true sup, so certified tails come from the closed forms instead.
        Both modes take rho0 from ``f.radius_floor``.
    region : Interval or None
        Required for interval mode.
    contour_radius : float
        Strip half-width c for strip mode (0 < c < rho0); entire links and
        interval mode ignore it.
    """
    if K < 1:
        raise ValueError("K must be >= 1")
    dk = np.zeros(K + 1)
    if mode == "strip":
        dk[1:] = f.strip_dk(K, contour_radius)
        rho0 = f.radius_floor(None)
        c = None if math.isinf(rho0) else float(contour_radius)
        return CoefficientEnvelope("strip", K, dk, rho0, f, math.inf, contour_radius=c)
    if mode != "interval":
        raise ValueError("mode must be 'strip' or 'interval'")
    I = region
    if not isinstance(I, Interval) or not I.bounded:
        raise ValueError("interval mode needs a bounded Interval region")
    dk[1:] = f.interval_dk(K, I)
    return CoefficientEnvelope("interval", K, dk, f.radius_floor(I), f, I.hi)
