"""Real-analytic link functions with certified Taylor-coefficient control.

Least-squares estimation with a nonlinear link f needs, beyond pointwise
evaluation, three analytic quantities: local Taylor coefficients
a_k(t) = f^(k)(t)/k!, the convergence radius as a function of the center,
and a secant-slope floor over an interval.  Coefficient *envelopes* (upper
bounds d_k on sup |a_k| over a strip or an interval) feed the series
constants; everything that enters an error bound is an overestimate, which
only loosens the bound.

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
from scipy.special import expit

from .domains import Interval

__all__ = [
    "AnalyticFn",
    "polynomial",
    "exp_fn",
    "linear",
    "logistic_flip",
    "custom_fn",
    "strip_sup_logistic",
    "min_slope",
    "CoefficientEnvelope",
    "coefficient_envelope",
    "multi_radius",
    "taylor_eval",
]

# ----------------------------------------------------------------------------
# logistic Taylor coefficients: float64 Taylor-mode recurrence
# ----------------------------------------------------------------------------


def _sig_coeff_table(K: int, ts) -> np.ndarray:
    """Rows a_0..a_K of the standard logistic's coefficients at the centers
    -|t|; the k-th row is a_k(t) up to the sign (-1)^(k+1) where t > 0."""
    t = np.asarray(ts, dtype=float)
    a = np.empty((K + 1,) + t.shape)
    a[0] = expit(-np.abs(t))  # the small root: a_0 - a_0^2 does not cancel
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
        One of "polynomial", "exp", "linear", "logistic_flip", "custom".
    params : dict
        Constructor parameters (coefficients, channel probabilities, ...).
    pole_set : str
        Human-readable description of the complex singularities.

    Notes
    -----
    ``coeff_k(k, t)`` returns a_k(t) = f^(k)(t)/k! and is the numerically
    stable surface: raw derivatives overflow float64 once k! does (k > 170),
    so ``deriv_k`` is only finite where the product a_k * k! is.
    """

    def __init__(self, tag, evalf, coeff, radius, params=None, pole_set="none", coeff_batch=None):
        self.tag = tag
        self._eval = evalf
        self._coeff = coeff
        self._radius = radius
        self._coeff_batch = coeff_batch
        self.params = dict(params or {})
        self.pole_set = pole_set

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
        """|a_k| at many centers (vectorized where the tag allows)."""
        ts = np.asarray(ts, dtype=float).ravel()
        if k == 0:
            return np.abs(self._eval(ts))
        if self._coeff_batch is not None:
            return np.abs(self._coeff_batch(int(k), ts))
        return np.abs(np.array([self._coeff(int(k), float(t)) for t in ts]))

    def deriv_k(self, k: int, t: float = 0.0) -> float:
        """Raw derivative f^(k)(t); +-inf once k! overflows the double range."""
        if k == 0:
            return self.coeff_k(0, t)
        a = self.coeff_k(k, t)
        try:
            return a * math.factorial(k)
        except OverflowError:
            return math.copysign(math.inf, a) if a else 0.0

    def radius_at(self, t: float) -> float:
        """Convergence radius of the Taylor series centered at real t."""
        return float(self._radius(float(t)))


def polynomial(coeffs) -> AnalyticFn:
    """f(t) = sum_m coeffs[m] t^m (entire, radius infinity everywhere)."""
    c = np.asarray(coeffs, dtype=float).ravel()
    if c.size == 0:
        raise ValueError("polynomial needs at least one coefficient")
    deg = int(np.max(np.nonzero(c)[0])) if np.any(c) else 0

    def ev(t):
        return np.polynomial.polynomial.polyval(t, c)

    def coeff(k, t):
        if k > deg:
            return 0.0
        return float(
            sum(c[m] * math.comb(m, k) * t ** (m - k) for m in range(k, deg + 1))
        )

    return AnalyticFn(
        "polynomial", ev, coeff, lambda t: math.inf,
        params={"coeffs": c, "degree": deg}, pole_set="none (entire)",
    )


def linear(a: float, b: float = 0.0) -> AnalyticFn:
    """f(t) = a t + b."""
    a, b = float(a), float(b)
    return AnalyticFn(
        "linear",
        lambda t: a * t + b,
        lambda k, t: a if k == 1 else 0.0,
        lambda t: math.inf,
        params={"a": a, "b": b},
        pole_set="none (entire)",
    )


def exp_fn() -> AnalyticFn:
    """f(t) = e^t."""

    def coeff(k, t):
        return math.exp(t) / math.factorial(k) if k <= 170 else math.exp(t) * math.exp(-math.lgamma(k + 1))

    return AnalyticFn(
        "exp", np.exp, coeff, lambda t: math.inf,
        params={}, pole_set="none (entire)",
    )


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
    delta = p11 - p01

    def ev(t):
        return p01 + delta * expit(t)

    def coeff(k, t):
        return delta * _sig_coeff_batch(k, [t])[0]

    def coeff_batch(k, ts):
        return delta * _sig_coeff_batch(k, ts)

    return AnalyticFn(
        "logistic_flip", ev, coeff,
        lambda t: math.hypot(t, math.pi),
        params={"p01": p01, "p11": p11, "delta": delta},
        pole_set="t +- (2m+1) pi i along the imaginary axis",
        coeff_batch=coeff_batch,
    )


def custom_fn(evalf, coeff=None, radius=None, params=None, limsup_order: int = 200) -> AnalyticFn:
    """Wrap user callables.  Without an explicit radius the convergence radius
    is estimated from the coefficient lim-sup over orders [K/2, K] (K =
    limsup_order); the truncation makes it an estimate, not a certificate.
    """

    def radius_est(t):
        if coeff is None:
            return math.inf
        best = 0.0
        for k in range(limsup_order // 2, limsup_order + 1):
            a = abs(coeff(k, t))
            if a > 0:
                best = max(best, a ** (1.0 / k))
        return 1.0 / best if best > 0 else math.inf

    def no_coeff(k, t):
        raise ValueError("custom function has no coefficient callable")

    return AnalyticFn(
        "custom",
        evalf,
        coeff if coeff is not None else no_coeff,
        radius if radius is not None else radius_est,
        params=params,
        pole_set="unknown (custom)",
    )


# ----------------------------------------------------------------------------
# slope floor and coefficient envelopes
# ----------------------------------------------------------------------------


def _deriv1_grid(f: AnalyticFn, xs: np.ndarray) -> np.ndarray:
    if f.tag == "logistic_flip":
        s = expit(xs)
        return f.params["delta"] * s * (1.0 - s)
    if f.tag == "linear":
        return np.full_like(xs, f.params["a"])
    if f.tag == "exp":
        return np.exp(xs)
    if f.tag == "polynomial":
        c = f.params["coeffs"]
        dc = c[1:] * np.arange(1, c.size)
        return np.polynomial.polynomial.polyval(xs, dc) if dc.size else np.zeros_like(xs)
    return np.array([f.coeff_k(1, x) for x in xs])


def _deriv2_sup_grid(f: AnalyticFn, xs: np.ndarray) -> float:
    if f.tag == "logistic_flip":
        s = expit(xs)
        return float(np.max(np.abs(f.params["delta"] * s * (1 - s) * (1 - 2 * s))))
    if f.tag == "linear":
        return 0.0
    if f.tag == "exp":
        return float(np.exp(np.max(xs)))
    if f.tag == "polynomial":
        c = f.params["coeffs"]
        if c.size < 3:
            return 0.0
        d2 = c[2:] * np.arange(2, c.size) * np.arange(1, c.size - 1)
        return float(np.max(np.abs(np.polynomial.polynomial.polyval(xs, d2))))
    return float(2.0 * np.max(np.abs([f.coeff_k(2, x) for x in xs])))


def min_slope(f: AnalyticFn, I: Interval, grid: int = 2001) -> float:
    """Certified lower bound on the secant-slope floor
    d(f, I) = inf_{x != y in I} |f(x) - f(y)| / |x - y|.

    For continuously differentiable f this infimum equals inf_I |f'| (mean
    value theorem; nearby pairs approach the derivative minimum).  The bound
    scans all grid-pair difference quotients and the grid derivative values,
    then subtracts the Lipschitz correction (h/2) sup |f''| for the grid
    spacing h.  Where the floor has a closed form (logistic-type links:
    slope decreasing in |t|, so delta * (2 cosh(M/2))^-2 at M = sup_I |t|;
    linear: |a|) the exact value is returned.

    Returns 0.0 for non-identifiable links (the estimation constants reject
    that downstream).
    """
    if f.tag == "linear":
        return abs(f.params["a"])
    if f.tag == "logistic_flip":
        m = I.sup_abs
        if not math.isfinite(m):
            return 0.0
        return f.params["delta"] * (2.0 * math.cosh(m / 2.0)) ** -2
    if not I.bounded:
        raise ValueError("min_slope needs a bounded interval for grid search")
    xs = I.grid(grid)
    vals = np.asarray(f(xs), dtype=float)
    h = xs[1] - xs[0]
    best = math.inf
    block = 256
    for i0 in range(0, grid, block):
        dv = vals[i0 : i0 + block, None] - vals[None, :]
        dx = xs[i0 : i0 + block, None] - xs[None, :]
        m = np.abs(dx) > 0
        if np.any(m):
            best = min(best, float(np.min(np.abs(dv[m]) / np.abs(dx[m]))))
    best = min(best, float(np.min(np.abs(_deriv1_grid(f, xs)))))
    corr = 0.5 * h * _deriv2_sup_grid(f, xs)
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
      contour half-width c < pi, chosen by the consumer;
    - None: no certificate (custom functions) -- series constants refuse it.
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
    grid: int = 2001,
    contour_radius: float | None = None,
) -> CoefficientEnvelope:
    """Build a coefficient envelope.

    Parameters
    ----------
    mode : "strip" or "interval"
        Strip envelopes bound sup over all real centers via a Cauchy contour
        (available only when f' is bounded on horizontal strips); interval
        envelopes maximize |a_k| over a point grid on ``region`` (an
        Interval), which is the recipe the downstream constants expect --
        the grid max underestimates the true sup, so certified tails come
        from the closed forms instead.
    region : Interval or None
        Required for interval mode.
    contour_radius : float
        Strip half-width c for strip mode (0 < c < rho0).
    """
    if K < 1:
        raise ValueError("K must be >= 1")
    dk = np.zeros(K + 1)
    if mode == "strip":
        if f.tag == "logistic_flip":
            if contour_radius is None:
                raise ValueError("strip mode needs a contour_radius")
            c = float(contour_radius)
            if not 0.0 < c < math.pi:
                raise ValueError("contour_radius must lie in (0, pi)")
            M = f.params["delta"] * strip_sup_logistic(c)
            ks = np.arange(1, K + 1, dtype=float)
            dk[1:] = M / (ks * c ** (ks - 1.0))
            return CoefficientEnvelope(
                "strip", K, dk, math.pi, ("logistic", f.params["delta"]),
                f.tag, contour_radius=c,
            )
        if f.tag == "linear":
            dk[1] = abs(f.params["a"])
            return CoefficientEnvelope("strip", K, dk, math.inf, ("finite", 1), f.tag)
        if f.tag == "polynomial" and f.params["degree"] <= 1:
            c = f.params["coeffs"]
            dk[1] = abs(c[1]) if c.size > 1 else 0.0
            return CoefficientEnvelope("strip", K, dk, math.inf, ("finite", 1), f.tag)
        raise ValueError(
            "strip envelope unavailable: derivative unbounded on horizontal strips"
        )
    if mode != "interval":
        raise ValueError("mode must be 'strip' or 'interval'")
    I = region
    if not isinstance(I, Interval) or not I.bounded:
        raise ValueError("interval mode needs a bounded Interval region")
    if f.tag == "exp":
        ks = np.arange(1, K + 1)
        dk[1:] = np.exp(I.hi - np.cumsum(np.log(ks)))
        return CoefficientEnvelope(
            "interval", K, dk, math.inf, ("factorial", math.exp(I.hi)), f.tag
        )
    xs = I.grid(grid)
    if f.tag == "logistic_flip":
        # |a_k| is even in the center, so fold the grid; one table serves
        # every order
        xs = np.unique(np.abs(xs))
        a = _sig_coeff_table(K, xs)
        dk[1:] = np.max(np.abs(f.params["delta"] * a[1:]), axis=1)
        m = min(abs(x) for x in (I.lo, I.hi)) if I.lo * I.hi > 0 else 0.0
        return CoefficientEnvelope(
            "interval", K, dk, math.hypot(m, math.pi),
            ("logistic", f.params["delta"]), f.tag,
        )
    if f.tag == "linear":
        dk[1] = abs(f.params["a"])
        return CoefficientEnvelope("interval", K, dk, math.inf, ("finite", 1), f.tag)
    if f.tag == "polynomial":
        deg = f.params["degree"]
        for k in range(1, min(K, deg) + 1):
            dk[k] = float(np.max(f.coeff_abs_batch(k, xs)))
        return CoefficientEnvelope("interval", K, dk, math.inf, ("finite", deg), f.tag)
    # custom: grid estimates, no tail certificate
    for k in range(1, K + 1):
        dk[k] = float(np.max(f.coeff_abs_batch(k, xs)))
    rho0 = min(f.radius_at(x) for x in xs)
    return CoefficientEnvelope("interval", K, dk, rho0, None, f.tag)


def multi_radius(f: AnalyticFn, X, u):
    """Joint radius and coefficient sizes at a center u.

    Returns
    -------
    (r, A) : r = min_i radius at X_i'u; A(k) = max_i |a_k(X_i'u)|, cached.

    Raises
    ------
    ValueError with the offending row index if the function is singular at
    some row image.
    """
    Xarr = X.X if hasattr(X, "X") else np.asarray(X, dtype=float)
    u = np.asarray(u, dtype=float).ravel()
    t = Xarr @ u
    radii = np.array([f.radius_at(ti) for ti in t])
    bad = ~(radii > 0)
    if np.any(bad):
        raise ValueError(f"function singular at row {int(np.argmax(bad))}")
    r = float(np.min(radii))
    cache: dict[int, float] = {}

    def A(k: int) -> float:
        if k not in cache:
            cache[k] = float(np.max(f.coeff_abs_batch(k, t)))
        return cache[k]

    return r, A


def taylor_eval(f: AnalyticFn, center: float, z: float, K: int) -> float:
    """Partial Taylor sum sum_{k<=K} a_k(center) z^k (test/diagnostic aid)."""
    total = 0.0
    zp = 1.0
    for k in range(K + 1):
        total += f.coeff_k(k, center) * zp
        zp *= z
    return total
