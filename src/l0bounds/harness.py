"""Monte Carlo harness: coverage experiments and assumption checks.

Three kinds of simulation live here:

* ``run_coverage`` -- generate (X, beta, y) replicates, compute the theorem
  constants for each realized design, fit, and test whether the error lands
  inside the guaranteed radius at the advertised rate (Wilson lower
  confidence bound against 1 - 2q);
* ``verify_tail`` -- empirical check of the sub-gaussian projection tail
  assumption for every noise model;
* ``verify_control_event`` -- empirical frequency of the moment control
  event behind the series bounds (all orders k and index tuples at once).

Each coverage setting ("glm", "flip") is one entry of the model table
``_MODELS``, which builds from the config how that setting is simulated,
fitted and bounded; the rest of the experiment is shared.

Reproducibility: every replicate draws from
``SeedSequence((seed, replicate))`` so runs are bit-for-bit repeatable and
replicates are independent streams.
"""

from __future__ import annotations

import functools
import itertools
import math
import numbers
from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np

from .analytic import AnalyticFn, _logistic, logistic_flip
from .bounds import BoundsReport, glm_report, ub_report
from .design import DESIGNS, DesignMatrix, _as_design, capacity, random_design, weighted_l1_norm
from .domains import DomainSpec, Interval, in_domain
from .estimator import FitProblem, fit
from .expfam import FAMILIES, bernoulli, gaussian

__all__ = [
    "NoiseModel",
    "gaussian_iid",
    "gaussian_correlated",
    "bounded_iid",
    "bernoulli_residual",
    "flip_channel",
    "NOISES",
    "wilson_interval",
    "ExperimentConfig",
    "CoverageResult",
    "generate_instance",
    "run_coverage",
    "verify_tail",
    "verify_control_event",
]

Z95 = 1.959963984540054  # two-sided 95% normal quantile


# ----------------------------------------------------------------------------
# noise models
# ----------------------------------------------------------------------------


@dataclass(frozen=True)
class NoiseModel:
    """Tagged residual distribution with its sub-gaussian scale ``sigma``.

    Channel models (bernoulli_residual, flip_channel) generate the response
    themselves; their residuals are bounded by 1, so Hoeffding gives the
    projection tail with sigma = 1.
    """

    tag: str
    sigma: float
    params: dict = field(default_factory=dict)

    def draw(self, rng: np.random.Generator, size, t=None) -> np.ndarray:
        """Draw residuals of shape ``size``: n for one vector, (b, n) for b
        vectors in one call.  Channel models need the n row images t."""
        raise ValueError(f"noise model {self.tag!r} has no sampler")


def _row_images(t, what: str) -> np.ndarray:
    if t is None:
        raise ValueError(f"{what} residuals need row images t")
    return np.asarray(t, float)


class _GaussianIID(NoiseModel):
    def draw(self, rng, size, t=None):
        return rng.normal(0.0, self.sigma, size)


class _GaussianCorrelated(NoiseModel):
    def draw(self, rng, size, t=None):
        z = rng.normal(0.0, 1.0, size)
        return self.sigma * (_corr_chol(z.shape[-1], self.params["rho"]) @ z.T).T


class _BoundedIID(NoiseModel):
    def draw(self, rng, size, t=None):
        return rng.uniform(-self.sigma, self.sigma, size)


class _BernoulliResidual(NoiseModel):
    def draw(self, rng, size, t=None):
        p = _logistic(_row_images(t, "bernoulli"))
        return rng.binomial(1, p, size).astype(float) - p


class _FlipChannel(NoiseModel):
    def draw(self, rng, size, t=None):
        s = _logistic(_row_images(t, "flip-channel"))
        p01, p11 = self.params["p01"], self.params["p11"]
        latent = rng.binomial(1, s, size)
        z = np.where(
            latent == 1, rng.binomial(1, p11, latent.shape), rng.binomial(1, p01, latent.shape)
        ).astype(float)
        return z - (p01 + (p11 - p01) * s)


def gaussian_iid(sigma: float) -> NoiseModel:
    if not sigma > 0:
        raise ValueError("sigma must be positive")
    return _GaussianIID("gaussian_iid", float(sigma))


def gaussian_correlated(sigma: float, rho: float = 0.5) -> NoiseModel:
    """AR(1)-correlated gaussian noise, covariance normalized to spectral
    radius 1 (so the projection tail holds with the same sigma)."""
    if not sigma > 0:
        raise ValueError("sigma must be positive")
    if not 0.0 <= rho < 1.0:
        raise ValueError("rho must lie in [0, 1)")
    return _GaussianCorrelated("gaussian_correlated", float(sigma), {"rho": float(rho)})


def bounded_iid(sigma: float) -> NoiseModel:
    """iid uniform on [-sigma, sigma]; bounded, hence sigma-sub-gaussian."""
    if not sigma > 0:
        raise ValueError("sigma must be positive")
    return _BoundedIID("bounded_iid", float(sigma))


def bernoulli_residual() -> NoiseModel:
    return _BernoulliResidual("bernoulli_residual", 1.0)


def flip_channel(p01: float, p11: float) -> NoiseModel:
    """Observed 0/1 output of the channel whose success curve is
    ``logistic_flip(p01, p11)``, which validates the two parameters."""
    f = logistic_flip(p01, p11)
    return _FlipChannel("flip_channel", 1.0, {"p01": f.params["p01"], "p11": f.params["p11"]})


NOISES = {
    "gaussian_iid": gaussian_iid,
    "gaussian_correlated": gaussian_correlated,
    "bounded_iid": bounded_iid,
    "bernoulli_residual": bernoulli_residual,
    "flip_channel": flip_channel,
}


@functools.cache
def _corr_chol(n: int, rho: float) -> np.ndarray:
    """Cholesky factor of the AR(1) covariance normalized to spectral radius 1."""
    idx = np.arange(n)
    S = rho ** np.abs(idx[:, None] - idx[None, :])
    return np.linalg.cholesky(S / np.linalg.eigvalsh(S)[-1])


def wilson_interval(k: int, n: int):
    """Wilson 95% score interval for a binomial proportion."""
    if n <= 0:
        raise ValueError("n must be positive")
    ph = k / n
    denom = 1.0 + Z95**2 / n
    center = (ph + Z95**2 / (2 * n)) / denom
    half = Z95 * math.sqrt(ph * (1 - ph) / n + Z95**2 / (4 * n**2)) / denom
    return max(0.0, center - half), min(1.0, center + half)


def _whole_number(name: str, v) -> int:
    """``v`` as an int when it is a whole number, an integral float included;
    anything else, a boolean too, raises a ValueError naming ``name``."""
    if isinstance(v, bool) or not (
        isinstance(v, numbers.Integral) or (isinstance(v, float) and v.is_integer())
    ):
        raise ValueError(f"{name} must be a whole number, got {v!r}")
    return int(v)


def _real_number(name: str, v):
    """``v`` when it is a real number, a numeric string read by ``float()``;
    anything else, a boolean too, raises a ValueError naming ``name``."""
    if isinstance(v, str):
        try:
            return float(v)
        except ValueError:
            pass
    elif isinstance(v, numbers.Real) and not isinstance(v, bool):
        return v
    raise ValueError(f"{name} must be a number, got {v!r}")


# ----------------------------------------------------------------------------
# coverage experiments
# ----------------------------------------------------------------------------


@dataclass
class ExperimentConfig:
    """Specification of one coverage experiment.

    ``model`` is a key of the model table ``_MODELS``: "glm" fits a
    penalized MLE (``family``, a key of ``FAMILIES``) with the closed-form
    constants; "flip" observes a flipped-channel binary response and fits
    least squares with the strip-envelope series constants.  c_r =
    "theorem" takes the penalty from the per-replicate report; a finite
    number >= 0 is used directly.
    """

    n: int
    p: int
    spt_size: int
    replicates: int
    q: float = 0.1
    model: str = "glm"
    family: str = "bernoulli"
    sigma2: float = 1.0
    p01: float = 0.1
    p11: float = 0.9
    design: str = "pm1_iid"
    interval_halfwidth: float = 3.0
    c_r: object = "theorem"
    h_max: int | None = None
    seed: int = 20260819

    def __post_init__(self):
        # real-valued keys: numbers as given, numeric strings as their float
        for name in ("q", "sigma2", "p01", "p11", "interval_halfwidth"):
            setattr(self, name, _real_number(name, getattr(self, name)))
        if not 0.0 < self.q <= 0.25:
            raise ValueError("q must lie in (0, 0.25]")
        # sizes, budgets and seeds: whole numbers only, integral floats stored as int
        for name in ("n", "p", "spt_size", "replicates", "seed", "h_max"):
            v = getattr(self, name)
            if not (name == "h_max" and v is None):
                setattr(self, name, _whole_number(name, v))
        for name in ("n", "p", "spt_size", "replicates"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        if self.spt_size > self.p:
            raise ValueError("spt_size cannot exceed p")
        if self.h_max is not None and self.h_max < self.spt_size:
            raise ValueError(f"h_max must be >= spt_size, got h_max={self.h_max}")
        if not isinstance(self.model, str) or self.model not in _MODELS:
            raise ValueError(f"model must be one of {sorted(_MODELS)}")
        if not isinstance(self.family, str) or self.family not in FAMILIES:
            raise ValueError(f"family must be one of {sorted(FAMILIES)}")
        if self.c_r != "theorem":
            try:
                c_r = float(_real_number("c_r", self.c_r))
            except ValueError:
                c_r = math.nan
            if not (math.isfinite(c_r) and c_r >= 0.0):
                raise ValueError("c_r must be 'theorem' or a finite number >= 0")
        if not isinstance(self.design, str) or self.design not in DESIGNS:
            raise ValueError(f"design must be one of {sorted(DESIGNS)}")
        if not self.interval_halfwidth > 0:
            raise ValueError("interval_halfwidth must be positive")
        _MODELS[self.model](self)  # the constructors validate their own parameters

    @classmethod
    def from_dict(cls, d: dict) -> "ExperimentConfig":
        extra = set(d) - set(cls.__dataclass_fields__)
        if extra:
            raise ValueError(f"unknown experiment keys: {sorted(extra)}")
        return cls(**d)


@dataclass(frozen=True)
class Instance:
    """One replicate: the design, the truth, the response, and the domain
    the truth was placed in, which the fit uses, with whether the capacity
    precondition held."""

    X: DesignMatrix
    beta: np.ndarray
    y: np.ndarray
    domain: DomainSpec
    budget_ok: bool


@dataclass(frozen=True)
class _Model:
    """One coverage setting: the ``FitProblem`` keyword that picks the loss,
    E[y] given the row images, the noise, and a replicate's constants."""

    fit_kw: dict
    mean: Callable[[np.ndarray], np.ndarray]
    noise: NoiseModel
    report: Callable[[Instance], BoundsReport]


def _glm_model(cfg: ExperimentConfig) -> _Model:
    """Penalized MLE in ``cfg.family``, with the closed-form constants."""
    if cfg.family == "gaussian":
        fam, noise = gaussian(cfg.sigma2), gaussian_iid(math.sqrt(cfg.sigma2))
    else:
        fam, noise = bernoulli(), bernoulli_residual()
    return _Model(
        {"family": fam}, fam.mean, noise,
        lambda inst: glm_report(inst.X, fam, inst.domain.interval, noise.sigma, cfg.q),
    )


def _flip_model(cfg: ExperimentConfig) -> _Model:
    """Least squares on the flipped channel's 0/1 output.  The strip series
    at rho1 = pi/2 (with ub_report's theta, rho1/theta stays below pi, in
    the pole-free strip) covers the segment hull of the fit domain, whose
    points have supports up to twice its budget."""
    link, noise = logistic_flip(cfg.p01, cfg.p11), flip_channel(cfg.p01, cfg.p11)
    return _Model(
        {"link": link}, link, noise,
        lambda inst: ub_report(
            inst.X, link, inst.domain.interval, noise.sigma, cfg.q, rho1=math.pi / 2.0,
            h=2.0 * inst.domain.max_support, mode="strip",
        ),
    )


# the coverage settings, keyed by ExperimentConfig.model
_MODELS = {"glm": _glm_model, "flip": _flip_model}


def _replicate_rng(seed: int, replicate: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence((int(seed), int(replicate))))


def _fit_domain(cfg: ExperimentConfig, dm: DesignMatrix) -> tuple:
    """Fit domain and whether the capacity precondition spt_size <=
    capacity/2 holds.  The domain has interval rows, a weighted cap, and a
    support budget that stays inside the theorem domain (half the coherence
    capacity) whenever that still admits the truth; when the precondition
    fails the budget falls back to spt_size."""
    r = cfg.interval_halfwidth
    cap = capacity(dm)
    h_req = cfg.h_max if cfg.h_max is not None else cfg.spt_size
    half_cap = math.floor(cap / 2.0) if math.isfinite(cap) else h_req
    h_dom = max(cfg.spt_size, min(h_req, half_cap))
    D = DomainSpec(interval=Interval(-r, r), max_support=float(h_dom), l1inf_cap=r)
    return D, cfg.spt_size <= cap / 2.0


def generate_instance(cfg: ExperimentConfig, replicate: int) -> Instance:
    """One (X, beta, y) draw; beta is rescaled into the fit domain and its
    membership certified.  Raises after 100 failed rescaling attempts."""
    rng = _replicate_rng(cfg.seed, replicate)
    dm = random_design(cfg.design, cfg.n, cfg.p, rng)
    D, budget_ok = _fit_domain(cfg, dm)
    for _ in range(100):
        b = np.zeros(cfg.p)
        spt = rng.choice(cfg.p, size=cfg.spt_size, replace=False)
        b[spt] = rng.uniform(0.5, 1.5, cfg.spt_size) * rng.choice([-1.0, 1.0], cfg.spt_size)
        scale = 1.0
        rows = dm.X @ b
        mx = float(np.max(np.abs(rows)))
        if mx > 0:
            scale = min(scale, cfg.interval_halfwidth / mx)
        wn = weighted_l1_norm(b, dm)
        if wn > 0:
            scale = min(scale, D.l1inf_cap / wn)
        b = b * (scale * (1.0 - 1e-12))
        if in_domain(b, dm, D) and np.count_nonzero(b) == cfg.spt_size:
            break
    else:
        raise ValueError("could not place beta inside the domain after 100 attempts")
    beta = b
    t = dm.X @ beta
    model = _MODELS[cfg.model](cfg)
    # channel models return exactly the observed 0/1 output
    y = model.mean(t) + model.noise.draw(rng, cfg.n, t=t)
    return Instance(X=dm, beta=beta, y=y, domain=D, budget_ok=budget_ok)


def replicate_report(cfg: ExperimentConfig, inst: Instance) -> BoundsReport:
    """Theorem constants for one replicate's design, on the interval of its
    fit domain and at its noise model's sigma."""
    return _MODELS[cfg.model](cfg).report(inst)


@dataclass
class CoverageResult:
    """Per-replicate errors/radii/hits plus the Wilson verdict."""

    config: ExperimentConfig
    rows: list
    coverage: float
    wilson_lo: float
    wilson_hi: float
    target: float
    passed: bool
    n_fit_errors: int
    budget_ok_frac: float

    def to_dict(self) -> dict:
        """Every field but the rows, with the config as a plain dict."""
        d = {k: getattr(self, k) for k in self.__dataclass_fields__ if k != "rows"}
        cfg = d["config"] = {k: getattr(self.config, k) for k in self.config.__dataclass_fields__}
        cfg["c_r"] = str(cfg["c_r"])
        return {**d, "replicates": len(self.rows)}

    def to_csv(self, path):
        import csv  # only the CSV writer needs it; the package import skips it

        cols = [
            "replicate", "error", "radius", "hit", "spt_hat", "c_r", "kappa_r",
            "mu", "budget_ok", "fit_error",
        ]
        with open(path, "w", newline="") as fh:
            w = csv.DictWriter(fh, fieldnames=cols)
            w.writeheader()
            for row in self.rows:
                w.writerow({c: row[c] for c in cols})


def run_coverage(cfg: ExperimentConfig) -> CoverageResult:
    """Run the coverage experiment; fit failures count as misses, not crashes.

    A fit that raises ValueError (numpy's LinAlgError included),
    AssertionError, ArithmeticError or MemoryError leaves its message (or,
    when empty, the exception's name) in the row's ``fit_error`` column.
    """
    rows = []
    hits = 0
    errors = 0
    budget_ok = 0
    fit_kw = _MODELS[cfg.model](cfg).fit_kw
    for rep in range(cfg.replicates):
        inst = generate_instance(cfg, rep)
        report = replicate_report(cfg, inst)
        budget_ok += inst.budget_ok
        c_r = report.c_r if cfg.c_r == "theorem" else float(cfg.c_r)
        radius = report.error_radius(cfg.spt_size, cfg.n)
        row = {
            "replicate": rep,
            "radius": radius,
            "c_r": c_r,
            "kappa_r": report.kappa_r,
            "mu": report.inputs["mu"],
            "budget_ok": int(inst.budget_ok),
            "fit_error": "",
            "error": math.nan,
            "hit": 0,
            "spt_hat": -1,
        }
        try:
            res = fit(FitProblem(y=inst.y, X=inst.X, domain=inst.domain, c_r=c_r, **fit_kw))
            err = float(np.linalg.norm(res.beta_hat - inst.beta))
            row["error"] = err
            row["hit"] = int(err <= radius)
            row["spt_hat"] = len(res.support)
            hits += row["hit"]
        except (ValueError, AssertionError, ArithmeticError, MemoryError) as exc:
            errors += 1  # count as a miss
            row["fit_error"] = str(exc) or type(exc).__name__
        rows.append(row)
    lo, hi = wilson_interval(hits, cfg.replicates)
    target = 1.0 - 2.0 * cfg.q
    return CoverageResult(
        config=cfg,
        rows=rows,
        coverage=hits / cfg.replicates,
        wilson_lo=lo,
        wilson_hi=hi,
        target=target,
        passed=lo >= target,
        n_fit_errors=errors,
        budget_ok_frac=budget_ok / cfg.replicates,
    )


# ----------------------------------------------------------------------------
# assumption checks
# ----------------------------------------------------------------------------


def verify_tail(
    noise: NoiseModel,
    trials: int = 100_000,
    n: int = 20,
    n_dirs: int = 8,
    seed: int = 2026,
) -> dict:
    """Empirical projection-tail check: for unit directions a and
    t in {1, 2, 3} sigma, the frequency of (sum_i a_i eps_i)^2 > t^2 must
    not exceed 2 exp(-t^2 / 2 sigma^2) by more than 3 binomial SEs."""
    if trials < 10_000:
        raise ValueError("tail verification needs at least 1e4 trials")
    for name, v in (("n", n), ("n_dirs", n_dirs)):
        if v < 1:
            raise ValueError(f"{name} must be >= 1, got {v}")
    rng = np.random.default_rng(np.random.SeedSequence((int(seed), 0x7A11)))
    A = rng.normal(0.0, 1.0, size=(n, n_dirs))
    A /= np.linalg.norm(A, axis=0, keepdims=True)
    t_lat = rng.uniform(-2.0, 2.0, n)  # row images for channel noises
    counts = np.zeros((3, n_dirs), dtype=int)
    block = 20_000
    for done in range(0, trials, block):
        b = min(block, trials - done)
        S = noise.draw(rng, (b, n), t=t_lat) @ A
        for m in (1, 2, 3):
            counts[m - 1] += np.sum(S**2 > (m * noise.sigma) ** 2, axis=0)
    rows = []
    for m in (1, 2, 3):
        bound = 2.0 * math.exp(-(m**2) / 2.0)
        for j in range(n_dirs):
            freq = counts[m - 1, j] / trials
            se = math.sqrt(max(freq * (1 - freq), 1.0 / trials) / trials)
            ok = freq <= min(1.0, bound) + 3.0 * se
            rows.append(
                {"t_over_sigma": m, "direction": j, "freq": freq, "bound": bound,
                 "se": se, "ok": bool(ok)}
            )
    return {"noise": noise.tag, "sigma": noise.sigma, "trials": trials,
            "rows": rows, "all_ok": all(r["ok"] for r in rows)}


def verify_control_event(
    X,
    f: AnalyticFn,
    centers,
    noise: NoiseModel,
    q: float,
    K_check: int = 3,
    trials: int = 10_000,
    seed: int = 2026,
) -> dict:
    """Empirical frequency of the joint moment-control event.

    For each center u, order k <= K_check and index tuple alpha in
    {1..p}^k, the event requires
    |sum_i eps_i a_{ik}(u) X_{i alpha}| <= sigma sqrt(2 ln(p^k / q_k))
    ||(a_{ik} X_{i alpha})_i||_2 with q_k = (q/(1+q))^k split across
    centers.  The frequency of all finite-order events holding must reach
    1 - 2q - 3 SE (the infinite tail of orders is not simulated; its budget
    is part of the same geometric split).
    """
    dm = _as_design(X)
    if not 0.0 < q < 0.5:
        raise ValueError("q must lie in (0, 1/2)")
    if K_check < 1 or K_check > 6:
        raise ValueError("K_check must lie in 1..6")
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    centers = [np.asarray(c, dtype=float).ravel() for c in centers]
    if not centers:
        raise ValueError("need at least one center")
    for i, c in enumerate(centers):
        if c.size != dm.p:
            raise ValueError(f"center {i} has length {c.size}, the design has p = {dm.p}")
    n_rows = len(centers) * sum(dm.p**k for k in range(1, K_check + 1))
    if n_rows > 100_000:
        raise ValueError("tuple budget exceeded (more than 1e5 rows)")
    V = []
    thr = []
    for u in centers:
        table = f.coeff_table(K_check, dm.X @ u)
        for k in range(1, K_check + 1):
            a_k = table[k - 1]
            qk = (q / (1.0 + q)) ** k / len(centers)
            lam = math.sqrt(2.0 * math.log(dm.p**k / qk))
            for alpha in itertools.product(range(dm.p), repeat=k):
                prod = np.ones(dm.n)
                for j in alpha:
                    prod = prod * dm.X[:, j]
                v = a_k * prod
                nv = float(np.linalg.norm(v))
                if nv == 0.0:
                    continue  # event holds trivially
                V.append(v)
                thr.append(noise.sigma * lam * nv)
    V = np.array(V)
    thr = np.array(thr)
    rng = np.random.default_rng(np.random.SeedSequence((int(seed), 0xC0)))
    t0 = dm.X @ centers[0]
    good = 0
    block = 2_000
    for done in range(0, trials, block):
        b = min(block, trials - done)
        Z = np.abs(noise.draw(rng, (b, dm.n), t=t0) @ V.T) <= thr[None, :]
        good += int(np.sum(np.all(Z, axis=1)))
    freq = good / trials
    se = math.sqrt(max(freq * (1 - freq), 1.0 / trials) / trials)
    target = 1.0 - 2.0 * q
    return {
        "freq": freq,
        "target": target,
        "se": se,
        "ok": bool(freq >= target - 3.0 * se),
        "rows": int(V.shape[0]),
        "trials": trials,
    }

