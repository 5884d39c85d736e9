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

Reproducibility: every replicate draws from
``SeedSequence((seed, replicate))`` so runs are bit-for-bit repeatable and
replicates are independent streams.
"""

from __future__ import annotations

import csv
import functools
import itertools
import json
import math
from dataclasses import dataclass, field

import numpy as np

from .analytic import AnalyticFn, _logistic, logistic_flip
from .bounds import BoundsReport, glm_report, ub_report
from .design import DESIGNS, DesignMatrix, _as_design, capacity, random_design, weighted_l1_norm
from .domains import DomainSpec, Interval, in_domain
from .estimator import FitProblem, fit
from .expfam import FAMILIES, ExpFamily, bernoulli, gaussian

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
    for name, v in (("p01", p01), ("p11", p11)):
        if not 0.0 <= v <= 1.0:
            raise ValueError(f"{name} must lie in [0, 1]")
    if not p11 > p01:
        raise ValueError("flip channel needs p11 > p01")
    return _FlipChannel("flip_channel", 1.0, {"p01": float(p01), "p11": float(p11)})


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


# ----------------------------------------------------------------------------
# coverage experiments
# ----------------------------------------------------------------------------


@dataclass
class ExperimentConfig:
    """Specification of one coverage experiment.

    model = "glm" fits a penalized MLE (``family``, a key of ``FAMILIES``)
    with the closed-form constants; model = "flip" observes a
    flipped-channel binary response and fits least squares with the
    strip-envelope series constants.  c_r = "theorem" takes the penalty from
    the per-replicate report; a finite number >= 0 is used directly.
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
    theta: float = 0.75
    rho1: float = math.pi / 2.0
    c_r: object = "theorem"
    h_max: int | None = None
    K: int = 60
    seed: int = 20260819

    def __post_init__(self):
        if not 0.0 < self.q <= 0.25:
            raise ValueError("q must lie in (0, 0.25]")
        for name in ("n", "p", "spt_size", "replicates"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        if self.spt_size > self.p:
            raise ValueError("spt_size cannot exceed p")
        if self.model not in ("glm", "flip"):
            raise ValueError("model must be 'glm' or 'flip'")
        if self.family not in FAMILIES:
            raise ValueError(f"family must be one of {sorted(FAMILIES)}")
        if self.c_r != "theorem":
            try:
                c_r = float(self.c_r)
            except (TypeError, ValueError):
                c_r = math.nan
            if not (math.isfinite(c_r) and c_r >= 0.0):
                raise ValueError("c_r must be 'theorem' or a finite number >= 0")
        if self.design not in DESIGNS:
            raise ValueError("unknown design tag")
        if not self.interval_halfwidth > 0:
            raise ValueError("interval_halfwidth must be positive")
        # the constructors validate their own parameters
        if self.model == "glm":
            self.family_obj()
        else:
            self.link_obj()
            if self.K < 1:
                raise ValueError("K must be >= 1")
            # the strip envelope's contour radius rho1/theta lies in (rho1, pi)
            if not (self.theta > 0 and 0.0 < self.rho1 < self.rho1 / self.theta < math.pi):
                raise ValueError("rho1 and theta must satisfy 0 < rho1 < rho1/theta < pi")
        self.noise_obj()

    @classmethod
    def from_dict(cls, d: dict) -> "ExperimentConfig":
        known = {f for f in cls.__dataclass_fields__}
        extra = set(d) - known
        if extra:
            raise ValueError(f"unknown experiment keys: {sorted(extra)}")
        return cls(**d)

    def family_obj(self) -> ExpFamily:
        return gaussian(self.sigma2) if self.family == "gaussian" else bernoulli()

    def link_obj(self) -> AnalyticFn:
        return logistic_flip(self.p01, self.p11)

    def noise_obj(self) -> NoiseModel:
        if self.model == "flip":
            return flip_channel(self.p01, self.p11)
        if self.family == "bernoulli":
            return bernoulli_residual()
        return gaussian_iid(math.sqrt(self.sigma2))


@dataclass(frozen=True)
class Instance:
    """One replicate: the design, the truth, the response and its row
    images, and the domain the truth was placed in, which the fit uses,
    with whether the capacity precondition held."""

    X: DesignMatrix
    beta: np.ndarray
    y: np.ndarray
    t: np.ndarray
    domain: DomainSpec
    budget_ok: bool


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
    beta = None
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
            beta = b
            break
    if beta is None:
        raise ValueError("could not place beta inside the domain after 100 attempts")
    t = dm.X @ beta
    mean = cfg.link_obj() if cfg.model == "flip" else cfg.family_obj().mean
    # channel models return exactly the observed 0/1 output
    y = mean(t) + cfg.noise_obj().draw(rng, cfg.n, t=t)
    return Instance(X=dm, beta=beta, y=y, t=t, domain=D, budget_ok=budget_ok)


def replicate_report(cfg: ExperimentConfig, inst: Instance) -> BoundsReport:
    """Theorem constants for one replicate's design.  The flip series covers
    the segment hull of the fit domain, whose points have supports up to
    twice its budget."""
    I = Interval(-cfg.interval_halfwidth, cfg.interval_halfwidth)
    if cfg.model == "glm":
        return glm_report(inst.X, cfg.family_obj(), I, cfg.noise_obj().sigma, cfg.q)
    return ub_report(
        inst.X, cfg.link_obj(), I, 1.0, cfg.q, rho1=cfg.rho1, theta=cfg.theta,
        h=2.0 * inst.domain.max_support, mode="strip", K=cfg.K,
    )


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

    def to_json(self) -> str:
        cfg = {k: getattr(self.config, k) for k in self.config.__dataclass_fields__}
        cfg["c_r"] = str(cfg["c_r"])
        return json.dumps(
            {
                "config": cfg,
                "coverage": self.coverage,
                "wilson_lo": self.wilson_lo,
                "wilson_hi": self.wilson_hi,
                "target": self.target,
                "passed": self.passed,
                "n_fit_errors": self.n_fit_errors,
                "budget_ok_frac": self.budget_ok_frac,
                "replicates": len(self.rows),
            },
            indent=2,
        )

    def to_csv(self, path):
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
    model = {"family": cfg.family_obj()} if cfg.model == "glm" else {"link": cfg.link_obj()}
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
            res = fit(FitProblem(y=inst.y, X=inst.X, domain=inst.domain, c_r=c_r, **model))
            err = float(np.linalg.norm(res.beta_hat.values - inst.beta))
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
    rng = np.random.default_rng(np.random.SeedSequence((int(seed), 0x7A11)))
    A = rng.normal(0.0, 1.0, size=(n, n_dirs))
    A /= np.linalg.norm(A, axis=0, keepdims=True)
    t_lat = rng.uniform(-2.0, 2.0, n)  # row images for channel noises
    counts = np.zeros((3, n_dirs), dtype=int)
    block = 20_000
    done = 0
    while done < trials:
        b = min(block, trials - done)
        S = noise.draw(rng, (b, n), t=t_lat) @ A
        for m in (1, 2, 3):
            counts[m - 1] += np.sum(S**2 > (m * noise.sigma) ** 2, axis=0)
        done += b
    rows = []
    all_ok = True
    for m in (1, 2, 3):
        bound = 2.0 * math.exp(-(m**2) / 2.0)
        for j in range(n_dirs):
            freq = counts[m - 1, j] / trials
            se = math.sqrt(max(freq * (1 - freq), 1.0 / trials) / trials)
            ok = freq <= min(1.0, bound) + 3.0 * se
            all_ok &= ok
            rows.append(
                {"t_over_sigma": m, "direction": j, "freq": freq, "bound": bound,
                 "se": se, "ok": bool(ok)}
            )
    return {"noise": noise.tag, "sigma": noise.sigma, "trials": trials,
            "rows": rows, "all_ok": bool(all_ok)}


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
    centers = [np.asarray(c, dtype=float).ravel() for c in centers]
    if not centers:
        raise ValueError("need at least one center")
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
    done = 0
    while done < trials:
        b = min(block, trials - done)
        Z = np.abs(noise.draw(rng, (b, dm.n), t=t0) @ V.T) <= thr[None, :]
        good += int(np.sum(np.all(Z, axis=1)))
        done += b
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

