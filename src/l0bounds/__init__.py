"""L0-penalized nonlinear regression with computable finite-sample error radii.

The package fits y = f(X' beta) + noise (or the exponential-family analog)
under an exact L0 penalty, computes every constant of the accompanying
finite-sample error guarantee (penalty level, radius factor, series tails,
covering-grid cardinalities), and ships a Monte Carlo harness that checks
the guarantee's coverage and its probabilistic assumptions empirically.
"""

from .analytic import (
    AnalyticFn,
    CoefficientEnvelope,
    coefficient_envelope,
    exp_fn,
    linear,
    logistic_flip,
    polynomial,
    strip_sup_logistic,
)
from .bounds import (
    BoundsReport,
    SeriesBound,
    c1_glm,
    c1_multi_disc,
    c1_one_disc,
    c1_ub,
    c2_glm,
    c2_lse,
    glm_report,
    lambda_p,
    multi_disc_report,
    one_disc_report,
    ub_report,
)
from .design import (
    DesignMatrix,
    capacity,
    coherence,
    series_max,
    weighted_l1_norm,
)
from .domains import DomainSpec, Interval, in_domain
from .estimator import FitProblem, FitResult, SupportRecord, fit, inner_solve
from .expfam import ExpFamily, bernoulli, gaussian
from .grids import CoveringGrid, build_grid
from .harness import (
    CoverageResult,
    ExperimentConfig,
    NoiseModel,
    bernoulli_residual,
    bounded_iid,
    flip_channel,
    gaussian_correlated,
    gaussian_iid,
    generate_instance,
    run_coverage,
    verify_control_event,
    verify_tail,
    wilson_interval,
)

__version__ = "0.1.0"
