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
    custom_fn,
    exp_fn,
    linear,
    logistic_flip,
    min_slope,
    multi_radius,
    polynomial,
    strip_sup_logistic,
    taylor_eval,
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
    error_radius,
    glm_report,
    lambda_p,
    multi_disc_report,
    one_disc_report,
    ub_report,
)
from .design import (
    DesignMatrix,
    SparseParam,
    binary_augment,
    capacity,
    coherence,
    condition_ratio,
    separability_lower_bound,
    series_norms,
    weighted_l1_norm,
)
from .domains import (
    DomainSpec,
    Interval,
    PointSet,
    enclosing_radius,
    in_domain,
    sample_domain,
    segment_hull_sample,
)
from .estimator import FitProblem, FitResult, SupportRecord, fit, inner_solve
from .expfam import ExpFamily, bernoulli, curvature_inf, custom_family, gaussian, mle_gradient_hessian, mle_loss, mle_objective
from .grids import CoveringGrid, build_grid, covers, grid_statistics, singleton_grid
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
    multinomial_identity_gap,
    power_iteration,
    run_coverage,
    verify_control_event,
    verify_tail,
    wilson_interval,
)

__version__ = "0.1.0"
