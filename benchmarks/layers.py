"""Which l0bounds functions the traced run wraps, and the per-layer metrics.

Every public (not underscore-prefixed) function defined in one of the
library's modules gets a span named ``<module>.<function>``, as do the
methods the metrics need (column norms, link evaluation, Taylor
coefficients).  numpy's ``lstsq`` and ``solve`` are wrapped too, but only
calls made from ``l0bounds.estimator`` are recorded.
"""

from __future__ import annotations

import inspect
import math
import statistics

import numpy as np

import l0bounds
from l0bounds import analytic, bounds, cli, design, domains, estimator, expfam, grids, harness

MODULES = (design, domains, expfam, analytic, grids, bounds, estimator, harness, cli)

FIT_SPAN = "estimator.fit"


def _fit_hook(tr, _args, _kwargs, res, _dur):
    tr.count("estimator.supports_enumerable", res.n_supports)
    for rec in res.records:
        tr.count("estimator.infeasible", not rec.feasible)
        tr.count("estimator.nonconverged", rec.feasible and not rec.converged)
        tr.count("estimator.clamped", rec.boundary_clamped)


def _in_domain_hook(tr, _args, _kwargs, ok, _dur):
    tr.count("domains.in_domain_rejected", not ok)


def _grid_hook(tr, _args, _kwargs, grid, _dur):
    tr.count("grids.points", len(grid))
    tr.count("grids.cardinality_ratio_sum", len(grid) / grid.cardinality_bound)


def _ub_report_hook(tr, _args, kwargs, _rep, dur):
    tr.count(f"bounds.ub_{kwargs.get('mode', 'strip')}_report_s", dur)


def _lstsq_hook(tr, args, _kwargs, _res, _dur):
    order = max(np.shape(args[0]))
    tr.maximum("linalg.lstsq_order_max", order)
    tr.count("linalg.lstsq_flops_computed", float(order) ** 3)


HOOKS = {
    FIT_SPAN: _fit_hook,
    "domains.in_domain": _in_domain_hook,
    "grids.build_grid": _grid_hook,
    "bounds.ub_report": _ub_report_hook,
}


def install_targets(tr):
    """Register every wrapper on the tracer (``tr.install()`` switches them on)."""
    tr.keep_durations.add(FIT_SPAN)
    namespaces = (l0bounds,) + MODULES
    for mod in MODULES:
        short = mod.__name__.rsplit(".", 1)[1]
        for attr, fn in vars(mod).items():
            if attr.startswith("_") or not inspect.isfunction(fn) or fn.__module__ != mod.__name__:
                continue
            name = f"{short}.{attr}"
            tr.patch_function(name, fn, namespaces, HOOKS.get(name))
    tr.patch_attr(design.DesignMatrix, "column_norms", "design.column_norms")
    tr.patch_attr(analytic.AnalyticFn, "__call__", "analytic.link_eval")
    tr.patch_attr(analytic.AnalyticFn, "coeff_k", "analytic.coeff")
    tr.patch_attr(analytic.AnalyticFn, "coeff_abs_batch", "analytic.coeff")
    tr.patch_attr(np.linalg, "lstsq", "linalg.lstsq", _lstsq_hook, caller=estimator.__name__)
    tr.patch_attr(np.linalg, "solve", "linalg.solve", caller=estimator.__name__)


def _tail(samples):
    """Highest whole percentile with at least ten samples above it, its value,
    and the sample count.  Below twenty samples that percentile would sit
    under the median, so the maximum is reported, at 100."""
    xs = sorted(samples)
    n = len(xs)
    if n == 0:
        return 0.0, 0.0, 0
    if n < 20:
        return xs[-1], 100.0, n
    return xs[n - 11], math.floor(100.0 * (n - 10) / n), n


def per_layer(tr) -> dict:
    """Per-layer metrics from one traced run (totals over its traced work)."""
    calls, incl, k = tr.calls, tr.incl_s, tr.counters
    fits = tr.durations[FIT_SPAN]
    tail, tail_pct, n_fits = _tail(fits)
    solved = calls["estimator.inner_solve"]
    enumerable = k["estimator.supports_enumerable"]
    in_domain = calls["domains.in_domain"]
    n_grids = calls["grids.build_grid"]
    return {
        "harness.generate_instance_s": incl["harness.generate_instance"],
        "harness.replicate_report_s": incl["harness.replicate_report"],
        "harness.fit_s_p50": statistics.median(fits) if fits else 0.0,
        "harness.fit_s_tail": tail,
        "harness.fit_tail_pct": tail_pct,
        "harness.fit_count": n_fits,
        "linalg.lstsq_calls": calls["linalg.lstsq"],
        "linalg.lstsq_s": incl["linalg.lstsq"],
        "linalg.lstsq_order_max": k["linalg.lstsq_order_max"],
        "linalg.lstsq_flops_computed": k["linalg.lstsq_flops_computed"],
        "linalg.lstsq_share_of_fit": incl["linalg.lstsq"] / incl[FIT_SPAN] if fits else 0.0,
        "linalg.solve_calls": calls["linalg.solve"],
        "linalg.solve_s": incl["linalg.solve"],
        "estimator.fit_s": incl[FIT_SPAN],
        "estimator.supports_solved": solved,
        "estimator.supports_enumerable": enumerable,
        "estimator.solved_frac": solved / enumerable if enumerable else 0.0,
        "estimator.inner_solve_s": incl["estimator.inner_solve"],
        "estimator.self_s": tr.module_self_s("estimator."),
        "estimator.nonconverged": k["estimator.nonconverged"],
        "estimator.clamped": k["estimator.clamped"],
        "estimator.infeasible": k["estimator.infeasible"],
        "domains.in_domain_calls": in_domain,
        "domains.in_domain_s": incl["domains.in_domain"],
        "domains.reject_frac": k["domains.in_domain_rejected"] / in_domain if in_domain else 0.0,
        "expfam.mle_loss_calls": calls["expfam.mle_loss"],
        "expfam.mle_loss_s": incl["expfam.mle_loss"],
        "analytic.link_eval_calls": calls["analytic.link_eval"],
        "analytic.link_eval_s": incl["analytic.link_eval"],
        "analytic.coeff_calls": calls["analytic.coeff"],
        "analytic.coeff_s": incl["analytic.coeff"],
        "analytic.coefficient_envelope_s": incl["analytic.coefficient_envelope"],
        "design.coherence_calls": calls["design.coherence"],
        "design.coherence_s": incl["design.coherence"],
        "design.column_norms_calls": calls["design.column_norms"],
        "design.column_norms_s": incl["design.column_norms"],
        "grids.build_grid_s": incl["grids.build_grid"],
        "grids.points": k["grids.points"],
        "grids.cardinality_ratio": k["grids.cardinality_ratio_sum"] / n_grids if n_grids else 0.0,
        "bounds.glm_report_s": incl["bounds.glm_report"],
        "bounds.one_disc_report_s": incl["bounds.one_disc_report"],
        "bounds.ub_strip_report_s": k["bounds.ub_strip_report_s"],
        "bounds.ub_interval_report_s": k["bounds.ub_interval_report_s"],
        "bounds.self_s": tr.module_self_s("bounds."),
        "cli.load_design_s": incl["cli.load_design"],
        "cli.self_s": tr.module_self_s("cli."),
    }
