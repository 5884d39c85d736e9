"""Command-line front end.

Subcommands mirror the library surface: ``bounds`` (theorem constants for a
design), ``fit`` (one penalized fit from CSV data), ``coverage`` (Monte
Carlo coverage experiment), ``grid`` (covering-grid construction), and
``verify`` (tail / moment-control checks).  All configuration comes from a
JSON file; results are written as JSON (plus CSV for coverage) into --out.

Exit codes: 0 success, 1 configuration/validation error, 2 computation
error (diverging series, budget blow-ups, non-identifiable links, arithmetic
overflow, ...).
Input files are never modified.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from . import analytic, bounds, domains, estimator, expfam, grids, harness
from .design import DesignMatrix, load_matrix_csv, load_vector_csv, random_design


class ConfigError(Exception):
    """Bad or missing configuration; maps to exit code 1."""


# ----------------------------------------------------------------------------
# config parsers
# ----------------------------------------------------------------------------


def _need(cfg: dict, key: str):
    if key not in cfg:
        raise ConfigError(f"config is missing required key {key!r}")
    return cfg[key]


_REQUIRED = object()


def _num(cfg: dict, key: str, kind=float, default=_REQUIRED):
    """``kind(cfg[key])`` for a scalar key (kind is float or int), or
    ``default`` when the key is absent; a missing required key, or a value
    that does not convert, is a config error."""
    if key not in cfg and default is not _REQUIRED:
        return default
    v = _need(cfg, key)
    try:
        return kind(v)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"bad value for {key!r}: {v!r}") from exc


def parse_block(cfg: dict, key: str, table: dict):
    """Build the object that the block ``cfg[key]`` describes: its ``tag``
    picks the constructor from ``table`` and its other keys are the
    constructor's keyword arguments, so the signature is the block's schema
    and an unknown or missing key is a config error."""
    d = _need(cfg, key)
    try:
        make = table.get(_need(d, "tag"))
        if make is None:
            raise ConfigError(f"unknown {key} tag {d['tag']!r}")
        return make(**{k: v for k, v in d.items() if k != "tag"})
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad {key} block: {exc}") from exc


def parse_interval(v) -> domains.Interval:
    try:
        lo, hi = float(v[0]), float(v[1])
        return domains.Interval(lo, hi)
    except (TypeError, ValueError, IndexError) as exc:
        raise ConfigError(f"bad interval {v!r}: {exc}") from exc


def parse_domain(d: dict) -> domains.DomainSpec:
    try:
        return domains.DomainSpec(
            interval=parse_interval(_need(d, "interval")),
            max_support=_num(d, "max_support"),
            l1inf_cap=_num(d, "l1inf_cap", default=None),
        )
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad domain block: {exc}") from exc


def load_design(args, cfg: dict) -> DesignMatrix:
    if getattr(args, "x", None):
        try:
            return DesignMatrix(load_matrix_csv(args.x))
        except (OSError, ValueError) as exc:
            raise ConfigError(f"cannot load design from {args.x}: {exc}") from exc
    d = cfg.get("design")
    if d is None:
        raise ConfigError("no design: pass --x or a 'design' config block")
    n, p, seed = _num(d, "n", int), _num(d, "p", int), _num(d, "seed", int, 0)
    try:
        rng = np.random.default_rng(np.random.SeedSequence((seed, 0xDE5)))
        return random_design(_need(d, "tag"), n, p, rng)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad design block: {exc}") from exc


# ----------------------------------------------------------------------------
# subcommands
# ----------------------------------------------------------------------------


def _cmd_bounds(args, cfg: dict) -> dict:
    dm = load_design(args, cfg)
    theorem = _need(cfg, "theorem")
    I = parse_interval(_need(cfg, "interval"))
    q = _num(cfg, "q")
    sigma = _num(cfg, "sigma", default=1.0)
    K = _num(cfg, "K", int, 60)
    if theorem == "glm":
        fam = parse_block(cfg, "family", expfam.FAMILIES)
        rep = bounds.glm_report(dm, fam, I, sigma, q)
    elif theorem == "one_disc":
        f = parse_block(cfg, "link", analytic.LINKS)
        rep = bounds.one_disc_report(dm, f, I, sigma, q, _num(cfg, "theta"), K=K)
    elif theorem in ("ub_strip", "ub_interval"):
        f = parse_block(cfg, "link", analytic.LINKS)
        rep = bounds.ub_report(
            dm, f, I, sigma, q,
            rho1=_num(cfg, "rho1"), theta=_num(cfg, "theta", default=0.75),
            h=_num(cfg, "h", default=None), delta_D=_num(cfg, "delta_D", default=None),
            mode=theorem.removeprefix("ub_"), K=K,
        )
    else:
        raise ConfigError(f"unknown theorem {theorem!r}")
    return json.loads(rep.to_json())


def _cmd_fit(args, cfg: dict) -> dict:
    if not args.x or not args.y:
        raise ConfigError("fit needs --x and --y CSV paths")
    dm = load_design(args, cfg)
    try:
        y = load_vector_csv(args.y)
    except (OSError, ValueError) as exc:
        raise ConfigError(f"cannot load response from {args.y}: {exc}") from exc
    D = parse_domain(_need(cfg, "domain"))
    # the block present picks the loss: family -> likelihood, link -> least squares
    model = {
        key: parse_block(cfg, key, table)
        for key, table in (("family", expfam.FAMILIES), ("link", analytic.LINKS))
        if key in cfg
    }
    try:
        prob = estimator.FitProblem(y=y, X=dm, domain=D, c_r=_num(cfg, "c_r"), **model)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    res = estimator.fit(prob)
    return {
        "beta_hat": [float(v) for v in res.beta_hat.values],
        "support": list(res.support),
        "objective": res.objective,
        "loss": res.loss_value,
        "tie_break_applied": res.tie_break_applied,
        "n_supports": res.n_supports,
    }


def _cmd_coverage(args, cfg: dict) -> dict:
    try:
        ecfg = harness.ExperimentConfig.from_dict(cfg)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad experiment config: {exc}") from exc
    if args.seed is not None:
        ecfg.seed = args.seed
    result = harness.run_coverage(ecfg)
    if args.out:
        result.to_csv(Path(args.out) / "coverage.csv")
    return json.loads(result.to_json())


def _cmd_grid(args, cfg: dict) -> dict:
    dm = load_design(args, cfg)
    f = parse_block(cfg, "link", analytic.LINKS)
    D = parse_domain(_need(cfg, "domain"))
    br = cfg.get("b_rule", {"rule": "half_radius"})
    rule = ("half_radius",) if br.get("rule") == "half_radius" else ("constant", _num(br, "c"))
    G = grids.build_grid(dm, f, D, b_rule=rule)
    return json.loads(G.to_json())


def _cmd_verify(args, cfg: dict) -> dict:
    what = _need(cfg, "what")
    noise = parse_block(cfg, "noise", harness.NOISES)
    seed = args.seed if args.seed is not None else _num(cfg, "seed", int, 2026)
    if what == "tail":
        return harness.verify_tail(
            noise,
            trials=_num(cfg, "trials", int, 100_000),
            n=_num(cfg, "n", int, 20),
            n_dirs=_num(cfg, "n_dirs", int, 8),
            seed=seed,
        )
    if what == "control":
        dm = load_design(args, cfg)
        f = parse_block(cfg, "link", analytic.LINKS)
        centers = cfg.get("centers")
        if centers is None:
            centers = [[0.0] * dm.p]
        return harness.verify_control_event(
            dm, f, [np.asarray(c, float) for c in centers], noise,
            q=_num(cfg, "q"),
            K_check=_num(cfg, "K_check", int, 3),
            trials=_num(cfg, "trials", int, 10_000),
            seed=seed,
        )
    raise ConfigError("verify 'what' must be 'tail' or 'control'")


_COMMANDS = {
    "bounds": (_cmd_bounds, "bounds.json"),
    "fit": (_cmd_fit, "fit.json"),
    "coverage": (_cmd_coverage, "coverage.json"),
    "grid": (_cmd_grid, "grid.json"),
    "verify": (_cmd_verify, "verify.json"),
}


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="l0bounds",
        description="L0-penalized nonlinear regression with certified error radii",
    )
    sub = ap.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        sp = sub.add_parser(name)
        sp.add_argument("--config", required=True, help="JSON configuration file")
        sp.add_argument("--x", help="design matrix CSV (headerless)")
        sp.add_argument("--y", help="response vector CSV (fit only)")
        sp.add_argument("--out", help="output directory (default: cwd)")
        sp.add_argument("--seed", type=int, help="override the config seed")
        sp.add_argument("--quiet", action="store_true", help="suppress the summary line")
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        try:
            with open(args.config) as fh:
                cfg = json.load(fh)
        except OSError as exc:
            raise ConfigError(f"cannot read config {args.config}: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config is not valid JSON: {exc}") from exc
        if not isinstance(cfg, dict):
            raise ConfigError("config root must be a JSON object")
        if args.out:
            Path(args.out).mkdir(parents=True, exist_ok=True)
        fn, outname = _COMMANDS[args.command]
        result = fn(args, cfg)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ValueError, AssertionError, ArithmeticError) as exc:  # LinAlgError is a ValueError
        print(f"computation error: {exc}", file=sys.stderr)
        return 2
    out_dir = Path(args.out) if args.out else Path.cwd()
    out_path = out_dir / outname
    with open(out_path, "w") as fh:
        json.dump(result, fh, indent=2, default=str)
        fh.write("\n")
    if not args.quiet:
        summary = {
            "bounds": lambda r: f"c_r={r['c_r']:.6g} kappa_r={r['kappa_r']:.6g}",
            "fit": lambda r: f"support={r['support']} objective={r['objective']:.6g}",
            "coverage": lambda r: (
                f"coverage={r['coverage']:.3f} wilson_lo={r['wilson_lo']:.3f} "
                f"target={r['target']:.3f} passed={r['passed']}"
            ),
            "grid": lambda r: f"size={r['size']} bound={r['cardinality_bound']:.6g}",
            "verify": lambda r: f"ok={r.get('all_ok', r.get('ok'))}",
        }[args.command](result)
        print(f"{args.command}: {summary} -> {out_path}")
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
