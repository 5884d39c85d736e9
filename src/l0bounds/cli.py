"""Command-line front end.

Subcommands mirror the library surface: ``bounds`` (theorem constants for a
design), ``fit`` (one penalized fit from CSV data), ``coverage`` (Monte
Carlo coverage experiment), ``grid`` (covering-grid construction), and
``verify`` (tail / moment-control checks).  All configuration comes from a
JSON file; results are written as JSON (plus CSV for coverage) into --out.
Besides --config, --out and --quiet, a subcommand takes only the flags it reads.

Exit codes: 0 success, 1 configuration/validation error, 2 computation
error (diverging series, budget blow-ups, non-identifiable links, arithmetic
overflow, ...) or a flag the subcommand does not take (argparse's usage
error).
Input files are never modified.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from json.encoder import encode_basestring_ascii
from pathlib import Path

import numpy as np

from . import analytic, bounds, domains, estimator, expfam, grids, harness
from .design import DesignMatrix, random_design


class ConfigError(Exception):
    """Bad or missing configuration; maps to exit code 1."""


# ----------------------------------------------------------------------------
# config parsers
# ----------------------------------------------------------------------------


def _need(cfg: dict, key: str):
    if key not in cfg:
        raise ConfigError(f"config is missing required key {key!r}")
    return cfg[key]


def _num(cfg: dict, key: str, kind=float):
    """``cfg[key]`` as a float, or as an int when kind is int; a numeric
    string reads as its number.  A missing key, a value that does not
    convert, a JSON boolean, or a number that is not whole for an int key is
    a config error."""
    v = _need(cfg, key)
    try:
        if kind is float:
            return float(harness._real_number(key, v))
        return harness._whole_number(key, int(v) if isinstance(v, str) else v)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"bad value for {key!r}: {exc}") from exc


def _given(cfg: dict, kind, *keys) -> dict:
    """The keys among ``keys`` that ``cfg`` gives, read by ``_num``; the
    library signature they are passed to holds the defaults of the rest."""
    return {k: _num(cfg, k, kind) for k in keys if k in cfg}


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
            **_given(d, float, "l1inf_cap"),
        )
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad domain block: {exc}") from exc


# the keys each covering-grid b rule takes besides "rule"
_B_RULES = {"half_radius": (), "constant": ("c",)}


def parse_b_rule(br) -> tuple:
    """The ``b_rule`` block as ``build_grid`` takes it: ("half_radius",) or
    ("constant", c); a block that is not an object, an unknown rule or an
    unknown key is a config error."""
    if not isinstance(br, dict):
        raise ConfigError(f"b_rule must be an object, got {br!r}")
    rule = _need(br, "rule")
    keys = _B_RULES.get(rule) if isinstance(rule, str) else None
    if keys is None:
        raise ConfigError(f"unknown b_rule rule {rule!r}")
    extra = sorted(set(br) - {"rule", *keys})
    if extra:
        raise ConfigError(f"unknown b_rule key(s) {extra} for rule {rule!r}")
    return (rule, *(_num(br, k) for k in keys))


def load_design(args, cfg: dict) -> DesignMatrix:
    if args.x and "design" in cfg:
        raise ConfigError("give the design once: --x or a 'design' config block, not both")
    if args.x:
        try:
            return DesignMatrix(np.loadtxt(args.x, delimiter=",", ndmin=2, dtype=float))
        except (OSError, ValueError) as exc:
            raise ConfigError(f"cannot load design from {args.x}: {exc}") from exc
    d = cfg.get("design")
    if d is None:
        raise ConfigError("no design: pass --x or a 'design' config block")
    n, p = _num(d, "n", int), _num(d, "p", int)
    seed = _num(d, "seed", int) if "seed" in d else 0
    try:
        rng = np.random.default_rng(np.random.SeedSequence((seed, 0xDE5)))
        return random_design(_need(d, "tag"), n, p, rng)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad design block: {exc}") from exc


# ----------------------------------------------------------------------------
# JSON output
# ----------------------------------------------------------------------------


def _json_float(x: float) -> str:
    if x != x:
        return "NaN"
    if x in (math.inf, -math.inf):
        return "Infinity" if x > 0 else "-Infinity"
    return float.__repr__(x)


# the scalars json writes without a container, by exact type (subclasses
# take the isinstance path of _json_write, as they do in json)
_JSON_SCALARS = {
    str: encode_basestring_ascii, int: int.__repr__, float: _json_float,
    bool: lambda b: "true" if b else "false", type(None): lambda _: "null",
}


def _json_key(k) -> str:
    if isinstance(k, str):
        return k
    if isinstance(k, float):
        return _json_float(k)
    if k is True or k is False or k is None:
        return _JSON_SCALARS[type(k)](k)
    if isinstance(k, int):
        return int.__repr__(k)
    raise TypeError(f"keys must be str, int, float, bool or None, not {type(k).__name__}")


def _json_write(o, out: list, nl: str):
    """Append the chunks of ``o``, at the indent that ``nl`` (a newline and
    the current indent) carries, to ``out``: the dispatch, separators and
    number formats of ``json.dumps(indent=2, default=str)``.  A list of
    plain ints and floats is formatted by one ``map``, and a scalar inside
    a container without a call of its own."""
    scalar = _JSON_SCALARS.get(type(o))
    if scalar is not None:
        out.append(scalar(o))
    elif isinstance(o, (str, int, float)):  # subclasses, np.float64 among them
        base = str if isinstance(o, str) else int if isinstance(o, int) else float
        out.append(_JSON_SCALARS[base](o))
    elif isinstance(o, (list, tuple, dict)):
        is_dict = isinstance(o, dict)
        close = "}" if is_dict else "]"
        inner = nl + "  "
        if not o:
            out.append(("{" if is_dict else "[") + close)
        elif not is_dict and set(map(type, o)) <= {int, float}:
            parts = list(map(repr, o))
            if "nan" in parts or "inf" in parts or "-inf" in parts:
                parts = [_json_float(v) if type(v) is float else repr(v) for v in o]
            out.append("[" + inner + ("," + inner).join(parts) + nl + "]")
        else:
            sep = ("{" if is_dict else "[") + inner
            pairs = ((encode_basestring_ascii(_json_key(k)) + ": ", v) for k, v in o.items()) \
                if is_dict else (("", v) for v in o)
            for head, v in pairs:
                scalar = _JSON_SCALARS.get(type(v))
                if scalar is not None:
                    out.append(sep + head + scalar(v))
                else:
                    out.append(sep + head)
                    _json_write(v, out, inner)
                sep = "," + inner
            out.append(nl + close)
    else:
        _json_write(str(o), out, nl)


def _json_text(result) -> str:
    """``json.dumps(result, indent=2, default=str)``, the same string for any
    value without reference cycles, written without the pure-Python
    encoder's generator per container (json encodes indented output in
    Python; a command's result is mostly lists of numbers)."""
    out: list = []
    _json_write(result, out, "\n")
    return "".join(out)


# ----------------------------------------------------------------------------
# subcommands
# ----------------------------------------------------------------------------


def _cmd_bounds(args, cfg: dict) -> dict:
    dm = load_design(args, cfg)
    theorem = _need(cfg, "theorem")
    I = parse_interval(_need(cfg, "interval"))
    q = _num(cfg, "q")
    sigma = _num(cfg, "sigma") if "sigma" in cfg else 1.0
    K = _given(cfg, int, "K")  # the glm constants take no series order
    if theorem == "glm":
        fam = parse_block(cfg, "family", expfam.FAMILIES)
        rep = bounds.glm_report(dm, fam, I, sigma, q)
    elif theorem == "one_disc":
        f = parse_block(cfg, "link", analytic.LINKS)
        rep = bounds.one_disc_report(dm, f, I, sigma, q, _num(cfg, "theta"), **K)
    elif theorem in ("ub_strip", "ub_interval"):
        f = parse_block(cfg, "link", analytic.LINKS)
        rep = bounds.ub_report(
            dm, f, I, sigma, q, rho1=_num(cfg, "rho1"), mode=theorem.removeprefix("ub_"),
            **_given(cfg, float, "theta", "h", "delta_D"), **K,
        )
    else:
        raise ConfigError(f"unknown theorem {theorem!r}")
    return rep.to_dict()


# the top-level keys fit reads (its design comes from --x): any other key is a config error
_FIT_KEYS = {"domain", "c_r", "family", "link"}


def _cmd_fit(args, cfg: dict) -> dict:
    if not args.x or not args.y:
        raise ConfigError("fit needs --x and --y CSV paths")
    extra = sorted(set(cfg) - _FIT_KEYS)
    if extra:
        raise ConfigError(f"unknown fit key(s) {extra}")
    dm = load_design(args, cfg)
    try:
        y = np.loadtxt(args.y, delimiter=",", dtype=float).ravel()
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
        "beta_hat": [float(v) for v in res.beta_hat],
        "support": list(res.support),
        "objective": res.objective,
        "loss": res.loss_value,
        "tie_break_applied": res.tie_break_applied,
        "n_supports": res.n_supports,
        "supports_solved": len(res.records),
        "diagnostics": res.diagnostics,
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
        result.to_csv(_out_dir(args) / "coverage.csv")
    return result.to_dict()


def _cmd_grid(args, cfg: dict) -> dict:
    dm = load_design(args, cfg)
    f = parse_block(cfg, "link", analytic.LINKS)
    D = parse_domain(_need(cfg, "domain"))
    b_rule = {"b_rule": parse_b_rule(cfg["b_rule"])} if "b_rule" in cfg else {}
    G = grids.build_grid(dm, f, D, **b_rule)
    return G.to_dict()


# the keys each verify check reads: any other key is a config error
_VERIFY_KEYS = {
    "tail": {"what", "noise", "trials", "n", "n_dirs", "seed"},
    "control": {"what", "noise", "design", "link", "centers", "q", "K_check", "trials", "seed"},
}


def _cmd_verify(args, cfg: dict) -> dict:
    what = _need(cfg, "what")
    keys = _VERIFY_KEYS.get(what) if isinstance(what, str) else None
    if keys is None:
        raise ConfigError("verify 'what' must be 'tail' or 'control'")
    extra = sorted(set(cfg) - keys)
    if extra:
        raise ConfigError(f"unknown verify key(s) {extra} for what {what!r}")
    noise = parse_block(cfg, "noise", harness.NOISES)
    if args.seed is not None:
        cfg = {**cfg, "seed": args.seed}
    if what == "tail":
        return harness.verify_tail(noise, **_given(cfg, int, "trials", "n", "n_dirs", "seed"))
    dm = load_design(args, cfg)
    f = parse_block(cfg, "link", analytic.LINKS)
    centers = cfg.get("centers")
    if centers is None:
        centers = [[0.0] * dm.p]
    return harness.verify_control_event(
        dm, f, [np.asarray(c, float) for c in centers], noise, q=_num(cfg, "q"),
        **_given(cfg, int, "K_check", "trials", "seed"),
    )


# per command: handler, output file, the flags of _FLAGS it reads, and its summary line
_COMMANDS = {
    "bounds": (_cmd_bounds, "bounds.json", ("x",),
               lambda r: f"c_r={r['c_r']:.6g} kappa_r={r['kappa_r']:.6g}"),
    "fit": (_cmd_fit, "fit.json", ("x", "y"),
            lambda r: f"support={r['support']} objective={r['objective']:.6g}"),
    "coverage": (_cmd_coverage, "coverage.json", ("seed",),
                 lambda r: f"coverage={r['coverage']:.3f} wilson_lo={r['wilson_lo']:.3f} "
                           f"target={r['target']:.3f} passed={r['passed']}"),
    "grid": (_cmd_grid, "grid.json", ("x",),
             lambda r: f"size={r['size']} bound={r['cardinality_bound']:.6g}"),
    "verify": (_cmd_verify, "verify.json", ("x", "seed"),
               lambda r: f"ok={r.get('all_ok', r.get('ok'))}"),
}

_FLAGS = {
    "x": {"help": "design matrix CSV (headerless), instead of a 'design' block"},
    "y": {"help": "response vector CSV"},
    "seed": {"type": int, "help": "override the config seed"},
}


def _out_dir(args) -> Path:
    """The --out directory (the working directory by default), created on
    first use: once the command has accepted its config, so a refused one
    leaves nothing behind."""
    out = Path(args.out) if args.out else Path.cwd()
    out.mkdir(parents=True, exist_ok=True)
    return out


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="l0bounds",
        description="L0-penalized nonlinear regression with certified error radii",
    )
    sub = ap.add_subparsers(dest="command", required=True)
    for name, (_, _, flags, _) in _COMMANDS.items():
        sp = sub.add_parser(name)
        sp.add_argument("--config", required=True, help="JSON configuration file")
        for flag in flags:
            sp.add_argument(f"--{flag}", **_FLAGS[flag])
        sp.add_argument("--out", help="output directory (default: cwd)")
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
        fn, outname, _, summary = _COMMANDS[args.command]
        result = fn(args, cfg)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ValueError, AssertionError, ArithmeticError) as exc:  # LinAlgError is a ValueError
        print(f"computation error: {exc}", file=sys.stderr)
        return 2
    out_path = _out_dir(args) / outname
    with open(out_path, "w") as fh:
        fh.write(_json_text(result))
        fh.write("\n")
    if not args.quiet:
        print(f"{args.command}: {summary(result)} -> {out_path}")
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
