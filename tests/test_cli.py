"""CLI subcommands: configs in, JSON out, exit codes."""

import json
import math

import numpy as np
import pytest

from l0bounds import (
    DesignMatrix,
    DomainSpec,
    FitProblem,
    Interval,
    analytic,
    bernoulli,
    bounds,
    expfam,
    fit,
    grids,
    harness,
    logistic_flip,
)
from l0bounds.cli import ConfigError, build_parser, main, parse_block


def _write(path, obj):
    path.write_text(json.dumps(obj))
    return str(path)


def _run(argv, capsys=None):
    code = main(argv)
    return code


def test_bounds_glm_roundtrip(tmp_path, capsys):
    cfg = _write(
        tmp_path / "cfg.json",
        {
            "theorem": "glm",
            "design": {"tag": "pm1_iid", "n": 50, "p": 8, "seed": 1},
            "family": {"tag": "bernoulli"},
            "interval": [-2.0, 2.0],
            "q": 0.1,
        },
    )
    assert main(["bounds", "--config", cfg, "--out", str(tmp_path)]) == 0
    blob = json.loads((tmp_path / "bounds.json").read_text())
    assert blob["theorem"] == "glm"
    assert blob["c_r"] == pytest.approx(3 * blob["c1"] ** 2 / blob["c2"], rel=1e-12)
    assert "c_r=" in capsys.readouterr().out


def test_bounds_ub_strip(tmp_path):
    cfg = _write(
        tmp_path / "cfg.json",
        {
            "theorem": "ub_strip",
            "design": {"tag": "pm1_iid", "n": 40, "p": 6, "seed": 2},
            "link": {"tag": "logistic_flip", "p01": 0.1, "p11": 0.9},
            "interval": [-1.5, 1.5],
            "q": 0.1,
            "rho1": math.pi / 2,
            "theta": 0.75,
        },
    )
    assert main(["bounds", "--config", cfg, "--out", str(tmp_path), "--quiet"]) == 0
    blob = json.loads((tmp_path / "bounds.json").read_text())
    assert blob["theorem"] == "ub_strip"
    assert blob["c_r"] > 0


def test_fit_from_csv(tmp_path):
    rng = np.random.default_rng(4)
    X = rng.standard_normal((30, 4))
    beta = np.array([0.0, 1.0, 0.0, -0.5])
    y = X @ beta + 0.01 * rng.standard_normal(30)
    np.savetxt(tmp_path / "x.csv", X, delimiter=",")
    np.savetxt(tmp_path / "y.csv", y, delimiter=",")
    cfg = _write(
        tmp_path / "cfg.json",
        {
            "family": {"tag": "gaussian"},
            "c_r": 0.05,
            "domain": {"interval": [-10, 10], "max_support": 2, "l1inf_cap": 10.0},
        },
    )
    assert (
        main(
            [
                "fit",
                "--config",
                cfg,
                "--x",
                str(tmp_path / "x.csv"),
                "--y",
                str(tmp_path / "y.csv"),
                "--out",
                str(tmp_path),
                "--quiet",
            ]
        )
        == 0
    )
    blob = json.loads((tmp_path / "fit.json").read_text())
    assert blob["support"] == [1, 3]
    assert len(blob["beta_hat"]) == 4


def test_fit_requires_data_paths(tmp_path):
    cfg = _write(tmp_path / "cfg.json", {"family": {"tag": "bernoulli"}})
    assert main(["fit", "--config", cfg]) == 1


def test_coverage_writes_json_and_csv(tmp_path, capsys):
    cfg = _write(
        tmp_path / "cfg.json",
        {"n": 30, "p": 5, "spt_size": 1, "replicates": 5, "seed": 11},
    )
    assert main(["coverage", "--config", cfg, "--out", str(tmp_path)]) == 0
    blob = json.loads((tmp_path / "coverage.json").read_text())
    assert blob["replicates"] == 5
    lines = (tmp_path / "coverage.csv").read_text().strip().splitlines()
    assert len(lines) == 6
    assert "coverage=" in capsys.readouterr().out


def test_coverage_seed_override_changes_result(tmp_path):
    cfg = _write(
        tmp_path / "cfg.json",
        {"n": 30, "p": 5, "spt_size": 1, "replicates": 5, "seed": 11},
    )
    main(["coverage", "--config", cfg, "--out", str(tmp_path / "a"), "--quiet"])
    main(
        [
            "coverage", "--config", cfg, "--out", str(tmp_path / "b"),
            "--seed", "99", "--quiet",
        ]
    )
    a = json.loads((tmp_path / "a" / "coverage.json").read_text())
    b = json.loads((tmp_path / "b" / "coverage.json").read_text())
    assert a["config"]["seed"] != b["config"]["seed"]


def test_grid_subcommand(tmp_path):
    cfg = _write(
        tmp_path / "cfg.json",
        {
            "design": {"tag": "pm1_iid", "n": 30, "p": 6, "seed": 3},
            "link": {"tag": "logistic_flip", "p01": 0.1, "p11": 0.9},
            "domain": {"interval": [-1.5, 1.5], "max_support": 1, "l1inf_cap": 1.5},
        },
    )
    assert main(["grid", "--config", cfg, "--out", str(tmp_path), "--quiet"]) == 0
    blob = json.loads((tmp_path / "grid.json").read_text())
    assert blob["size"] >= 1
    assert blob["size"] <= blob["cardinality_bound"]


def test_verify_tail_subcommand(tmp_path):
    cfg = _write(
        tmp_path / "cfg.json",
        {
            "what": "tail",
            "noise": {"tag": "gaussian_iid", "sigma": 1.0},
            "trials": 10000,
            "n": 10,
            "n_dirs": 2,
        },
    )
    assert main(["verify", "--config", cfg, "--out", str(tmp_path), "--quiet"]) == 0
    blob = json.loads((tmp_path / "verify.json").read_text())
    assert blob["all_ok"] is True


def test_verify_control_subcommand(tmp_path):
    cfg = _write(
        tmp_path / "cfg.json",
        {
            "what": "control",
            "noise": {"tag": "gaussian_iid", "sigma": 1.0},
            "link": {"tag": "logistic_flip", "p01": 0.1, "p11": 0.9},
            "design": {"tag": "pm1_iid", "n": 12, "p": 3, "seed": 4},
            "q": 0.1,
            "trials": 5000,
        },
    )
    assert main(["verify", "--config", cfg, "--out", str(tmp_path), "--quiet"]) == 0
    blob = json.loads((tmp_path / "verify.json").read_text())
    assert blob["ok"] is True


def test_exit_code_1_on_bad_config(tmp_path):
    missing = str(tmp_path / "nope.json")
    assert main(["bounds", "--config", missing]) == 1
    bad = tmp_path / "bad.json"
    bad.write_text("not json at all")
    assert main(["bounds", "--config", str(bad)]) == 1
    unknown = _write(tmp_path / "u.json", {"theorem": "nope", "interval": [-1, 1],
                                           "q": 0.1,
                                           "design": {"tag": "pm1_iid", "n": 5, "p": 2}})
    assert main(["bounds", "--config", str(tmp_path / "u.json")]) == 1


def test_exit_code_2_on_computation_error(tmp_path):
    # theta near 1 widens the one-disc series past decay at K -> exit 2
    cfg = _write(
        tmp_path / "cfg.json",
        {
            "theorem": "one_disc",
            "design": {"tag": "pm1_iid", "n": 30, "p": 6, "seed": 5},
            "link": {"tag": "logistic_flip", "p01": 0.1, "p11": 0.9},
            "interval": [-1.5, 1.5],
            "q": 0.1,
            "theta": 0.999,
        },
    )
    assert main(["bounds", "--config", cfg, "--out", str(tmp_path)]) == 2


@pytest.mark.parametrize(
    "block, message",
    [
        ({"theorem": "glm", "family": {"tag": "bernoulli"}}, "flat family on I"),
        (
            {
                "theorem": "one_disc",
                "link": {"tag": "logistic_flip", "p01": 0.1, "p11": 0.9},
                "theta": 0.75,
            },
            "non-identifiable link",
        ),
    ],
)
def test_exit_code_2_where_the_logistic_floor_underflows(tmp_path, capsys, block, message):
    # sup |t| = 1500 overflows cosh(sup|t| / 2): the floor is 0, a computation error
    cfg = _write(
        tmp_path / "cfg.json",
        {
            **block,
            "design": {"tag": "pm1_iid", "n": 30, "p": 6, "seed": 5},
            "interval": [-1500, 1500],
            "q": 0.1,
        },
    )
    assert main(["bounds", "--config", cfg, "--out", str(tmp_path)]) == 2
    assert message in capsys.readouterr().err


def test_quiet_suppresses_summary(tmp_path, capsys):
    cfg = _write(
        tmp_path / "cfg.json",
        {"n": 30, "p": 5, "spt_size": 1, "replicates": 3, "seed": 1},
    )
    main(["coverage", "--config", cfg, "--out", str(tmp_path), "--quiet"])
    assert capsys.readouterr().out == ""


# one valid block per constructor-table entry: the keys are the
# constructor's keyword arguments
BLOCKS = {
    "link": {
        "logistic_flip": {"p01": 0.1, "p11": 0.9},
        "linear": {"a": 2.0, "b": -0.5},
        "polynomial": {"coeffs": [1.0, 0.0, -0.25]},
        "exp": {},
    },
    "family": {"bernoulli": {}, "gaussian": {"sigma2": 2.5}},
    "noise": {
        "gaussian_iid": {"sigma": 1.5},
        "gaussian_correlated": {"sigma": 0.5, "rho": 0.3},
        "bounded_iid": {"sigma": 0.4},
        "bernoulli_residual": {},
        "flip_channel": {"p01": 0.2, "p11": 0.7},
    },
}
TABLES = {"link": analytic.LINKS, "family": expfam.FAMILIES, "noise": harness.NOISES}


def _same(a, b):
    """Same kind, same parameters, same values on a grid of row images."""
    assert type(a) is type(b) and a.tag == b.tag
    assert repr(a.params) == repr(b.params)
    t = np.linspace(-2.0, 2.0, 9)
    if isinstance(a, analytic.AnalyticFn):
        assert np.array_equal(a(t), b(t))
        assert [a.coeff_k(k, 0.3) for k in range(4)] == [b.coeff_k(k, 0.3) for k in range(4)]
    elif isinstance(a, expfam.ExpFamily):
        for fn in ("log_partition", "mean", "variance"):
            assert np.array_equal(getattr(a, fn)(t), getattr(b, fn)(t))
    else:
        assert a == b
        draws = [m.draw(np.random.default_rng(3), t.size, t=t) for m in (a, b)]
        assert np.array_equal(*draws)


def test_every_table_entry_has_a_block():
    assert {k: set(v) for k, v in BLOCKS.items()} == {k: set(v) for k, v in TABLES.items()}


@pytest.mark.parametrize(
    "key,tag", [(key, tag) for key, tags in BLOCKS.items() for tag in tags]
)
def test_block_builds_the_constructor_object(key, tag):
    kwargs = BLOCKS[key][tag]
    got = parse_block({key: {"tag": tag, **kwargs}}, key, TABLES[key])
    _same(got, TABLES[key][tag](**kwargs))


@pytest.mark.parametrize("key", sorted(BLOCKS))
def test_block_unknown_tag_or_key_is_a_config_error(key):
    tag, kwargs = next(iter(BLOCKS[key].items()))
    for bad in ({"tag": "nope", **kwargs}, {"tag": tag, **kwargs, "bogus": 1}, {**kwargs}):
        with pytest.raises(ConfigError):
            parse_block({key: bad}, key, TABLES[key])


def test_unknown_block_key_exits_1(tmp_path):
    base = {
        "theorem": "glm", "interval": [-2.0, 2.0], "q": 0.1,
        "design": {"tag": "pm1_iid", "n": 20, "p": 3, "seed": 1},
    }
    ok = _write(tmp_path / "ok.json", {**base, "family": {"tag": "bernoulli"}})
    assert main(["bounds", "--config", ok, "--out", str(tmp_path), "--quiet"]) == 0
    bad = _write(tmp_path / "bad.json", {**base, "family": {"tag": "bernoulli", "sigma2": 3}})
    assert main(["bounds", "--config", bad, "--out", str(tmp_path), "--quiet"]) == 1
    noise = _write(
        tmp_path / "noise.json",
        {"what": "tail", "noise": {"tag": "gaussian_iid", "sigma": 1.0, "rho": 0.5}},
    )
    assert main(["verify", "--config", noise, "--out", str(tmp_path), "--quiet"]) == 1


@pytest.mark.parametrize(
    "design",
    [
        {"tag": "nope", "n": 20, "p": 3},
        {"tag": "pm1_iid", "n": 0, "p": 3},
        {"tag": "binary_iid", "n": 20, "p": 0},
        {"tag": "gaussian_iid", "n": "many", "p": 3},
        {"tag": "pm1_iid", "n": 100.7, "p": 3},  # int() would truncate it to 100
    ],
)
def test_bad_design_block_exits_1(tmp_path, design):
    cfg = _write(
        tmp_path / "cfg.json",
        {"theorem": "glm", "interval": [-2.0, 2.0], "q": 0.1,
         "family": {"tag": "bernoulli"}, "design": design},
    )
    assert main(["bounds", "--config", cfg, "--out", str(tmp_path), "--quiet"]) == 1


@pytest.mark.parametrize(
    "key,design,q",
    [
        ("p", {"tag": "pm1_iid", "n": 20, "p": True}, 0.1),  # int(True) would be p = 1
        ("seed", {"tag": "pm1_iid", "n": 20, "p": 3, "seed": True}, 0.1),
        ("q", {"tag": "pm1_iid", "n": 20, "p": 3}, False),  # float(False) would be 0.0
    ],
)
def test_json_boolean_for_a_number_exits_1(tmp_path, capsys, key, design, q):
    cfg = _write(
        tmp_path / "cfg.json",
        {"theorem": "glm", "interval": [-2.0, 2.0], "q": q,
         "family": {"tag": "bernoulli"}, "design": design},
    )
    assert main(["bounds", "--config", cfg, "--out", str(tmp_path), "--quiet"]) == 1
    assert f"bad value for {key!r}" in capsys.readouterr().err


@pytest.mark.parametrize(
    "bad",
    [
        {"family": "poisson"},
        {"c_r": "big"},
        {"c_r": -0.5},
        {"c_r": "nan"},
        {"c_r": None},
        {"family": "gaussian", "sigma2": -1},
        # K and theta (here and below) are fixed in the harness: unknown keys
        {"model": "flip", "K": 0},
        {"model": "flip", "p01": 0.9, "p11": 0.1},
        {"model": "flip", "theta": 1.5},
        # whole-number keys: fractions used to end in a TypeError traceback
        # (or run on, for h_max), a non-number seed in exit 2
        {"n": 100.5},
        {"model": "flip", "K": 2.5},
        {"seed": "abc"},
        {"h_max": 2.5},
        # a support budget below the truth's support size
        {"h_max": 0},
        {"spt_size": 3, "h_max": -3},
    ],
)
def test_bad_coverage_config_exits_1(tmp_path, capsys, monkeypatch, bad):
    drawn = []
    real = harness.generate_instance
    monkeypatch.setattr(harness, "generate_instance", lambda *a: drawn.append(a) or real(*a))
    cfg = _write(
        tmp_path / "cfg.json",
        {"n": 30, "p": 5, "spt_size": 1, "replicates": 2, "seed": 11, **bad},
    )
    assert main(["coverage", "--config", cfg, "--out", str(tmp_path), "--quiet"]) == 1
    assert not (tmp_path / "coverage.json").exists()
    assert drawn == []  # rejected before any replicate is drawn
    err = capsys.readouterr().err
    assert any(key in err for key in bad if key != "model"), err  # the error names the key
    fixed = sorted(set(bad) & {"K", "theta", "rho1"})
    if fixed:
        assert f"unknown experiment keys: {fixed}" in err, err


SCALAR_BASE = {
    "bounds": {
        "theorem": "ub_strip", "design": {"tag": "pm1_iid", "n": 40, "p": 6, "seed": 2},
        "link": {"tag": "logistic_flip", "p01": 0.1, "p11": 0.9},
        "interval": [-1.5, 1.5], "q": 0.1, "rho1": 1.0, "theta": 0.75, "K": 12,
    },
    "grid": {
        "design": {"tag": "pm1_iid", "n": 30, "p": 6, "seed": 1},
        "link": {"tag": "logistic_flip", "p01": 0.1, "p11": 0.9},
        "domain": {"interval": [-1.5, 1.5], "max_support": 1, "l1inf_cap": 1.5},
    },
    "verify": {
        "what": "control", "design": {"tag": "pm1_iid", "n": 12, "p": 3, "seed": 1},
        "link": {"tag": "logistic_flip", "p01": 0.1, "p11": 0.9},
        "noise": {"tag": "gaussian_iid", "sigma": 1.0}, "q": 0.1, "trials": 500,
    },
}


@pytest.mark.parametrize("key,value", [("h", 2), ("delta_D", 1.5), ("q", 0.1), ("K", 12)])
def test_numeric_string_scalar_reads_as_its_number(tmp_path, key, value):
    base = SCALAR_BASE["bounds"]
    num = _write(tmp_path / "num.json", {**base, key: value})
    assert main(["bounds", "--config", num, "--out", str(tmp_path / "a"), "--quiet"]) == 0
    txt = _write(tmp_path / "txt.json", {**base, key: str(value)})
    assert main(["bounds", "--config", txt, "--out", str(tmp_path / "b"), "--quiet"]) == 0
    a = json.loads((tmp_path / "a" / "bounds.json").read_text())
    b = json.loads((tmp_path / "b" / "bounds.json").read_text())
    assert a == b


@pytest.mark.parametrize(
    "command,key,value",
    [
        ("bounds", "h", "two"),
        ("bounds", "delta_D", "1.5.0"),
        ("bounds", "q", "abc"),
        ("bounds", "K", "many"),
        ("bounds", "sigma", [1.0]),
        ("verify", "K_check", "3.5"),
        ("verify", "trials", None),
        # the id keeps the name this case had while a grid case stood before it
        pytest.param("verify", "q", {}, id="verify-q-value8"),
        ("bounds", "K", 12.9),  # int() would truncate it to 12
    ],
)
def test_bad_scalar_value_exits_1(tmp_path, capsys, command, key, value):
    good = _write(tmp_path / "good.json", SCALAR_BASE[command])
    assert main([command, "--config", good, "--out", str(tmp_path), "--quiet"]) == 0
    cfg = _write(tmp_path / "cfg.json", {**SCALAR_BASE[command], key: value})
    assert main([command, "--config", cfg, "--out", str(tmp_path / "bad"), "--quiet"]) == 1
    assert f"bad value for {key!r}" in capsys.readouterr().err


@pytest.mark.parametrize(
    "b_rule,named",
    [
        ("half_radius", "b_rule must be an object"),
        (["constant", 0.5], "b_rule must be an object"),
        (None, "b_rule must be an object"),
        ({"rule": "half-radius", "c": 0.5}, "unknown b_rule rule 'half-radius'"),
        ({"rule": ["constant"], "c": 0.5}, "unknown b_rule rule"),
        ({"c": 0.5}, "missing required key 'rule'"),
        ({"rule": "half_radius", "c": 0.5}, "unknown b_rule key(s) ['c']"),
        ({"rule": "constant", "c": 0.5, "d": 1.0}, "unknown b_rule key(s) ['d']"),
        ({"rule": "constant"}, "missing required key 'c'"),
        ({"rule": "constant", "c": "wide"}, "bad value for 'c'"),
    ],
)
def test_bad_b_rule_exits_1(tmp_path, capsys, b_rule, named):
    cfg = _write(tmp_path / "cfg.json", {**SCALAR_BASE["grid"], "b_rule": b_rule})
    assert main(["grid", "--config", cfg, "--out", str(tmp_path), "--quiet"]) == 1
    assert named in capsys.readouterr().err
    assert not (tmp_path / "grid.json").exists()


def test_b_rule_block_picks_the_rule(tmp_path):
    grids = {}
    for name, extra in [
        ("default", {}),
        ("half", {"b_rule": {"rule": "half_radius"}}),
        ("const", {"b_rule": {"rule": "constant", "c": 0.75}}),
    ]:
        cfg = _write(tmp_path / f"{name}.json", {**SCALAR_BASE["grid"], **extra})
        assert main(["grid", "--config", cfg, "--out", str(tmp_path / name), "--quiet"]) == 0
        grids[name] = json.loads((tmp_path / name / "grid.json").read_text())
    assert grids["default"] == grids["half"]
    assert {pt["b"] for pt in grids["const"]["points"]} == {0.75}
    assert grids["const"]["d"] == 0.375


# each command's config with its defaulted keys left out, and those keys at
# the values the CLI used to fill in: the library signatures now hold them
TAIL = {"what": "tail", "noise": {"tag": "gaussian_iid", "sigma": 1.0}}
DEFAULTED = {
    "verify-tail": ("verify", TAIL, {"trials": 100_000, "n": 20, "n_dirs": 8, "seed": 2026}),
    "verify-control": (
        "verify", {k: v for k, v in SCALAR_BASE["verify"].items() if k != "trials"},
        {"K_check": 3, "trials": 10_000, "seed": 2026},
    ),
    "bounds-one_disc": (
        "bounds", {**SCALAR_BASE["bounds"], "theorem": "one_disc", "K": None},
        {"K": 60},
    ),
    "bounds-ub_strip": (
        "bounds", {**SCALAR_BASE["bounds"], "theta": None, "K": None},
        {"theta": 0.75, "K": 60},
    ),
    "grid": ("grid", SCALAR_BASE["grid"], {"b_rule": {"rule": "half_radius"}}),
}


@pytest.mark.parametrize("case", sorted(DEFAULTED))
def test_left_out_keys_give_the_bytes_of_their_defaults(tmp_path, case):
    command, base, defaults = DEFAULTED[case]
    base = {k: v for k, v in base.items() if v is not None}
    out = {}
    for name, cfg in (("left_out", base), ("written", {**base, **defaults})):
        path = _write(tmp_path / f"{name}.json", cfg)
        assert main([command, "--config", path, "--out", str(tmp_path / name), "--quiet"]) == 0
        out[name] = (tmp_path / name / f"{command}.json").read_bytes()
    assert out["left_out"] == out["written"]


@pytest.mark.parametrize(
    "cfg,named",
    [
        ({**TAIL, "trials": 10_000, "n": 0}, "n must be >= 1"),
        ({**TAIL, "trials": 10_000, "n_dirs": 0}, "n_dirs must be >= 1"),
        ({**SCALAR_BASE["verify"], "trials": 0}, "trials must be >= 1"),
        ({**SCALAR_BASE["verify"], "trials": -5}, "trials must be >= 1"),
        ({**SCALAR_BASE["verify"], "centers": [[0.0, 0.0, 0.0], [0.0, 0.0]]},
         "center 1 has length 2"),
    ],
    ids=["tail-n-0", "tail-n_dirs-0", "control-trials-0", "control-trials-negative",
         "control-center-length"],
)
def test_verify_refuses_empty_checks_and_bad_centers(tmp_path, capsys, cfg, named):
    # each used to exit 0 with a vacuous pass, or 2 with an error naming no key
    cfg = _write(tmp_path / "cfg.json", cfg)
    assert main(["verify", "--config", cfg, "--out", str(tmp_path), "--quiet"]) == 2
    assert named in capsys.readouterr().err
    assert not (tmp_path / "verify.json").exists()


@pytest.mark.parametrize(
    "cfg,named",
    [
        ({**TAIL, "bogus": 1}, "['bogus']"),
        ({**TAIL, "K_check": 9, "centers": "x"}, "['K_check', 'centers']"),
        ({**SCALAR_BASE["verify"], "bogus": 1}, "['bogus']"),
        ({**SCALAR_BASE["verify"], "n_dirs": 2}, "['n_dirs']"),
        ({**TAIL, "what": "nope"}, "'what' must be 'tail' or 'control'"),
        ({**TAIL, "what": ["tail"]}, "'what' must be 'tail' or 'control'"),
    ],
    ids=["tail-bogus", "tail-control-keys", "control-bogus", "control-tail-key", "what-unknown",
         "what-list"],
)
def test_verify_refuses_a_key_its_check_does_not_read(tmp_path, capsys, cfg, named):
    # a misspelt or misplaced key used to fall back to its default and exit 0
    cfg = _write(tmp_path / "cfg.json", cfg)
    assert main(["verify", "--config", cfg, "--out", str(tmp_path), "--quiet"]) == 1
    assert named in capsys.readouterr().err
    assert not (tmp_path / "verify.json").exists()


def test_bad_fit_scalar_exits_1(tmp_path, capsys):
    rng = np.random.default_rng(0)
    x, y = tmp_path / "x.csv", tmp_path / "y.csv"
    np.savetxt(x, rng.choice([-1.0, 1.0], size=(20, 3)), delimiter=",")
    np.savetxt(y, rng.integers(0, 2, 20).astype(float), delimiter=",")
    base = {
        "family": {"tag": "bernoulli"}, "c_r": 0.5,
        "domain": {"interval": [-3, 3], "max_support": 1, "l1inf_cap": 3},
    }
    argv = ["fit", "--x", str(x), "--y", str(y), "--out", str(tmp_path), "--quiet"]
    assert main(argv + ["--config", _write(tmp_path / "ok.json", base)]) == 0
    cfg = _write(tmp_path / "cfg.json", {**base, "c_r": "0.5x"})
    assert main(argv + ["--config", cfg]) == 1
    assert "bad value for 'c_r'" in capsys.readouterr().err


def test_exit_code_2_on_arithmetic_overflow(tmp_path, capsys):
    # e^(sup I) overflows a double once sup I passes ~709.78: the exp link's
    # interval envelope cannot be formed, a computation error
    cfg = _write(
        tmp_path / "cfg.json",
        {
            "theorem": "ub_interval", "link": {"tag": "exp"}, "interval": [-1, 800],
            "rho1": 0.5, "q": 0.1, "design": {"tag": "pm1_iid", "n": 30, "p": 4, "seed": 1},
        },
    )
    assert main(["bounds", "--config", cfg, "--out", str(tmp_path)]) == 2
    assert "computation error: overflow" in capsys.readouterr().err


@pytest.mark.parametrize("block", [
    {"theorem": "glm", "family": {"tag": "bernoulli"}},
    {"theorem": "one_disc", "link": {"tag": "logistic_flip", "p01": 0.1, "p11": 0.9}, "theta": 0.75},
])
def test_exit_code_2_names_c2_when_it_overflows(tmp_path, capsys, block):
    # c2 scales with the square of the design: past about 1e154 it leaves
    # the double range, and the message says which constant and why
    x = tmp_path / "x.csv"
    np.savetxt(x, 1e160 * np.random.default_rng(23).standard_normal((50, 4)), delimiter=",")
    cfg = _write(tmp_path / "cfg.json", {**block, "interval": [-1, 1], "q": 0.1})
    assert main(["bounds", "--config", cfg, "--x", str(x), "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert "computation error: c2 overflows" in err
    assert "minimum column 2-norm" in err and "design scale" in err


@pytest.mark.parametrize("command", ["bounds", "grid", "verify"])
def test_a_design_block_beside_x_is_refused(tmp_path, capsys, command):
    # the design used to come from --x while the config's design block was
    # silently ignored; giving both is now a config error naming the block,
    # and the config without it still runs on --x
    x = tmp_path / "x.csv"
    np.savetxt(x, np.random.default_rng(24).choice([-1.0, 1.0], (40, 3)), delimiter=",")
    both = _write(tmp_path / "both.json", SCALAR_BASE[command])
    argv = [command, "--x", str(x), "--quiet"]
    assert main(argv + ["--config", both, "--out", str(tmp_path / "both")]) == 1
    assert "'design'" in capsys.readouterr().err
    assert not (tmp_path / "both").exists()
    base = {k: v for k, v in SCALAR_BASE[command].items() if k != "design"}
    alone = _write(tmp_path / "alone.json", base)
    assert main(argv + ["--config", alone, "--out", str(tmp_path / "alone")]) == 0


def test_configs_keep_running_with_the_deleted_keys(tmp_path):
    # bounds and grid ignore top-level keys they do not read, so configs
    # that still carry nu or h give the same output (fit refuses such keys:
    # test_fit_refuses_a_key_it_does_not_read)
    for command, base, old in (
        ("bounds", SCALAR_BASE["bounds"], {"nu": 0.5}),
        ("grid", SCALAR_BASE["grid"], {"h": 2}),
    ):
        a = _write(tmp_path / "a.json", base)
        b = _write(tmp_path / "b.json", {**base, **old})
        assert main([command, "--config", a, "--out", str(tmp_path / "a"), "--quiet"]) == 0
        assert main([command, "--config", b, "--out", str(tmp_path / "b"), "--quiet"]) == 0
        out = f"{command}.json"
        assert (tmp_path / "a" / out).read_bytes() == (tmp_path / "b" / out).read_bytes()


@pytest.mark.parametrize(
    "extra,named",
    [({"c_rr": 0.5}, "['c_rr']"), ({"loss": "lse", "h_max": 3}, "['h_max', 'loss']"),
     ({"design": {"tag": "pm1_iid", "n": 60, "p": 4}}, "['design']")],
    ids=["misspelt", "deleted-keys", "design-beside-x"],
)
def test_fit_refuses_a_key_it_does_not_read(tmp_path, capsys, extra, named):
    # a misspelt key used to fall back to its default and exit 0; fit reads
    # only domain, c_r and the model block (its design comes from --x)
    x, y, base = _fit_inputs(tmp_path)
    argv = ["fit", "--x", x, "--y", y, "--quiet"]
    good = _write(tmp_path / "good.json", {**base, "link": LINK_BLOCK})
    assert main(argv + ["--config", good, "--out", str(tmp_path / "good")]) == 0
    cfg = _write(tmp_path / "cfg.json", {**base, "link": LINK_BLOCK, **extra})
    assert main(argv + ["--config", cfg, "--out", str(tmp_path / "out")]) == 1
    assert f"unknown fit key(s) {named}" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["verify", "coverage", "fit"])
def test_a_refused_config_leaves_no_out_directory(tmp_path, capsys, command):
    # --out used to be created before the command read its config, so a
    # refused config exited 1 and still left an empty directory
    x, y, base = _fit_inputs(tmp_path)
    cfg = {
        "verify": {"what": "tail", "noise": {"tag": "gaussian_iid", "sigma": 1.0}, "bogus": 1},
        "coverage": {"n": 30, "p": 5, "spt_size": 1, "replicates": 2, "seed": 11, "bogus": 1},
        "fit": {**base, "link": LINK_BLOCK, "bogus": 1},
    }[command]
    flags = ["--x", x, "--y", y] if command == "fit" else []
    out = tmp_path / "out"
    path = _write(tmp_path / "cfg.json", cfg)
    assert main([command, "--config", path, "--out", str(out), "--quiet", *flags]) == 1
    assert "bogus" in capsys.readouterr().err
    assert not out.exists()


def _fit_inputs(tmp_path, budget=2):
    """x.csv and y.csv of a 2-sparse flipped-logistic instance, and a fit
    config without a model block."""
    rng = np.random.default_rng(12)
    X = rng.choice([-1.0, 1.0], size=(60, 4))
    y = logistic_flip(0.1, 0.9)(X @ np.array([0.0, 1.2, 0.0, -0.8])) + rng.normal(0.0, 0.05, 60)
    np.savetxt(tmp_path / "x.csv", X, delimiter=",")
    np.savetxt(tmp_path / "y.csv", y, delimiter=",")
    base = {"c_r": 0.05, "domain": {"interval": [-3, 3], "max_support": budget, "l1inf_cap": 3}}
    return str(tmp_path / "x.csv"), str(tmp_path / "y.csv"), base


LINK_BLOCK = {"tag": "logistic_flip", "p01": 0.1, "p11": 0.9}


def test_fit_loss_follows_from_the_model_block(tmp_path, capsys):
    # least squares reads the response, the likelihood its 0/1 rounding
    x, y, base = _fit_inputs(tmp_path)
    dm = DesignMatrix(np.loadtxt(x, delimiter=","))
    yv = np.loadtxt(y, delimiter=",")
    np.savetxt(tmp_path / "y01.csv", (yv > 0.5).astype(float), delimiter=",")
    D = DomainSpec(Interval(-3.0, 3.0), max_support=2, l1inf_cap=3.0)
    for block, model, yfile, yfit in (
        ({"link": LINK_BLOCK}, {"link": logistic_flip(0.1, 0.9)}, y, yv),
        ({"family": {"tag": "bernoulli"}}, {"family": bernoulli()}, str(tmp_path / "y01.csv"),
         (yv > 0.5).astype(float)),
    ):
        cfg = _write(tmp_path / "cfg.json", {**base, **block})
        argv = ["fit", "--x", x, "--y", yfile, "--out", str(tmp_path), "--quiet", "--config", cfg]
        assert main(argv) == 0
        got = json.loads((tmp_path / "fit.json").read_text())
        want = fit(FitProblem(y=yfit, X=dm, domain=D, c_r=0.05, **model))
        assert got["objective"] == want.objective and got["loss"] == want.loss_value
        assert got["supports_solved"] == len(want.records) <= got["n_supports"]
        assert got["diagnostics"] == want.diagnostics  # per support size: solves, steps
        assert got["support"] == list(want.support) == [1, 3]
    both = {**base, "link": LINK_BLOCK, "family": {"tag": "bernoulli"}}
    for bad in (both, base):
        cfg = _write(tmp_path / "cfg.json", bad)
        assert main(["fit", "--x", x, "--y", y, "--out", str(tmp_path), "--config", cfg]) == 1
        assert "give exactly one of family" in capsys.readouterr().err


@pytest.mark.parametrize("budget,exit_code", [("nan", 1), (float("nan"), 1), ("inf", 0)])
def test_fit_support_budget_nan_rejected_inf_enumerates_all(tmp_path, budget, exit_code):
    x, y, base = _fit_inputs(tmp_path, budget=budget)
    cfg = _write(tmp_path / "cfg.json", {**base, "link": LINK_BLOCK})
    argv = ["fit", "--x", x, "--y", y, "--out", str(tmp_path), "--quiet", "--config", cfg]
    assert main(argv) == exit_code
    if exit_code == 0:
        assert json.loads((tmp_path / "fit.json").read_text())["n_supports"] == 2**4


@pytest.mark.parametrize(
    "command,cls,cfg",
    [
        ("bounds", bounds.BoundsReport, SCALAR_BASE["bounds"]),
        ("grid", grids.CoveringGrid, SCALAR_BASE["grid"]),
        ("coverage", harness.CoverageResult, {"n": 30, "p": 5, "spt_size": 1, "replicates": 5, "seed": 11}),
    ],
)
def test_json_file_is_the_to_json_text(tmp_path, monkeypatch, command, cls, cfg):
    # the CLI writes the result's dict once; the file is byte for byte the
    # dict's indented JSON text after a round trip through json.loads
    made = []
    to_dict = cls.to_dict

    def recorded(self):
        made.append(self)
        return to_dict(self)

    monkeypatch.setattr(cls, "to_dict", recorded)
    path = _write(tmp_path / "cfg.json", cfg)
    assert main([command, "--config", path, "--out", str(tmp_path), "--quiet"]) == 0
    text = json.dumps(to_dict(made[0]), indent=2)
    want = json.dumps(json.loads(text), indent=2, default=str) + "\n"
    assert (tmp_path / f"{command}.json").read_text() == want


@pytest.mark.parametrize(
    "command,reads",
    [
        ("bounds", ("--x",)),
        ("fit", ("--x", "--y")),
        ("coverage", ("--seed",)),
        ("grid", ("--x",)),
        ("verify", ("--x", "--seed")),
    ],
)
def test_each_command_takes_only_the_flags_it_reads(tmp_path, capsys, command, reads):
    # a flag the command would ignore (bounds --seed 5 once wrote the same
    # file as --seed 1) is a usage error: argparse exits 2 before any work
    cfg = _write(tmp_path / "cfg.json", {})
    out = tmp_path / "out"
    for flag in sorted({"--x", "--y", "--seed"} - set(reads)):
        with pytest.raises(SystemExit) as exc:
            main([command, "--config", cfg, "--out", str(out), "--quiet", flag, "5"])
        assert exc.value.code == 2
        assert f"unrecognized arguments: {flag} 5" in capsys.readouterr().err
        assert not out.exists()
    args = build_parser().parse_args(
        [command, "--config", cfg, "--out", str(out), "--quiet", *(a for f in reads for a in (f, "5"))]
    )
    for flag in reads:
        assert getattr(args, flag[2:]) in ("5", 5)


class _Shown:
    def __str__(self):
        return "shown <é>"

    def __repr__(self):
        # a fixed repr keeps the parametrized test ids free of memory addresses
        return "_Shown()"


JSON_EDGES = [
    math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, 2.2250738585072014e-308, 1e300, 1, -7, 2**70,
    True, False, None, "", "plain", "non-ASCII: é ß 中文 😀", "quotes \" \\ and\ncontrols\t\x00",
    [], {}, (), [[]], [{}], {"": []},
    [1.5, -0.0, math.nan, math.inf, -math.inf, 3], [math.inf, 2.0], [-1, -math.inf], [1, True],
    [0.5, None, "x"],
    np.float64(0.1), np.float64(math.nan), np.int64(3), np.float32(0.5), np.bool_(True),
    [np.float64(2.0), 1.0], [np.int64(1), 2], _Shown(), [_Shown(), {"k": _Shown()}],
    {1: "int key", 2.5: "float key", math.inf: 1, -math.inf: 2, True: 3, None: 4, "s": 5},
    {"nested": {"deeper": [{"a": [1.0, 2.0]}, ({},)]}},
]


@pytest.mark.parametrize("value", JSON_EDGES + [JSON_EDGES, {"all": JSON_EDGES}], ids=repr)
def test_json_writer_gives_the_bytes_of_json_dumps(value):
    # json.dumps(indent=2, default=str) is the reference; the fixture in
    # conftest.py checks the same on every file a command writes in tests/
    from l0bounds.cli import _json_text

    assert _json_text(value) == json.dumps(value, indent=2, default=str)


def test_json_writer_refuses_the_keys_json_refuses():
    from l0bounds.cli import _json_text

    for key in ((1, 2), np.int64(1)):
        with pytest.raises(TypeError, match="keys must be str, int, float, bool or None"):
            json.dumps({key: 1}, indent=2, default=str)
        with pytest.raises(TypeError, match="keys must be str, int, float, bool or None"):
            _json_text({key: 1})


@pytest.mark.parametrize(
    "bad,named",
    [
        ({"family": ["gaussian"]}, "family must be one of"),
        ({"design": ["pm1_iid"]}, "design must be one of"),
        ({"q": "tenth"}, "q must be a number, got 'tenth'"),
        ({"interval_halfwidth": [3.0]}, "interval_halfwidth must be a number"),
        ({"model": "flip", "p01": True}, "p01 must be a number, got True"),
        ({"n": "thirty"}, "n must be a whole number"),
    ],
)
def test_coverage_config_of_a_wrong_type_exits_1_naming_its_key(tmp_path, capsys, bad, named):
    cfg = _write(tmp_path / "cfg.json", {"n": 30, "p": 5, "spt_size": 1, "replicates": 2, **bad})
    assert main(["coverage", "--config", cfg, "--out", str(tmp_path), "--quiet"]) == 1
    assert f"bad experiment config: {named}" in capsys.readouterr().err


@pytest.mark.parametrize("key,value", [("q", 0.2), ("interval_halfwidth", 1.5), ("c_r", 0.5)])
def test_coverage_reads_a_numeric_string_as_its_number(tmp_path, key, value):
    base = {"n": 30, "p": 5, "spt_size": 1, "replicates": 2, "seed": 3, "model": "flip", "c_r": 1.0}
    num = _write(tmp_path / "num.json", {**base, key: value})
    assert main(["coverage", "--config", num, "--out", str(tmp_path / "a"), "--quiet"]) == 0
    txt = _write(tmp_path / "txt.json", {**base, key: str(value)})
    assert main(["coverage", "--config", txt, "--out", str(tmp_path / "b"), "--quiet"]) == 0
    assert (tmp_path / "a" / "coverage.csv").read_bytes() == (tmp_path / "b" / "coverage.csv").read_bytes()
    a = json.loads((tmp_path / "a" / "coverage.json").read_text())
    b = json.loads((tmp_path / "b" / "coverage.json").read_text())
    assert a == b
