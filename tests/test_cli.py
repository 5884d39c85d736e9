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
    expfam,
    fit,
    harness,
    logistic_flip,
)
from l0bounds.cli import ConfigError, main, parse_block


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
    # theta too close to 1 makes the one-disc series diverge -> exit 2
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
    "bad",
    [
        {"family": "poisson"},
        {"c_r": "big"},
        {"c_r": -0.5},
        {"c_r": "nan"},
        {"c_r": None},
        {"family": "gaussian", "sigma2": -1},
        {"model": "flip", "K": 0},
        {"model": "flip", "p01": 0.9, "p11": 0.1},
        {"model": "flip", "theta": 1.5},
    ],
)
def test_bad_coverage_config_exits_1(tmp_path, monkeypatch, bad):
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
    ],
)
def test_bad_scalar_value_exits_1(tmp_path, capsys, command, key, value):
    good = _write(tmp_path / "good.json", SCALAR_BASE[command])
    assert main([command, "--config", good, "--out", str(tmp_path), "--quiet"]) == 0
    cfg = _write(tmp_path / "cfg.json", {**SCALAR_BASE[command], key: value})
    assert main([command, "--config", cfg, "--out", str(tmp_path / "bad"), "--quiet"]) == 1
    assert f"bad value for {key!r}" in capsys.readouterr().err


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


def test_configs_keep_running_with_the_deleted_keys(tmp_path):
    # bounds, fit and grid ignore top-level keys they do not read, so configs
    # that still carry nu, loss, h_max or h give the same output
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
    x, y, base = _fit_inputs(tmp_path)
    base = {**base, "link": LINK_BLOCK}
    old = _write(tmp_path / "old.json", {**base, "loss": "lse", "h_max": 3})
    new = _write(tmp_path / "new.json", base)
    argv = ["fit", "--x", x, "--y", y, "--quiet"]
    assert main(argv + ["--config", new, "--out", str(tmp_path / "a")]) == 0
    assert main(argv + ["--config", old, "--out", str(tmp_path / "b")]) == 0
    assert (tmp_path / "a" / "fit.json").read_bytes() == (tmp_path / "b" / "fit.json").read_bytes()


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
