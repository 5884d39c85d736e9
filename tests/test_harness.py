"""Monte Carlo harness: noise models, configs, coverage runs, verifications."""

import copy
import dataclasses
import hashlib
import json
import math

import numpy as np
import pytest

from l0bounds import (
    CoverageResult,
    DesignMatrix,
    ExperimentConfig,
    bernoulli_residual,
    bounded_iid,
    exp_fn,
    flip_channel,
    gaussian_correlated,
    gaussian_iid,
    generate_instance,
    in_domain,
    linear,
    logistic_flip,
    polynomial,
    run_coverage,
    verify_control_event,
    verify_tail,
    wilson_interval,
)
from l0bounds.analytic import LINKS
from oracles import multinomial_identity_gap


def test_wilson_interval_frozen_values():
    lo, hi = wilson_interval(160, 200)
    assert lo == pytest.approx(0.7391448134346212, abs=1e-12)
    assert hi == pytest.approx(0.8495479907390189, abs=1e-12)
    assert wilson_interval(0, 10)[0] == 0.0
    assert wilson_interval(10, 10)[1] == pytest.approx(1.0, abs=1e-12)
    lo2, hi2 = wilson_interval(95, 100)
    assert 0.0 <= lo2 <= 0.95 <= hi2 <= 1.0


def test_noise_model_constructors():
    assert gaussian_iid(2.0).sigma == 2.0
    assert bounded_iid(0.7).sigma == 0.7
    assert bernoulli_residual().sigma == 1.0
    assert flip_channel(0.1, 0.9).sigma == 1.0
    assert gaussian_correlated(1.0, rho=0.3).params["rho"] == 0.3
    with pytest.raises(ValueError):
        flip_channel(0.9, 0.1)


@pytest.mark.parametrize(
    "p01,p11,named",
    [
        (-0.1, 0.9, "p01"),
        (0.1, 1.5, "p11"),
        (0.1, math.nan, "p11"),
        (0.5, 0.5, "p11 must exceed p01"),
    ],
)
def test_flip_channel_checks_its_parameters_as_its_link_does(p01, p11, named):
    for make in (flip_channel, logistic_flip):
        with pytest.raises(ValueError, match=named):
            make(p01, p11)


def test_draw_noise_shapes_and_bounds():
    rng = np.random.default_rng(0)
    for noise in (gaussian_iid(1.0), gaussian_correlated(1.0), bounded_iid(0.4)):
        eps = noise.draw(rng, 50)
        assert eps.shape == (50,)
    assert np.all(np.abs(bounded_iid(0.4).draw(rng, 1000)) <= 0.4)
    t = np.linspace(-2, 2, 30)
    eps = bernoulli_residual().draw(rng, 30, t=t)
    assert eps.shape == (30,)
    with pytest.raises(ValueError):
        bernoulli_residual().draw(rng, 30)  # channel noise needs t


def test_block_draw_is_the_stream_of_row_draws():
    # verify_tail and verify_control_event draw a (b, n) block per call; for
    # these models it must be the same numbers as b draws of one row each
    t = np.linspace(-2.0, 2.0, 17)
    for noise in (gaussian_iid(1.3), bounded_iid(0.4), bernoulli_residual()):
        block = noise.draw(np.random.default_rng(11), (50, t.size), t=t)
        rng = np.random.default_rng(11)
        rows = np.stack([noise.draw(rng, t.size, t=t) for _ in range(50)])
        assert block.shape == (50, t.size)
        assert block.tobytes() == rows.tobytes(), noise.tag


def test_channel_noise_is_centred():
    rng = np.random.default_rng(1)
    t = np.full(200_000, 0.7)
    eps = flip_channel(0.1, 0.9).draw(rng, t.size, t=t)
    f = logistic_flip(0.1, 0.9)
    # E[y | t] = f(t), so the residual must be mean-zero
    assert abs(eps.mean()) < 5e-3
    assert set(np.round(np.unique(eps + f(0.7)), 12)) <= {0.0, 1.0}


def test_correlated_noise_spectral_radius_one():
    noise = gaussian_correlated(1.0, rho=0.6)
    rng = np.random.default_rng(2)
    draws = np.stack([noise.draw(rng, 12) for _ in range(40_000)])
    C = np.cov(draws.T)
    top = np.linalg.eigvalsh(C).max()
    assert top == pytest.approx(1.0, rel=0.02)
    # adjacent correlation is positive by construction
    assert np.corrcoef(draws[:, 0], draws[:, 1])[0, 1] > 0.2


def test_correlated_covariance_spectral_radius_at_most_one():
    # sigma-sub-gaussian needs the normalized covariance's top eigenvalue <= 1
    from l0bounds.harness import _corr_chol

    L = _corr_chol(200, 0.5)
    assert np.linalg.eigvalsh(L @ L.T)[-1] <= 1.0 + 1e-12


@pytest.mark.parametrize("model", ["probit", "", ["glm"], None])
def test_experiment_config_names_the_model_table_keys(model):
    with pytest.raises(ValueError, match=r"model must be one of \['flip', 'glm'\]"):
        ExperimentConfig(n=40, p=6, spt_size=2, replicates=5, model=model)


def test_experiment_config_from_dict_rejects_unknown_keys():
    good = dict(n=40, p=6, spt_size=2, replicates=5)
    cfg = ExperimentConfig.from_dict(good)
    assert cfg.q == 0.1 and cfg.design == "pm1_iid"
    with pytest.raises(ValueError, match="unknown experiment keys"):
        ExperimentConfig.from_dict({**good, "bogus": 1})
    with pytest.raises(ValueError, match="unknown experiment keys"):
        ExperimentConfig.from_dict({**good, "csv_path": "X.csv"})
    with pytest.raises(ValueError):
        ExperimentConfig.from_dict({**good, "q": 0.4})  # q must be <= 0.25


# one case per kind of key: whole numbers, real numbers, table keys, c_r
WRONG_TYPES = {
    "whole": [("n", "forty"), ("p", 6.5), ("replicates", True), ("seed", [1]), ("h_max", "2")],
    "real": [("q", "tenth"), ("sigma2", [1.0]), ("p01", True), ("p11", None),
             ("interval_halfwidth", {"r": 3})],
    "table": [("model", ["glm"]), ("family", ["gaussian"]), ("design", ["pm1_iid"]),
              ("family", 3), ("design", None)],
    "c_r": [("c_r", ["theorem"]), ("c_r", True), ("c_r", "big")],
}


@pytest.mark.parametrize("kind", sorted(WRONG_TYPES))
def test_experiment_config_names_the_key_of_a_wrong_type(kind):
    # every check raises a ValueError that names its key, never a TypeError
    # from a comparison or a lookup
    good = dict(n=40, p=6, spt_size=2, replicates=5, model="flip")
    for key, value in WRONG_TYPES[kind]:
        with pytest.raises(ValueError, match=key):
            ExperimentConfig(**{**good, key: value})


def test_experiment_config_reads_numeric_strings_as_cli_num_does():
    from l0bounds import cli

    good = dict(n=40, p=6, spt_size=2, replicates=5, model="flip")
    for key in ("q", "sigma2", "p01", "p11", "interval_halfwidth"):
        value = {"q": 0.2, "p01": 0.2, "p11": 0.7}.get(key, 1.5)
        cfg = ExperimentConfig(**{**good, key: str(value)})
        assert getattr(cfg, key) == cli._num({key: str(value)}, key) == value
        assert type(getattr(cfg, key)) is float
    # a number stays as given, so the coverage JSON echoes it unchanged
    assert type(ExperimentConfig(**good, sigma2=2).sigma2) is int
    assert ExperimentConfig(**good, c_r="0.5").c_r == "0.5"


def test_experiment_config_refuses_a_budget_below_the_support_size():
    good = dict(n=40, p=6, spt_size=2, replicates=5)
    for h_max in (0, -3, 1):
        with pytest.raises(ValueError, match="h_max"):
            ExperimentConfig(**good, h_max=h_max)
    assert ExperimentConfig(**good, h_max=2).h_max == 2
    assert ExperimentConfig(**good).h_max is None


def test_generate_instance_reproducible_and_feasible():
    cfg = ExperimentConfig(n=50, p=8, spt_size=2, replicates=3, seed=123)
    a = generate_instance(cfg, 1)
    b = generate_instance(cfg, 1)
    np.testing.assert_array_equal(a.X.X, b.X.X)
    np.testing.assert_array_equal(a.y, b.y)
    c = generate_instance(cfg, 2)
    assert not np.array_equal(a.y, c.y)
    assert np.count_nonzero(a.beta) == 2
    assert set(np.unique(a.X.X)) == {-1.0, 1.0}


def test_generate_instance_binary_design_has_no_zero_column():
    cfg = ExperimentConfig(
        n=12, p=10, spt_size=2, replicates=1, design="binary_iid", seed=5
    )
    inst = generate_instance(cfg, 0)
    assert set(np.unique(inst.X.X)) <= {0.0, 1.0}
    assert np.all(np.abs(inst.X.X).sum(axis=0) > 0)


def test_flip_reports_cover_the_hull_of_the_fit_domain(monkeypatch):
    # the strip series covers segments of fit-domain members, whose supports
    # reach twice the budget, which is at least the truth's support size
    from l0bounds import harness

    seen = []
    real = harness.ub_report

    def recorded(*args, **kwargs):
        rep = real(*args, **kwargs)
        seen.append(rep.inputs["h"])
        return rep

    monkeypatch.setattr(harness, "ub_report", recorded)
    cfg = ExperimentConfig(
        n=60, p=6, spt_size=2, replicates=3, model="flip", design="pm1_iid", c_r=1.0, seed=4
    )
    run_coverage(cfg)
    assert len(seen) == cfg.replicates
    for rep, h in enumerate(seen):
        assert h >= 2 * cfg.spt_size
        assert h == 2 * generate_instance(cfg, rep).domain.max_support


def test_run_coverage_small_glm():
    cfg = ExperimentConfig(n=40, p=6, spt_size=1, replicates=10, seed=77)
    out = run_coverage(cfg)
    assert isinstance(out, CoverageResult)
    assert len(out.rows) == 10
    assert 0.0 <= out.coverage <= 1.0
    assert out.target == pytest.approx(1.0 - 2 * cfg.q)
    assert out.wilson_lo <= out.coverage <= out.wilson_hi + 1e-12
    blob = json.loads(json.dumps(out.to_dict(), indent=2))
    assert blob["coverage"] == pytest.approx(out.coverage)
    assert blob["replicates"] == 10


def test_run_coverage_bit_reproducible():
    cfg = ExperimentConfig(n=30, p=5, spt_size=1, replicates=6, seed=9)
    a, b = run_coverage(cfg), run_coverage(cfg)
    assert json.dumps(a.to_dict(), indent=2) == json.dumps(b.to_dict(), indent=2)


# sha256 of the to_csv bytes and of json.dumps(to_dict(), indent=2), one
# small config per coverage setting (recorded before the model table)
PINNED_COVERAGE = [
    (
        dict(n=40, p=5, spt_size=1, replicates=4, seed=3),
        "e763ecfa1e3fc6bb24b2334e52b7c0862f8b9eb832c216d66661668d23cd366f",
        "492f1420bb13ef6e310378c2edd59c98d481c87b97f490386a155dbbe8392b10",
    ),
    (
        dict(n=40, p=5, spt_size=1, replicates=4, family="gaussian", sigma2=0.5, c_r=1.0, seed=3),
        "6e3d8bb727d4bd3812c11fc03872580eed50f57faa013ec1517b4a4160c21be5",
        "27d73c758219db67f66bf844eb13ed11aea350ebc689d8271c038e92a603cc3c",
    ),
    (
        dict(n=60, p=6, spt_size=2, replicates=3, model="flip", design="pm1_iid", c_r=0.5, seed=4),
        "6692792f415d01779cbf7ed39f951063a8268c84e01d49cd341a135ab1fc868c",
        "32494822979f471da31152cd3e42e35a2d0e1818894fd2169e096a12f7eedc49",
    ),
]


@pytest.mark.parametrize(
    "kw,csv_sha,json_sha", PINNED_COVERAGE, ids=["glm-bernoulli", "glm-gaussian", "flip"]
)
def test_coverage_outputs_are_pinned(tmp_path, kw, csv_sha, json_sha):
    out = run_coverage(ExperimentConfig(**kw))
    out.to_csv(tmp_path / "cov.csv")
    assert hashlib.sha256((tmp_path / "cov.csv").read_bytes()).hexdigest() == csv_sha
    assert hashlib.sha256(json.dumps(out.to_dict(), indent=2).encode()).hexdigest() == json_sha


def test_run_coverage_csv(tmp_path):
    cfg = ExperimentConfig(n=30, p=5, spt_size=1, replicates=4, seed=2)
    out = run_coverage(cfg)
    path = tmp_path / "cov.csv"
    out.to_csv(path)
    lines = path.read_text().strip().splitlines()
    assert len(lines) == 5  # header + 4 replicates
    head = lines[0].split(",")
    assert "replicate" in head and "radius" in head and "hit" in head


def test_coverage_monotone_in_penalty_scale():
    # raising c_r tenfold never hurts the support-size event on matched seeds
    base = ExperimentConfig(n=40, p=6, spt_size=1, replicates=15, seed=31)
    out1 = run_coverage(base)
    big = dataclasses.replace(base, c_r=10.0 * float(np.median(
        [row["c_r"] for row in out1.rows]
    )))
    out2 = run_coverage(big)
    small1 = sum(
        1 for row in out1.rows if 0 <= row["spt_hat"] <= base.spt_size
    )
    small2 = sum(
        1 for row in out2.rows if 0 <= row["spt_hat"] <= base.spt_size
    )
    assert small2 >= small1


def test_run_coverage_flip_channel():
    cfg = ExperimentConfig(
        n=40, p=6, spt_size=1, replicates=6, model="flip", seed=13
    )
    out = run_coverage(cfg)
    assert len(out.rows) == 6
    assert out.n_fit_errors == 0


def test_verify_tail_passes_for_all_models():
    for noise in (
        gaussian_iid(1.0),
        gaussian_correlated(1.0, 0.5),
        bounded_iid(0.8),
        bernoulli_residual(),
        flip_channel(0.1, 0.9),
    ):
        rep = verify_tail(noise, trials=20_000, n=15, n_dirs=4, seed=3)
        assert rep["all_ok"], noise.tag
        assert {r["t_over_sigma"] for r in rep["rows"]} == {1, 2, 3}


def test_verify_tail_rejects_understated_sigma():
    # the flip channel's residuals have unit scale; claiming sigma = 0.2
    # must make the certified tail bound fail empirically
    lying = dataclasses.replace(flip_channel(0.1, 0.9), sigma=0.2)
    rep = verify_tail(lying, trials=20_000, n=15, n_dirs=4, seed=3)
    assert not rep["all_ok"]


def test_verify_tail_trial_floor():
    with pytest.raises(ValueError, match="trials"):
        verify_tail(gaussian_iid(1.0), trials=100)


@pytest.mark.parametrize("key", ["n", "n_dirs"])
@pytest.mark.parametrize("value", [0, -3])
def test_verify_tail_refuses_an_empty_projection(key, value):
    # n = 0 or n_dirs = 0 used to report a vacuous all_ok
    with pytest.raises(ValueError, match=f"^{key} must be >= 1"):
        verify_tail(gaussian_iid(1.0), trials=10_000, **{key: value})


def test_verify_control_event():
    rng = np.random.default_rng(4)
    X = rng.choice([-1.0, 1.0], size=(12, 3))
    f = logistic_flip(0.1, 0.9)
    rep = verify_control_event(
        X, f, [np.zeros(3)], gaussian_iid(1.0), q=0.1, K_check=3, trials=10_000, seed=6
    )
    assert rep["ok"]
    assert rep["freq"] >= rep["target"] - 3 * rep["se"]
    with pytest.raises(ValueError):
        verify_control_event(X, f, [np.zeros(3)], gaussian_iid(1.0), q=0.1, K_check=9)


@pytest.mark.parametrize(
    "kw,named",
    [
        # trials 0 used to divide by zero, -5 to report freq = -0.0 and ok
        ({"trials": 0}, "trials must be >= 1"),
        ({"trials": -5}, "trials must be >= 1"),
        # a center of the wrong length used to end in numpy's matmul error
        ({"centers": [np.zeros(3), np.zeros(2)]}, "center 1 has length 2"),
    ],
    ids=["trials-0", "trials-negative", "center-length"],
)
def test_verify_control_event_refuses_bad_trials_and_centers(kw, named):
    X = np.random.default_rng(4).choice([-1.0, 1.0], size=(12, 3))
    kw = {"centers": [np.zeros(3)], "trials": 100, **kw}
    with pytest.raises(ValueError, match=named):
        verify_control_event(X, logistic_flip(0.1, 0.9), noise=gaussian_iid(1.0), q=0.1, **kw)


@pytest.mark.parametrize("name", sorted(LINKS))
def test_verify_control_event_matches_the_per_row_coefficients(name):
    # the event's rows read one coefficient table per center; the same rows
    # built from coeff_k one row image at a time give the same report
    f = {
        "logistic_flip": logistic_flip(0.1, 0.9),
        "linear": linear(1.5, 0.5),
        "polynomial": polynomial([0.5, -1.0, 0.25, 0.1]),
        "exp": exp_fn(),
    }[name]
    per_row = copy.copy(f)
    per_row.coeff_table = lambda K, ts: np.array(
        [[f.coeff_k(k, t) for t in ts] for k in range(1, K + 1)]
    )
    rng = np.random.default_rng(8)
    X = rng.standard_normal((20, 3))
    centers = [np.zeros(3), np.array([0.4, -0.3, 0.2])]
    for K_check in (1, 4, 6):
        args = (centers, gaussian_iid(1.0))
        kw = dict(q=0.1, K_check=K_check, trials=400, seed=3)
        want = verify_control_event(X, per_row, *args, **kw)
        assert json.dumps(verify_control_event(X, f, *args, **kw)) == json.dumps(want)


def test_multinomial_identity_gap_exact():
    rng = np.random.default_rng(8)
    for p, k in ((2, 2), (3, 3), (4, 2)):
        x = rng.standard_normal(p)
        assert multinomial_identity_gap(x, k) <= 1e-12
    with pytest.raises(ValueError, match="enumeration"):
        multinomial_identity_gap(np.ones(50), 6)


@pytest.mark.parametrize("exc", [MemoryError(), FloatingPointError("overflow")])
def test_run_coverage_records_resource_and_arithmetic_failures(monkeypatch, tmp_path, exc):
    import l0bounds.harness as harness

    cfg = ExperimentConfig(n=30, p=5, spt_size=1, replicates=4, seed=2)
    clean = run_coverage(cfg)
    real_fit, calls = harness.fit, []

    def flaky_fit(prob):
        calls.append(1)
        if len(calls) == 2:
            raise exc
        return real_fit(prob)

    monkeypatch.setattr(harness, "fit", flaky_fit)
    out = run_coverage(cfg)
    assert out.n_fit_errors == clean.n_fit_errors + 1
    bad = out.rows[1]
    assert bad["fit_error"] == (str(exc) or type(exc).__name__)
    assert bad["spt_hat"] == -1 and bad["hit"] == 0 and math.isnan(bad["error"])
    for rep in (0, 2, 3):
        assert out.rows[rep] == clean.rows[rep]
    paths = [tmp_path / "clean.csv", tmp_path / "flaky.csv"]
    clean.to_csv(paths[0])
    out.to_csv(paths[1])
    heads = [p.read_text().splitlines()[0] for p in paths]
    assert heads[0] == heads[1]
