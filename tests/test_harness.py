"""Monte Carlo harness: noise models, configs, coverage runs, verifications."""

import copy
import dataclasses
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
    blob = json.loads(out.to_json())
    assert blob["coverage"] == pytest.approx(out.coverage)
    assert blob["replicates"] == 10


def test_run_coverage_bit_reproducible():
    cfg = ExperimentConfig(n=30, p=5, spt_size=1, replicates=6, seed=9)
    a, b = run_coverage(cfg), run_coverage(cfg)
    assert a.to_json() == b.to_json()


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
