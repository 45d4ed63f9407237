import logging

import numpy as np
import pytest
from scipy.stats import chi2

import mrpkit.sbc
from mrpkit.design import build_layout, predictor_matrix
from mrpkit.model import PriorConfig
from mrpkit.sbc import (
    _simulate_fixed_design,
    chi2_sf,
    draw_from_prior,
    run_sbc,
    uniformity_pvalues,
)
from mrpkit.synthetic import (
    Scenario,
    draw_truth,
    make_cells,
    make_states,
    simulate_poll,
)


def test_draw_from_prior_shapes_and_hierarchy():
    sc = Scenario(S=6, rung="M2", state_predictors=("avg_income",))
    states = make_states(sc)
    layout = build_layout(sc.spec, states)
    prior = PriorConfig(coef_scale=1.0)
    rng = np.random.default_rng(0)
    draws = np.stack([draw_from_prior(sc, prior, states, rng)
                      for _ in range(4000)])
    assert draws.shape[1] == layout.n_params
    # top-level coefficients are standard normal under coef_scale=1
    b = draws[:, layout.sl("beta")][:, 0]
    assert abs(b.mean()) < 0.06
    assert abs(b.std(ddof=1) - 1.0) < 0.06
    # state intercepts center on W gamma
    W = predictor_matrix(states, sc.spec)
    resid = draws[:, layout.sl("alpha")] \
        - draws[:, layout.sl("gamma")] @ W.T
    assert abs(resid.mean()) < 0.1


def _prior_draws(rung, reps=200):
    """(layout, W, draws) of ``reps`` draw_from_prior vectors on 50 states."""
    sc = Scenario(S=50, rung=rung)
    states = make_states(sc)
    rng = np.random.default_rng(11)
    return (build_layout(sc.spec, states), predictor_matrix(states, sc.spec),
            [draw_from_prior(sc, PriorConfig(coef_scale=1.0), states, rng)
             for _ in range(reps)])


def test_draw_from_prior_m2_residuals_correlate_by_rho():
    # per draw, the sample correlation of the intercept and slope residuals
    # over 50 states tracks rho = tanh(corr): over seeds 0-4 of 200 draws
    # the two correlated at 0.987-0.991, with mean |r - rho| 0.062-0.074
    layout, W, draws = _prior_draws("M2")
    r, rho = [], []
    for p in draws:
        u = p[layout.sl("alpha")] - W @ p[layout.sl("gamma")]
        v = p[layout.sl("slope")] - p[layout.sl("slope_mu")]
        r.append(np.corrcoef(u, v)[0, 1])
        rho.append(np.tanh(p[layout.sl("corr")][0]))
    r, rho = np.array(r), np.array(rho)
    assert np.corrcoef(r, rho)[0, 1] > 0.95
    assert np.abs(r - rho).mean() < 0.1


def test_draw_from_prior_m3_offsets_have_scale_sigma_cat():
    # cat / exp(sigma_cat) is standard normal: the mean square of 1000 such
    # values is 1 with sd 0.045
    layout, _, draws = _prior_draws("M3")
    z = np.concatenate([p[layout.sl("cat")] / np.exp(p[layout.sl("sigma_cat")])
                        for p in draws])
    assert 0.8 < np.mean(z ** 2) < 1.2


def test_uniformity_pvalues_detects_nonuniform():
    rng = np.random.default_rng(1)
    uniform = rng.integers(0, 20, size=(400, 2))
    ranks = np.column_stack([uniform, np.full(400, 3)])
    p = uniformity_pvalues(ranks)
    assert p[0] > 0.01 and p[1] > 0.01
    assert p[2] < 1e-10


@pytest.mark.parametrize("bad", [-1, 20])
def test_uniformity_pvalues_refuses_ranks_out_of_range(bad):
    ranks = np.random.default_rng(1).integers(0, 20, size=(40, 2))
    ranks[7, 1] = bad
    with pytest.raises(ValueError, match=r"outside 0\.\.19"):
        uniformity_pvalues(ranks, 19)


def test_run_sbc_refuses_fewer_iters_than_rank_draws():
    # 10 draws cannot be thinned to 19: the ranks would stop at 10 and a
    # correct sampler would read as non-uniform
    sc = Scenario(S=4, rung="M1", n=200, seed=3,
                  state_predictors=("avg_income",))
    with pytest.raises(ValueError, match="n_rank_draws 19"):
        run_sbc(sc, reps=1, warmup=10, iters=10, n_rank_draws=19)


@pytest.mark.parametrize("df", range(1, 21))
def test_chi2_sf_matches_scipy(df):
    for x in np.linspace(0.0, 200.0, 2001):
        got, want = chi2_sf(float(x), df), chi2.sf(x, df)
        assert abs(got - want) <= max(1e-12 * want, 1e-300), (x, got, want)


def test_run_sbc_smoke():
    sc = Scenario(S=4, rung="M1", n=200, seed=3,
                  state_predictors=("avg_income",))
    ranks, layout = run_sbc(sc, reps=10, warmup=200, iters=200, seed=5)
    assert ranks.shape == (10, layout.n_params)
    assert ranks.min() >= 0
    assert ranks.max() <= 19


def test_run_sbc_calls_sample_mcmc_by_keyword(monkeypatch):
    # a benchmark wraps the module attribute as sample_mcmc(model, **kwargs)
    # to count each replication's gradients
    calls = []
    inner = mrpkit.sbc.sample_mcmc

    def sample_mcmc(model, **kwargs):
        calls.append(kwargs)
        return inner(model, **kwargs)

    monkeypatch.setattr(mrpkit.sbc, "sample_mcmc", sample_mcmc)
    sc = Scenario(S=4, rung="M1", n=200, seed=3,
                  state_predictors=("avg_income",))
    ranks, _ = run_sbc(sc, reps=1, warmup=20, iters=19, seed=5)
    assert len(calls) == 1 and ranks.shape[0] == 1
    assert calls[0]["chains"] == 1 and calls[0]["init"] == "diffuse"


def test_run_sbc_logs_progress(caplog):
    sc = Scenario(S=4, rung="M1", n=200, seed=3,
                  state_predictors=("avg_income",))
    with caplog.at_level(logging.INFO, logger="mrpkit.sbc"):
        run_sbc(sc, reps=40, warmup=10, iters=19, seed=5)
    assert [(r.name, r.levelno, r.getMessage()) for r in caplog.records] == [
        ("mrpkit.sbc", logging.INFO, "sbc replication 20/40"),
        ("mrpkit.sbc", logging.INFO, "sbc replication 40/40")]


def test_sbc_poll_is_simulate_poll():
    sc = Scenario(S=5, rung="M3", n=700, seed=2, use_ethnicity=True)
    states = make_states(sc)
    cells = make_cells(sc, states)
    truth = draw_truth(sc, states, cells)
    a = _simulate_fixed_design(truth, sc, states, cells,
                               np.random.default_rng(4)).survey
    b = simulate_poll(truth, sc, states, cells, np.random.default_rng(4)).survey
    assert np.array_equal(a.n, b.n) and np.array_equal(a.k, b.k)
    assert len(b) == 700
