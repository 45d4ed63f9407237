import dataclasses
import filecmp

import numpy as np
import pytest

from mrpkit.design import build_layout, eta_cells, predictor_matrix
from mrpkit.poststrat import CellEstimates, state_income_slopes
from mrpkit.synthetic import (
    Scenario,
    draw_truth,
    make_cells,
    make_states,
    redblue_scenario,
    simulate_poll,
    true_cell_theta,
    write_scenario_files,
)


def test_truth_degenerate_hierarchy():
    sc = Scenario(S=12, rung="M1", seed=3, sigma_alpha=0.0,
                  state_predictors=("avg_income", "prev_rep_share"),
                  gamma=(0.2, -0.1, 0.05))
    states = make_states(sc)
    layout = build_layout(sc.spec, states)
    truth = draw_truth(sc, states)
    W = predictor_matrix(states, sc.spec)
    alpha = truth[layout.sl("alpha")]
    assert np.allclose(alpha, W @ np.array(sc.gamma), atol=1e-12)


def test_truth_deterministic():
    sc = Scenario(S=10, rung="M2", seed=21)
    assert np.array_equal(draw_truth(sc), draw_truth(sc))


def test_truth_residual_sd_matches_sigma_alpha():
    # 10,000 state draws of alpha_j - W_j gamma
    sc = Scenario(S=10000, rung="M1", seed=5, sigma_alpha=0.3)
    states = make_states(sc)
    layout = build_layout(sc.spec, states)
    truth = draw_truth(sc, states)
    W = predictor_matrix(states, sc.spec)
    resid = truth[layout.sl("alpha")] - W @ truth[layout.sl("gamma")]
    assert abs(resid.std(ddof=1) / 0.3 - 1.0) < 0.02


@pytest.mark.parametrize("sc", [
    Scenario(S=10, rung="M2", seed=21, sigma_alpha=0.2, slope_sigma=0.07),
    dataclasses.replace(redblue_scenario(seed=4), target_national_gap=None),
])
def test_truth_slopes_are_the_rho_zero_form(sc):
    # the general correlated form rho*z1 + sqrt(1 - rho^2)*z2 at rho = 0,
    # both normals drawn in order from the truth stream [seed, 1]
    states = make_states(sc)
    layout = build_layout(sc.spec, states)
    W = predictor_matrix(states, sc.spec)
    gamma = np.zeros(W.shape[1]) if sc.gamma is None else np.array(sc.gamma)
    rng = np.random.default_rng([sc.seed, 1])
    z1, z2 = rng.standard_normal(sc.S), rng.standard_normal(sc.S)
    rho = 0.0
    truth = draw_truth(sc, states)
    assert np.array_equal(truth[layout.sl("alpha")],
                          W @ gamma + sc.sigma_alpha * z1)
    assert np.array_equal(
        truth[layout.sl("slope")],
        sc.slope_mu + sc.slope_on_income * states.avg_income
        + sc.slope_sigma * (rho * z1 + np.sqrt(1 - rho ** 2) * z2))
    assert truth[layout.sl("corr")][0] == 0.0


def test_m3_truth_offsets_are_zero():
    sc = Scenario(S=6, rung="M3", seed=2, use_ethnicity=True)
    states = make_states(sc)
    layout = build_layout(sc.spec, states)
    truth = draw_truth(sc, states)
    assert np.array_equal(truth[layout.sl("cat")], np.zeros(5))
    assert truth[layout.sl("sigma_cat")][0] == np.log(0.1)
    assert truth[layout.sl("corr")][0] == 0.0


def test_simulate_poll_balanced_at_zero_truth():
    sc = Scenario(S=5, rung="M1", n=100000, seed=2, beta_inc=0.0,
                  sigma_alpha=0.0,
                  state_predictors=("avg_income",), gamma=(0.0, 0.0))
    states = make_states(sc)
    layout = build_layout(sc.spec, states)
    truth = draw_truth(sc, states)
    assert np.allclose(truth, 0.0) or \
        np.allclose(truth[layout.sl("alpha")], 0.0)
    sv = simulate_poll(truth, sc, states).survey
    assert abs(sv.k.sum() / sv.n.sum() - 0.5) < 0.005


def test_simulate_poll_cell_rates_converge():
    sc = Scenario(S=5, rung="M1", n=1000000, seed=8)
    states = make_states(sc)
    cells = make_cells(sc, states)
    truth = draw_truth(sc, states, cells)
    theta = true_cell_theta(truth, sc, states, cells)
    sv = simulate_poll(truth, sc, states, cells).survey
    emp = sv.k / np.maximum(sv.n, 1)
    assert np.max(np.abs(emp - theta)) < 0.01


def test_simulate_poll_counts_follow_adults():
    # respondents in proportion to each cell's adults, then the yes votes,
    # both from the one generator
    sc = Scenario(S=5, rung="M2", n=3000, seed=6, use_ethnicity=True)
    states = make_states(sc)
    cells = make_cells(sc, states)
    truth = draw_truth(sc, states, cells)
    sv = simulate_poll(truth, sc, states, cells,
                       np.random.default_rng(12)).survey
    rng = np.random.default_rng(12)
    want = rng.multinomial(3000, cells.n_adults / cells.n_adults.sum())
    assert np.array_equal(sv.n, want)
    assert np.array_equal(
        sv.k, rng.binomial(want, true_cell_theta(truth, sc, states, cells)))


def test_simulate_poll_paper_scale_budget():
    sc = redblue_scenario(S=50, n=30000, seed=1)
    states = make_states(sc)
    cells = make_cells(sc, states)
    truth = draw_truth(sc, states, cells)
    ds = simulate_poll(truth, sc, states, cells)
    assert len(ds.survey) == 30000
    assert len(ds.cells) == 250


def test_redblue_slope_pattern():
    sc = redblue_scenario(S=50, n=30000, seed=0)
    states = make_states(sc)
    cells = make_cells(sc, states)
    truth = draw_truth(sc, states, cells)
    layout = build_layout(sc.spec, states)
    eta = eta_cells(truth, layout, cells.state_id, cells.income_cat,
                    cells.ethnicity)
    out = state_income_slopes(CellEstimates(cells, eta[None, :]), states)
    gap = out["gap"]["mean"]
    rich = int(np.argmax(states.avg_income))
    poor = int(np.argmin(states.avg_income))
    assert gap[rich] < 0.05
    assert gap[poor] > 0.30
    # slope falls with state income
    slope = truth[layout.sl("beta")][0] + truth[layout.sl("slope")]
    assert np.corrcoef(slope, states.avg_income)[0, 1] < -0.5


def test_redblue_national_gap_is_020():
    from mrpkit.poststrat import national_income_gap
    sc = redblue_scenario(seed=4)
    states = make_states(sc)
    cells = make_cells(sc, states)
    truth = draw_truth(sc, states, cells)
    layout = build_layout(sc.spec, states)
    eta = eta_cells(truth, layout, cells.state_id, cells.income_cat,
                    cells.ethnicity)
    gap = national_income_gap(CellEstimates(cells, eta[None, :]))
    assert abs(gap[0] - 0.20) < 1e-6


def test_redblue_rejects_tiny_S():
    with pytest.raises(ValueError):
        redblue_scenario(S=5)


def test_write_scenario_files_deterministic(tmp_path):
    sc = redblue_scenario(S=12, n=2000, seed=9)
    p1 = write_scenario_files(sc, tmp_path / "a")
    p2 = write_scenario_files(sc, tmp_path / "b")
    assert set(p1) == {"survey", "cells", "states", "truth"}
    for k in p1:
        assert filecmp.cmp(p1[k], p2[k], shallow=False)


def test_scenario_files_load_back(tmp_path):
    from mrpkit.data import load_dataset
    sc = Scenario(S=6, rung="M1", n=500, seed=14)
    paths = write_scenario_files(sc, tmp_path / "sim")
    ds = load_dataset(paths["survey"], paths["cells"], paths["states"],
                      sc.spec)
    assert len(ds.survey) == 500
    assert len(ds.cells) == 30


def test_simulate_poll_default_rng_is_scenario_stream():
    sc = Scenario(S=5, rung="M1", n=600, seed=9)
    states = make_states(sc)
    cells = make_cells(sc, states)
    truth = draw_truth(sc, states, cells)
    a = simulate_poll(truth, sc, states, cells).survey
    b = simulate_poll(truth, sc, states, cells,
                      np.random.default_rng([9, 2])).survey
    assert np.array_equal(a.n, b.n) and np.array_equal(a.k, b.k)
    assert len(a) == 600
