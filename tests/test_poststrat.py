import numpy as np
import pytest
from scipy.special import expit, logit

from mrpkit import poststrat
from mrpkit.data import CellTable
from mrpkit.design import ModelSpec, build_layout
from mrpkit.poststrat import (
    CellEstimates,
    calibrate_to_totals,
    draw_summary,
    national_income_gap,
    poststratify,
    predict_cells,
    state_income_slopes,
)
from mrpkit.samplers import PosteriorDraws

from conftest import make_cell_table, make_state_table


def _estimates(cells, eta):
    return CellEstimates(cells, np.asarray(eta, dtype=float))


# ---------------------------------------------------------------------------
# predict_cells

@pytest.mark.parametrize("shape", [(4000, 1000), (1, 3), (7, 1)])
def test_draw_summary_equals_separate_quantiles(shape):
    th = np.random.default_rng(1).random(shape)
    s = draw_summary(th)
    for key, p in (("q05", 0.05), ("q25", 0.25), ("q50", 0.50),
                   ("q75", 0.75), ("q95", 0.95)):
        assert np.array_equal(s[key], np.quantile(th, p, axis=0))


def test_predict_cells_zero_params():
    states = make_state_table(3)
    layout = build_layout(ModelSpec("M1"), states)
    cells = make_cell_table(3)
    draws = PosteriorDraws(np.zeros((1, layout.n_params)), 1, layout)
    est = predict_cells(draws, cells)
    assert np.all(est.theta == 0.5)


def test_predict_cells_single_alpha():
    states = make_state_table(8)
    layout = build_layout(ModelSpec("M1"), states)
    cells = make_cell_table(8)
    params = np.zeros(layout.n_params)
    params[layout.sl("alpha")][6] = 0.5
    est = predict_cells(PosteriorDraws(params[None, :], 1, layout), cells)
    mask = cells.state_id == 7
    assert np.allclose(est.theta[0, mask], expit(0.5))
    assert abs(est.theta[0, mask][0] - 0.6225) < 1e-4
    assert np.allclose(est.theta[0, ~mask], 0.5)


def test_predict_cells_naive_oracle():
    # 1000 cells x 200 draws vs per-cell per-draw recomputation
    states = make_state_table(50, n_regions=2, seed=1)
    spec = ModelSpec("M1", use_ethnicity=True)
    layout = build_layout(spec, states)
    cells = make_cell_table(50, use_ethnicity=True, seed=1, states=states)
    rng = np.random.default_rng(10)
    mat = 0.3 * rng.standard_normal((200, layout.n_params))
    est = predict_cells(PosteriorDraws(mat, 1, layout), cells)

    beta_sl = layout.sl("beta")
    alpha_sl = layout.sl("alpha")
    check = rng.integers(0, 200, size=30)  # spot-check rows of the product
    for d in check:
        p = mat[d]
        for c in range(0, 1000, 37):
            s = int(cells.state_id[c])
            i = int(cells.income_cat[c])
            e = int(cells.ethnicity[c])
            want = p[alpha_sl][s - 1] + p[beta_sl][0] * (i - 3)
            if e > 1:
                want += p[beta_sl][e - 1]
            assert abs(est.eta[d, c] - want) < 1e-12


def test_predict_cells_cross_mismatch():
    states = make_state_table(3)
    layout = build_layout(ModelSpec("M1"), states)
    cells = make_cell_table(5)  # refers to states 4..5, outside the layout
    draws = PosteriorDraws(np.zeros((1, layout.n_params)), 1, layout)
    with pytest.raises(ValueError):
        predict_cells(draws, cells)


def test_predict_cells_refuses_draws_without_a_layout():
    cells = make_cell_table(3)
    draws = PosteriorDraws(np.zeros((1, 9)), 1)
    with pytest.raises(ValueError, match="no parameter layout"):
        predict_cells(draws, cells)


# ---------------------------------------------------------------------------
# poststratify

def test_poststratify_two_cell_identity():
    cells = CellTable(make_state_table(2), [1, 1], [1, 2], [0, 0], [1.0, 3.0],
                      [1.0, 1.0])
    est = _estimates(cells, [[-40.0, 40.0]])  # theta 0 and 1 to 1e-17
    agg = poststratify(est, ())
    assert abs(agg.theta[0, 0] - 0.75) < 1e-12


def test_poststratify_streams_blocks_of_draws(monkeypatch):
    # expit never sees more than BLOCK draws, and sees every draw once
    cells = make_cell_table(4, seed=3)
    D = 2 * poststrat.BLOCK + 3
    eta = np.random.default_rng(4).standard_normal((D, len(cells)))
    est = _estimates(cells, eta)
    rows = []

    def counted(x):
        rows.append(x.shape[0])
        return expit(x)

    monkeypatch.setattr(poststrat, "expit", counted)
    agg = poststratify(est, ("state",))
    assert max(rows) <= poststrat.BLOCK and sum(rows) == D
    assert agg.theta.shape == (D, 4)


def test_poststratify_constant_theta_invariance():
    cells = make_cell_table(4, seed=2)
    eta = np.full((3, len(cells)), logit(0.37))
    agg = poststratify(_estimates(cells, eta), ("state",))
    assert np.allclose(agg.theta, 0.37, atol=1e-12)


@pytest.mark.parametrize("dims", [(), ("state",), ("income",),
                                  ("ethnicity", "state"), ("region",)],
                         ids=["national", "state", "income", "ethnicity,state",
                              "region"])
def test_poststratify_brute_force_oracle(dims):
    # groups whose cells are not contiguous, and a last, partial block
    states = make_state_table(6, n_regions=3, seed=7)
    cells = make_cell_table(6, use_ethnicity=True, seed=7, states=states)
    D = poststrat.BLOCK + 7
    eta = np.random.default_rng(8).standard_normal((D, len(cells)))
    agg = poststratify(_estimates(cells, eta), dims)
    theta = expit(eta)
    label = {"state": cells.state_id, "income": cells.income_cat,
             "ethnicity": cells.ethnicity,
             "region": states.region_id[cells.state_id - 1]}
    # spreadsheet-style recomputation with a dict of running sums
    sums, wts = {}, {}
    for c in range(len(cells)):
        key = tuple(int(label[d][c]) for d in dims)
        sums[key] = sums.get(key, 0.0) + cells.n_voters[c] * theta[:, c]
        wts[key] = wts.get(key, 0.0) + cells.n_voters[c]
    assert agg.keys == sorted(sums)
    for g, key in enumerate(agg.keys):
        assert np.max(np.abs(agg.theta[:, g] - sums[key] / wts[key])) < 1e-12
        assert agg.weight[g] == pytest.approx(wts[key], rel=1e-15)


def test_poststratify_nesting_consistency():
    cells = make_cell_table(20, seed=3)
    rng = np.random.default_rng(4)
    est = _estimates(cells, rng.standard_normal((4, len(cells))))
    national = poststratify(est, ())
    by_state = poststratify(est, ("state",))
    recomposed = (by_state.theta * by_state.weight).sum(axis=1) \
        / by_state.weight.sum()
    assert np.max(np.abs(national.theta[:, 0] - recomposed)) < 1e-12


def test_poststratify_keys_sorted_int_tuples():
    cells = make_cell_table(3, use_ethnicity=True)
    est = _estimates(cells, np.zeros((1, len(cells))))
    agg = poststratify(est, ("ethnicity", "state"))
    assert agg.keys == sorted(set(zip(cells.ethnicity.tolist(),
                                      cells.state_id.tolist())))
    assert all(type(v) is int for key in agg.keys for v in key)
    assert poststratify(est, ()).keys == [()]


def test_poststratify_region_grouping():
    cells = make_cell_table(8, states=make_state_table(8, n_regions=4))
    rng = np.random.default_rng(5)
    est = _estimates(cells, rng.standard_normal((2, len(cells))))
    agg = poststratify(est, ("region",))
    assert agg.n_groups == 4


def test_poststratify_zero_weight_group():
    cells = CellTable(make_state_table(2), [1, 1, 2, 2], [1, 2, 1, 2],
                      [0] * 4, [10.0, 10.0, 0.0, 0.0], [0.5, 0.5, 0.5, 0.5])
    est = _estimates(cells, np.zeros((1, 4)))
    # the state is named by its label in the cells' state table
    with pytest.raises(ValueError, match=r"group \{'state': 'S02'\} has "
                                         "zero total voter weight"):
        poststratify(est, ("state",))


def test_poststratify_unknown_dimension():
    cells = make_cell_table(2)
    est = _estimates(cells, np.zeros((1, len(cells))))
    with pytest.raises(ValueError):
        poststratify(est, ("age",))
    with pytest.raises(ValueError, match="ethnicity"):
        poststratify(est, ("ethnicity",))


# ---------------------------------------------------------------------------
# calibration

def test_calibrate_fixed_point():
    cells = make_cell_table(3, seed=1)
    rng = np.random.default_rng(2)
    est = _estimates(cells, 0.3 * rng.standard_normal((4, len(cells))))
    by_state = poststratify(est, ("state",)).theta
    rec = by_state[0]  # draw 0's aggregates as the recorded totals
    cal, deltas = calibrate_to_totals(CellEstimates(cells, est.eta[:1]), rec)
    assert np.max(np.abs(deltas)) < 1e-8
    assert np.max(np.abs(cal.eta - est.eta[:1])) < 1e-8


def test_calibrate_single_cell_closed_form():
    cells = CellTable(make_state_table(2), [1, 2, 2], [1, 1, 2], [0] * 3,
                      [100.0, 50.0, 50.0], [1.0, 1.0, 1.0])
    # pad to a 2-state full cross is unnecessary here: calibration only
    # needs per-state cell groups
    est = _estimates(cells, np.zeros((1, 3)))
    cal, deltas = calibrate_to_totals(est, np.array([0.75, 0.5]))
    assert abs(deltas[0, 0] - logit(0.75)) < 1e-10
    assert abs(deltas[0, 0] - 1.0986) < 1e-4
    assert abs(deltas[0, 1]) < 1e-10


def test_calibrate_matches_grid_oracle():
    # 5-cell state, random eta and N, recorded 0.6
    rng = np.random.default_rng(9)
    cells = CellTable(make_state_table(2), [1] * 5 + [2] * 5,
                      list(range(1, 6)) * 2, [0] * 10,
                      rng.uniform(100, 1000, 10), np.ones(10))
    eta = rng.standard_normal((3, 10))
    est = _estimates(cells, eta)
    cal, deltas = calibrate_to_totals(est, np.array([0.6, 0.6]))
    agg = poststratify(cal, ("state",))
    assert np.max(np.abs(agg.theta - 0.6)) < 1e-8

    # dense grid search over delta for draw 0, state 1
    w = cells.n_voters[:5] / cells.n_voters[:5].sum()
    grid = np.linspace(-10, 10, 2000001)
    f = expit(eta[0, :5][None, :] + grid[:, None]) @ w
    best = grid[np.argmin(np.abs(f - 0.6))]
    assert abs(deltas[0, 0] - best) < 2e-5  # grid spacing 1e-5


def test_calibrate_brackets_an_overshooting_newton_step():
    # a state of two cells at logits -30 and 30: its share is flat at 1/2
    # between them, so the first Newton step overshoots far past the root,
    # and the next point is the midpoint of the closed bracket
    cells = CellTable(make_state_table(2), [1, 1, 2], [1, 2, 1], [0] * 3,
                      [1.0] * 3, [1.0] * 3)
    est = _estimates(cells, [[-30.0, 30.0, 0.0]])
    cal, deltas = calibrate_to_totals(est, np.array([0.3, 0.5]))
    assert abs(poststratify(cal, ("state",)).theta[0, 0] - 0.3) < 1e-10
    # the cell at -30 + delta adds below 1e-25: expit(30 + delta) = 0.6
    assert abs(deltas[0, 0] - (logit(0.6) - 30.0)) < 1e-10


def test_calibrate_idempotent():
    rng = np.random.default_rng(11)
    cells = make_cell_table(6, seed=11)
    est = _estimates(cells, rng.standard_normal((8, len(cells))))
    rec = rng.uniform(0.3, 0.7, 6)
    cal, _ = calibrate_to_totals(est, rec)
    cal2, deltas2 = calibrate_to_totals(cal, rec)
    assert np.max(np.abs(deltas2)) < 1e-10


def test_calibrate_rejects_degenerate_share():
    cells = make_cell_table(2)
    est = _estimates(cells, np.zeros((1, len(cells))))
    with pytest.raises(ValueError, match="state S01 is not strictly"):
        calibrate_to_totals(est, np.array([1.0, 0.5]))


def test_calibrate_refuses_a_state_without_voters():
    # no cell of state 2 has a voter, so no shift of its cells matches a
    # share; the weights would be 0/0
    cells = CellTable(make_state_table(2), [1, 1, 2, 2], [1, 2, 1, 2],
                      [0] * 4, [10.0, 10.0, 0.0, 0.0], [0.5] * 4)
    est = _estimates(cells, np.zeros((2, 4)))
    with pytest.raises(ValueError, match="state S02 has zero total voter "
                                         "weight"):
        calibrate_to_totals(est, np.array([0.4, 0.6]))


# ---------------------------------------------------------------------------
# income slopes

def test_slopes_flat_cells():
    cells = make_cell_table(3)
    est = _estimates(cells, np.full((2, len(cells)), 0.4))
    out = state_income_slopes(est)
    assert np.max(np.abs(out["gap"]["mean"])) < 1e-12
    assert np.max(np.abs(out["ls_slope"]["mean"])) < 1e-12


def test_slopes_linear_curve():
    cells = CellTable(make_state_table(2), [1] * 5 + [2] * 5,
                      list(range(1, 6)) * 2, [0] * 10, np.ones(10), np.ones(10))
    theta = np.array([0.3, 0.4, 0.5, 0.6, 0.7] * 2)
    est = _estimates(cells, logit(theta)[None, :])
    out = state_income_slopes(est)
    assert np.allclose(out["gap"]["mean"], 0.4, atol=1e-12)
    assert np.allclose(out["ls_slope"]["mean"], 0.1, atol=1e-12)


def test_national_income_gap_consistency():
    cells = make_cell_table(5, seed=13)
    rng = np.random.default_rng(13)
    est = _estimates(cells, rng.standard_normal((6, len(cells))))
    gap = national_income_gap(est)
    agg = poststratify(est, ("income",))
    want = agg.theta[:, agg.keys.index((5,))] - agg.theta[:, agg.keys.index((1,))]
    assert np.allclose(gap, want, atol=1e-14)
