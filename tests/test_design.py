import dataclasses

import numpy as np
import pytest
from scipy.special import expit

from mrpkit.design import (
    ModelSpec,
    ParameterLayout,
    build_layout,
    eta_cells,
    income_code,
    linear_predictor,
    predictor_matrix,
)

from conftest import make_cell_table, make_state_table


def test_model_spec_validation():
    with pytest.raises(ValueError):
        ModelSpec("M4")
    with pytest.raises(ValueError):
        ModelSpec("M1", state_predictors=("nope",))


def test_layout_m1_totals_56():
    # 50 states, 3 state predictors with a 2-region cross: W has
    # intercept + avg_income + prev_rep_share + 1 region indicator = 4 cols
    states = make_state_table(50, n_regions=2)
    layout = build_layout(ModelSpec("M1"), states)
    blocks = dict(layout.blocks)
    assert blocks == {"beta": 1, "gamma": 4, "alpha": 50, "sigma_alpha": 1}
    assert layout.n_params == 56


def test_layout_m2_totals_109():
    states = make_state_table(50, n_regions=2)
    layout = build_layout(ModelSpec("M2"), states)
    blocks = dict(layout.blocks)
    assert blocks["slope"] == 50
    assert blocks["slope_mu"] == blocks["slope_sigma"] == blocks["corr"] == 1
    assert layout.n_params == 109


def test_layout_enumeration_oracle():
    # independent count: enumerate the blocks each rung definition implies
    for S, n_regions, rung, use_eth in [(5, 2, "M1", False), (8, 3, "M2", True),
                                        (12, 4, "M3", False)]:
        states = make_state_table(S, n_regions=n_regions)
        spec = ModelSpec(rung, use_eth)
        layout = build_layout(spec, states)
        n_gamma = 1 + 2 + (n_regions - 1)  # intercept + 2 continuous + regions
        expected = (1 + (3 if use_eth else 0)) + n_gamma + S + 1
        if rung in ("M2", "M3"):
            expected += S + 3
        if rung == "M3":
            expected += 5 + 1
        assert layout.n_params == expected


def test_layout_n_params_is_block_sum_outside_eq_and_repr():
    states = make_state_table(7, n_regions=3)
    layout = build_layout(ModelSpec("M3", True), states)
    assert layout.n_params == sum(n for _, n in layout.blocks)
    assert "n_params" not in repr(layout)
    field = {f.name: f for f in dataclasses.fields(ParameterLayout)}["n_params"]
    assert not (field.init or field.compare or field.repr)
    other = build_layout(ModelSpec("M3", True), states)
    object.__setattr__(other, "n_params", -1)
    assert other == layout and hash(other) == hash(layout)


def test_layout_rejects_single_state():
    states = make_state_table(2)
    states.labels = states.labels[:1]
    states.avg_income = states.avg_income[:1]
    states.prev_rep_share = states.prev_rep_share[:1]
    states.region_id = states.region_id[:1]
    with pytest.raises(ValueError):
        build_layout(ModelSpec("M1"), states)


def test_layout_slices_partition():
    states = make_state_table(6, n_regions=3)
    layout = build_layout(ModelSpec("M3", use_ethnicity=True), states)
    seen = np.zeros(layout.n_params, dtype=int)
    for name, _ in layout.blocks:
        seen[layout.sl(name)] += 1
    assert np.all(seen == 1)


def test_predictor_matrix_columns():
    states = make_state_table(10, n_regions=3)
    W = predictor_matrix(states, ModelSpec("M1"))
    assert W.shape == (10, 5)
    assert np.all(W[:, 0] == 1.0)
    assert abs(W[:, 2].mean()) < 1e-12  # prev_rep_share standardized
    # region indicators for regions 2 and 3 only
    assert np.array_equal(W[:, 3], (states.region_id == 2).astype(float))
    assert np.array_equal(W[:, 4], (states.region_id == 3).astype(float))


def test_income_code_centered():
    assert np.array_equal(income_code([1, 2, 3, 4, 5]),
                          [-2.0, -1.0, 0.0, 1.0, 2.0])


# ---------------------------------------------------------------------------
# linear predictor

def test_linear_predictor_zero_params():
    states = make_state_table(8)
    layout = build_layout(ModelSpec("M1"), states)
    eta = linear_predictor(np.zeros(layout.n_params), (3, 4), layout)
    assert eta == 0.0
    assert expit(eta) == 0.5


def test_linear_predictor_arithmetic():
    states = make_state_table(8)
    layout = build_layout(ModelSpec("M1"), states)
    params = np.zeros(layout.n_params)
    params[layout.sl("alpha")][6] = 0.3   # alpha_7
    params[layout.sl("beta")][0] = 0.1
    eta = linear_predictor(params, (7, 5), layout)
    assert abs(eta - 0.5) < 1e-15  # 0.3 + 0.1 * 2


def test_eta_cells_matches_naive_oracle():
    # M3 with ethnicity over the full 1000-cell cross vs a per-cell loop
    states = make_state_table(50, n_regions=2, seed=9)
    spec = ModelSpec("M3", use_ethnicity=True)
    layout = build_layout(spec, states)
    cells = make_cell_table(50, use_ethnicity=True, seed=9)
    assert len(cells) == 1000
    rng = np.random.default_rng(4)
    params = 0.5 * rng.standard_normal(layout.n_params)

    eta = eta_cells(params, layout, cells.state_id, cells.income_cat,
                    cells.ethnicity)

    beta = params[layout.sl("beta")]
    alpha = params[layout.sl("alpha")]
    slope = params[layout.sl("slope")]
    cat = params[layout.sl("cat")]
    for c in range(len(cells)):
        s = int(cells.state_id[c])
        i = int(cells.income_cat[c])
        e = int(cells.ethnicity[c])
        want = alpha[s - 1] + (beta[0] + slope[s - 1]) * (i - 3) + cat[i - 1]
        if e > 1:
            want += beta[e - 1]
        assert abs(eta[c] - want) < 1e-12


def test_eta_cells_rejects_out_of_cross():
    states = make_state_table(4)
    layout = build_layout(ModelSpec("M1"), states)
    params = np.zeros(layout.n_params)
    with pytest.raises(ValueError):
        eta_cells(params, layout, [5], [1], [0])
    with pytest.raises(ValueError):
        eta_cells(params, layout, [1], [6], [0])
    eta_cells(params, layout, [1], [1], [0])  # in-range key is fine


@pytest.mark.parametrize("rung,use_eth", [("M1", False), ("M2", False),
                                          ("M3", True)])
def test_eta_cells_batch_equals_rows(rung, use_eth):
    # a (D, P) matrix of draws gives bit for bit the per-draw rows
    states = make_state_table(7, n_regions=3, seed=5)
    layout = build_layout(ModelSpec(rung, use_ethnicity=use_eth), states)
    cells = make_cell_table(7, use_ethnicity=use_eth, seed=5)
    draws = np.random.default_rng(8).standard_normal((6, layout.n_params))
    keys = (cells.state_id, cells.income_cat, cells.ethnicity)
    batch = eta_cells(draws, layout, *keys)
    rows = np.stack([eta_cells(d, layout, *keys) for d in draws])
    assert batch.shape == (6, len(cells))
    assert np.array_equal(batch, rows)
