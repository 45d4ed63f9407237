import dataclasses
import warnings

import numpy as np
import pytest
import scipy.special

from mrpkit.data import N_ETH, N_INCOME
from mrpkit.design import (
    ModelSpec,
    ParameterLayout,
    build_layout,
    eta_adjoint,
    eta_cells,
    eta_kernel,
    expit,
    income_code,
    logit,
    predictor_matrix,
    unit_index,
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
    eta = eta_cells(np.zeros(layout.n_params), layout, [3], [4], [0])
    assert eta.shape == (1,)
    assert eta[0] == 0.0
    assert scipy.special.expit(eta[0]) == 0.5


def test_linear_predictor_arithmetic():
    states = make_state_table(8)
    layout = build_layout(ModelSpec("M1"), states)
    params = np.zeros(layout.n_params)
    params[layout.sl("alpha")][6] = 0.3   # alpha_7
    params[layout.sl("beta")][0] = 0.1
    eta = eta_cells(params, layout, [7], [5], [0])
    assert eta.shape == (1,)
    assert abs(eta[0] - 0.5) < 1e-15  # 0.3 + 0.1 * 2


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


# The kernel and adjoint as they were when they looked their blocks up in the
# layout on every call; the cached slices on UnitIndex must not change a bit.

def _eta_kernel_before(params, layout, idx):
    spec = layout.spec
    beta = params[..., layout.sl("beta")]
    eta = np.take(params[..., layout.sl("alpha")], idx.s0, axis=-1,
                  mode="clip")
    tmp = np.empty_like(eta)
    if spec.varying_slope:
        np.take(params[..., layout.sl("slope")], idx.s0, axis=-1, out=tmp,
                mode="clip")
        tmp += beta[..., :1]
        tmp *= idx.z
    else:
        np.multiply(beta[..., :1], idx.z, out=tmp)
    eta += tmp
    if spec.use_ethnicity:
        eth_coef = np.concatenate(
            [np.zeros(beta.shape[:-1] + (1,)), beta[..., 1:]], axis=-1)
        eta += np.take(eth_coef, idx.e0, axis=-1, out=tmp, mode="clip")
    if spec.category_offsets:
        eta += np.take(params[..., layout.sl("cat")], idx.i0, axis=-1,
                       out=tmp, mode="clip")
    return eta


def _eta_adjoint_before(dl_deta, layout, idx, g):
    spec = layout.spec
    S = layout.n_states
    g[layout.sl("alpha")] += np.bincount(idx.s0, weights=dl_deta, minlength=S)
    glz = dl_deta * idx.z
    g_beta = g[layout.sl("beta")]
    g_beta[0] += glz.sum()
    if spec.use_ethnicity:
        by_eth = np.bincount(idx.e0, weights=dl_deta, minlength=N_ETH)
        g_beta[1:] += by_eth[1:]
    if spec.varying_slope:
        g[layout.sl("slope")] += np.bincount(idx.s0, weights=glz, minlength=S)
    if spec.category_offsets:
        g[layout.sl("cat")] += np.bincount(idx.i0, weights=dl_deta,
                                           minlength=N_INCOME)
    return g


@pytest.mark.parametrize("use_eth", [False, True])
@pytest.mark.parametrize("rung", ["M1", "M2", "M3"])
def test_eta_kernel_and_adjoint_bit_identical_to_layout_lookups(rung,
                                                                use_eth):
    states = make_state_table(9, n_regions=3, seed=2)
    layout = build_layout(ModelSpec(rung, use_ethnicity=use_eth), states)
    cells = make_cell_table(9, use_ethnicity=use_eth, seed=2)
    idx = unit_index(layout, cells.state_id, cells.income_cat,
                     cells.ethnicity)
    rng = np.random.default_rng(11)
    draws = rng.standard_normal((5, layout.n_params))
    for params in (draws[0], draws):  # (P,) and (D, P)
        assert np.array_equal(eta_kernel(params, idx),
                              _eta_kernel_before(params, layout, idx))
    dl_deta = rng.standard_normal(len(cells))
    g0 = rng.standard_normal(layout.n_params)
    assert np.array_equal(eta_adjoint(dl_deta, idx, g0.copy()),
                          _eta_adjoint_before(dl_deta, layout, idx, g0.copy()))


# ---------------------------------------------------------------------------
# expit and logit, with scipy.special as the oracle

@pytest.mark.parametrize("sd", [10.0, 300.0])
def test_expit_within_2_ulp_of_scipy(sd):
    x = sd * np.random.default_rng(0).standard_normal(1_000_000)
    want = scipy.special.expit(x)
    ulps = np.abs(expit(x) - want) / np.spacing(np.abs(want))
    # Both compute 1/(1+exp(-x)); their exps may differ in the last bit. Where
    # exp(-x) lies in [2**53, 2**54) its spacing is 2, so 1 + exp(-x) is a
    # tie, and one ulp of exp can round the two sums 4 apart: up to 4 ulp
    # of the result there.
    tie = (-x >= 53 * np.log(2)) & (-x < 54 * np.log(2))
    assert ulps[~tie].max() <= 2
    assert ulps[tie].max(initial=0.0) <= 4


def test_expit_exact_and_quiet_at_extremes():
    x = np.array([709.0, -709.0, 710.0, -710.0, 750.0, -750.0, np.inf,
                  -np.inf, 0.0, -0.0, np.nan])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = expit(x)
        singles = [expit(v) for v in x]
    want = scipy.special.expit(x)
    assert np.array_equal(got, want, equal_nan=True)
    assert np.array_equal(singles, want, equal_nan=True)
    assert got[5] == 0.0 and got[6] == 1.0 and got[8] == 0.5


def test_expit_scalars_0d_and_lists():
    for x in (0.3, np.float64(-2.5), np.array(1.25), 7):
        got = expit(x)
        assert np.ndim(got) == 0
        assert got == scipy.special.expit(x)
    got = expit([[-1.0, 0.0], [2.0, 40.0]])
    assert got.shape == (2, 2)
    assert np.array_equal(got, scipy.special.expit([[-1.0, 0.0],
                                                    [2.0, 40.0]]))
    x = np.array([1.0, -3.0])
    expit(x)
    assert np.array_equal(x, [1.0, -3.0])  # the input is left alone


def test_logit_within_1e15_of_scipy():
    p = np.concatenate([np.random.default_rng(1).uniform(size=1_000_000),
                        np.linspace(0.0, 1.0, 100_001)[1:-1]])
    assert np.max(np.abs(logit(p) - scipy.special.logit(p))) <= 1e-15


def test_logit_exact_and_quiet_at_edges():
    p = np.array([0.0, 1.0, np.nan, 0.5])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = logit(p)
        singles = [logit(v) for v in p]
    want = scipy.special.logit(p)
    assert np.array_equal(got, want, equal_nan=True)
    assert np.array_equal(singles, want, equal_nan=True)
    assert np.ndim(singles[0]) == 0 and got[0] == -np.inf and got[1] == np.inf
