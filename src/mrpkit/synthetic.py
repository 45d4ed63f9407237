"""Synthetic scenarios: ground-truth parameters and simulated polls.

Data are drawn from the declared rung's own generative model so that
inference on the same rung is well specified; the red/blue scenario adds a
generator-only dependence of the state income slope on state income to
reproduce the rich-state/poor-state slope pattern. Callers make a world's
tables once (``make_states``, then ``make_cells``, whose cells carry the
state table) and pass the cells in.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from mrpkit.data import (
    CellTable,
    Dataset,
    StateTable,
    Survey,
    cell_cross,
    key_columns,
    write_cells,
    write_csv,
    write_states,
    write_survey,
)
from mrpkit.design import (DEFAULT_STATE_PREDICTORS, ModelSpec, build_layout,
                           eta_cells, expit, predictor_matrix)
from mrpkit.poststrat import CellEstimates, national_income_gap

# shared by every world: each income (and ethnicity) category's share of a
# state's adults, turnout by income, and the true scale of the M3 income
# category offsets
DEFAULT_INCOME_PROFILE = (0.15, 0.22, 0.26, 0.22, 0.15)
DEFAULT_TURNOUT = (0.45, 0.52, 0.58, 0.64, 0.70)
DEFAULT_ETH_PROFILE = (0.65, 0.15, 0.12, 0.08)
SIGMA_CAT = 0.1


@dataclass(frozen=True)
class Scenario:
    """Complete description of one synthetic world."""

    S: int = 50
    rung: str = ModelSpec.rung
    n: int = 10000
    seed: int = 0
    use_ethnicity: bool = False
    state_predictors: tuple[str, ...] = DEFAULT_STATE_PREDICTORS

    # true hyperparameters
    gamma: tuple[float, ...] | None = None   # per W column; None -> zeros
    beta_inc: float = 0.1
    eth_coefs: tuple[float, ...] = (0.0, 0.0, 0.0)  # categories 2..4
    sigma_alpha: float = 0.3
    slope_mu: float = 0.1          # M2/M3
    slope_sigma: float = 0.05      # M2/M3
    slope_on_income: float = 0.0   # generator-only regression of slope on income

    # red/blue world
    income_linspace: bool = False  # evenly spread state incomes (red/blue)
    target_national_gap: float | None = None

    @property
    def spec(self) -> ModelSpec:
        return ModelSpec(self.rung, self.use_ethnicity, self.state_predictors)


def _rng(scenario: Scenario, stream: int) -> np.random.Generator:
    return np.random.default_rng([scenario.seed, stream])


def make_states(scenario: Scenario) -> StateTable:
    rng = _rng(scenario, 0)
    S = scenario.S
    if scenario.income_linspace:
        raw = np.linspace(-1.0, 1.0, S)
    else:
        raw = rng.standard_normal(S)
    inc = (raw - raw.mean()) / raw.std(ddof=1)
    # conservative (low-income) states lean Republican in the previous vote
    share = np.clip(0.5 - 0.08 * inc + 0.05 * rng.standard_normal(S),
                    0.05, 0.95)
    region = (np.arange(S) % 4) + 1
    labels = [f"S{i + 1:02d}" for i in range(S)]
    return StateTable(labels, inc, share, region)


def make_cells(scenario: Scenario, states: StateTable) -> CellTable:
    rng = _rng(scenario, 3)
    S = states.n_states
    pops = np.round(1e6 * np.exp(0.5 * rng.standard_normal(S)))
    sid, inc, eth = cell_cross(S, scenario.use_ethnicity)
    frac = np.asarray(DEFAULT_INCOME_PROFILE)[inc - 1]
    if scenario.use_ethnicity:
        frac = frac * np.asarray(DEFAULT_ETH_PROFILE)[eth - 1]
    return CellTable(states, sid, inc, eth, np.round(pops[sid - 1] * frac),
                     np.asarray(DEFAULT_TURNOUT)[inc - 1])


def draw_truth(scenario: Scenario, cells: CellTable) -> np.ndarray:
    """True parameter vector in the scenario rung's layout; deterministic
    per (scenario, seed)."""
    spec = scenario.spec
    states = cells.states
    layout = build_layout(spec, states)
    W = predictor_matrix(states, spec)
    rng = _rng(scenario, 1)
    S = states.n_states

    gamma = np.zeros(W.shape[1]) if scenario.gamma is None \
        else np.asarray(scenario.gamma, dtype=float)
    if len(gamma) != W.shape[1]:
        raise ValueError(f"gamma has {len(gamma)} entries, W has "
                         f"{W.shape[1]} columns")

    params = np.zeros(layout.n_params)
    beta = params[layout.sl("beta")]
    beta[0] = scenario.beta_inc
    if spec.use_ethnicity:
        beta[1:] = scenario.eth_coefs
    params[layout.sl("gamma")] = gamma
    params[layout.sl("sigma_alpha")] = np.log(max(scenario.sigma_alpha, 1e-12))

    z1 = rng.standard_normal(S)
    z2 = rng.standard_normal(S)
    alpha = W @ gamma + scenario.sigma_alpha * z1
    params[layout.sl("alpha")] = alpha
    if spec.varying_slope:  # independent residuals: corr stays 0
        params[layout.sl("slope")] = scenario.slope_mu \
            + scenario.slope_on_income * states.avg_income \
            + scenario.slope_sigma * z2
        params[layout.sl("slope_mu")] = scenario.slope_mu
        params[layout.sl("slope_sigma")] = np.log(max(scenario.slope_sigma, 1e-12))
    if spec.category_offsets:  # the offsets themselves stay 0
        params[layout.sl("sigma_cat")] = np.log(SIGMA_CAT)

    if scenario.target_national_gap is not None and spec.varying_slope:
        params = _scale_slopes_to_gap(params, layout, cells,
                                      scenario.target_national_gap)
    return params


def _scale_slopes_to_gap(params, layout, cells, target, tol=1e-8):
    """Scale (beta_inc + slope_j) jointly so the true national top-minus-
    bottom income gap equals the target; monotone, solved by bisection."""
    base = params.copy()
    b0 = base[layout.sl("beta")][0]
    s0 = base[layout.sl("slope")].copy()
    mu0 = base[layout.sl("slope_mu")][0]

    def with_scale(c):
        p = base.copy()
        p[layout.sl("beta")][0] = c * b0
        p[layout.sl("slope")] = c * s0
        p[layout.sl("slope_mu")] = c * mu0
        return p

    def gap(c):
        eta = eta_cells(with_scale(c), layout, cells.state_id,
                        cells.income_cat, cells.ethnicity)
        return national_income_gap(CellEstimates(cells, eta))[0]

    lo, hi = 0.0, 1.0
    while gap(hi) < target:
        hi *= 2.0
        if hi > 64:
            raise ValueError("cannot reach target national gap")
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if gap(mid) < target:
            lo = mid
        else:
            hi = mid
        if hi - lo < tol:
            break
    return with_scale(0.5 * (lo + hi))


def true_cell_theta(truth, scenario: Scenario, cells: CellTable) -> np.ndarray:
    layout = build_layout(scenario.spec, cells.states)
    return expit(eta_cells(truth, layout, cells.state_id, cells.income_cat,
                           cells.ethnicity))


def simulate_poll(truth, scenario: Scenario, cells: CellTable,
                  rng=None) -> Dataset:
    """Respondents allocated to cells in proportion to adult population,
    votes flipped at the cell probability; the poll is those two counts per
    cell. ``rng`` defaults to the scenario's own poll stream."""
    theta = true_cell_theta(truth, scenario, cells)
    rng = rng if rng is not None else _rng(scenario, 2)

    counts = rng.multinomial(scenario.n, cells.n_adults / cells.n_adults.sum())
    yes = rng.binomial(counts, theta)
    return Dataset(Survey(counts, yes), cells)


def redblue_scenario(S=50, n=30000, seed=0) -> Scenario:
    """Canned M2 world where the income slope falls with state income:
    essentially flat income-voting in the richest states, steep in the
    poorest, with a national top-minus-bottom gap of 0.20."""
    if S < 10:
        raise ValueError("red/blue scenario needs at least 10 states")
    return Scenario(
        S=S, rung="M2", n=n, seed=seed,
        gamma=(0.0, -0.15, 0.1, 0.0, 0.0, 0.0),  # intercept, income, share, regions
        beta_inc=0.0,
        sigma_alpha=0.3,
        slope_mu=0.20, slope_sigma=0.012,
        slope_on_income=-0.115,
        income_linspace=True,
        target_national_gap=0.20,
    )


def write_scenario_files(scenario: Scenario, outdir) -> dict:
    """Write survey.csv, cells.csv, states.csv, truth.csv for a scenario."""
    os.makedirs(outdir, exist_ok=True)
    states = make_states(scenario)
    cells = make_cells(scenario, states)
    truth = draw_truth(scenario, cells)
    dataset = simulate_poll(truth, scenario, cells)
    theta = true_cell_theta(truth, scenario, cells)

    paths = {k: os.path.join(outdir, f"{k}.csv")
             for k in ("survey", "cells", "states", "truth")}
    write_states(states, paths["states"])
    write_survey(dataset, paths["survey"])
    write_cells(cells, paths["cells"])
    header, cols = key_columns(cells)
    write_csv(paths["truth"], header + ["theta"], cols + [theta.tolist()],
              lineterminator="\n")
    return paths
