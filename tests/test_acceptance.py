"""Acceptance checks, one per criterion, each printing a pass/fail line."""

import time

import numpy as np
import pytest
from scipy import stats
from scipy.special import expit, logit

from mrpkit.data import CellTable, Dataset, StateTable
from mrpkit.design import ModelSpec, build_layout, eta_cells
from mrpkit.model import LogDensityModel, PriorConfig
from mrpkit.poststrat import (
    CellEstimates,
    calibrate_to_totals,
    national_income_gap,
    poststratify,
    predict_cells,
)
from mrpkit.samplers import PosteriorDraws, sample_mcmc
from mrpkit.sbc import run_sbc, uniformity_pvalues
from mrpkit.synthetic import (
    Scenario,
    draw_truth,
    make_cells,
    make_states,
    redblue_scenario,
    simulate_poll,
    true_cell_theta,
)

from conftest import make_cell_table, make_state_table, survey_from_rows


def _report(num, ok, detail):
    line = f"[criterion {num:2d}] {'PASS' if ok else 'FAIL'}: {detail}"
    print(line)
    assert ok, line


# ---------------------------------------------------------------------------
# 1. gradient correctness

def test_criterion_1_gradient_correctness():
    t0 = time.time()
    worst = 0.0
    for rung in ("M1", "M2", "M3"):
        sc = Scenario(S=5, rung=rung, n=400, seed=17)
        states = make_states(sc)
        cells = make_cells(sc, states)
        truth = draw_truth(sc, states, cells)
        ds = simulate_poll(truth, sc, states, cells)
        model = LogDensityModel(ds, sc.spec)
        rng = np.random.default_rng(23)
        for _ in range(20):
            x = 0.5 * rng.standard_normal(model.n_params)
            g = model.grad(x)
            fd = np.empty_like(g)
            for i in range(len(x)):
                e = np.zeros(len(x))
                e[i] = 1e-6
                fd[i] = (model.log_posterior(x + e)
                         - model.log_posterior(x - e)) / 2e-6
            rel = np.max(np.abs(g - fd) / np.maximum(1.0, np.abs(fd)))
            worst = max(worst, rel)
    dt = time.time() - t0
    _report(1, worst <= 1e-6 and dt < 10,
            f"max relative gradient error {worst:.2e} over M1-M3, {dt:.1f}s")


# ---------------------------------------------------------------------------
# 2. poststratification identity and nesting

def test_criterion_2_poststrat_identity():
    cells = make_cell_table(50, seed=31)
    rng = np.random.default_rng(31)
    est = CellEstimates(cells, rng.standard_normal((20, 250)))
    theta = est.theta
    N = cells.n_voters

    by_state = poststratify(est, ("state",))
    err_id = 0.0
    for g, key in enumerate(by_state.keys):
        m = cells.state_id == key[0]
        want = (theta[:, m] * N[m]).sum(axis=1) / N[m].sum()
        err_id = max(err_id, float(np.max(np.abs(by_state.theta[:, g] - want))))

    national = poststratify(est, ())
    recomposed = (by_state.theta * by_state.weight).sum(axis=1) \
        / by_state.weight.sum()
    err_nest = float(np.max(np.abs(national.theta[:, 0] - recomposed)))
    _report(2, err_id <= 1e-12 and err_nest <= 1e-12,
            f"identity error {err_id:.2e}, nesting error {err_nest:.2e}")


# ---------------------------------------------------------------------------
# 3. small-posterior grid-quadrature oracle

def test_criterion_3_grid_quadrature_oracle():
    t0 = time.time()
    # 2-state M1 toy, respondents at the extreme income categories only;
    # parameter space (beta, gamma, alpha_1, alpha_2, log sigma)
    counts = {(1, 1): (60, 21), (1, 5): (60, 33),
              (2, 1): (60, 27), (2, 5): (60, 42)}
    states = StateTable(["A", "B"], np.array([-1.0, 1.0]),
                        np.array([0.5, 0.5]), np.array([1, 1]))
    cells = CellTable([1] * 5 + [2] * 5, list(range(1, 6)) * 2, [0] * 10,
                      np.full(10, 1000.0), np.full(10, 0.6))
    sid, inc, vote = [], [], []
    for (s, i), (n, k) in counts.items():
        sid += [s] * n
        inc += [i] * n
        vote += [1] * k + [0] * (n - k)
    sv = survey_from_rows(cells, sid, inc, np.zeros(len(sid), dtype=int),
                          vote)
    spec = ModelSpec("M1", state_predictors=())
    # the S=2 hierarchy has a pronounced scale funnel: a high acceptance
    # target and longer trajectories are needed for the scale and mean
    # hyperparameters to mix
    prior = PriorConfig("weak", coef_scale=2.5, log_scale_sd=0.5)
    model = LogDensityModel(Dataset(sv, cells, states), spec, prior)
    assert model.n_params == 5

    mcmc = sample_mcmc(model, chains=4, warmup=1200, iters=8000, seed=41,
                       target_accept=0.95, traj_length=2.5)
    lay = model.layout
    order = [lay.sl("beta").start, lay.sl("gamma").start,
             lay.sl("alpha").start, lay.sl("alpha").start + 1,
             lay.sl("sigma_alpha").start]
    mcmc_mean = mcmc.draws.mean(axis=0)[order]

    # independent density: per-cell binomial logit terms plus scipy normals
    def logdens(b, g, a1, a2, ls):
        out = 0.0
        for (s, i), (n, k) in counts.items():
            eta = (a1 if s == 1 else a2) + b * (i - 3.0)
            out = out + k * eta - n * np.logaddexp(0.0, eta)
        sigma = np.exp(ls)
        out = out + stats.norm.logpdf(a1, g, sigma) \
            + stats.norm.logpdf(a2, g, sigma)
        out = out + stats.norm.logpdf(b, 0, 2.5) \
            + stats.norm.logpdf(g, 0, 2.5) + stats.norm.logpdf(ls, 0, 0.5)
        return out

    # grid centered on the sample, wide enough that edge mass is negligible
    m = mcmc.draws.mean(axis=0)[order]
    s = mcmc.draws.std(axis=0)[order]
    axes = [np.linspace(m[j] - 7 * s[j], m[j] + 7 * s[j], 41)
            for j in range(4)]
    ls_axis = np.linspace(m[4] - 9 * s[4], m[4] + 9 * s[4], 61)
    B = axes[0][:, None, None, None]
    G = axes[1][None, :, None, None]
    A1 = axes[2][None, None, :, None]
    A2 = axes[3][None, None, None, :]
    ref = logdens(*m)

    Z = 0.0
    sums = np.zeros(5)
    edge = 0.0
    for idx, ls in enumerate(ls_axis):
        w = np.exp(logdens(B, G, A1, A2, ls) - ref)
        Z += w.sum()
        sums[0] += (w.sum(axis=(1, 2, 3)) * axes[0]).sum()
        sums[1] += (w.sum(axis=(0, 2, 3)) * axes[1]).sum()
        sums[2] += (w.sum(axis=(0, 1, 3)) * axes[2]).sum()
        sums[3] += (w.sum(axis=(0, 1, 2)) * axes[3]).sum()
        sums[4] += w.sum() * ls
        if idx in (0, len(ls_axis) - 1):
            edge = max(edge, w.sum())
        edge = max(edge, w[0].sum(), w[-1].sum(),
                   w[:, 0].sum(), w[:, -1].sum(),
                   w[:, :, 0].sum(), w[:, :, -1].sum(),
                   w[:, :, :, 0].sum(), w[:, :, :, -1].sum())
    grid_mean = sums / Z
    assert edge / Z < 1e-5, "grid truncates posterior mass"

    gap = np.max(np.abs(mcmc_mean - grid_mean))
    dt = time.time() - t0
    _report(3, gap <= 0.02 and dt < 300,
            f"max |MCMC mean - quadrature mean| {gap:.4f} "
            f"(grid {grid_mean.round(3)}), {dt:.0f}s")


# ---------------------------------------------------------------------------
# 4. simulation-based calibration

def test_criterion_4_sbc_uniformity():
    t0 = time.time()
    sc = Scenario(S=5, rung="M1", n=500, seed=11,
                  state_predictors=("avg_income",))
    ranks, layout = run_sbc(sc, reps=200, seed=7)
    p = uniformity_pvalues(ranks)
    dt = time.time() - t0
    _report(4, bool(np.all(p > 0.01)) and dt < 1800,
            f"min rank-uniformity p-value {p.min():.3f} over "
            f"{layout.n_params} parameters, 200 reps, {dt:.0f}s")


# ---------------------------------------------------------------------------
# 5-8. red-state/blue-state recovery (shared 20-replication fixture)

@pytest.fixture(scope="module")
def redblue_reps():
    reps = []
    for r in range(20):
        sc = redblue_scenario(S=50, n=30000, seed=r)
        states = make_states(sc)
        cells = make_cells(sc, states)
        truth = draw_truth(sc, states, cells)
        ds = simulate_poll(truth, sc, states, cells)
        layout = build_layout(sc.spec, states)
        model = LogDensityModel(ds, sc.spec)
        draws = sample_mcmc(model, chains=2, warmup=300, iters=500,
                            seed=1000 + r)
        est = predict_cells(draws, cells)
        theta = est.theta

        true_slope = truth[layout.sl("beta")][0] + truth[layout.sl("slope")]
        est_slope = (draws.draws[:, layout.sl("beta").start]
                     + draws.draws[:, layout.sl("slope")].T).mean(axis=1)
        tt = true_cell_theta(truth, sc, states, cells)
        lo = np.quantile(theta, 0.05, axis=0)
        hi = np.quantile(theta, 0.95, axis=0)
        reps.append({
            "corr_slope": float(np.corrcoef(est_slope, true_slope)[0, 1]),
            "corr_income": float(np.corrcoef(est_slope,
                                             states.avg_income)[0, 1]),
            "national_gap": float(national_income_gap(est).mean()),
            "covered": int(np.sum((tt >= lo) & (tt <= hi))),
            "n_cells": len(cells),
            "median_sd": float(np.median(theta.std(axis=0, ddof=1))),
        })
    return reps


def test_criterion_5_redblue_slope_recovery(redblue_reps):
    corr = np.array([r["corr_slope"] for r in redblue_reps])
    neg = sum(r["corr_income"] < 0 for r in redblue_reps)
    ok = corr.mean() >= 0.8 and neg >= 19
    _report(5, ok, f"mean slope correlation {corr.mean():.3f} "
                   f"(min {corr.min():.3f}), negative income-slope "
                   f"correlation in {neg}/20 replications")


def test_criterion_6_national_gap(redblue_reps):
    gaps = np.array([r["national_gap"] for r in redblue_reps])
    err = np.max(np.abs(gaps - 0.20))
    _report(6, err <= 0.03,
            f"national rich-poor gap {gaps.mean():.3f} "
            f"(max deviation from 0.20: {err:.3f})")


def test_criterion_7_interval_calibration(redblue_reps):
    covered = sum(r["covered"] for r in redblue_reps)
    total = sum(r["n_cells"] for r in redblue_reps)
    rate = covered / total
    _report(7, 0.85 <= rate <= 0.95,
            f"90% interval coverage {rate:.3f} over {total} cell estimates")


def test_criterion_8_uncertainty_scale(redblue_reps):
    sds = np.array([r["median_sd"] for r in redblue_reps])
    ok = bool(np.all((sds >= 0.01) & (sds <= 0.06)))
    _report(8, ok, f"median cell posterior sd {sds.mean():.3f} "
                   f"(range {sds.min():.3f}..{sds.max():.3f})")


# ---------------------------------------------------------------------------
# 9. calibration to recorded totals

def test_criterion_9_calibration_idempotence():
    cells = make_cell_table(12, seed=43)
    rng = np.random.default_rng(43)
    est = CellEstimates(cells, rng.standard_normal((50, len(cells))))
    recorded = rng.uniform(0.3, 0.7, 12)
    states = make_state_table(12)
    cal, _ = calibrate_to_totals(est, recorded, states)
    agg = poststratify(cal, ("state",))
    match_err = float(np.max(np.abs(agg.theta - recorded[None, :])))
    _, deltas2 = calibrate_to_totals(cal, recorded, states)
    resid = float(np.max(np.abs(deltas2)))
    _report(9, match_err <= 1e-8 and resid < 1e-10,
            f"post-calibration mismatch {match_err:.2e}, "
            f"second-pass |delta| {resid:.2e}")


# ---------------------------------------------------------------------------
# 10. partial pooling

def test_criterion_10_partial_pooling():
    # identical state-level predictors, everyone at the central income
    # category, so eta = alpha and the regression prediction is gamma[0]
    S = 10
    states = StateTable([f"S{i:02d}" for i in range(S)], np.zeros(S),
                        np.full(S, 0.5), np.ones(S, dtype=int))
    cells = make_cell_table(S, seed=47)
    sid, vote = [], []
    for s in range(1, 9):              # eight balanced big states
        sid += [s] * 400
        vote += [1] * 200 + [0] * 200
    sid += [9] * 2000                  # large state, share 0.6
    vote += [1] * 1200 + [0] * 800
    sid += [10] * 5                    # small state, raw share 0.8
    vote += [1, 1, 1, 1, 0]
    inc = [3] * len(sid)
    sv = survey_from_rows(cells, sid, inc, np.zeros(len(sid), dtype=int),
                          vote)
    model = LogDensityModel(Dataset(sv, cells, states), ModelSpec("M1"))
    draws = sample_mcmc(model, chains=2, warmup=400, iters=600, seed=53)
    lay = model.layout

    alpha = draws.draws[:, lay.sl("alpha")].mean(axis=0)
    pred = draws.draws[:, lay.sl("gamma")].mean(axis=0)[0]  # W row is e_1
    raw_small = logit(0.8)
    small_ok = min(pred, raw_small) < alpha[9] < max(pred, raw_small)
    # shrinkage should be substantial for n=5, not merely nonzero
    big_err = abs(alpha[8] - logit(0.6))
    _report(10, small_ok and big_err <= 0.05,
            f"small-state intercept {alpha[9]:.3f} strictly between "
            f"prediction {pred:.3f} and raw logit {raw_small:.3f}; "
            f"large-state gap to raw logit {big_err:.3f}")
