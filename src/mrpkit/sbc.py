"""Simulation-based calibration of the sampler.

Draw a parameter vector from the model's own prior (top-level coefficients
and scales from the proper prior, state effects from the hierarchy), simulate
a poll, fit, and record the rank of each true parameter among thinned
posterior draws. If sampling is correct the ranks are uniform.
"""

from __future__ import annotations

import logging
import math

import numpy as np

from mrpkit.data import Dataset
from mrpkit.design import build_layout, predictor_matrix
from mrpkit.model import LogDensityModel, PriorConfig
from mrpkit.samplers import sample_mcmc
from mrpkit.synthetic import Scenario, make_cells, make_states, simulate_poll

log = logging.getLogger(__name__)

UNIFORMITY_BINS = 10  # rank histogram bins of uniformity_pvalues


def draw_from_prior(scenario: Scenario, prior: PriorConfig, states, rng):
    """Full parameter vector from the joint prior of the fitted model."""
    spec = scenario.spec
    layout = build_layout(spec, states)
    W = predictor_matrix(states, spec)
    params = np.zeros(layout.n_params)
    cs, ls = prior.coef_scale, prior.log_scale_sd

    params[layout.sl("beta")] = cs * rng.standard_normal(
        layout.sl("beta").stop - layout.sl("beta").start)
    gamma = cs * rng.standard_normal(W.shape[1])
    params[layout.sl("gamma")] = gamma
    log_sa = ls * rng.standard_normal()
    params[layout.sl("sigma_alpha")] = log_sa
    sa = np.exp(log_sa)
    z1 = rng.standard_normal(layout.n_states)
    params[layout.sl("alpha")] = W @ gamma + sa * z1
    if spec.varying_slope:
        slope_mu = cs * rng.standard_normal()
        log_ss = ls * rng.standard_normal()
        zrho = rng.standard_normal()
        rho = np.tanh(zrho)
        ss = np.exp(log_ss)
        z2 = rng.standard_normal(layout.n_states)
        params[layout.sl("slope")] = slope_mu + ss * (
            rho * z1 + np.sqrt(1 - rho ** 2) * z2)
        params[layout.sl("slope_mu")] = slope_mu
        params[layout.sl("slope_sigma")] = log_ss
        params[layout.sl("corr")] = zrho
    if spec.category_offsets:
        log_sc = ls * rng.standard_normal()
        params[layout.sl("sigma_cat")] = log_sc
        params[layout.sl("cat")] = np.exp(log_sc) * rng.standard_normal(5)
    return params


def _simulate_fixed_design(truth, scenario, states, cells, rng) -> Dataset:
    """One replication's poll on the fixed states and cells; the name is
    traced by perfbench/instrument.py."""
    return simulate_poll(truth, scenario, states, cells, rng)


def run_sbc(scenario: Scenario, reps=200, n_rank_draws=19,
            warmup=300, iters=400, seed=0,
            prior: PriorConfig | None = None):
    """Rank statistics over ``reps`` replications; returns (ranks, layout)
    with ranks of shape (reps, P), each rank in 0..n_rank_draws, which
    needs ``iters`` >= ``n_rank_draws``. Progress is logged at INFO on the
    ``mrpkit.sbc`` logger every 20 replications."""
    if iters < n_rank_draws:
        raise ValueError(f"iters {iters} gives fewer than n_rank_draws "
                         f"{n_rank_draws} draws to rank against")
    prior = prior or PriorConfig(coef_scale=1.0, log_scale_sd=1.0)
    states = make_states(scenario)
    cells = make_cells(scenario, states)
    layout = build_layout(scenario.spec, states)
    ranks = np.empty((reps, layout.n_params), dtype=int)
    for r in range(reps):
        rng = np.random.default_rng([seed, 100 + r])
        truth = draw_from_prior(scenario, prior, states, rng)
        dataset = _simulate_fixed_design(truth, scenario, states, cells, rng)
        model = LogDensityModel(dataset, scenario.spec, prior)
        draws = sample_mcmc(model, chains=1, warmup=warmup, iters=iters,
                            seed=int(rng.integers(2 ** 31)), init="diffuse")
        thin = max(1, iters // n_rank_draws)
        sub = draws.draws[thin - 1::thin][:n_rank_draws]
        ranks[r] = np.sum(sub < truth, axis=0)
        if (r + 1) % 20 == 0:
            log.info("sbc replication %d/%d", r + 1, reps)
    return ranks, layout


def chi2_sf(x: float, df: int) -> float:
    """Upper tail P(X > x) of a chi-square with an integer ``df`` >= 1, in
    closed form: with y = x/2, exp(-y) sum_{j<df/2} y^j/j! for even df, and
    erfc(sqrt y) + exp(-y) sum_{j<(df-1)/2} y^(j+1/2)/Gamma(j+3/2) for odd
    df. Every term is positive, so nothing cancels."""
    y = 0.5 * x
    if df % 2:
        out = math.erfc(math.sqrt(y))
        term = math.exp(-y) * math.sqrt(y) / math.gamma(1.5)
        j = 0.5
    else:
        out = 0.0
        term = math.exp(-y)
        j = 0.0
    for _ in range(df // 2):
        out += term
        j += 1.0
        term *= y / j
    return out


def uniformity_pvalues(ranks, n_rank_draws=19) -> np.ndarray:
    """Chi-square goodness-of-fit p-value of the rank histogram in
    UNIFORMITY_BINS bins, per parameter. Ranks take values 0..n_rank_draws
    (n_rank_draws+1 outcomes); ValueError for one outside them."""
    reps, P = ranks.shape
    if np.any((ranks < 0) | (ranks > n_rank_draws)):
        raise ValueError(f"ranks outside 0..{n_rank_draws}")
    levels = n_rank_draws + 1
    edges = np.linspace(0, levels, UNIFORMITY_BINS + 1)
    expected = reps / UNIFORMITY_BINS
    pvals = np.empty(P)
    for j in range(P):
        obs, _ = np.histogram(ranks[:, j], bins=edges)
        stat = float(np.sum((obs - expected) ** 2) / expected)
        pvals[j] = chi2_sf(stat, UNIFORMITY_BINS - 1)
    return pvals
