import numpy as np
import pytest

from mrpkit.diagnostics import (
    compute_diagnostics,
    diagnostics_table,
    split_ess,
    split_rhat,
)
from mrpkit.poststrat import draw_summary
from mrpkit.samplers import PosteriorDraws


def test_rhat_constant_chains_is_nan():
    x = np.ones((2, 100))
    assert np.isnan(split_rhat(x))


def test_rhat_iid_draws_near_one():
    rng = np.random.default_rng(0)
    x = rng.standard_normal((4, 5000))
    assert 0.99 < split_rhat(x) < 1.01


def test_rhat_unmixed_chains_large():
    rng = np.random.default_rng(1)
    x = rng.standard_normal((2, 500))
    x[1] += 10.0
    assert split_rhat(x) > 3.0


def test_rhat_detects_within_chain_drift():
    # split halves differ even with a single chain duplicated
    rng = np.random.default_rng(2)
    drift = np.linspace(0.0, 8.0, 600)
    x = rng.standard_normal((2, 600)) + drift
    assert split_rhat(x) > 1.5


def test_ess_iid_near_sample_size():
    rng = np.random.default_rng(3)
    x = rng.standard_normal((4, 2000))
    ess = split_ess(x)
    assert 0.75 * 8000 < ess <= 8000


def test_ess_autocorrelated_much_smaller():
    rng = np.random.default_rng(4)
    n = 4000
    x = np.empty((2, n))
    for c in range(2):
        e = rng.standard_normal(n)
        x[c, 0] = e[0]
        for t in range(1, n):
            x[c, t] = 0.95 * x[c, t - 1] + np.sqrt(1 - 0.95 ** 2) * e[t]
    ess = split_ess(x)
    # AR(1) with phi=0.95 has ESS about n * (1-phi)/(1+phi) ~ 0.026 n
    assert ess < 0.1 * 2 * n


def test_rhat_hand_computed():
    # split halves [1, 2], [3, 4], [2, 4], [6, 8]: n = 2, means 1.5, 3.5, 3,
    # 7; W = mean(0.5, 0.5, 2, 2) = 5/4; B = n var(means) = 65/6; so
    # var_hat = (n - 1)/n W + B/n = 5/8 + 65/12 = 145/24 and
    # R-hat = sqrt(var_hat / W) = sqrt(29/6)
    x = np.array([[1.0, 2.0, 3.0, 4.0], [2.0, 4.0, 6.0, 8.0]])
    assert split_rhat(x) == pytest.approx(np.sqrt(29 / 6), rel=1e-12)


def test_ess_matches_ar1_closed_form():
    # AR(1) chains with phi = 0.95: ESS = N (1 - phi)/(1 + phi), about 1026
    # for N = 4 x 10,000 draws. Over seeds 0-29 the estimate fell within
    # 0.84-1.15 of that (sd 0.08), so 25 % is a bound of three sd; without
    # the factor 2 on the autocorrelation time the estimate nearly doubles
    phi, chains, n = 0.95, 4, 10000
    e = np.random.default_rng(7).standard_normal((chains, n))
    x = np.empty((chains, n))
    x[:, 0] = e[:, 0]
    for t in range(1, n):
        x[:, t] = phi * x[:, t - 1] + np.sqrt(1 - phi ** 2) * e[:, t]
    want = chains * n * (1 - phi) / (1 + phi)
    assert split_ess(x) == pytest.approx(want, rel=0.25)


def test_compute_diagnostics_requires_two_chains():
    d = PosteriorDraws(np.random.default_rng(0).standard_normal((50, 2)), 1)
    with pytest.raises(ValueError):
        compute_diagnostics(d)


def test_compute_diagnostics_shapes():
    rng = np.random.default_rng(5)
    draws = PosteriorDraws(rng.standard_normal((400, 3)), 2)
    out = compute_diagnostics(draws)
    assert out["rhat"].shape == (3,)
    assert out["ess"].shape == (3,)
    assert np.all(out["rhat"] < 1.05)


def test_summarize_and_table():
    rng = np.random.default_rng(6)
    draws = PosteriorDraws(rng.standard_normal((200, 2)), 2)
    draws.diagnostics = compute_diagnostics(draws)
    s = draw_summary(draws.draws)
    assert s["mean"].shape == (2,)
    assert np.array_equal(s["mean"], draws.draws.mean(axis=0))
    table = diagnostics_table(draws)
    assert "rhat" in table
    assert "params[1]" in table


def test_table_handles_nan_rhat():
    draws = PosteriorDraws(np.ones((40, 1)), 2)
    draws.diagnostics = compute_diagnostics(draws)
    table = diagnostics_table(draws)
    assert "n/a" in table
