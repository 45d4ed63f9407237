import warnings

import numpy as np
import pytest
from scipy import stats
from scipy.special import expit

import mrpkit.model
import mrpkit.samplers
from mrpkit.data import N_INCOME, Dataset
from mrpkit.design import (ModelSpec, build_layout, eta_adjoint, eta_kernel,
                           predictor_matrix)
from mrpkit.model import LOG_2PI, LogDensityModel, PriorConfig
from mrpkit.samplers import sample_mcmc

from conftest import make_cell_table, make_state_table, survey_from_rows


def _toy_model(S=3, rung="M1", prior=None, use_eth=False, seed=0, n=300):
    states = make_state_table(S, seed=seed)
    cells = make_cell_table(S, use_ethnicity=use_eth, seed=seed)
    rng = np.random.default_rng(seed)
    sv = survey_from_rows(
        cells, rng.integers(1, S + 1, n), rng.integers(1, 6, n),
        rng.integers(1, 5, n) if use_eth else np.zeros(n, dtype=int),
        rng.integers(0, 2, n))
    ds = Dataset(sv, cells, states)
    spec = ModelSpec(rung, use_eth)
    return LogDensityModel(ds, spec, prior)


def _fd_grad(f, x, h=1e-6):
    g = np.empty(len(x))
    for i in range(len(x)):
        e = np.zeros(len(x))
        e[i] = h
        g[i] = (f(x + e) - f(x - e)) / (2 * h)
    return g


def test_log_posterior_length_mismatch():
    model = _toy_model()
    with pytest.raises(ValueError):
        model.log_posterior(np.zeros(model.n_params + 1))
    with pytest.raises(ValueError):
        model.grad(np.zeros(model.n_params - 1))


def test_log_posterior_matches_naive_oracle_m1():
    # independent recomputation: per-respondent Bernoulli terms plus normal
    # densities from scipy.stats, no shared code with the model
    S, n = 4, 200
    states = make_state_table(S, seed=2)
    cells = make_cell_table(S, seed=2)
    r = np.random.default_rng(2)
    sid, inc, vote = (r.integers(1, S + 1, n), r.integers(1, 6, n),
                      r.integers(0, 2, n))
    sv = survey_from_rows(cells, sid, inc, np.zeros(n, dtype=int), vote)
    spec = ModelSpec("M1")
    model = LogDensityModel(Dataset(sv, cells, states), spec,
                            PriorConfig("weak", 5.0))
    lay = model.layout
    W = predictor_matrix(states, spec)

    rng = np.random.default_rng(7)
    for _ in range(5):
        params = 0.7 * rng.standard_normal(lay.n_params)
        beta = params[lay.sl("beta")]
        gamma = params[lay.sl("gamma")]
        alpha = params[lay.sl("alpha")]
        log_sa = params[lay.sl("sigma_alpha")][0]
        sa = np.exp(log_sa)

        # likelihood, one respondent at a time
        ll = 0.0
        for s, i, v in zip(sid, inc, vote):
            eta = alpha[s - 1] + beta[0] * (i - 3)
            p = expit(eta)
            ll += np.log(p) if v else np.log1p(-p)
        hier = stats.norm.logpdf(alpha, W @ gamma, sa).sum()
        prior = stats.norm.logpdf(np.concatenate([beta, gamma]), 0, 5.0).sum()
        prior += stats.norm.logpdf(log_sa, 0, 1.0)
        want = ll + hier + prior
        assert abs(model.log_posterior(params) - want) < 1e-8 * max(1, abs(want))


def test_uniform_prior_jacobian():
    # flat prior differences: only likelihood + hierarchy + log-scale
    # Jacobian should change; verify the sigma Jacobian term directly
    model = _toy_model(S=3, prior=PriorConfig("uniform"))
    lay = model.layout
    rng = np.random.default_rng(1)
    params = 0.3 * rng.standard_normal(lay.n_params)
    shifted = params.copy()
    # moving alpha to keep residuals fixed while growing sigma isolates
    # the -S log sigma + Jacobian terms
    d = 0.37
    shifted[lay.sl("sigma_alpha")] += d
    lp0 = model.log_posterior(params)
    lp1 = model.log_posterior(shifted)
    sa0 = np.exp(params[lay.sl("sigma_alpha")][0])
    u = params[lay.sl("alpha")] - model.W @ params[lay.sl("gamma")]
    S = lay.n_states
    q = float(np.sum(u * u))
    want = (-S * d - 0.5 * q / (sa0 * np.exp(d)) ** 2
            + 0.5 * q / sa0 ** 2 + d)  # +d is the flat-on-sigma Jacobian
    assert abs((lp1 - lp0) - want) < 1e-10


def test_gradient_symmetry():
    # identical states with balanced identical data: all alpha gradients equal
    S = 4
    states = make_state_table(S)
    states.avg_income = np.zeros(S)
    states.prev_rep_share = np.full(S, 0.5)
    states.region_id = np.ones(S, dtype=int)
    cells = make_cell_table(S, seed=0)
    cells.n_adults = np.full(len(cells), 1000.0)
    cells.turnout_rate = np.full(len(cells), 0.5)
    cells.n_voters = cells.n_adults * cells.turnout_rate
    sid, inc, vote = [], [], []
    for s in range(1, S + 1):
        for i in range(1, 6):
            sid += [s, s]
            inc += [i, i]
            vote += [0, 1]
    sv = survey_from_rows(cells, sid, inc, np.zeros(len(sid), dtype=int),
                          vote)
    model = LogDensityModel(Dataset(sv, cells, states), ModelSpec("M1"))
    g = model.grad(np.zeros(model.n_params))
    ga = g[model.layout.sl("alpha")]
    assert np.allclose(ga, ga[0])


@pytest.mark.parametrize("rung", ["M1", "M2", "M3"])
@pytest.mark.parametrize("mode", ["weak", "uniform"])
def test_gradient_matches_finite_differences(rung, mode):
    model = _toy_model(S=3, rung=rung, prior=PriorConfig(mode), seed=3)
    rng = np.random.default_rng(11)
    worst = 0.0
    for _ in range(50):
        x = 0.5 * rng.standard_normal(model.n_params)
        g = model.grad(x)
        fd = _fd_grad(model.log_posterior, x)
        rel = np.max(np.abs(g - fd) / np.maximum(1.0, np.abs(fd)))
        worst = max(worst, rel)
    assert worst < 1e-6


def test_initial_point_is_finite_and_stable():
    model = _toy_model(S=5, rung="M2", seed=6, n=1500)
    x = model.initial_point()
    assert np.all(np.isfinite(x))
    assert np.isfinite(model.log_posterior(x))
    # the conditional-MAP point should beat the all-zeros start
    assert model.log_posterior(x) > model.log_posterior(np.zeros(model.n_params))


def test_prior_config_validation():
    with pytest.raises(ValueError):
        PriorConfig("flat")
    for name in ("coef_scale", "log_scale_sd"):
        for bad in (-1.0, 0.0, np.nan, np.inf):
            with pytest.raises(ValueError, match=name):
                PriorConfig(**{name: bad})


# ---------------------------------------------------------------------------
# bit-exact reference: grad and log_posterior as they were before the slices,
# rung flags and length were read once at build (layout lookups per call,
# np.clip in the clipped exp, np.sum reductions)

def _ref_exp_clip(x):
    return np.exp(np.clip(x, -300.0, 300.0))


def _ref_unpack(m, params):
    lay = m.layout
    p = {"beta": params[lay.sl("beta")],
         "gamma": params[lay.sl("gamma")],
         "alpha": params[lay.sl("alpha")],
         "log_sa": params[lay.sl("sigma_alpha")][0]}
    if m.spec.varying_slope:
        p["slope"] = params[lay.sl("slope")]
        p["slope_mu"] = params[lay.sl("slope_mu")][0]
        p["log_ss"] = params[lay.sl("slope_sigma")][0]
        p["zrho"] = params[lay.sl("corr")][0]
    if m.spec.category_offsets:
        p["cat"] = params[lay.sl("cat")]
        p["log_sc"] = params[lay.sl("sigma_cat")][0]
    return p


def _ref_log_posterior(m, params):
    p = _ref_unpack(m, params)
    eta = eta_kernel(params, m._idx)
    ll = float(np.sum(m.k_c * eta - m.n_c * np.logaddexp(0.0, eta)))
    # hierarchy
    S = m.layout.n_states
    sa = _ref_exp_clip(p["log_sa"])
    u = p["alpha"] - m.W @ p["gamma"]
    if not m.spec.varying_slope:
        hier = -0.5 * S * LOG_2PI - S * p["log_sa"] \
            - 0.5 * float(np.sum(u * u)) / sa ** 2
    else:
        ss = _ref_exp_clip(p["log_ss"])
        rho = np.tanh(p["zrho"])
        c = 1.0 - rho ** 2
        a = u / sa
        b = (p["slope"] - p["slope_mu"]) / ss
        quad = float(np.sum(a * a - 2.0 * rho * a * b + b * b))
        hier = -S * (LOG_2PI + p["log_sa"] + p["log_ss"] + 0.5 * np.log(c)) \
            - 0.5 * quad / c
    if m.spec.category_offsets:
        sc = _ref_exp_clip(p["log_sc"])
        hier += -0.5 * N_INCOME * LOG_2PI - N_INCOME * p["log_sc"] \
            - 0.5 * float(np.sum(p["cat"] ** 2)) / sc ** 2
    # prior
    if m.prior.mode == "uniform":
        out = p["log_sa"]
        if m.spec.varying_slope:
            rho = np.tanh(p["zrho"])
            out += p["log_ss"] + np.log1p(-rho ** 2)
        if m.spec.category_offsets:
            out += p["log_sc"]
        return ll + hier + float(out)
    cs, ls = m.prior.coef_scale, m.prior.log_scale_sd
    parts = [p["beta"], p["gamma"]]
    if m.spec.varying_slope:
        parts.append(np.atleast_1d(p["slope_mu"]))
    coefs = np.concatenate(parts)
    out = -0.5 * float(np.sum(coefs ** 2)) / cs ** 2 \
        - len(coefs) * (0.5 * LOG_2PI + np.log(cs))
    logs = [p["log_sa"]]
    if m.spec.varying_slope:
        logs.append(p["log_ss"])
        out += -0.5 * p["zrho"] ** 2 - 0.5 * LOG_2PI
    if m.spec.category_offsets:
        logs.append(p["log_sc"])
    for v in logs:
        out += -0.5 * v ** 2 / ls ** 2 - 0.5 * LOG_2PI - np.log(ls)
    return ll + hier + float(out)


def _ref_grad(m, params):
    p = _ref_unpack(m, params)
    lay = m.layout
    S = lay.n_states
    eta = eta_kernel(params, m._idx)
    gl = m.k_c - m.n_c * expit(eta)
    g = eta_adjoint(gl, m._idx, np.zeros(lay.n_params))
    sa = _ref_exp_clip(p["log_sa"])
    u = p["alpha"] - m.W @ p["gamma"]
    if not m.spec.varying_slope:
        du = -u / sa ** 2
        g[lay.sl("alpha")] += du
        g[lay.sl("gamma")] += -m.W.T @ du
        g[lay.sl("sigma_alpha")] += -S + float(np.sum(u * u)) / sa ** 2
    else:
        ss = _ref_exp_clip(p["log_ss"])
        rho = np.tanh(p["zrho"])
        c = 1.0 - rho ** 2
        a = u / sa
        b = (p["slope"] - p["slope_mu"]) / ss
        du = -(a - rho * b) / (c * sa)
        dv = -(b - rho * a) / (c * ss)
        g[lay.sl("alpha")] += du
        g[lay.sl("gamma")] += -m.W.T @ du
        g[lay.sl("slope")] += dv
        g[lay.sl("slope_mu")] += -dv.sum()
        g[lay.sl("sigma_alpha")] += -S + float(np.sum(a * a - rho * a * b)) / c
        g[lay.sl("slope_sigma")] += -S + float(np.sum(b * b - rho * a * b)) / c
        quad = a * a - 2.0 * rho * a * b + b * b
        dldrho = S * rho / c + float(np.sum(a * b * c - rho * quad)) / c ** 2
        g[lay.sl("corr")] += dldrho * c
    if m.spec.category_offsets:
        sc = _ref_exp_clip(p["log_sc"])
        g[lay.sl("cat")] += -p["cat"] / sc ** 2
        g[lay.sl("sigma_cat")] += -N_INCOME \
            + float(np.sum(p["cat"] ** 2)) / sc ** 2
    if m.prior.mode == "uniform":
        g[lay.sl("sigma_alpha")] += 1.0
        if m.spec.varying_slope:
            g[lay.sl("slope_sigma")] += 1.0
            g[lay.sl("corr")] += -2.0 * np.tanh(p["zrho"])
        if m.spec.category_offsets:
            g[lay.sl("sigma_cat")] += 1.0
    else:
        cs, ls = m.prior.coef_scale, m.prior.log_scale_sd
        g_beta_full = g[lay.sl("beta")]
        g_beta_full += -p["beta"] / cs ** 2
        g[lay.sl("gamma")] += -p["gamma"] / cs ** 2
        g[lay.sl("sigma_alpha")] += -p["log_sa"] / ls ** 2
        if m.spec.varying_slope:
            g[lay.sl("slope_mu")] += -p["slope_mu"] / cs ** 2
            g[lay.sl("slope_sigma")] += -p["log_ss"] / ls ** 2
            g[lay.sl("corr")] += -p["zrho"]
        if m.spec.category_offsets:
            g[lay.sl("sigma_cat")] += -p["log_sc"] / ls ** 2
    return g


def _probe_points(model, rng):
    """Random points at several scales, log-scale entries beyond +-300 (the
    clip bound) and points holding a NaN."""
    lay = model.layout
    log_scales = [lay.sl(n).start for n in ("sigma_alpha", "slope_sigma",
                                            "sigma_cat")
                  if n in lay.block_dict()]
    P = model.n_params
    pts = [s * rng.standard_normal(P) for s in (0.3, 1.0, 3.0, 50.0)]
    for v in (301.0, -301.0, 750.0, -750.0, np.inf, -np.inf):
        x = rng.standard_normal(P)
        x[log_scales] = v
        pts.append(x)
    for k in (lay.sl("alpha").start, log_scales[0], log_scales[-1]):
        x = rng.standard_normal(P)
        x[k] = np.nan
        pts.append(x)
    return pts


@pytest.mark.parametrize("rung", ["M1", "M2", "M3"])
@pytest.mark.parametrize("mode", ["weak", "uniform"])
@pytest.mark.parametrize("use_eth", [False, True])
def test_grad_and_log_posterior_bit_exact_to_reference(rung, mode, use_eth):
    model = _toy_model(S=4, rung=rung, prior=PriorConfig(mode),
                       use_eth=use_eth, seed=5)
    rng = np.random.default_rng(13)
    n_nan = 0
    with np.errstate(all="ignore"):
        for x in _probe_points(model, rng):
            g, want_g = model.grad(x), _ref_grad(model, x)
            lp, want_lp = model.log_posterior(x), _ref_log_posterior(model, x)
            assert np.array_equal(g, want_g, equal_nan=True)
            assert np.array_equal(lp, want_lp, equal_nan=True)
            n_nan += bool(np.isnan(g).any())
    assert n_nan >= 3  # the NaN points reach the comparison as NaN


def _count_calls(monkeypatch, owner, name):
    """Replace owner.name by a wrapper that counts its calls."""
    calls = [0]
    fn = getattr(owner, name)

    def counted(*args, **kwargs):
        calls[0] += 1
        return fn(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    return calls


@pytest.mark.parametrize("init", ["map", "diffuse"])
def test_every_gradient_is_one_grad_call(monkeypatch, init):
    # the benchmark counts gradients by wrapping LogDensityModel.grad on the
    # class; each likelihood adjoint must come from exactly one such call.
    # Neither start reaches fit_map: "map" starts at initial_point, so
    # fit_map's optimizer cannot change a pipeline's draws
    grads = _count_calls(monkeypatch, LogDensityModel, "grad")
    adjoints = _count_calls(monkeypatch, mrpkit.model, "eta_adjoint")
    maps = _count_calls(monkeypatch, mrpkit.samplers, "fit_map")
    model = _toy_model(S=3, rung="M2", seed=4)
    sample_mcmc(model, chains=2, warmup=40, iters=30, seed=3, init=init)
    assert grads[0] > 100
    assert grads[0] == adjoints[0]
    assert maps[0] == 0


def test_log_posterior_silent_where_tanh_saturates():
    # atanh(rho) = 40 saturates tanh to 1, so 1 - rho^2 is 0: the density is
    # NaN there and, like the gradient, raises no warning
    model = _toy_model(S=3, rung="M2", seed=4)
    x = np.zeros(model.n_params)
    x[model.layout.sl("corr")] = 40.0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert np.isnan(model.log_posterior(x))
        assert not np.isfinite(model.grad(x)).all()
