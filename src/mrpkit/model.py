"""Hierarchical log-posterior and its analytic gradient.

Likelihood: independent Bernoulli votes with logit link. Respondents sharing
a cell share a linear predictor, so the likelihood is evaluated on per-cell
success/total counts; this is exact, not an approximation.

Hierarchy: state intercepts regressed on state predictors with residual sd
sigma_alpha; under M2/M3 the intercept and income-slope residuals are jointly
bivariate normal with a 2x2 covariance. M3 adds mean-zero per-income-category
offsets with their own scale.

Priors: "weak" mode puts normal(0, coef_scale) on coefficients, normal(0, 1)
on the log scales, and normal(0, 1) on atanh(rho). "uniform" mode is flat on
coefficients, flat on the scales themselves (adding the log-scale Jacobian),
and flat on rho in (-1, 1).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import expit

from mrpkit.data import N_INCOME, Dataset
from mrpkit.design import (
    ModelSpec,
    ParameterLayout,
    build_layout,
    eta_adjoint,
    eta_kernel,
    predictor_matrix,
    unit_index,
)

LOG_2PI = np.log(2.0 * np.pi)
INITIAL_POINT_ROUNDS = 3  # conditional-MAP / scale-update alternations


@dataclass(frozen=True)
class PriorConfig:
    mode: str = "weak"          # "weak" or "uniform"
    coef_scale: float = 5.0     # sd of normal prior on coefficients (weak mode)
    log_scale_sd: float = 1.0   # sd of normal prior on log sigma (weak mode)

    def __post_init__(self):
        if self.mode not in ("weak", "uniform"):
            raise ValueError(f"unknown prior mode {self.mode!r}")


def _softplus(x):
    # log(1 + exp(x)), stable for |x| up to ~700
    return np.logaddexp(0.0, x)


def _exp_clip(x):
    # exp with the argument clipped so extreme warmup excursions of the
    # log-scale parameters stay finite instead of overflowing
    return np.exp(np.clip(x, -300.0, 300.0))


class LogDensityModel:
    """Posterior density of one dataset under one model spec.

    Pure given (params); safe to evaluate concurrently.
    """

    def __init__(self, dataset: Dataset, spec: ModelSpec,
                 prior: PriorConfig | None = None,
                 layout: ParameterLayout | None = None):
        self.spec = spec
        self.prior = prior or PriorConfig()
        self.layout = layout or build_layout(spec, dataset.states)
        self.states = dataset.states
        self.cells = dataset.cells
        self.W = predictor_matrix(dataset.states, spec)

        self.n_c, self.k_c = (c.astype(float) for c in dataset.cell_counts())
        self._idx = unit_index(self.layout, self.cells.state_id,
                               self.cells.income_cat, self.cells.ethnicity)

    @property
    def n_params(self) -> int:
        return self.layout.n_params

    # -- parameter unpacking -------------------------------------------------

    def _unpack(self, params):
        lay = self.layout
        p = {"beta": params[lay.sl("beta")],
             "gamma": params[lay.sl("gamma")],
             "alpha": params[lay.sl("alpha")],
             "log_sa": params[lay.sl("sigma_alpha")][0]}
        if self.spec.varying_slope:
            p["slope"] = params[lay.sl("slope")]
            p["slope_mu"] = params[lay.sl("slope_mu")][0]
            p["log_ss"] = params[lay.sl("slope_sigma")][0]
            p["zrho"] = params[lay.sl("corr")][0]
        if self.spec.category_offsets:
            p["cat"] = params[lay.sl("cat")]
            p["log_sc"] = params[lay.sl("sigma_cat")][0]
        return p

    # -- density -------------------------------------------------------------

    def _check(self, params) -> np.ndarray:
        params = np.asarray(params, dtype=float)
        if params.shape != (self.n_params,):
            raise ValueError(f"parameter vector length {params.shape} != "
                             f"({self.n_params},)")
        return params

    def log_posterior(self, params) -> float:
        params = self._check(params)
        p = self._unpack(params)
        eta = eta_kernel(params, self.layout, self._idx)
        ll = float(np.sum(self.k_c * eta - self.n_c * _softplus(eta)))
        return ll + self._log_hierarchy(p) + self._log_prior(p)

    def _log_hierarchy(self, p) -> float:
        S = self.layout.n_states
        sa = _exp_clip(p["log_sa"])
        u = p["alpha"] - self.W @ p["gamma"]
        if not self.spec.varying_slope:
            out = -0.5 * S * LOG_2PI - S * p["log_sa"] \
                - 0.5 * float(np.sum(u * u)) / sa ** 2
        else:
            ss = _exp_clip(p["log_ss"])
            rho = np.tanh(p["zrho"])
            c = 1.0 - rho ** 2
            a = u / sa
            b = (p["slope"] - p["slope_mu"]) / ss
            quad = float(np.sum(a * a - 2.0 * rho * a * b + b * b))
            out = -S * (LOG_2PI + p["log_sa"] + p["log_ss"] + 0.5 * np.log(c)) \
                - 0.5 * quad / c
        if self.spec.category_offsets:
            sc = _exp_clip(p["log_sc"])
            out += -0.5 * N_INCOME * LOG_2PI - N_INCOME * p["log_sc"] \
                - 0.5 * float(np.sum(p["cat"] ** 2)) / sc ** 2
        return out

    def _coef_vector(self, p):
        parts = [p["beta"], p["gamma"]]
        if self.spec.varying_slope:
            parts.append(np.atleast_1d(p["slope_mu"]))
        return np.concatenate(parts)

    def _log_prior(self, p) -> float:
        if self.prior.mode == "uniform":
            # flat on coefficients and on the scales; Jacobian of the log
            # reparameterization, plus flat-on-rho Jacobian for atanh(rho)
            out = p["log_sa"]
            if self.spec.varying_slope:
                rho = np.tanh(p["zrho"])
                out += p["log_ss"] + np.log1p(-rho ** 2)
            if self.spec.category_offsets:
                out += p["log_sc"]
            return float(out)
        cs, ls = self.prior.coef_scale, self.prior.log_scale_sd
        coefs = self._coef_vector(p)
        out = -0.5 * float(np.sum(coefs ** 2)) / cs ** 2 \
            - len(coefs) * (0.5 * LOG_2PI + np.log(cs))
        logs = [p["log_sa"]]
        if self.spec.varying_slope:
            logs.append(p["log_ss"])
            out += -0.5 * p["zrho"] ** 2 - 0.5 * LOG_2PI
        if self.spec.category_offsets:
            logs.append(p["log_sc"])
        for v in logs:
            out += -0.5 * v ** 2 / ls ** 2 - 0.5 * LOG_2PI - np.log(ls)
        return float(out)

    # -- gradient ------------------------------------------------------------

    # extreme warmup excursions can saturate tanh(zrho) to +-1; the
    # resulting non-finite gradient is caught by divergence handling,
    # so the intermediate 1/0 warnings are expected noise
    @np.errstate(divide="ignore", invalid="ignore", over="ignore")
    def grad(self, params) -> np.ndarray:
        params = self._check(params)
        p = self._unpack(params)
        lay = self.layout
        S = lay.n_states

        # likelihood
        eta = eta_kernel(params, lay, self._idx)
        gl = self.k_c - self.n_c * expit(eta)            # d loglik / d eta_c
        g = eta_adjoint(gl, lay, self._idx, np.zeros(self.n_params))

        # hierarchy
        sa = _exp_clip(p["log_sa"])
        u = p["alpha"] - self.W @ p["gamma"]
        if not self.spec.varying_slope:
            du = -u / sa ** 2
            g[lay.sl("alpha")] += du
            g[lay.sl("gamma")] += -self.W.T @ du
            g[lay.sl("sigma_alpha")] += -S + float(np.sum(u * u)) / sa ** 2
        else:
            ss = _exp_clip(p["log_ss"])
            rho = np.tanh(p["zrho"])
            c = 1.0 - rho ** 2
            a = u / sa
            b = (p["slope"] - p["slope_mu"]) / ss
            du = -(a - rho * b) / (c * sa)
            dv = -(b - rho * a) / (c * ss)
            g[lay.sl("alpha")] += du
            g[lay.sl("gamma")] += -self.W.T @ du
            g[lay.sl("slope")] += dv
            g[lay.sl("slope_mu")] += -dv.sum()
            g[lay.sl("sigma_alpha")] += -S + float(np.sum(a * a - rho * a * b)) / c
            g[lay.sl("slope_sigma")] += -S + float(np.sum(b * b - rho * a * b)) / c
            quad = a * a - 2.0 * rho * a * b + b * b
            dldrho = S * rho / c + float(np.sum(a * b * c - rho * quad)) / c ** 2
            g[lay.sl("corr")] += dldrho * c  # chain rule through tanh
        if self.spec.category_offsets:
            sc = _exp_clip(p["log_sc"])
            g[lay.sl("cat")] += -p["cat"] / sc ** 2
            g[lay.sl("sigma_cat")] += -N_INCOME \
                + float(np.sum(p["cat"] ** 2)) / sc ** 2

        # prior
        if self.prior.mode == "uniform":
            g[lay.sl("sigma_alpha")] += 1.0
            if self.spec.varying_slope:
                g[lay.sl("slope_sigma")] += 1.0
                g[lay.sl("corr")] += -2.0 * np.tanh(p["zrho"])
            if self.spec.category_offsets:
                g[lay.sl("sigma_cat")] += 1.0
        else:
            cs, ls = self.prior.coef_scale, self.prior.log_scale_sd
            g_beta_full = g[lay.sl("beta")]
            g_beta_full += -p["beta"] / cs ** 2
            g[lay.sl("gamma")] += -p["gamma"] / cs ** 2
            g[lay.sl("sigma_alpha")] += -p["log_sa"] / ls ** 2
            if self.spec.varying_slope:
                g[lay.sl("slope_mu")] += -p["slope_mu"] / cs ** 2
                g[lay.sl("slope_sigma")] += -p["log_ss"] / ls ** 2
                g[lay.sl("corr")] += -p["zrho"]
            if self.spec.category_offsets:
                g[lay.sl("sigma_cat")] += -p["log_sc"] / ls ** 2
        return g


    # -- initialization ------------------------------------------------------

    def initial_point(self):
        """Stable starting point for sampling: concave conditional MAP over
        location parameters with the scales held fixed, alternated with
        moment updates of the scales.

        The joint posterior mode of a hierarchical model can sit in the
        degenerate scale funnel; this point sits where the posterior mass is
        and is what chain initialization and preconditioning use.
        """
        import scipy.optimize

        lay = self.layout
        P = self.n_params
        fixed_names = [n for n in ("sigma_alpha", "slope_sigma", "sigma_cat",
                                   "corr") if lay.has(n)]
        fixed = np.concatenate([np.arange(lay.sl(n).start, lay.sl(n).stop)
                                for n in fixed_names])
        free = np.setdiff1d(np.arange(P), fixed)
        x = np.zeros(P)
        for _ in range(INITIAL_POINT_ROUNDS):
            def neg(xf):
                y = x.copy()
                y[free] = xf
                return -self.log_posterior(y)

            def neg_grad(xf):
                y = x.copy()
                y[free] = xf
                return -self.grad(y)[free]

            res = scipy.optimize.minimize(neg, x[free], jac=neg_grad,
                                          method="L-BFGS-B",
                                          options={"maxiter": 300})
            x[free] = res.x
            p = self._unpack(x)
            u = p["alpha"] - self.W @ p["gamma"]
            x[lay.sl("sigma_alpha")] = np.log(max(float(np.std(u)), 1e-2))
            if self.spec.varying_slope:
                v = p["slope"] - p["slope_mu"]
                x[lay.sl("slope_sigma")] = np.log(max(float(np.std(v)), 1e-2))
                if np.std(u) > 0 and np.std(v) > 0:
                    r = float(np.corrcoef(u, v)[0, 1])
                    r = np.clip(r if np.isfinite(r) else 0.0, -0.95, 0.95)
                    x[lay.sl("corr")] = np.arctanh(r)
            if self.spec.category_offsets:
                x[lay.sl("sigma_cat")] = np.log(
                    max(float(np.std(p["cat"])), 1e-2))
        return x


def log_posterior(params, model: LogDensityModel) -> float:
    return model.log_posterior(params)


def grad_log_posterior(params, model: LogDensityModel) -> np.ndarray:
    return model.grad(params)
