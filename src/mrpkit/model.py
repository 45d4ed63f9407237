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
        for name in ("coef_scale", "log_scale_sd"):
            value = getattr(self, name)
            if not (np.isfinite(value) and value > 0):
                raise ValueError(f"{name} must be positive and finite, "
                                 f"got {value!r}")


def _softplus(x):
    # log(1 + exp(x)), stable for |x| up to ~700
    return np.logaddexp(0.0, x)


def _exp_clip(x):
    # exp of a scalar with the argument clipped so extreme warmup excursions
    # of the log-scale parameters stay finite instead of overflowing; x comes
    # first in max so a NaN passes through
    return np.exp(min(max(x, -300.0), 300.0))


class LogDensityModel:
    """Posterior density of one dataset under one model spec.

    Pure given (params); safe to evaluate concurrently.
    """

    def __init__(self, dataset: Dataset, spec: ModelSpec,
                 prior: PriorConfig | None = None,
                 layout: ParameterLayout | None = None):
        # scipy's expit, not design.expit: the two differ in the last digits
        # of exp, and the gradient's rounding decides every draw's bytes
        from scipy.special import expit

        self._expit = expit
        self.spec = spec
        self.prior = prior or PriorConfig()
        self.layout = layout or build_layout(spec, dataset.states)
        self.states = dataset.states
        self.cells = dataset.cells
        self.W = predictor_matrix(dataset.states, spec)

        self.n_c = dataset.survey.n.astype(float)
        self.k_c = dataset.survey.k.astype(float)
        self._idx = unit_index(self.layout, self.cells.state_id,
                               self.cells.income_cat, self.cells.ethnicity)

        # read once here, not on each of a fit's thousands of grad calls:
        # the length, the rung flags, the vector blocks' slices and the
        # scalar blocks' offsets
        lay = self.layout
        self.n_params = lay.n_params
        self._varying_slope = spec.varying_slope
        self._category_offsets = spec.category_offsets
        self._beta, self._gamma, self._alpha = (
            lay.sl(n) for n in ("beta", "gamma", "alpha"))
        self._sa = lay.sl("sigma_alpha").start
        if self._varying_slope:
            self._slope = lay.sl("slope")
            self._mu, self._ss, self._corr = (
                lay.sl(n).start for n in ("slope_mu", "slope_sigma", "corr"))
        if self._category_offsets:
            self._cat, self._sc = lay.sl("cat"), lay.sl("sigma_cat").start

    # -- parameter unpacking -------------------------------------------------

    def _unpack(self, params):
        p = {"beta": params[self._beta], "gamma": params[self._gamma],
             "alpha": params[self._alpha], "log_sa": params[self._sa]}
        if self._varying_slope:
            p["slope"] = params[self._slope]
            p["slope_mu"] = params[self._mu]
            p["log_ss"] = params[self._ss]
            p["zrho"] = params[self._corr]
        if self._category_offsets:
            p["cat"] = params[self._cat]
            p["log_sc"] = params[self._sc]
        return p

    # -- density -------------------------------------------------------------

    def _check(self, params) -> np.ndarray:
        params = np.asarray(params, dtype=float)
        if params.shape != (self.n_params,):
            raise ValueError(f"parameter vector length {params.shape} != "
                             f"({self.n_params},)")
        return params

    # extreme warmup excursions can saturate tanh(zrho) to +-1; the
    # resulting NaN density and non-finite gradient are caught by divergence
    # handling, so the intermediate 1/0 warnings are expected noise
    @np.errstate(divide="ignore", invalid="ignore", over="ignore")
    def log_posterior(self, params) -> float:
        params = self._check(params)
        p = self._unpack(params)
        eta = eta_kernel(params, self._idx)
        ll = float((self.k_c * eta - self.n_c * _softplus(eta)).sum())
        return ll + self._log_hierarchy(p) + self._log_prior(p)

    def _log_hierarchy(self, p) -> float:
        S = self.layout.n_states
        sa = _exp_clip(p["log_sa"])
        u = p["alpha"] - self.W @ p["gamma"]
        if not self._varying_slope:
            out = -0.5 * S * LOG_2PI - S * p["log_sa"] \
                - 0.5 * float((u * u).sum()) / sa ** 2
        else:
            ss = _exp_clip(p["log_ss"])
            rho = np.tanh(p["zrho"])
            c = 1.0 - rho ** 2
            a = u / sa
            b = (p["slope"] - p["slope_mu"]) / ss
            quad = float((a * a - 2.0 * rho * a * b + b * b).sum())
            out = -S * (LOG_2PI + p["log_sa"] + p["log_ss"] + 0.5 * np.log(c)) \
                - 0.5 * quad / c
        if self._category_offsets:
            sc = _exp_clip(p["log_sc"])
            out += -0.5 * N_INCOME * LOG_2PI - N_INCOME * p["log_sc"] \
                - 0.5 * float((p["cat"] ** 2).sum()) / sc ** 2
        return out

    def _coef_vector(self, p):
        parts = [p["beta"], p["gamma"]]
        if self._varying_slope:
            parts.append(np.atleast_1d(p["slope_mu"]))
        return np.concatenate(parts)

    def _log_prior(self, p) -> float:
        if self.prior.mode == "uniform":
            # flat on coefficients and on the scales; Jacobian of the log
            # reparameterization, plus flat-on-rho Jacobian for atanh(rho)
            out = p["log_sa"]
            if self._varying_slope:
                rho = np.tanh(p["zrho"])
                out += p["log_ss"] + np.log1p(-rho ** 2)
            if self._category_offsets:
                out += p["log_sc"]
            return float(out)
        cs, ls = self.prior.coef_scale, self.prior.log_scale_sd
        coefs = self._coef_vector(p)
        out = -0.5 * float((coefs ** 2).sum()) / cs ** 2 \
            - len(coefs) * (0.5 * LOG_2PI + np.log(cs))
        logs = [p["log_sa"]]
        if self._varying_slope:
            logs.append(p["log_ss"])
            out += -0.5 * p["zrho"] ** 2 - 0.5 * LOG_2PI
        if self._category_offsets:
            logs.append(p["log_sc"])
        for v in logs:
            out += -0.5 * v ** 2 / ls ** 2 - 0.5 * LOG_2PI - np.log(ls)
        return float(out)

    # -- gradient ------------------------------------------------------------

    # the same saturated-tanh warnings as log_posterior are expected noise
    @np.errstate(divide="ignore", invalid="ignore", over="ignore")
    def grad(self, params) -> np.ndarray:
        params = self._check(params)
        p = self._unpack(params)
        S = self.layout.n_states

        # likelihood
        eta = eta_kernel(params, self._idx)
        gl = self.k_c - self.n_c * self._expit(eta)      # d loglik / d eta_c
        g = eta_adjoint(gl, self._idx, np.zeros(self.n_params))

        # hierarchy
        sa = _exp_clip(p["log_sa"])
        u = p["alpha"] - self.W @ p["gamma"]
        if not self._varying_slope:
            du = -u / sa ** 2
            g[self._alpha] += du
            g[self._gamma] += -self.W.T @ du
            g[self._sa] += -S + float((u * u).sum()) / sa ** 2
        else:
            ss = _exp_clip(p["log_ss"])
            rho = np.tanh(p["zrho"])
            c = 1.0 - rho ** 2
            a = u / sa
            b = (p["slope"] - p["slope_mu"]) / ss
            du = -(a - rho * b) / (c * sa)
            dv = -(b - rho * a) / (c * ss)
            g[self._alpha] += du
            g[self._gamma] += -self.W.T @ du
            g[self._slope] += dv
            g[self._mu] += -dv.sum()
            g[self._sa] += -S + float((a * a - rho * a * b).sum()) / c
            g[self._ss] += -S + float((b * b - rho * a * b).sum()) / c
            quad = a * a - 2.0 * rho * a * b + b * b
            dldrho = S * rho / c + float((a * b * c - rho * quad).sum()) / c ** 2
            g[self._corr] += dldrho * c  # chain rule through tanh
        if self._category_offsets:
            sc = _exp_clip(p["log_sc"])
            g[self._cat] += -p["cat"] / sc ** 2
            g[self._sc] += -N_INCOME + float((p["cat"] ** 2).sum()) / sc ** 2

        # prior
        if self.prior.mode == "uniform":
            g[self._sa] += 1.0
            if self._varying_slope:
                g[self._ss] += 1.0
                g[self._corr] += -2.0 * np.tanh(p["zrho"])
            if self._category_offsets:
                g[self._sc] += 1.0
        else:
            cs, ls = self.prior.coef_scale, self.prior.log_scale_sd
            g[self._beta] += -p["beta"] / cs ** 2
            g[self._gamma] += -p["gamma"] / cs ** 2
            g[self._sa] += -p["log_sa"] / ls ** 2
            if self._varying_slope:
                g[self._mu] += -p["slope_mu"] / cs ** 2
                g[self._ss] += -p["log_ss"] / ls ** 2
                g[self._corr] += -p["zrho"]
            if self._category_offsets:
                g[self._sc] += -p["log_sc"] / ls ** 2
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

        fixed = [self._sa]
        if self._varying_slope:
            fixed += [self._ss, self._corr]
        if self._category_offsets:
            fixed.append(self._sc)
        free = np.setdiff1d(np.arange(self.n_params), fixed)
        x = np.zeros(self.n_params)
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
            x[self._sa] = np.log(max(float(np.std(u)), 1e-2))
            if self._varying_slope:
                v = p["slope"] - p["slope_mu"]
                x[self._ss] = np.log(max(float(np.std(v)), 1e-2))
                if np.std(u) > 0 and np.std(v) > 0:
                    r = float(np.corrcoef(u, v)[0, 1])
                    r = np.clip(r if np.isfinite(r) else 0.0, -0.95, 0.95)
                    x[self._corr] = np.arctanh(r)
            if self._category_offsets:
                x[self._sc] = np.log(max(float(np.std(p["cat"])), 1e-2))
        return x

