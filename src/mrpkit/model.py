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

import math
from dataclasses import dataclass

import numpy as np

from mrpkit.data import N_INCOME, Dataset
from mrpkit.design import (
    ModelSpec,
    build_layout,
    eta_adjoint,
    eta_kernel,
    predictor_matrix,
    unit_index,
)
from mrpkit.samplers import damped_newton

LOG_2PI = np.log(2.0 * np.pi)
INITIAL_POINT_ROUNDS = 3  # conditional-MAP / scale-update alternations
# glibc's cexp(r + 0i) is exp(r) for r up to 709, and exp(709) exp(r - 709)
# above; exp(r) overflows beyond log(DBL_MAX)
_CEXP_EXACT_MAX = 709.0
_LOG_DBL_MAX = float(np.log(np.finfo(float).max))


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


def _expit(x):
    """1 / (1 + exp(-x)) for a 1-d array, bit for bit scipy.special.expit.

    numpy's real exp is its own SIMD code and differs from the C library's
    exp in the last bit, and the gradient's rounding decides every draw.
    Its complex exp calls the C library's cexp, which on the real axis is
    exp itself up to 709; the few elements of -x between 709 and the
    overflow take math.exp one at a time. Overflow warns; callers silence
    it, as exp(-x) = inf gives the exact 0."""
    nx = np.negative(x)
    z = nx.astype(complex)
    np.exp(z, out=z)
    e = z.real
    if np.count_nonzero(nx > _CEXP_EXACT_MAX):  # not nx.max(): NaN if one is
        for i in np.flatnonzero((nx > _CEXP_EXACT_MAX)
                                & (nx <= _LOG_DBL_MAX)):
            e[i] = math.exp(nx[i])
    out = 1.0 + e
    return np.divide(1.0, out, out=out)


def _column_pairs(M):
    """For _gram: the products M[i, c] M[j, c] of an L x N matrix's
    entries that share a column (k x k x N, for k nonzeros a column at
    most) and their flat indices i * L + j."""
    k = max(int(np.count_nonzero(M, axis=0).max()), 1)
    rows = np.argsort(M == 0, axis=0, kind="stable")[:k]  # nonzeros first
    vals = np.take_along_axis(M, rows, axis=0)
    return len(M), (rows[:, None] * len(M) + rows).ravel(), vals[:, None] * vals


def _gram(pairs, w):
    """M diag(w) M^T from M's _column_pairs, by one bincount in O(N k^2).
    A BLAS product would be O(N L^2), and OpenBLAS threads it: on a loaded
    machine one such call can stall for a second."""
    L, flat, prod = pairs
    return np.bincount(flat, (prod * w).ravel(), L * L).reshape(L, L)


class LogDensityModel:
    """Posterior density of one dataset under one model spec; derives its
    ``layout`` from both. Pure given (params); safe to evaluate concurrently.
    """

    def __init__(self, dataset: Dataset, spec: ModelSpec,
                 prior: PriorConfig | None = None):
        self.spec = spec
        self.prior = prior or PriorConfig()
        cells = dataset.cells
        self.layout = build_layout(spec, cells.states)
        self.W = predictor_matrix(cells.states, spec)

        self.n_c = dataset.survey.n.astype(float)
        self.k_c = dataset.survey.k.astype(float)
        self._idx = unit_index(self.layout, cells.state_id, cells.income_cat,
                               cells.ethnicity)

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
        scales = [self._sa]
        if self._varying_slope:
            self._slope = lay.sl("slope")
            self._mu, self._ss, self._corr = (
                lay.sl(n).start for n in ("slope_mu", "slope_sigma", "corr"))
            scales += [self._ss, self._corr]
        if self._category_offsets:
            self._cat, self._sc = lay.sl("cat"), lay.sl("sigma_cat").start
            scales.append(self._sc)
        # the density's constants: -W^T; the weak prior's coefficients, as
        # one slice over the adjacent beta and gamma blocks for grad and as
        # one index ending in slope_mu (the order whose sum the reference
        # takes) for log_posterior and the Newton Hessian; the prior's
        # normalizing constant and its squared and logged scales
        self._S = lay.n_states
        self._neg_Wt = -self.W.T
        self._uniform = self.prior.mode == "uniform"
        self._coefs = slice(self._beta.start, self._gamma.stop)
        self._coef_idx = np.arange(self._beta.start, self._gamma.stop)
        if self._varying_slope:
            self._coef_idx = np.append(self._coef_idx, self._mu)
        cs, ls = self.prior.coef_scale, self.prior.log_scale_sd
        self._coef_const = len(self._coef_idx) * (0.5 * LOG_2PI + np.log(cs))
        self._cs2, self._neg_cs2 = cs ** 2, -cs ** 2
        self._ls2, self._log_ls = ls ** 2, np.log(ls)
        # the location coordinates: all but the log scales and atanh(rho)
        self._loc = np.delete(np.arange(self.n_params), scales)

        # the linear maps of the location coordinates, for initial_point's
        # Newton steps: eta = params[loc] @ X, u = alpha - W gamma =
        # params[loc] @ R, and v = slope - slope_mu = params[loc] @ Rv
        E = np.eye(self.n_params)[self._loc]
        self._X_pairs = _column_pairs(eta_kernel(E, self._idx))
        R = E[:, self._alpha] - E[:, self._gamma] @ self.W.T
        if self._varying_slope:
            Rv = E[:, self._slope] - E[:, [self._mu]]
            R = np.hstack([R, Rv, R + Rv])
        self._R_pairs = _column_pairs(R)

    # -- density -------------------------------------------------------------

    def _check(self, params) -> np.ndarray:
        params = np.asarray(params, dtype=float)
        if params.shape != (self.n_params,):
            raise ValueError(f"parameter vector length {params.shape} != "
                             f"({self.n_params},)")
        return params

    # extreme warmup excursions can saturate tanh(zrho) to +-1; the
    # resulting NaN density and non-finite gradient are caught by divergence
    # handling, so the intermediate 1/0 warnings are expected noise. Every
    # floating-point operation is the reference's (tests/test_model.py
    # _ref_log_posterior), in its order
    @np.errstate(divide="ignore", invalid="ignore", over="ignore")
    def log_posterior(self, params) -> float:
        params = self._check(params)
        S = self._S
        eta = eta_kernel(params, self._idx)
        ll = float((self.k_c * eta - self.n_c * _softplus(eta)).sum())

        # hierarchy
        log_sa = params[self._sa]
        sa = _exp_clip(log_sa)
        u = params[self._alpha] - self.W @ params[self._gamma]
        if not self._varying_slope:
            hier = -0.5 * S * LOG_2PI - S * log_sa \
                - 0.5 * float((u * u).sum()) / sa ** 2
        else:
            log_ss, zrho = params[self._ss], params[self._corr]
            ss = _exp_clip(log_ss)
            rho = np.tanh(zrho)
            c = 1.0 - rho ** 2
            a = u / sa
            b = (params[self._slope] - params[self._mu]) / ss
            quad = float((a * a - 2.0 * rho * a * b + b * b).sum())
            hier = -S * (LOG_2PI + log_sa + log_ss + 0.5 * np.log(c)) \
                - 0.5 * quad / c
        if self._category_offsets:
            log_sc = params[self._sc]
            sc = _exp_clip(log_sc)
            hier += -0.5 * N_INCOME * LOG_2PI - N_INCOME * log_sc \
                - 0.5 * float((params[self._cat] ** 2).sum()) / sc ** 2

        # prior
        if self._uniform:
            # flat on coefficients and on the scales; Jacobian of the log
            # reparameterization, plus flat-on-rho Jacobian for atanh(rho)
            prior = log_sa
            if self._varying_slope:
                prior += log_ss + np.log1p(-rho ** 2)
            if self._category_offsets:
                prior += log_sc
            return ll + hier + float(prior)
        coefs = params[self._coef_idx]
        prior = -0.5 * float((coefs ** 2).sum()) / self._cs2 - self._coef_const
        logs = [log_sa]
        if self._varying_slope:
            logs.append(log_ss)
            prior += -0.5 * zrho ** 2 - 0.5 * LOG_2PI
        if self._category_offsets:
            logs.append(log_sc)
        for v in logs:
            prior += -0.5 * v ** 2 / self._ls2 - 0.5 * LOG_2PI - self._log_ls
        return ll + hier + float(prior)

    # -- gradient ------------------------------------------------------------

    # the same saturated-tanh warnings as log_posterior are expected noise.
    # Every floating-point operation is the reference's (tests/test_model.py
    # _ref_grad), in its order; a scalar block's terms are summed first and
    # added to g once, which is the same sum since g starts at +0.0
    @np.errstate(divide="ignore", invalid="ignore", over="ignore")
    def grad(self, params) -> np.ndarray:
        params = self._check(params)
        S = self._S

        # likelihood
        eta = eta_kernel(params, self._idx)
        gl = self.k_c - self.n_c * _expit(eta)      # d loglik / d eta_c
        g = eta_adjoint(gl, self._idx, np.zeros(self.n_params))

        # hierarchy
        log_sa = params[self._sa]
        sa = _exp_clip(log_sa)
        u = params[self._alpha] - self.W @ params[self._gamma]
        if not self._varying_slope:
            sa2 = sa ** 2
            du = -u / sa2
            g_sa = -S + float((u * u).sum()) / sa2
        else:
            log_ss, zrho = params[self._ss], params[self._corr]
            ss = _exp_clip(log_ss)
            rho = np.tanh(zrho)
            c = 1.0 - rho ** 2
            a = u / sa
            b = (params[self._slope] - params[self._mu]) / ss
            rho_a = rho * a
            du = -(a - rho * b) / (c * sa)
            dv = -(b - rho_a) / (c * ss)
            g[self._slope] += dv
            g_mu = -dv.sum()
            aa, bb, rho_ab = a * a, b * b, rho_a * b
            g_sa = -S + float((aa - rho_ab).sum()) / c
            g_ss = -S + float((bb - rho_ab).sum()) / c
            quad = aa - 2.0 * rho * a * b + bb
            dldrho = S * rho / c + float((a * b * c - rho * quad).sum()) / c ** 2
            g_corr = dldrho * c  # chain rule through tanh
        g[self._alpha] += du
        g[self._gamma] += self._neg_Wt @ du
        if self._category_offsets:
            log_sc, cat = params[self._sc], params[self._cat]
            sc2 = _exp_clip(log_sc) ** 2
            g[self._cat] += -cat / sc2
            g_sc = -N_INCOME + float((cat ** 2).sum()) / sc2

        # prior
        if self._uniform:
            g_sa += 1.0
            if self._varying_slope:
                g_ss += 1.0
                g_corr += -2.0 * rho
            if self._category_offsets:
                g_sc += 1.0
        else:
            g[self._coefs] += params[self._coefs] / self._neg_cs2
            g_sa += -log_sa / self._ls2
            if self._varying_slope:
                g_mu += params[self._mu] / self._neg_cs2
                g_ss += -log_ss / self._ls2
                g_corr += -zrho
            if self._category_offsets:
                g_sc += -log_sc / self._ls2

        g[self._sa] += g_sa
        if self._varying_slope:
            g[self._mu] += g_mu
            g[self._ss] += g_ss
            g[self._corr] += g_corr
        if self._category_offsets:
            g[self._sc] += g_sc
        return g

    # -- initialization ------------------------------------------------------

    @np.errstate(over="ignore")  # exp(-eta) = inf gives the exact p = 0
    def _location_precision(self, params) -> np.ndarray:
        """Negative Hessian of the log posterior over the location
        coordinates at ``params``, exactly: X diag(n p (1 - p)) X^T, as eta
        is linear in them, plus that of the hierarchy and the prior, which
        with the scales held are Gaussian in them."""
        S = self._S
        sa = _exp_clip(params[self._sa])
        if not self._varying_slope:
            w = np.full(S, sa ** -2)
        else:
            # u and v through their 2x2 inverse covariance; R_pairs stacks
            # [R, Rv, R + Rv], and R Rv^T + Rv R^T = (R + Rv)(R + Rv)^T
            # - R R^T - Rv Rv^T
            ss, rho = _exp_clip(params[self._ss]), np.tanh(params[self._corr])
            off = -rho / (sa * ss)
            w = np.repeat([sa ** -2 - off, ss ** -2 - off, off], S) \
                / (1.0 - rho ** 2)
        A = _gram(self._R_pairs, w)

        d = np.zeros(self.n_params)  # the offsets' and the prior's precision
        if self._category_offsets:
            d[self._cat] = _exp_clip(params[self._sc]) ** -2
        if not self._uniform:
            d[self._coef_idx] = self.prior.coef_scale ** -2
        A[np.diag_indices_from(A)] += d[self._loc]
        pr = _expit(eta_kernel(params, self._idx))
        return _gram(self._X_pairs, self.n_c * pr * (1.0 - pr)) + A

    def _conditional_mode(self, params) -> np.ndarray:
        """``params`` with the location coordinates moved to their mode
        given its scales, by damped Newton on the exact Hessian. The
        conditional problem is concave, so Newton takes a few steps."""
        def at(xl):
            y = np.array(params, dtype=float)
            y[self._loc] = xl
            return y

        xl = damped_newton(lambda xl: self.log_posterior(at(xl)),
                           lambda xl: self.grad(at(xl))[self._loc],
                           lambda xl: self._location_precision(at(xl)),
                           np.asarray(params, dtype=float)[self._loc])
        return at(xl)

    def initial_point(self):
        """Stable starting point for sampling: the conditional mode of the
        location parameters with the scales held fixed, alternated with
        moment updates of the scales, from zeros.

        The joint posterior mode of a hierarchical model can sit in the
        degenerate scale funnel; this point sits where the posterior mass is
        and is what chain initialization and preconditioning use.
        """
        x = np.zeros(self.n_params)
        for _ in range(INITIAL_POINT_ROUNDS):
            x = self._conditional_mode(x)
            u = x[self._alpha] - self.W @ x[self._gamma]
            x[self._sa] = np.log(max(float(np.std(u)), 1e-2))
            if self._varying_slope:
                v = x[self._slope] - x[self._mu]
                x[self._ss] = np.log(max(float(np.std(v)), 1e-2))
                if np.std(u) > 0 and np.std(v) > 0:
                    r = float(np.corrcoef(u, v)[0, 1])
                    r = np.clip(r if np.isfinite(r) else 0.0, -0.95, 0.95)
                    x[self._corr] = np.arctanh(r)
            if self._category_offsets:
                x[self._sc] = np.log(max(float(np.std(x[self._cat])), 1e-2))
        return x

