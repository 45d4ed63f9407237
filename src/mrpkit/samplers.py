"""Posterior computation: Hamiltonian Monte Carlo with dual-averaging
step-size adaptation, the damped-Newton ascent that
``LogDensityModel.initial_point`` runs, and the finite-difference Hessian
behind the dense metric.

Any object exposing ``n_params``, ``log_posterior(x)`` and ``grad(x)`` can be
sampled from a diffuse start; a start at the mode (``init="map"``) also
needs ``initial_point()``. LogDensityModel is the usual target but test
stubs work too. Draws carry the model's ``layout`` into ``save_draws``'s
header. This module needs numpy alone.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from mrpkit.diagnostics import compute_diagnostics, parameter_labels

FD_STEP = 1e-5  # relative finite-difference step of fd_hessian
NEWTON_TOL = 1e-8  # damped_newton stops where every |gradient| is smaller
DIVERGENCE_ENERGY = 1000.0
MAX_LEAPFROG_STEPS = 512
INIT_JITTER = 0.1            # sd of the jitter around the chains' center
DIVERGENCE_WARN_FRAC = 0.05  # divergent share of draws that warns
# the dense metric's least eigenvalue, relative to its largest. fd_hessian's
# rounding is about 1e-12 of the largest, so below the floor no curvature
# is known; M2's beta[0] + slope ridge, which only the weak prior holds,
# lies at 1.3e-7 of it on a 30k poll and 1.3e-8 on a 300k poll, so a
# floor of sqrt(eps) = 1.5e-8 would clip that ridge
METRIC_FLOOR = 1e-10
# dual averaging (Hoffman & Gelman 2014): shrinkage, offset, averaging decay
DA_GAMMA, DA_T0, DA_KAPPA = 0.05, 10.0, 0.75


@dataclass
class PosteriorDraws:
    """Post-warmup draws (D x P) of ``n_chains`` equal chains, stored back
    to back, sampling order within chain."""

    draws: np.ndarray
    n_chains: int = 1
    layout: object = None
    diagnostics: dict | None = None

    def __post_init__(self):
        self.draws = np.atleast_2d(np.asarray(self.draws, dtype=float))
        if self.n_chains < 1 or self.n_draws % self.n_chains:
            raise ValueError(f"{self.n_draws} draws do not split into "
                             f"{self.n_chains} equal chains")

    @property
    def n_draws(self) -> int:
        return self.draws.shape[0]

    @property
    def n_params(self) -> int:
        return self.draws.shape[1]

    def by_chain(self) -> np.ndarray:
        """(chains, draws_per_chain, P) view of the draws."""
        return self.draws.reshape(self.n_chains, -1, self.n_params)


# ---------------------------------------------------------------------------
# curvature and modes

def fd_hessian(grad_fn, x):
    """Central finite differences of an analytic gradient; symmetrized."""
    x = np.asarray(x, dtype=float)
    P = len(x)
    H = np.empty((P, P))
    for i in range(P):
        h = FD_STEP * max(1.0, abs(x[i]))
        e = np.zeros(P)
        e[i] = h
        H[:, i] = (grad_fn(x + e) - grad_fn(x - e)) / (2.0 * h)
    return 0.5 * (H + H.T)


def _cholesky_solve(L, b):
    """(L L^T)^-1 b for a lower-triangular L, by forward and then back
    substitution in place. np.linalg.solve would factor L again by LU,
    which OpenBLAS threads from n = 100 or so: on a loaded machine one such
    call stalls for 0.2 s or more."""
    x = np.array(b, dtype=float)
    for i in range(len(x)):
        x[i] = (x[i] - L[i, :i] @ x[:i]) / L[i, i]
    for i in range(len(x) - 1, -1, -1):
        x[i] = (x[i] - L[i + 1:, i] @ x[i + 1:]) / L[i, i]
    return x


def damped_newton(log_density, grad, neg_hessian, x):
    """Levenberg-damped Newton ascent from ``x`` towards a mode of
    ``log_density``; returns the last point accepted.

    Each step solves (A + lam I) d = g by Cholesky, A = ``neg_hessian(x)``,
    and is taken only if the log density does not fall. Where it falls, or
    A + lam I is not positive definite, lam grows tenfold, which keeps the
    step an ascent direction where A is indefinite. Stops when every
    gradient coordinate is below NEWTON_TOL, when no damping gives an
    ascent, or after 100 steps.
    """
    x = np.asarray(x, dtype=float)
    lp = log_density(x)
    lam = 0.0
    for _ in range(100):
        g = grad(x)
        if np.abs(g).max() < NEWTON_TOL:
            break
        A = neg_hessian(x)
        scale = max(np.abs(np.diag(A)).max(), 1.0)
        for _ in range(40):
            try:
                L = np.linalg.cholesky(A + lam * np.eye(len(x)))
                x_new = x + _cholesky_solve(L, g)
                lp_new = log_density(x_new)
                if np.isfinite(lp_new) and lp_new >= lp:
                    x, lp = x_new, lp_new
                    lam /= 10.0
                    break
            except np.linalg.LinAlgError:
                pass
            lam = max(lam * 10.0, 1e-8 * scale)
        else:
            break
    return x


# ---------------------------------------------------------------------------
# Hamiltonian Monte Carlo

class _DiagMetric:
    """Diagonal kinetic energy; inv_mass holds per-coordinate variances."""

    def __init__(self, inv_mass):
        self.inv_mass = np.asarray(inv_mass, dtype=float)
        self._sd = np.sqrt(self.inv_mass)  # the positions' sd, computed once

    def sample(self, rng):
        return rng.standard_normal(len(self.inv_mass)) / self._sd

    def velocity(self, p):
        return self.inv_mass * p

    def kinetic(self, p):
        return 0.5 * float((self.inv_mass * p * p).sum())


class _DenseMetric:
    """Dense kinetic energy from a symmetric curvature (precision) matrix.

    Each eigenvalue enters by its magnitude, so an indefinite Hessian still
    yields a usable metric, and is kept down to METRIC_FLOOR of the largest:
    a soft ridge direction gets the position variance the posterior gives
    it, which is exactly what weakly identified coefficient sums need.
    """

    def __init__(self, precision):
        w, U = np.linalg.eigh(precision)
        wc = np.abs(w)
        wc = np.clip(wc, METRIC_FLOOR * wc.max(), None)
        self._U = U
        self._w = wc
        self._sample_fac = U * np.sqrt(wc)

    def sample(self, rng):
        return self._sample_fac @ rng.standard_normal(len(self._w))

    def velocity(self, p):
        return self._U @ ((self._U.T @ p) / self._w)

    def kinetic(self, p):
        return 0.5 * float(p @ self.velocity(p))


def _transition(model, q, logp, grad, p, eps, n_steps, metric):
    """(q1, logp1, grad1, accept_prob, divergent) at the end of ``n_steps``
    leapfrog steps from ``q`` (log density ``logp``, gradient ``grad``) with
    momentum ``p``. Divergent, with acceptance 0, if a gradient or the energy
    error is non-finite or the error is above DIVERGENCE_ENERGY."""
    h0 = -logp + metric.kinetic(p)
    p = p + 0.5 * eps * grad
    for step in range(n_steps):
        q = q + eps * metric.velocity(p)
        grad = model.grad(q)
        if not np.isfinite(grad).all():
            return q, -np.inf, grad, 0.0, True
        if step < n_steps - 1:
            p = p + eps * grad
    p = p + 0.5 * eps * grad
    logp = model.log_posterior(q)
    energy_err = -logp + metric.kinetic(p) - h0
    if not np.isfinite(energy_err) or energy_err > DIVERGENCE_ENERGY:
        return q, logp, grad, 0.0, True
    return q, logp, grad, float(np.exp(min(0.0, -energy_err))), False


def _find_reasonable_eps(model, q, logp, grad, metric, rng):
    """Step size, doubled or halved from 1, at which a one-step trial from
    ``q`` (log density ``logp``, gradient ``grad``) crosses acceptance 1/2."""
    p = metric.sample(rng)

    def accepts(eps):
        return _transition(model, q, logp, grad, p, eps, 1, metric)[3] > 0.5

    eps = 1.0
    up = accepts(eps)
    for _ in range(50):
        eps *= 2.0 if up else 0.5
        if accepts(eps) != up:
            break
    return max(eps, 1e-8)


class _DualAveraging:
    """Nesterov dual averaging on log step size (target acceptance delta)."""

    def __init__(self, eps0, delta=0.8):
        self.mu = np.log(10.0 * eps0)
        self.delta = delta
        self.log_eps = np.log(eps0)
        self.log_eps_bar = 0.0
        self.h_bar = 0.0
        self.t = 0

    def update(self, accept_prob):
        self.t += 1
        frac = 1.0 / (self.t + DA_T0)
        self.h_bar = (1 - frac) * self.h_bar + frac * (self.delta - accept_prob)
        self.log_eps = self.mu - np.sqrt(self.t) / DA_GAMMA * self.h_bar
        w = self.t ** (-DA_KAPPA)
        self.log_eps_bar = w * self.log_eps + (1 - w) * self.log_eps_bar
        return np.exp(self.log_eps)

    @property
    def eps_bar(self):
        return np.exp(self.log_eps_bar)


def _run_chain(model, warmup, iters, rng, q0, metric, window,
               target_accept, traj_length):
    q = np.asarray(q0, dtype=float).copy()
    logp = model.log_posterior(q)
    grad = model.grad(q)

    eps = _find_reasonable_eps(model, q, logp, grad, metric, rng)
    da = _DualAveraging(eps, delta=target_accept)

    # simplified windowed mass adaptation: settle, collect, switch; with no
    # window nothing is collected and the metric stays
    w1, w2 = (int(f * warmup) for f in window or (1, 1))
    kept = []

    draws = np.empty((iters, len(q)))
    n_divergent = 0
    accept_sum = 0.0

    for it in range(warmup + iters):
        p0 = metric.sample(rng)
        jitter = rng.uniform(0.8, 1.2)
        n_steps = min(max(round(jitter * traj_length / eps), 1),
                      MAX_LEAPFROG_STEPS)
        q1, logp1, grad1, accept_prob, divergent = _transition(
            model, q, logp, grad, p0, eps, n_steps, metric)
        if not divergent and rng.uniform() < accept_prob:
            q, logp, grad = q1, logp1, grad1

        if it < warmup:
            eps = da.update(accept_prob)
            if w1 <= it < w2:
                kept.append(q.copy())
            if it == w2 - 1 and len(kept) > 10:
                var = np.var(np.asarray(kept), axis=0)
                metric = _DiagMetric(np.clip(var, 1e-8, None))
                eps = _find_reasonable_eps(model, q, logp, grad, metric, rng)
                da = _DualAveraging(eps, delta=target_accept)
            if it == warmup - 1:
                eps = da.eps_bar
        else:
            draws[it - warmup] = q
            accept_sum += accept_prob
            n_divergent += divergent

    return draws, n_divergent, accept_sum / max(iters, 1), eps


def sample_mcmc(model, chains=4, warmup=1000, iters=1000, seed=0,
                init="map", target_accept=0.8, traj_length=1.2):
    """HMC over the unconstrained parameter vector.

    init: "map" starts chains at ``model.initial_point()`` plus Gaussian
    jitter and uses the curvature there as a fixed dense metric, and
    refuses a model without that method; "diffuse" starts from N(0, 2)
    draws and adapts a diagonal metric during warmup.

    Diagnostics (requires chains >= 2) are attached to the result; R-hat
    above 1.1 flags the run non-converged but is not an error.
    """
    if not (isinstance(init, str) and init in ("map", "diffuse")):
        raise ValueError(f"unknown init {init!r}")
    P = model.n_params
    if init == "map":
        if not hasattr(model, "initial_point"):
            raise ValueError('init="map" needs a model with initial_point(); '
                             'use init="diffuse"')
        center = model.initial_point()
        # full curvature at the center sets a dense metric, which warmup
        # keeps; this is what handles weakly identified coefficient sums
        metric = _DenseMetric(-fd_hessian(model.grad, center))
        spread, window = INIT_JITTER, None
    else:
        center, spread, window = np.zeros(P), 2.0, (0.15, 0.75)
        metric = _DiagMetric(np.ones(P))

    all_draws, total_div = [], 0
    accept_rates, step_sizes = [], []
    # a trajectory that flies off overflows the kinetic energy; it is
    # counted as divergent, so the warning would only repeat that
    with np.errstate(over="ignore", invalid="ignore"):
        for c in range(chains):
            rng = np.random.default_rng([seed, c])
            q0 = center + spread * rng.standard_normal(P)
            draws, n_div, acc, eps = _run_chain(
                model, warmup, iters, rng, q0, metric, window,
                target_accept, traj_length)
            all_draws.append(draws)
            total_div += n_div
            accept_rates.append(acc)
            step_sizes.append(eps)

    out = PosteriorDraws(np.concatenate(all_draws), chains,
                         layout=getattr(model, "layout", None))
    div_frac = total_div / max(chains * iters, 1)
    diag = {"divergent": total_div, "divergence_fraction": div_frac,
            "accept_rate": accept_rates, "step_size": step_sizes,
            "warnings": []}
    if div_frac > DIVERGENCE_WARN_FRAC:
        diag["warnings"].append(
            f"{total_div} divergent transitions ({div_frac:.1%})")
    if chains >= 2:
        d = compute_diagnostics(out)
        diag["rhat"] = d["rhat"]
        diag["ess"] = d["ess"]
        with np.errstate(invalid="ignore"):
            converged = bool(np.all(np.nan_to_num(d["rhat"], nan=1.0) <= 1.1)
                             and np.all(d["ess"] >= 100))
        diag["converged"] = converged
        if not converged:
            # name the worst of each; a NaN ESS (a chain that never moved)
            # counts as the lowest
            labels = parameter_labels(out.layout, P)
            i = int(np.argmax(np.nan_to_num(d["rhat"], nan=1.0)))
            j = int(np.argmin(np.nan_to_num(d["ess"], nan=-np.inf)))
            diag["warnings"].append(
                f"R-hat > 1.1 or ESS < 100: R-hat {d['rhat'][i]:.3f} at "
                f"{labels[i]}, ESS {d['ess'][j]:.0f} at {labels[j]}")
    out.diagnostics = diag
    return out


# ---------------------------------------------------------------------------
# persistence: flat float64 matrix + JSON header

def write_json(path, obj) -> None:
    """Indented JSON with sorted keys; numpy arrays are written as lists."""
    with open(path, "w", encoding="utf-8") as f:
        json.dump(obj, f, indent=1, sort_keys=True,
                  default=lambda a: np.asarray(a).tolist())
        f.write("\n")


def save_draws(draws: PosteriorDraws, bin_path, json_path) -> None:
    """Flat float64 draws and a JSON header with the draws' layout."""
    if draws.layout is None:
        raise ValueError("draws carry no parameter layout to save")
    arr = np.ascontiguousarray(draws.draws, dtype="<f8")
    with open(bin_path, "wb") as f:
        f.write(arr.tobytes())
    write_json(json_path, {
        "n_draws": int(draws.n_draws),
        "n_params": int(draws.n_params),
        "n_chains": int(draws.n_chains),
        "dtype": "float64_le",
        "order": "C",
        "blocks": draws.layout.block_dict(),
    })


def load_draws(bin_path, json_path, layout) -> PosteriorDraws:
    """Draws that ``save_draws`` wrote, carrying ``layout``; ValueError
    naming the file that cannot be read, whose header is not one or names
    another dtype or order, whose size does not match, or whose blocks and
    n_params are not the layout's."""
    try:
        with open(json_path, encoding="utf-8") as f:
            header = json.load(f)
        D, P, C, blocks, dtype, order = (header[k] for k in (
            "n_draws", "n_params", "n_chains", "blocks", "dtype", "order"))
    except OSError as err:
        raise ValueError(f"{json_path}: cannot be read: {err.strerror}") \
            from None
    except (ValueError, LookupError, TypeError) as err:
        raise ValueError(f"{json_path}: not a draws header: {err!r}") from None
    if not (all(type(v) is int and v >= 0 for v in (D, P))
            and type(C) is int and C >= 1 and D % C == 0):
        raise ValueError(f"{json_path}: n_draws, n_params or n_chains has "
                         f"the wrong type or value")
    if blocks != layout.block_dict() or P != layout.n_params:
        raise ValueError(f"{json_path}: blocks or n_params do not match the "
                         f"layout")
    if (dtype, order) != ("float64_le", "C"):
        raise ValueError(f"{json_path}: dtype {dtype!r} and order {order!r} "
                         f"are not 'float64_le' and 'C'")
    try:
        raw = np.fromfile(bin_path, dtype="u1")  # a partial value counts too
    except OSError as err:
        raise ValueError(f"{bin_path}: cannot be read: {err.strerror}") \
            from None
    if raw.size != 8 * D * P:
        raise ValueError(f"{bin_path}: expected {8 * D * P} bytes, got "
                         f"{raw.size}")
    return PosteriorDraws(raw.view("<f8").reshape(D, P), C, layout=layout)
