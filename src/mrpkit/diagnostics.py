"""Convergence diagnostics: split-chain R-hat and effective sample size."""

from __future__ import annotations

import numpy as np


def _split_chains(x):
    """(chains, n) -> (2*chains, n//2): first and second half of each chain."""
    m, n = x.shape
    half = n // 2
    return np.concatenate([x[:, :half], x[:, n - half:]], axis=0)


def split_rhat(x) -> float:
    """Potential scale reduction on split chains; NaN when within-chain
    variance is zero (e.g. identical constant chains)."""
    x = _split_chains(np.atleast_2d(np.asarray(x, dtype=float)))
    m, n = x.shape
    if n < 2:
        return np.nan
    means = x.mean(axis=1)
    W = x.var(axis=1, ddof=1).mean()
    B = n * means.var(ddof=1)
    if W <= 0:
        return np.nan
    var_hat = (n - 1) / n * W + B / n
    return float(np.sqrt(var_hat / W))


def _autocov(x):
    """Autocovariance of one chain via FFT, biased normalization."""
    n = len(x)
    xc = x - x.mean()
    f = np.fft.rfft(xc, 2 * n)
    acov = np.fft.irfft(f * np.conj(f))[:n].real / n
    return acov


def split_ess(x) -> float:
    """Effective sample size on split chains with Geyer's initial monotone
    positive sequence estimator of the autocorrelation time."""
    x = _split_chains(np.atleast_2d(np.asarray(x, dtype=float)))
    m, n = x.shape
    if n < 4:
        return np.nan
    acov = np.stack([_autocov(x[c]) for c in range(m)])
    chain_var = acov[:, 0] * n / (n - 1)
    W = chain_var.mean()
    mean_acov = acov.mean(axis=0)
    var_hat = (n - 1) / n * W + n * x.mean(axis=1).var(ddof=1) / n
    if var_hat <= 0 or W <= 0:
        return np.nan
    rho = 1.0 - (W - mean_acov) / var_hat
    rho[0] = 1.0
    # Geyer pairs: sum rho_{2t} + rho_{2t+1} while positive, then enforce
    # monotone decrease
    tau = 0.0
    prev_pair = np.inf
    t = 1
    while t + 1 < n:
        pair = rho[t] + rho[t + 1]
        if pair < 0:
            break
        pair = min(pair, prev_pair)
        tau += pair
        prev_pair = pair
        t += 2
    ess = m * n / (1.0 + 2.0 * tau)
    return float(min(ess, m * n))


def compute_diagnostics(draws) -> dict:
    """Per-parameter split R-hat and ESS for a PosteriorDraws object."""
    if draws.n_chains < 2:
        raise ValueError("diagnostics require at least 2 chains")
    x = draws.by_chain()  # (chains, n, P)
    P = x.shape[2]
    rhat = np.array([split_rhat(x[:, :, j]) for j in range(P)])
    ess = np.array([split_ess(x[:, :, j]) for j in range(P)])
    return {"rhat": rhat, "ess": ess}


def parameter_labels(layout, n_params) -> list[str]:
    """One label per parameter, in order: its block's name, indexed from 1
    in a block of more than one (``slope[3]``); ``params[k]`` without a
    layout."""
    blocks = (layout.block_dict() if layout is not None
              else {"params": [0, n_params]})
    return [name if length == 1 else f"{name}[{j + 1}]"
            for name, (_, length) in blocks.items() for j in range(length)]


def diagnostics_table(draws) -> str:
    """Human-readable per-parameter convergence table."""
    diag = draws.diagnostics or {}
    rhat = np.asarray(diag.get("rhat", []), dtype=float)
    ess = np.asarray(diag.get("ess", []), dtype=float)
    lines = [f"{'parameter':<20s} {'mean':>10s} {'sd':>10s} "
             f"{'rhat':>8s} {'ess':>8s}"]
    mean = draws.draws.mean(axis=0)
    sd = draws.draws.std(axis=0, ddof=1)
    for k, label in enumerate(parameter_labels(draws.layout, draws.n_params)):
        r = f"{rhat[k]:8.3f}" if k < len(rhat) and np.isfinite(rhat[k]) \
            else f"{'n/a':>8s}"
        e = f"{ess[k]:8.0f}" if k < len(ess) and np.isfinite(ess[k]) \
            else f"{'n/a':>8s}"
        lines.append(f"{label:<20s} {mean[k]:10.4f} {sd[k]:10.4f} {r} {e}")
    return "\n".join(lines) + "\n"
