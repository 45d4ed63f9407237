"""Reference computations made apart from mrpkit, for checking its outputs.

Everything here reads the run directory through its documented formats --
the input CSVs, ``draws.bin`` (a flat little-endian float64 matrix, one row
per draw, C order) with its ``draws.json`` header naming the parameter
blocks, and the CSVs the commands write -- and recomputes with plain numpy.
No mrpkit code is imported.
"""

from __future__ import annotations

import csv
import json
import os

import numpy as np

N_INCOME = 5
SUMMARY_COLS = ("mean", "sd", "q05", "q25", "q50", "q75", "q95")


def read_csv(path) -> dict[str, list[str]]:
    """Columns of a CSV file by header name."""
    with open(path, newline="", encoding="utf-8") as f:
        rows = list(csv.reader(f))
    return {name: [r[j] for r in rows[1:]] for j, name in enumerate(rows[0])}


def expit(x):
    return np.exp(-np.logaddexp(0.0, -x))


def logit(p):
    p = np.asarray(p, dtype=float)
    return np.log(p) - np.log1p(-p)


# ---------------------------------------------------------------------------
# inputs

def read_states(path) -> dict:
    t = read_csv(path)
    inc = np.array(t["avg_income"], dtype=float)
    return {"labels": t["state"], "avg_income": inc,
            "region": np.array(t["region"], dtype=int)}


def read_cells(path, labels) -> dict:
    """Cell keys as 1-based state index, income, ethnicity (0 when absent),
    and the poststratification weight n_adults * turnout_rate."""
    t = read_csv(path)
    pos = {lab: i + 1 for i, lab in enumerate(labels)}
    state = np.array([pos[s] for s in t["state"]])
    n = len(state)
    eth = np.array(t["ethnicity"], dtype=int) if "ethnicity" in t \
        else np.zeros(n, dtype=int)
    return {"state": state, "income": np.array(t["income"], dtype=int),
            "ethnicity": eth,
            "weight": np.array(t["n_adults"], dtype=float)
            * np.array(t["turnout_rate"], dtype=float)}


def raw_table(survey_path, labels) -> dict:
    """{(state label, income): (respondents, yes votes)} from survey.csv."""
    t = read_csv(survey_path)
    pos = {lab: i for i, lab in enumerate(labels)}
    s = np.array([pos[x] for x in t["state"]])
    i = np.array(t["income"], dtype=int)
    v = np.array(t["vote"], dtype=int)
    key = s * N_INCOME + (i - 1)
    size = len(labels) * N_INCOME
    n = np.bincount(key, minlength=size)
    k = np.bincount(key, weights=v, minlength=size)
    return {(labels[c // N_INCOME], c % N_INCOME + 1): (int(n[c]), int(k[c]))
            for c in np.flatnonzero(n)}


def true_slopes(truth_path, labels) -> np.ndarray:
    """Per-state income slope on the logit scale, (logit theta(s,5) -
    logit theta(s,1)) / 4, from truth.csv of a world without ethnicity."""
    t = read_csv(truth_path)
    pos = {lab: i for i, lab in enumerate(labels)}
    out = np.zeros((len(labels), N_INCOME))
    for s, i, th in zip(t["state"], t["income"], t["theta"]):
        out[pos[s], int(i) - 1] = logit(float(th))
    return (out[:, N_INCOME - 1] - out[:, 0]) / (N_INCOME - 1)


# ---------------------------------------------------------------------------
# draws and the linear predictor

def read_draws(run_dir) -> dict:
    """{block name: (D, length) array} from draws.bin and draws.json."""
    with open(os.path.join(run_dir, "draws.json"), encoding="utf-8") as f:
        header = json.load(f)
    raw = np.fromfile(os.path.join(run_dir, "draws.bin"), dtype="<f8")
    D, P = header["n_draws"], header["n_params"]
    if raw.size != D * P:
        raise ValueError(f"draws.bin holds {raw.size} values, header says "
                         f"{D} x {P}")
    x = raw.reshape(D, P)
    return {name: x[:, off:off + n] for name, (off, n)
            in header["blocks"].items()}


def cell_eta(blocks, cells) -> np.ndarray:
    """(D, C) linear predictor: state intercept, plus (beta_1 + state slope)
    times the centred income code, plus the ethnicity coefficient (category
    1 is the baseline), plus the income-category offset under M3."""
    s0 = cells["state"] - 1
    z = cells["income"] - 3.0
    coef = blocks["beta"][:, :1]
    if "slope" in blocks:
        coef = coef + blocks["slope"][:, s0]
    eta = blocks["alpha"][:, s0] + coef * z
    if cells["ethnicity"].max() > 0:
        eth = np.hstack([np.zeros((len(eta), 1)), blocks["beta"][:, 1:]])
        eta = eta + eth[:, cells["ethnicity"] - 1]
    if "cat" in blocks:
        eta = eta + blocks["cat"][:, cells["income"] - 1]
    return eta


# ---------------------------------------------------------------------------
# poststratification

def group_keys(cells, states, dims) -> np.ndarray:
    """(C, len(dims)) integer keys of each cell's group."""
    cols = {"state": cells["state"], "income": cells["income"],
            "ethnicity": cells["ethnicity"],
            "region": states["region"][cells["state"] - 1]
            if states is not None else None}
    if not dims:
        return np.zeros((len(cells["state"]), 0), dtype=int)
    return np.column_stack([cols[d] for d in dims])


def poststratify(theta, weight, keys):
    """Weighted mean of cell probabilities per group and draw.

    Returns (sorted unique keys, (D, G) group means, (G,) total weights)."""
    if keys.shape[1] == 0:
        uniq, inv = np.zeros((1, 0), dtype=int), np.zeros(len(weight), int)
    else:
        uniq, inv = np.unique(keys, axis=0, return_inverse=True)
        inv = inv.reshape(-1)
    order = np.argsort(inv, kind="stable")
    starts = np.flatnonzero(np.r_[True, np.diff(inv[order]) != 0])
    total = np.add.reduceat(weight[order], starts)
    num = np.add.reduceat((theta * weight)[:, order], starts, axis=1)
    return uniq, num / total, total


def summarize(x) -> dict:
    """Column summaries of (D, G) draws as the estimates CSVs report them."""
    q = np.quantile(x, [0.05, 0.25, 0.5, 0.75, 0.95], axis=0)
    return {"mean": x.mean(axis=0), "sd": x.std(axis=0, ddof=1),
            "q05": q[0], "q25": q[1], "q50": q[2], "q75": q[3], "q95": q[4]}


def compare_estimates(path, keys, groups, weight, key_cols, labels,
                      rtol=1e-9, atol=1e-12) -> list[str]:
    """Differences between an estimates CSV and reference group draws."""
    t = read_csv(path)
    got_keys = []
    for j in range(len(t["mean"])):
        row = []
        for c in key_cols:
            v = t["state_label" if c == "state" else c][j]
            row.append(labels.index(v) + 1 if c == "state" else int(v))
        got_keys.append(tuple(row))
    want_keys = [tuple(int(v) for v in k) for k in keys]
    if got_keys != want_keys:
        return [f"{os.path.basename(path)}: group keys differ"]
    errors = []
    ref = summarize(groups)
    ref["weight"] = weight
    for col, want in ref.items():
        got = np.array(t[col], dtype=float)
        if not np.allclose(got, want, rtol=rtol, atol=atol):
            k = int(np.argmax(np.abs(got - want)))
            errors.append(f"{os.path.basename(path)}: {col} of group "
                          f"{want_keys[k]} is {float(got[k])!r}, reference "
                          f"{float(want[k])!r}")
    return errors


# ---------------------------------------------------------------------------
# simulation-based calibration

def rank_uniformity_pvalues(ranks, n_rank_draws, n_bins=10) -> np.ndarray:
    """Chi-square p-value of each parameter's rank histogram against the
    uniform distribution on 0..n_rank_draws."""
    from scipy.stats import chi2
    ranks = np.asarray(ranks)
    reps = ranks.shape[0]
    edges = np.linspace(0, n_rank_draws + 1, n_bins + 1)
    expected = reps / n_bins
    stats = np.array([np.sum((np.histogram(ranks[:, j], bins=edges)[0]
                              - expected) ** 2) / expected
                      for j in range(ranks.shape[1])])
    return chi2.sf(stats, df=n_bins - 1)
