#!/usr/bin/env python3
"""Self-test of the benchmark's reference code on tiny hand-built tables
with known answers.  Takes about a second:

    python3 perfbench/selftest.py

Exits 0 when every case passes; otherwise prints the failures and exits 1.
"""

from __future__ import annotations

import json
import os
import shutil
import sys

import numpy as np

import reference as ref

HERE = os.path.dirname(os.path.abspath(__file__))
FAILURES: list[str] = []


def expect(ok, what):
    if not ok:
        FAILURES.append(what)


def write(path, text):
    with open(path, "w", encoding="utf-8") as f:
        f.write(text)


def main() -> int:
    tmp = os.path.join(HERE, "_work", "selftest")
    shutil.rmtree(tmp, ignore_errors=True)
    os.makedirs(tmp)
    labels = ["AA", "BB"]

    # cells: 2 states x 5 incomes; weight = n_adults * turnout_rate
    rows = ["state,income,n_adults,turnout_rate"]
    for s in labels:
        for i in range(1, 6):
            rows.append(f"{s},{i},{100 * i},0.5")
    write(os.path.join(tmp, "cells.csv"), "\n".join(rows) + "\n")
    cells = ref.read_cells(os.path.join(tmp, "cells.csv"), labels)
    expect(cells["weight"].tolist() == [50.0 * i for i in range(1, 6)] * 2,
           "cell weights are n_adults * turnout_rate")
    write(os.path.join(tmp, "states.csv"),
          "state,avg_income,prev_rep_share,region\nAA,-1.0,0.6,1\n"
          "BB,1.0,0.4,2\n")
    states = ref.read_states(os.path.join(tmp, "states.csv"))

    # poststratification: theta = 0.1 * income in AA and 0.5 in BB
    theta = np.array([[0.1 * i for i in range(1, 6)] + [0.5] * 5])
    w = np.arange(1, 6, dtype=float)
    keys, means, total = ref.poststratify(
        theta, cells["weight"], ref.group_keys(cells, states, ("state",)))
    expect(keys.tolist() == [[1], [2]], "state group keys")
    expect(np.allclose(means, [[0.1 * (w @ w) / w.sum(), 0.5]]),
           "state means are weight-averaged cell probabilities")
    expect(np.allclose(total, [750.0, 750.0]), "state weights")
    keys, means, _ = ref.poststratify(
        theta, cells["weight"], ref.group_keys(cells, states, ()))
    expect(keys.shape == (1, 0) and np.allclose(
        means, [[(0.1 * (w @ w) + 0.5 * w.sum()) * 50 / 1500]]),
        "national mean")
    keys, means, _ = ref.poststratify(
        theta, cells["weight"], ref.group_keys(cells, states, ("region",)))
    expect(keys.tolist() == [[1], [2]] and np.isclose(means[0, 1], 0.5),
           "region grouping follows states.csv")

    # raw table: AA income 1 has votes 1,0,1; BB income 5 has vote 0
    write(os.path.join(tmp, "survey.csv"),
          "state,income,vote\nAA,1,1\nAA,1,0\nBB,5,0\nAA,1,1\n")
    raw = ref.raw_table(os.path.join(tmp, "survey.csv"), labels)
    expect(raw == {("AA", 1): (3, 2), ("BB", 5): (1, 0)}, f"raw table {raw}")

    # true slopes: logit theta(s, i) = a_s + b_s (i - 3)
    a, b = (0.2, -0.1), (0.3, 0.05)
    rows = ["state,income,theta"]
    for s, lab in enumerate(labels):
        for i in range(1, 6):
            theta = float(ref.expit(a[s] + b[s] * (i - 3)))
            rows.append(f"{lab},{i},{theta!r}")
    write(os.path.join(tmp, "truth.csv"), "\n".join(rows) + "\n")
    expect(np.allclose(ref.true_slopes(os.path.join(tmp, "truth.csv"),
                                       labels), b), "slopes from truth.csv")

    # draws.bin round trip and the M2 linear predictor
    blocks = {"beta": [0, 1], "gamma": [1, 1], "alpha": [2, 2],
              "sigma_alpha": [4, 1], "slope": [5, 2], "slope_mu": [7, 1],
              "slope_sigma": [8, 1], "corr": [9, 1]}
    x = np.zeros((2, 10))
    x[:, 0] = [0.1, 0.2]           # beta
    x[:, 2:4] = [[1.0, -1.0], [0.5, 0.0]]   # alpha
    x[:, 5:7] = [[0.3, 0.0], [0.0, 0.1]]    # slope
    run = os.path.join(tmp, "run")
    os.makedirs(run)
    x.astype("<f8").tofile(os.path.join(run, "draws.bin"))
    write(os.path.join(run, "draws.json"), json.dumps(
        {"n_draws": 2, "n_params": 10, "blocks": blocks}))
    d = ref.read_draws(run)
    expect(np.array_equal(d["alpha"], x[:, 2:4]), "draws.bin blocks")
    eta = ref.cell_eta(d, cells)
    z = np.arange(1, 6) - 3.0
    expect(np.allclose(eta[0], np.r_[1.0 + 0.4 * z, -1.0 + 0.1 * z])
           and np.allclose(eta[1], np.r_[0.5 + 0.2 * z, 0.3 * z]),
           "M2 linear predictor")
    eth_cells = dict(cells, ethnicity=np.array([1, 2] * 5))
    d_eth = dict(d, beta=np.array([[0.0, 0.7], [0.0, -0.7]]),
                 slope=0 * d["slope"])
    eta = ref.cell_eta(d_eth, eth_cells)
    expect(np.allclose(eta[:, 1] - eta[:, 0], [0.7, -0.7]),
           "ethnicity category 1 is the baseline")

    # estimates CSV comparison: equal passes, a perturbed value fails
    keys, groups, weight = ref.poststratify(
        ref.expit(ref.cell_eta(d, cells)), cells["weight"],
        ref.group_keys(cells, states, ("state",)))
    summ = ref.summarize(groups)
    lines = ["state_label,mean,sd,q05,q25,q50,q75,q95,weight"]
    for g, lab in enumerate(labels):
        lines.append(",".join([lab] + [repr(float(summ[c][g])) for c in
                                       ref.SUMMARY_COLS]
                              + [repr(float(weight[g]))]))
    path = os.path.join(tmp, "estimates_state.csv")
    write(path, "\n".join(lines) + "\n")
    expect(ref.compare_estimates(path, keys, groups, weight, ("state",),
                                 labels) == [], "identical estimates pass")
    write(path, "\n".join(lines).replace(repr(float(summ["q95"][1])),
                                         "0.123") + "\n")
    errors = ref.compare_estimates(path, keys, groups, weight, ("state",),
                                   labels)
    expect(len(errors) == 1 and "q95" in errors[0], "a changed q95 is caught")

    # rank uniformity: a flat histogram passes, piled-up ranks fail
    flat = np.repeat(np.arange(20), 5)[:, None]
    piled = np.zeros((100, 1), dtype=int)
    expect(ref.rank_uniformity_pvalues(flat, 19)[0] > 0.99, "flat ranks")
    expect(ref.rank_uniformity_pvalues(piled, 19)[0] < 1e-10, "piled ranks")

    shutil.rmtree(tmp)
    for f in FAILURES:
        print(f"FAIL: {f}")
    print(f"{'FAILED' if FAILURES else 'ok'}: reference self-test")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
