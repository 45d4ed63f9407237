"""Byte identity of a fixed corpus of outputs between the working tree and
a git revision.

    python3 checks/identity.py --against REF   # the working tree against REF
    python3 checks/identity.py --run DIR       # write the corpus into DIR

``--against`` checks REF out with ``git worktree`` into a temporary
directory, writes the corpus (``write_corpus``) with the working tree's
``src`` and with REF's, and prints each file's sha256 match, with the
largest absolute difference of a ``.bin`` draws file that differs; it exits
1 if any file differs. Hashes depend on the host's numpy and BLAS, so
compare two trees on one host only. Not part of the test suite.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import os
import shutil
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _ini(path, sections):
    with open(path, "w", encoding="utf-8") as f:
        for name, keys in sections.items():
            f.write(f"[{name}]\n")
            f.writelines(f"{k} = {v}\n" for k, v in keys.items())


def _run_config(data, eth, **sampler):
    files = {k: f"{data}/{k}.csv" for k in ("survey", "cells", "states")}
    return {"data": files, "model": {"rung": "M2", "use_ethnicity": eth},
            "sampler": {"seed": 1, **sampler},
            "output": {"dir": f"{data}/run"}}


def write_corpus(out) -> None:
    """The corpus, under ``out``: a redblue-cli round at the CLI defaults,
    and its ``poststratify --recorded`` by state, by region and national
    (with the national draws) against fixed shares that the corpus
    writes; the report-300k world fitted 4 x (200 + 1000); ``run_sbc``
    ranks on criterion 4's world (seed 1000, 10 replications); and
    2 x (150 + 150) fits for M1/M2/M3 x weak/uniform x init map/diffuse,
    with and without ethnicity. Every path in a config is relative."""
    from mrpkit import cli
    from mrpkit.data import load_states
    from mrpkit.model import LogDensityModel, PriorConfig
    from mrpkit.samplers import sample_mcmc, save_draws, write_json
    from mrpkit.sbc import run_sbc
    from mrpkit.synthetic import (Scenario, draw_truth, make_cells,
                                  make_states, simulate_poll,
                                  write_scenario_files)
    os.makedirs(out, exist_ok=True)
    os.chdir(out)
    _ini("sim.ini", {"scenario": {"kind": "redblue", "S": 50, "n": 30000,
                                  "seed": 0, "outdir": "redblue"}})
    _ini("redblue.ini", _run_config("redblue", "false"))
    for argv in (["simulate", "--config", "sim.ini"],
                 ["fit", "--config", "redblue.ini"],
                 ["poststratify", "--config", "redblue.ini"],
                 ["poststratify", "--config", "redblue.ini",
                  "--grouping", "income"],
                 ["diagnose", "--config", "redblue.ini"]):
        cli.main(argv)  # a failed command leaves its files out

    # calibrated estimates beside a copy of the fit, so the uncalibrated
    # estimates_state.csv above stays
    os.makedirs("redblue/recorded", exist_ok=True)
    for name in ("draws.bin", "draws.json", "manifest.json"):
        shutil.copy(f"redblue/run/{name}", "redblue/recorded")
    labels = load_states("redblue/states.csv").labels
    with open("recorded.csv", "w", encoding="utf-8") as f:
        f.write("state,rep_share\n")
        f.writelines(f"{lbl},{0.3 + 0.4 * i / len(labels):.4f}\n"
                     for i, lbl in enumerate(labels))
    cfg = _run_config("redblue", "false")
    cfg["output"]["dir"] = "redblue/recorded"
    _ini("recorded.ini", cfg)
    for grouping in ("state", "region", ""):
        cli.main(["poststratify", "--config", "recorded.ini", "--grouping",
                  grouping, "--recorded", "recorded.csv"]
                 + (["--export-draws"] if not grouping else []))

    write_scenario_files(Scenario(
        S=50, rung="M2", n=300_000, seed=0, use_ethnicity=True,
        eth_coefs=(-0.4, 0.25, 0.1), gamma=(0.0, -0.15, 0.1, 0.0, 0.0, 0.0),
        sigma_alpha=0.3, slope_mu=0.2, slope_sigma=0.05), "report")
    _ini("report.ini", _run_config("report", "true", chains=4, warmup=200,
                                   iters=1000))
    cli.main(["fit", "--config", "report.ini"])

    ranks, _ = run_sbc(Scenario(S=5, rung="M1", n=500, seed=11,
                                state_predictors=("avg_income",)),
                       reps=10, seed=1000)
    with open("sbc_ranks.csv", "w", encoding="utf-8") as f:
        f.writelines(",".join(map(str, row)) + "\n" for row in ranks)

    os.makedirs("fits", exist_ok=True)
    for rung, eth, prior, init in itertools.product(
            ("M1", "M2", "M3"), (False, True), ("weak", "uniform"),
            ("map", "diffuse")):
        sc = Scenario(S=8, rung=rung, n=3000, seed=5, use_ethnicity=eth)
        states = make_states(sc)
        cells = make_cells(sc, states)
        ds = simulate_poll(draw_truth(sc, states, cells), sc, states, cells)
        draws = sample_mcmc(LogDensityModel(ds, sc.spec, PriorConfig(prior)),
                            chains=2, warmup=150, iters=150, seed=4,
                            init=init)
        name = f"fits/{rung}-{'eth' if eth else 'plain'}-{prior}-{init}"
        save_draws(draws, name + ".bin", name + ".json")
        write_json(name + "_diagnostics.json", draws.diagnostics)


def _hashes(top) -> dict:
    out = {}
    for d, _, files in os.walk(top):
        for name in files:
            with open(os.path.join(d, name), "rb") as f:
                out[os.path.relpath(f.name, top)] = \
                    hashlib.sha256(f.read()).hexdigest()
    return out


def _max_abs_diff(tmp, name) -> str:
    import numpy as np
    x, y = (np.fromfile(os.path.join(tmp, d, name), dtype="<f8")
            for d in ("here", "ref"))
    return (f"max |diff| {float(np.max(np.abs(x - y))):.3g}"
            if x.shape == y.shape else f"sizes {x.size} and {y.size}")


def compare(ref) -> int:
    with tempfile.TemporaryDirectory(prefix="identity-") as tmp:
        tree = os.path.join(tmp, "tree")
        subprocess.run(["git", "-C", ROOT, "worktree", "add", "--detach",
                        "--quiet", tree, ref], check=True)
        try:
            for label, src in (("here", ROOT), ("ref", tree)):
                subprocess.run(
                    [sys.executable, os.path.abspath(__file__), "--run",
                     os.path.join(tmp, label)], check=True,
                    env=dict(os.environ, PYTHONPATH=os.path.join(src, "src")),
                    stdout=subprocess.DEVNULL)
        finally:
            subprocess.run(["git", "-C", ROOT, "worktree", "remove",
                            "--force", tree], check=False)
        here, there = (_hashes(os.path.join(tmp, d)) for d in ("here", "ref"))
        names = sorted(set(here) | set(there))
        differ = 0
        for name in names:
            a, b = here.get(name, "(none)"), there.get(name, "(none)")
            if a == b:
                print(f"equal    {name}  {a[:12]}")
                continue
            differ += 1
            both = name.endswith(".bin") and name in here and name in there
            print(f"DIFFERS  {name}  {a[:12]} here, {b[:12]} in {ref}"
                  + (f"; {_max_abs_diff(tmp, name)}" if both else ""))
    print(f"{len(names) - differ} of {len(names)} files equal against {ref}")
    return 1 if differ else 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--against", metavar="REF",
                    help="git revision to compare the working tree with")
    ap.add_argument("--run", metavar="DIR", help="only write the corpus")
    args = ap.parse_args(argv)
    if args.run:
        write_corpus(os.path.abspath(args.run))
        return 0
    if not args.against:
        ap.error("give --against REF or --run DIR")
    return compare(args.against)


if __name__ == "__main__":
    sys.exit(main())
