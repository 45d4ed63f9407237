"""Command line pipeline: simulate, fit, poststratify, diagnose.

Runs are driven by an INI-style config file; every artifact lands in the
configured run directory under a fixed name so a manifest plus the inputs
reproduce any run byte for byte.

Exit codes: 0 success, 2 input error, 3 non-convergence, 4 internal error.
"""

from __future__ import annotations

import argparse
import configparser
import contextlib
import csv
import hashlib
import json
import os
import sys
from dataclasses import asdict, dataclass
from types import SimpleNamespace

import numpy as np

from mrpkit import __version__
from mrpkit.data import (N_INCOME, DataError, load_cells, load_dataset,
                         load_recorded, load_states)
from mrpkit.design import DEFAULT_STATE_PREDICTORS, ModelSpec, build_layout
from mrpkit.diagnostics import diagnostics_table
from mrpkit.model import LogDensityModel, PriorConfig
from mrpkit.poststrat import calibrate_to_totals, poststratify, predict_cells
from mrpkit.samplers import load_draws, sample_mcmc, save_draws, write_json
from mrpkit.synthetic import Scenario, redblue_scenario, write_scenario_files

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_NONCONVERGED = 3
EXIT_INTERNAL = 4

REPORT_EXCLUDED_STATES = ("AK", "HI", "DC")


@dataclass
class RunConfig:
    survey: str = ""
    cells: str = ""
    states: str = ""
    rung: str = ModelSpec.rung
    use_ethnicity: bool = False
    state_predictors: tuple[str, ...] = DEFAULT_STATE_PREDICTORS
    prior_mode: str = PriorConfig.mode
    coef_scale: float = PriorConfig.coef_scale
    chains: int = 4
    warmup: int = 1000
    iters: int = 1000
    seed: int = 1
    outdir: str = "run"
    exclude_ak_hi_dc: bool = False

    @property
    def spec(self) -> ModelSpec:
        return ModelSpec(self.rung, self.use_ethnicity, self.state_predictors)

    @property
    def prior(self) -> PriorConfig:
        return PriorConfig(self.prior_mode, self.coef_scale)


# [section] key -> RunConfig field, for every key fit, poststratify and
# diagnose read; configparser lowercases keys
RUN_KEYS = {
    ("data", "survey"): "survey", ("data", "cells"): "cells",
    ("data", "states"): "states",
    ("model", "rung"): "rung", ("model", "use_ethnicity"): "use_ethnicity",
    ("model", "state_predictors"): "state_predictors",
    ("prior", "mode"): "prior_mode", ("prior", "coef_scale"): "coef_scale",
    ("sampler", "chains"): "chains", ("sampler", "warmup"): "warmup",
    ("sampler", "iters"): "iters", ("sampler", "seed"): "seed",
    ("output", "dir"): "outdir",
    ("report", "exclude_ak_hi_dc"): "exclude_ak_hi_dc",
}
# [scenario] key -> setting, for the keys simulate reads
SCENARIO_KEYS = {("scenario", k.lower()): k
                 for k in ("kind", "S", "n", "seed", "outdir", "rung",
                           "use_ethnicity")}
# least value of each sampler and scenario key; R-hat, and with it the
# convergence stamp of a CLI fit, needs two chains, and the hierarchy two
# states
SAMPLER_MIN = {"chains": 2, "warmup": 0, "iters": 1, "seed": 0, "S": 2,
               "n": 1}


def _read_ini(path) -> configparser.ConfigParser:
    """Parsed config; DataError naming the file if it cannot be read or
    parsed, or holds a section or key that no command reads."""
    cp = configparser.ConfigParser(interpolation=None)
    try:
        with open(path, encoding="utf-8") as f:
            cp.read_file(f)
    except OSError as err:
        raise DataError(f"{path}: cannot be read: {err.strerror}") from None
    except (configparser.Error, UnicodeDecodeError) as err:
        raise DataError(f"{path}: cannot parse config: {err}") from None
    known = RUN_KEYS.keys() | SCENARIO_KEYS.keys()
    for section in cp.sections():
        if section not in {sec for sec, _ in known}:
            raise DataError(f"{path}: unknown config section [{section}]")
        for key in cp.options(section):
            if (section, key) not in known:
                raise DataError(f"{path}: unknown key {key!r} in "
                                f"[{section}]")
    return cp


def _read_values(cp, path, keys, cfg):
    """Set each attribute of ``cfg`` named in ``keys`` whose key ``cp``
    holds, converted to the type of its default; DataError naming the file,
    section and key of a value that does not convert or is out of range."""
    for (section, key), name in keys.items():
        if not cp.has_option(section, key):
            continue
        value, default = cp.get(section, key), getattr(cfg, name)
        try:
            if isinstance(default, bool):
                value = cp.getboolean(section, key)
            elif isinstance(default, tuple):  # comma-separated; empty: default
                value = tuple(p.strip() for p in value.split(",")) if value \
                    else default
            else:
                value = type(default)(value)
        except ValueError:
            raise DataError(f"{path}: [{section}] {key} = {value!r} is not "
                            f"a valid {type(default).__name__}") from None
        if name in SAMPLER_MIN and value < SAMPLER_MIN[name]:
            raise DataError(f"{path}: [{section}] {key} = {value} is below "
                            f"its minimum {SAMPLER_MIN[name]}")
        setattr(cfg, name, value)
    return cfg


def read_config(path) -> RunConfig:
    """RunConfig from an INI file; DataError naming the file, section and
    key of a value that does not convert or is out of range."""
    cfg = _read_values(_read_ini(path), path, RUN_KEYS, RunConfig())
    for section, name in (("model", "spec"), ("prior", "prior")):
        try:
            getattr(cfg, name)  # ModelSpec and PriorConfig check the values
        except ValueError as err:
            raise DataError(f"{path}: [{section}] {err}") from None
    return cfg


def _sha256(path) -> str:
    """Hex sha256 of a file; DataError naming it if it cannot be read."""
    h = hashlib.sha256()
    try:
        with open(path, "rb") as f:
            for chunk in iter(lambda: f.read(65536), b""):
                h.update(chunk)
    except OSError as err:
        raise DataError(f"{path}: cannot be read: {err.strerror}") from None
    return h.hexdigest()


def _check_inputs(cfg: RunConfig, names) -> None:
    for name in names:
        if not getattr(cfg, name):
            raise DataError(f"config is missing the {name} input path")


def _check_manifest(cfg: RunConfig, names) -> None:
    """DataError unless each named input can be read and has the sha256
    that the fit recorded in the run's manifest.json."""
    _check_inputs(cfg, names)
    manifest = os.path.join(cfg.outdir, "manifest.json")
    try:
        with open(manifest, encoding="utf-8") as f:
            recorded = json.load(f)["inputs"]
    except FileNotFoundError:
        raise DataError(f"{manifest} not found: run mrp fit first") from None
    except (ValueError, KeyError):
        raise DataError(f"{manifest}: cannot read the input checksums") \
            from None
    for name in names:
        path = getattr(cfg, name)
        if _sha256(path) != recorded.get(name):
            raise DataError(f"{name} file {path} differs from the one fitted "
                            f"(sha256 recorded in {manifest})")


@contextlib.contextmanager
def _replacing(path):
    """Yield a temporary sibling of ``path`` to write; move it onto ``path``
    when the block completes, and delete it when the block raises."""
    tmp = path + ".tmp"
    try:
        yield tmp
        os.replace(tmp, path)
    finally:
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)


# ---------------------------------------------------------------------------
# subcommands

def cmd_fit(cfg: RunConfig) -> int:
    # validate inputs before touching the output dir
    _check_inputs(cfg, ("survey", "cells", "states"))
    dataset = load_dataset(cfg.survey, cfg.cells, cfg.states, cfg.spec)
    model = LogDensityModel(dataset, cfg.spec, cfg.prior)
    draws = sample_mcmc(model, chains=cfg.chains, warmup=cfg.warmup,
                        iters=cfg.iters, seed=cfg.seed)
    os.makedirs(cfg.outdir, exist_ok=True)

    def out(name):
        return os.path.join(cfg.outdir, name)

    # no manifest while the artifacts change, so an interrupted fit leaves
    # a run directory that poststratify and diagnose refuse
    with contextlib.suppress(FileNotFoundError):
        os.remove(out("manifest.json"))
    with _replacing(out("draws.bin")) as bin_tmp, \
            _replacing(out("draws.json")) as json_tmp:
        save_draws(draws, bin_tmp, json_tmp)
    with _replacing(out("diagnostics.txt")) as tmp, \
            open(tmp, "w", encoding="utf-8") as f:
        f.write(diagnostics_table(draws))
    diag = draws.diagnostics or {}
    converged = bool(diag.get("converged", False))
    with _replacing(out("diagnostics.json")) as tmp:
        write_json(tmp, diag)
    manifest = {
        "tool": f"mrpkit {__version__}",
        "config": asdict(cfg),
        "inputs": {"survey": _sha256(cfg.survey), "cells": _sha256(cfg.cells),
                   "states": _sha256(cfg.states)},
        "converged": converged,
        "n_draws": int(draws.n_draws),
        "n_params": int(draws.n_params),
    }
    with _replacing(out("manifest.json")) as tmp:
        write_json(tmp, manifest)
    if not converged:
        print("warning: run stamped non-converged", file=sys.stderr)
        return EXIT_NONCONVERGED
    return EXIT_OK


def cmd_poststratify(cfg: RunConfig, grouping: str, recorded_path=None,
                     export_draws=False) -> int:
    _check_manifest(cfg, ("cells", "states"))  # the survey is not needed
    states = load_states(cfg.states)
    cells = load_cells(cfg.cells, cfg.spec, states)
    draws = load_draws(os.path.join(cfg.outdir, "draws.bin"),
                       os.path.join(cfg.outdir, "draws.json"),
                       build_layout(cfg.spec, states))
    est = predict_cells(draws, cells)
    if recorded_path:
        rec = load_recorded(recorded_path, states)
        est, _ = calibrate_to_totals(est, rec, states)
    dims = tuple(d.strip() for d in grouping.split(",")) if grouping else ()
    agg = poststratify(est, dims, states)
    name = "_".join(dims) if dims else "national"
    out = os.path.join(cfg.outdir, f"estimates_{name}.csv")
    s = agg.summary()
    # a union of whole calibrated states has the same share in every draw
    if recorded_path and set(dims) <= {"state", "region"}:
        s["sd"] = np.zeros(agg.n_groups)
    with open(out, "w", newline="", encoding="utf-8") as f:
        w = csv.writer(f)
        keycols = [("state_label" if d == "state" else d) for d in dims]
        w.writerow(keycols + ["mean", "sd", "q05", "q25", "q50", "q75", "q95",
                              "weight"])
        labels = [[states.labels[v - 1] if d == "state" else v
                   for d, v in zip(dims, key)] for key in agg.keys]
        for g, kvals in enumerate(labels):
            w.writerow(kvals + [repr(float(s[k][g])) for k in
                                ("mean", "sd", "q05", "q25", "q50", "q75",
                                 "q95")] + [repr(float(agg.weight[g]))])
    if export_draws:
        # one column per group, headed by its key columns joined with ':'
        dpath = os.path.join(cfg.outdir, f"estimates_{name}_draws.csv")
        header = [":".join(map(str, kvals)) or "national" for kvals in labels]
        np.savetxt(dpath, agg.theta, delimiter=",", header=",".join(header),
                   comments="")
    print(out)
    return EXIT_OK


def cmd_diagnose(cfg: RunConfig) -> int:
    _check_manifest(cfg, ("survey", "cells", "states"))
    dataset = load_dataset(cfg.survey, cfg.cells, cfg.states, cfg.spec)
    draws = load_draws(os.path.join(cfg.outdir, "draws.bin"),
                       os.path.join(cfg.outdir, "draws.json"),
                       build_layout(cfg.spec, dataset.states))
    agg = poststratify(predict_cells(draws, dataset.cells),
                       ("state", "income"), dataset.states)
    s = agg.summary()
    # keys are the full (state, income) cross in order; a state's mean is
    # the voter-weighted mean of its income groups' means
    w = agg.weight.reshape(-1, N_INCOME)
    state_mean = (w * s["mean"].reshape(w.shape)).sum(axis=1) / w.sum(axis=1)

    # respondents and Republican votes per (state, income), over ethnicity
    n_si, k_si = (c.reshape(dataset.states.n_states, N_INCOME, -1).sum(axis=2)
                  for c in (dataset.survey.n, dataset.survey.k))

    order = sorted(range(len(agg.keys)),
                   key=lambda g: (-state_mean[agg.keys[g][0] - 1], agg.keys[g]))
    out = os.path.join(cfg.outdir, "diagnostics.csv")
    with open(out, "w", newline="", encoding="utf-8") as f:
        w = csv.writer(f)
        w.writerow(["state", "income", "n_respondents", "raw_mean", "raw_se",
                    "model_mean", "model_sd"])
        for g in order:
            st, inc = agg.keys[g]
            label = dataset.states.labels[st - 1]
            if cfg.exclude_ak_hi_dc and label in REPORT_EXCLUDED_STATES:
                continue
            n, k = int(n_si[st - 1, inc - 1]), int(k_si[st - 1, inc - 1])
            if n > 0:
                p = float(k) / n
                raw_mean = repr(p)
                raw_se = repr(float(np.sqrt(p * (1 - p) / n)))
            else:
                raw_mean = raw_se = ""  # model columns still populated
            w.writerow([label, inc, n, raw_mean, raw_se,
                        repr(float(s["mean"][g])), repr(float(s["sd"][g]))])
    print(out)
    return EXIT_OK


def cmd_simulate(config_path) -> int:
    cp = _read_ini(config_path)
    if not cp.has_section("scenario"):
        raise DataError("simulate config needs a [scenario] section")
    sim = _read_values(cp, config_path, SCENARIO_KEYS, SimpleNamespace(
        kind="redblue", S=50, n=30000, seed=0, outdir="simdata", rung="M1",
        use_ethnicity=False))

    def refused(key, why):
        return DataError(f"{config_path}: [scenario] {key} = "
                         f"{getattr(sim, key)!r}: {why}")

    # the world is checked before its directory is made
    try:
        if sim.kind == "redblue":
            scenario = redblue_scenario(S=sim.S, n=sim.n, seed=sim.seed)
        elif sim.kind == "basic":
            scenario = Scenario(S=sim.S, rung=sim.rung, n=sim.n, seed=sim.seed,
                                use_ethnicity=sim.use_ethnicity)
        else:
            raise ValueError("expected redblue or basic")
    except ValueError as err:
        raise refused("kind", err) from None
    try:
        ModelSpec(sim.rung)  # checked for both kinds
        if sim.kind == "redblue" and sim.rung != "M2" \
                and cp.has_option("scenario", "rung"):
            raise ValueError("the red/blue world is M2")
    except ValueError as err:
        raise refused("rung", err) from None
    if sim.kind == "redblue" and cp.has_option("scenario", "use_ethnicity"):
        raise refused("use_ethnicity", "the red/blue world has no ethnicity")
    paths = write_scenario_files(scenario, sim.outdir)
    for p in paths.values():
        print(p)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="mrp",
        description="Multilevel regression and poststratification pipeline")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="write a synthetic dataset")
    p.add_argument("--config", required=True)

    p = sub.add_parser("fit", help="fit the model, write posterior draws")
    p.add_argument("--config", required=True)

    p = sub.add_parser("poststratify", help="aggregate cell estimates")
    p.add_argument("--config", required=True)
    p.add_argument("--grouping", default="state",
                   help="comma-separated dimensions, e.g. state or "
                        "ethnicity,region; empty for national")
    p.add_argument("--recorded", default=None,
                   help="CSV of recorded two-party shares (state,rep_share) "
                        "to calibrate against")
    p.add_argument("--export-draws", action="store_true")

    p = sub.add_parser("diagnose", help="model-vs-raw-data diagnostic table")
    p.add_argument("--config", required=True)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "simulate":
            return cmd_simulate(args.config)
        cfg = read_config(args.config)
        if args.command == "fit":
            return cmd_fit(cfg)
        if args.command == "poststratify":
            return cmd_poststratify(cfg, args.grouping, args.recorded,
                                    args.export_draws)
        if args.command == "diagnose":
            return cmd_diagnose(cfg)
        return EXIT_INTERNAL
    except (DataError, ValueError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_INPUT
    except Exception as err:  # noqa: BLE001
        print(f"internal error: {err}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
