import ast
import csv
import filecmp
import hashlib
import importlib.util
import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

from mrpkit import cli
from mrpkit.cli import main
from mrpkit.data import load_states, load_survey
from mrpkit.design import ModelSpec
from mrpkit.synthetic import Scenario, write_scenario_files


def _sha(path):
    return hashlib.sha256(open(path, "rb").read()).hexdigest()


def _sim_config(tmp_path, S=6, n=800, seed=3, kind="basic", rung=None):
    """A simulate config; without ``rung`` it has no rung key, which
    simulate reads as M1 for the basic kind."""
    outdir = tmp_path / "sim"
    cfg = tmp_path / "sim.ini"
    cfg.write_text(f"[scenario]\nkind = {kind}\nS = {S}\nn = {n}\n"
                   f"seed = {seed}\noutdir = {outdir}\n"
                   + (f"rung = {rung}\n" if rung else ""), encoding="utf-8")
    return str(cfg), outdir


def _fit_config(tmp_path, datadir, outdir, rung="M1", chains=2,
                warmup=150, iters=150, seed=7, extra="", model=""):
    cfg = tmp_path / f"fit_{os.path.basename(str(outdir))}.ini"
    cfg.write_text(
        f"[data]\nsurvey = {datadir}/survey.csv\ncells = {datadir}/cells.csv\n"
        f"states = {datadir}/states.csv\n"
        f"[model]\nrung = {rung}\n{model}"
        f"[sampler]\nchains = {chains}\nwarmup = {warmup}\niters = {iters}\n"
        f"seed = {seed}\n"
        f"[output]\ndir = {outdir}\n" + extra, encoding="utf-8")
    return str(cfg)


@pytest.fixture(scope="module")
def fitted_run(tmp_path_factory):
    """One simulate + fit pipeline shared by the read-only CLI tests."""
    tmp_path = tmp_path_factory.mktemp("cli")
    simcfg, datadir = _sim_config(tmp_path)
    assert main(["simulate", "--config", simcfg]) == 0
    outdir = tmp_path / "run"
    fitcfg = _fit_config(tmp_path, datadir, outdir)
    rc = main(["fit", "--config", fitcfg])
    assert rc in (0, 3)  # short test chains may be stamped non-converged
    return tmp_path, fitcfg, datadir, outdir


def test_simulate_writes_four_files(tmp_path):
    simcfg, outdir = _sim_config(tmp_path, kind="redblue", S=12, n=1000,
                                 rung="M2")
    assert main(["simulate", "--config", simcfg]) == 0
    for name in ("survey.csv", "cells.csv", "states.csv", "truth.csv"):
        assert (outdir / name).exists()


def test_simulate_deterministic(tmp_path):
    (tmp_path / "x").mkdir(exist_ok=True)
    (tmp_path / "y").mkdir(exist_ok=True)
    c1, d1 = _sim_config(tmp_path / "x", S=8, n=500, seed=11)
    c2, d2 = _sim_config(tmp_path / "y", S=8, n=500, seed=11)
    assert main(["simulate", "--config", c1]) == 0
    assert main(["simulate", "--config", c2]) == 0
    for name in ("survey.csv", "cells.csv", "states.csv", "truth.csv"):
        assert filecmp.cmp(d1 / name, d2 / name, shallow=False)


def test_fit_artifacts_and_blocks(fitted_run):
    _, _, _, outdir = fitted_run
    for name in ("draws.bin", "draws.json", "diagnostics.txt",
                 "diagnostics.json", "manifest.json"):
        assert (outdir / name).exists()
    header = json.loads((outdir / "draws.json").read_text())
    assert set(header["blocks"]) == {"alpha", "beta", "gamma", "sigma_alpha"}
    manifest = json.loads((outdir / "manifest.json").read_text())
    assert "converged" in manifest
    assert set(manifest["inputs"]) == {"survey", "cells", "states"}


def test_fit_rerun_identical_checksum(fitted_run):
    tmp_path, _, datadir, outdir = fitted_run
    first = _sha(outdir / "draws.bin")
    outdir2 = tmp_path / "run2"
    cfg2 = _fit_config(tmp_path, datadir, outdir2)
    assert main(["fit", "--config", cfg2]) in (0, 3)
    assert _sha(outdir2 / "draws.bin") == first


def test_fit_corrupt_survey_no_partial_outputs(tmp_path):
    simcfg, datadir = _sim_config(tmp_path)
    assert main(["simulate", "--config", simcfg]) == 0
    with open(datadir / "survey.csv", "a", encoding="utf-8") as f:
        f.write("S01,9,1\n")  # income out of range
    outdir = tmp_path / "run"
    cfg = _fit_config(tmp_path, datadir, outdir)
    assert main(["fit", "--config", cfg]) == 2
    assert not outdir.exists()


def test_fit_missing_config(tmp_path, capsys):
    # a config that cannot be opened is named, not read as an empty one
    (tmp_path / "dir.ini").mkdir()
    for name in ("none.ini", "dir.ini"):
        path = str(tmp_path / name)
        for command in ("fit", "simulate", "diagnose"):
            assert main([command, "--config", path]) == 2
            err = capsys.readouterr().err
            assert f"error: {path}: cannot be read" in err, (command, err)


@pytest.mark.parametrize("command", ["fit", "simulate"])
def test_config_without_section_header(tmp_path, capsys, command):
    cfg = tmp_path / "bad.ini"
    cfg.write_text("survey = survey.csv\n", encoding="utf-8")
    assert main([command, "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert "bad.ini" in err and "internal error" not in err


@pytest.mark.parametrize("text,named", [
    ("[sampler]\nchain = 2\n", "'chain'"),
    ("[sampler]\nChains = 2\nSeeds = 3\n", "'seeds'"),
    ("[samplers]\nchains = 2\n", "[samplers]"),
])
def test_fit_config_rejects_unknown_keys(tmp_path, capsys, text, named):
    cfg = tmp_path / "typo.ini"
    cfg.write_text(text, encoding="utf-8")
    assert main(["fit", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert "typo.ini" in err and named in err


@pytest.mark.parametrize("key,value", [
    ("chains", "two"), ("chains", 0), ("chains", 1), ("warmup", -5),
    ("iters", 0), ("seed", -1), ("coef_scale", -1), ("coef_scale", "nan"),
    ("rung", "M9"), ("state_predictors", "avg_income,foo"),
])
def test_fit_config_rejects_bad_values(fitted_run, tmp_path, capsys, key,
                                       value):
    # each is refused before any data is read: no fit, no run directory
    _, _, datadir, _ = fitted_run
    outdir = tmp_path / "run"
    setting = {"coef_scale": {"extra": f"[prior]\ncoef_scale = {value}\n"},
               "state_predictors": {"model": f"{key} = {value}\n"}
               }.get(key, {key: value})
    cfg = _fit_config(tmp_path, datadir, outdir, **setting)
    assert main(["fit", "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert os.path.basename(cfg) in err and key in err
    assert not outdir.exists()


def test_simulate_config_rejects_unknown_key(tmp_path, capsys):
    cfg, outdir = _sim_config(tmp_path)
    with open(cfg, "a", encoding="utf-8") as f:
        f.write("nn = 100\n")
    assert main(["simulate", "--config", cfg]) == 2
    assert "'nn'" in capsys.readouterr().err
    assert not outdir.exists()


@pytest.mark.parametrize("key,value", [
    ("S", "abc"), ("S", 1), ("n", -5), ("n", 0), ("seed", -1),
    ("rung", "M9"), ("kind", "redblue"), ("kind", "blue"),
])
def test_simulate_config_rejects_bad_values(tmp_path, capsys, recwarn, key,
                                            value):
    # refused before any world is drawn: no warning, no output directory;
    # the red/blue kind needs 10 states, and the config has S = 6
    cfg, outdir = _sim_config(tmp_path, **{key: value})
    assert main(["simulate", "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert "sim.ini" in err and f"[scenario] {key.lower()} = " in err
    assert not recwarn.list
    assert not outdir.exists()


@pytest.mark.parametrize("rung", ["M1", "M3"])
def test_simulate_redblue_refuses_other_rungs(tmp_path, capsys, rung):
    # the red/blue world is M2; another rung would be ignored
    cfg, outdir = _sim_config(tmp_path, kind="redblue", S=12, n=1000,
                              rung=rung)
    assert main(["simulate", "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert "sim.ini" in err and f"[scenario] rung = '{rung}'" in err
    assert not outdir.exists()


def test_simulate_basic_with_ethnicity(tmp_path):
    # [scenario] use_ethnicity draws a world with the ethnicity column
    cfg, outdir = _sim_config(tmp_path, S=3, n=200)
    with open(cfg, "a", encoding="utf-8") as f:
        f.write("use_ethnicity = true\n")
    assert main(["simulate", "--config", cfg]) == 0
    spec = ModelSpec("M1", use_ethnicity=True)
    sv = load_survey(str(outdir / "survey.csv"), spec,
                     load_states(outdir / "states.csv"))
    assert len(sv.n) == 3 * 5 * 4 and len(sv) == 200
    for name in ("survey.csv", "cells.csv", "truth.csv"):
        assert (outdir / name).read_text().startswith(
            "state,income,ethnicity,")


@pytest.mark.parametrize("key,value", [
    ("rung", "M9"), ("use_ethnicity", "true"), ("use_ethnicity", "false"),
    ("use_ethnicity", "maybe")])
def test_simulate_redblue_refuses_what_it_ignores(tmp_path, capsys, key,
                                                  value):
    # the red/blue world is M2 without ethnicity: a bad rung, or any
    # use_ethnicity, is refused before anything is written
    cfg, outdir = _sim_config(tmp_path, kind="redblue", S=12, n=100,
                              **({"rung": value} if key == "rung" else {}))
    if key == "use_ethnicity":
        with open(cfg, "a", encoding="utf-8") as f:
            f.write(f"use_ethnicity = {value}\n")
    assert main(["simulate", "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert "sim.ini" in err and f"[scenario] {key} = " in err
    assert not outdir.exists()


def test_poststratify_state_rows(fitted_run):
    _, fitcfg, _, outdir = fitted_run
    assert main(["poststratify", "--config", fitcfg,
                 "--grouping", "state"]) == 0
    with open(outdir / "estimates_state.csv", newline="") as f:
        rows = list(csv.DictReader(f))
    assert len(rows) == 6
    assert "mean" in rows[0] and "q95" in rows[0]
    assert all(0.0 <= float(r["mean"]) <= 1.0 for r in rows)


def test_poststratify_national(fitted_run):
    _, fitcfg, _, outdir = fitted_run
    assert main(["poststratify", "--config", fitcfg, "--grouping", ""]) == 0
    with open(outdir / "estimates_national.csv", newline="") as f:
        rows = list(csv.DictReader(f))
    assert len(rows) == 1


def test_poststratify_state_income_rows(fitted_run):
    _, fitcfg, _, outdir = fitted_run
    assert main(["poststratify", "--config", fitcfg,
                 "--grouping", "state,income"]) == 0
    with open(outdir / "estimates_state_income.csv", newline="") as f:
        rows = list(csv.DictReader(f))
    assert len(rows) == 30


@pytest.mark.parametrize("grouping,name", [("state,income", "state_income"),
                                           ("", "national")])
def test_export_draws_header_matches_estimates(fitted_run, grouping, name):
    _, fitcfg, _, outdir = fitted_run
    assert main(["poststratify", "--config", fitcfg, "--grouping", grouping,
                 "--export-draws"]) == 0
    with open(outdir / f"estimates_{name}.csv", newline="") as f:
        reader = csv.reader(f)
        ncols = len(next(reader)) - 8  # key columns before the summaries
        keys = [":".join(row[:ncols]) or "national" for row in reader]
    dpath = outdir / f"estimates_{name}_draws.csv"
    with open(dpath, newline="") as f:
        header = next(csv.reader(f))
    assert header == keys
    assert header[0] == ("S01:1" if grouping else "national")
    draws = np.loadtxt(dpath, delimiter=",", skiprows=1, ndmin=2)
    assert draws.shape[1] == len(keys)


def test_poststratify_bad_grouping(fitted_run):
    _, fitcfg, _, _ = fitted_run
    assert main(["poststratify", "--config", fitcfg,
                 "--grouping", "ethnicity"]) == 2


def test_poststratify_calibrated_matches_recorded(fitted_run, tmp_path):
    _, fitcfg, datadir, outdir = fitted_run
    states = load_states(datadir / "states.csv")
    rec = tmp_path / "recorded.csv"
    rng = np.random.default_rng(0)
    shares = rng.uniform(0.35, 0.65, states.n_states)
    with open(rec, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(["state", "rep_share"])
        for lbl, s in zip(states.labels, shares):
            w.writerow([lbl, repr(float(s))])
    # region and national groups are unions of whole calibrated states
    for grouping in ("state", "region", ""):
        assert main(["poststratify", "--config", fitcfg, "--grouping",
                     grouping, "--recorded", str(rec)]) == 0
        name = grouping or "national"
        with open(outdir / f"estimates_{name}.csv", newline="") as f:
            rows = list(csv.DictReader(f))
        assert all(r["sd"] == "0.0" for r in rows)
        if grouping == "state":
            got = {r["state_label"]: float(r["mean"]) for r in rows}
            for lbl, s in zip(states.labels, shares):
                assert abs(got[lbl] - s) < 1e-8
            weight = np.array([float(r["weight"]) for r in rows])
            continue
        group = states.region_id if grouping else np.ones(len(shares))
        for r in rows:
            m = group == (int(r["region"]) if grouping else 1)
            want = (weight[m] * shares[m]).sum() / weight[m].sum()
            assert abs(float(r["mean"]) - want) < 1e-8


def test_poststratify_without_survey(fitted_run, tmp_path):
    # poststratify reads only the states and cells tables
    _, _, datadir, outdir = fitted_run
    data, run = tmp_path / "data", tmp_path / "run"
    shutil.copytree(datadir, data)
    shutil.copytree(outdir, run)
    (data / "survey.csv").unlink()
    cfg = _fit_config(tmp_path, data, run)
    assert main(["poststratify", "--config", cfg, "--grouping", "state"]) == 0
    with open(run / "estimates_state.csv", newline="") as f:
        assert len(list(csv.DictReader(f))) == 6


def _recorded(path, states, rows=()):
    """Recorded shares for every state, with ``rows`` (label, value)
    replacing or appending entries."""
    shares = {lbl: "0.5" for lbl in states.labels}
    shares.update(rows)
    path.write_text("state,rep_share\n" + "".join(
        f"{lbl},{v}\n" for lbl, v in shares.items()), encoding="utf-8")
    return str(path)


@pytest.mark.parametrize("value,message", [
    ("np.float64(0.5915008771236141)", "cannot parse"),
    ("nan", "non-finite"), ("inf", "non-finite")])
def test_poststratify_recorded_bad_share(fitted_run, tmp_path, capsys,
                                         value, message):
    _, fitcfg, datadir, _ = fitted_run
    states = load_states(datadir / "states.csv")
    rec = _recorded(tmp_path / "recorded.csv", states,
                    [(states.labels[1], value)])
    assert main(["poststratify", "--config", fitcfg, "--recorded", rec]) == 2
    err = capsys.readouterr().err
    assert "recorded.csv: row 3, column 'rep_share'" in err
    assert message in err and "missing recorded share" not in err


def test_poststratify_recorded_unknown_state(fitted_run, tmp_path, capsys):
    _, fitcfg, datadir, _ = fitted_run
    states = load_states(datadir / "states.csv")
    rec = _recorded(tmp_path / "recorded.csv", states, [("XX", "0.5")])
    row = states.n_states + 2
    assert main(["poststratify", "--config", fitcfg, "--recorded", rec]) == 2
    assert f"recorded.csv: row {row}: unknown state label 'XX'" \
        in capsys.readouterr().err


def test_poststratify_recorded_short_row(fitted_run, tmp_path, capsys):
    _, fitcfg, datadir, _ = fitted_run
    states = load_states(datadir / "states.csv")
    rec = tmp_path / "recorded.csv"
    _recorded(rec, states)
    lines = rec.read_text().splitlines()
    lines[2] = states.labels[1]  # row 3 lost its share and comma
    rec.write_text("\n".join(lines) + "\n")
    assert main(["poststratify", "--config", fitcfg, "--recorded",
                 str(rec)]) == 2
    assert "recorded.csv: row 3: expected 2 fields, got 1" \
        in capsys.readouterr().err


@pytest.fixture(scope="module")
def voterless_run(tmp_path_factory):
    """A 4-state world whose cells.csv gives state S02 no adults, fitted
    briefly, and a recorded-shares file for it."""
    tmp_path = tmp_path_factory.mktemp("voterless")
    simcfg, datadir = _sim_config(tmp_path, S=4, n=400)
    assert main(["simulate", "--config", simcfg]) == 0
    path = datadir / "cells.csv"
    lines = path.read_text().splitlines()
    for i, line in enumerate(lines):
        if line.startswith("S02,"):
            state, income, _, turnout = line.split(",")
            lines[i] = f"{state},{income},0.0,{turnout}"
    path.write_text("\n".join(lines) + "\n")
    fitcfg = _fit_config(tmp_path, datadir, tmp_path / "run", warmup=50,
                         iters=50)
    assert main(["fit", "--config", fitcfg]) in (0, 3)
    rec = _recorded(tmp_path / "recorded.csv", load_states(datadir /
                                                           "states.csv"))
    return fitcfg, rec


@pytest.mark.parametrize("grouping", ["income", "", "region", "state"])
def test_poststratify_recorded_refuses_a_state_without_voters(
        voterless_run, capsys, grouping):
    # calibration refuses the state before any grouping sums it, so no
    # grouping writes NaN estimates
    fitcfg, rec = voterless_run
    assert main(["poststratify", "--config", fitcfg, "--grouping", grouping,
                 "--recorded", rec]) == 2
    assert "state S02 has zero total voter weight" in capsys.readouterr().err


def test_poststratify_names_a_voterless_state_group_by_label(voterless_run,
                                                            capsys):
    fitcfg, _ = voterless_run
    assert main(["poststratify", "--config", fitcfg]) == 2
    assert "group {'state': 'S02'} has zero total voter weight" in \
        capsys.readouterr().err


@pytest.mark.parametrize("name,row,line", [("cells.csv", 3, "S01,2"),
                                           ("states.csv", 2, "S01,0.1")])
def test_fit_short_row_names_file_and_row(tmp_path, capsys, name, row, line):
    simcfg, datadir = _sim_config(tmp_path)
    assert main(["simulate", "--config", simcfg]) == 0
    path = datadir / name
    lines = path.read_text().splitlines()
    lines[row - 1] = line
    path.write_text("\n".join(lines) + "\n")
    outdir = tmp_path / "run"
    assert main(["fit", "--config", _fit_config(tmp_path, datadir,
                                                outdir)]) == 2
    assert f"{name}: row {row}: expected 4 fields, got 2" \
        in capsys.readouterr().err
    assert not outdir.exists()


def test_fit_refuses_a_region_without_states(tmp_path, capsys):
    # regions 1, 2, 4: region 3's indicator column in W would be all zeros,
    # its coefficient held by the prior alone (or by nothing, under the
    # uniform prior), and the fit blamed on convergence
    simcfg, datadir = _sim_config(tmp_path)
    assert main(["simulate", "--config", simcfg]) == 0
    path = datadir / "states.csv"
    lines = path.read_text().splitlines()
    assert lines[3].startswith("S03,") and lines[3].endswith(",3")
    lines[3] = lines[3][:-1] + "1"
    path.write_text("\n".join(lines) + "\n")
    outdir = tmp_path / "run"
    assert main(["fit", "--config", _fit_config(tmp_path, datadir,
                                                outdir)]) == 2
    assert "states.csv: no state in region 3" in capsys.readouterr().err
    assert not outdir.exists()


def _refit_copy(fitted_run, tmp_path):
    """Copies of the fitted run's inputs and fit artifacts, and a config
    that points at them."""
    _, _, datadir, outdir = fitted_run
    data, run = tmp_path / "data", tmp_path / "run"
    shutil.copytree(datadir, data)
    shutil.copytree(outdir, run, ignore=shutil.ignore_patterns(
        "estimates_*", "diagnostics.csv"))
    return data, run, _fit_config(tmp_path, data, run)


@pytest.mark.parametrize("problem", [
    "recorded missing", "recorded a directory", "states a directory",
    "no draws.bin", "no draws.json"])
def test_unreadable_input_is_an_input_error(fitted_run, tmp_path, capsys,
                                            problem):
    data, run, cfg = _refit_copy(fitted_run, tmp_path)
    argv = ["poststratify", "--config", cfg]
    if problem.startswith("recorded"):
        path = tmp_path / ("missing.csv" if problem.endswith("missing")
                           else "data")
        argv += ["--recorded", str(path)]
    elif problem == "states a directory":
        path = data / "states.csv"
        path.unlink()
        path.mkdir()
        argv[0] = "fit"
    else:
        path = run / problem.split()[1]
        path.unlink()
    assert main(argv) == 2
    assert f"error: {path}: cannot be read" in capsys.readouterr().err


@pytest.mark.parametrize("command,name", [
    (["poststratify", "--grouping", "state"], "cells"),
    (["poststratify", "--grouping", "state"], "states"),
    (["diagnose"], "survey"), (["diagnose"], "cells")])
def test_reporting_refuses_inputs_edited_after_fit(fitted_run, tmp_path,
                                                   capsys, command, name):
    data, run, cfg = _refit_copy(fitted_run, tmp_path)
    path = data / f"{name}.csv"
    lines = path.read_text().splitlines()
    lines[1], lines[2] = lines[2], lines[1]  # same rows, other bytes
    path.write_text("\n".join(lines) + "\n")
    assert main([command[0], "--config", cfg] + command[1:]) == 2
    err = capsys.readouterr().err
    assert f"{name} file {path} differs" in err
    assert str(run / "manifest.json") in err
    assert not list(run.glob("estimates_*")) and \
        not (run / "diagnostics.csv").exists()


@pytest.mark.parametrize("command", [["poststratify"], ["diagnose"]])
def test_reporting_needs_manifest(fitted_run, tmp_path, capsys, command):
    _, run, cfg = _refit_copy(fitted_run, tmp_path)
    (run / "manifest.json").unlink()
    assert main([command[0], "--config", cfg]) == 2
    assert f"{run / 'manifest.json'} not found" in capsys.readouterr().err


_BAD_HEADERS = {  # problem: (edit of the parsed draws.json, text of error)
    "no n_params": (lambda h: h.pop("n_params"), "n_params"),
    "no n_draws": (lambda h: h.pop("n_draws"), "n_draws"),
    "text n_draws": (lambda h: h.update(n_draws=str(h["n_draws"])),
                     "n_draws"),
    "uneven n_chains": (lambda h: h.update(n_chains=h["n_draws"] + 1),
                        "n_chains"),
    "no n_chains": (lambda h: h.pop("n_chains"), "n_chains"),
    "no blocks": (lambda h: h.pop("blocks"), "blocks"),
    "null blocks": (lambda h: h.update(blocks=None), "blocks"),
    "not JSON": (None, "not a draws header"),
    "big-endian float32": (lambda h: h.update(dtype="float32_be"),
                           "float32_be"),
    "Fortran order": (lambda h: h.update(order="F"), "'F'"),
}


@pytest.mark.parametrize("command", ["poststratify", "diagnose"])
@pytest.mark.parametrize("problem", list(_BAD_HEADERS))
def test_reporting_refuses_a_bad_draws_header(fitted_run, tmp_path, capsys,
                                              command, problem):
    _, run, cfg = _refit_copy(fitted_run, tmp_path)
    path = run / "draws.json"
    edit, named = _BAD_HEADERS[problem]
    if edit is None:
        path.write_text(path.read_text()[:-20])
    else:
        header = json.loads(path.read_text())
        edit(header)
        path.write_text(json.dumps(header))
    assert main([command, "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert f"error: {path}: " in err and named in err


@pytest.mark.parametrize("command", ["poststratify", "diagnose"])
@pytest.mark.parametrize("problem", ["one inserted byte", "one byte cut"])
def test_reporting_refuses_a_draws_bin_of_the_wrong_size(
        fitted_run, tmp_path, capsys, command, problem):
    # np.fromfile drops a trailing partial value, so only the byte count
    # tells an inserted byte
    _, run, cfg = _refit_copy(fitted_run, tmp_path)
    path = run / "draws.bin"
    raw = path.read_bytes()
    size = len(raw)
    inserted = problem == "one inserted byte"
    path.write_bytes(raw[:8] + b"\0" + raw[8:] if inserted else raw[:-1])
    assert main([command, "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert f"error: {path}: expected {size} bytes" in err
    assert not list(run.glob("estimates_*")) and \
        not (run / "diagnostics.csv").exists()


def test_interrupted_refit_leaves_no_usable_run(fitted_run, tmp_path, capsys,
                                                monkeypatch):
    data, run, cfg = _refit_copy(fitted_run, tmp_path)
    assert main(["poststratify", "--config", cfg]) == 0
    kept = _sha(run / "estimates_state.csv")
    old_draws = _sha(run / "draws.bin")
    real = cli.write_json

    def failing(path, obj):
        if os.path.basename(path).startswith("diagnostics.json"):
            raise OSError("disk full")
        real(path, obj)

    monkeypatch.setattr(cli, "write_json", failing)
    refit = _fit_config(tmp_path, data, run, seed=8)
    assert main(["fit", "--config", refit]) == 4
    monkeypatch.undo()
    assert _sha(run / "draws.bin") != old_draws  # new draws, old diagnostics
    assert not list(run.glob("*.tmp"))
    capsys.readouterr()
    assert main(["poststratify", "--config", refit]) == 2
    assert "run mrp fit first" in capsys.readouterr().err
    assert _sha(run / "estimates_state.csv") == kept


_PRINT_SCIPY = ("print(sorted(m for m in sys.modules "
                "if m.startswith('scipy')))\n")


def _run_python(code):
    """Standard output lines of a fresh interpreter running ``code``."""
    return subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, check=True).stdout.splitlines()


def test_import_loads_no_scipy():
    # the benchmark's wrappers need every mrpkit module that the CLI uses to
    # be loaded, and loading them loads no scipy
    out = _run_python(
        "import sys, mrpkit, mrpkit.cli, mrpkit.sbc\n" + _PRINT_SCIPY
        + "print(all(m in sys.modules for m in ('mrpkit.model', "
        "'mrpkit.samplers', 'mrpkit.poststrat', 'mrpkit.diagnostics')))\n")
    assert out == ["[]", "True"]


def test_benchmark_hooks_resolve():
    # perfbench/instrument.py resolves every TARGETS name in each benchmark
    # run, traced or not, so a name deleted here fails every operation
    import mrpkit.sbc  # noqa: F401
    import mrpkit.synthetic  # noqa: F401
    path = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench",
                        "instrument.py")
    spec = importlib.util.spec_from_file_location("perfbench_instrument",
                                                  path)
    instrument = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(instrument)
    for module, attr, _, _ in instrument.TARGETS:
        owner, leaf = instrument._resolve(module, attr)
        assert callable(getattr(owner, leaf, None)), f"{module}.{attr}"


def _launch(tmp_path, *args):
    """Result dict of ``perfbench/launch.py --result <tmp> ARGS...`` run
    on this checkout's sources; asserts that it exits 0."""
    root = os.path.join(os.path.dirname(__file__), os.pardir)
    result = tmp_path / "result.json"
    proc = subprocess.run(
        [sys.executable, os.path.join(root, "perfbench", "launch.py"),
         "--result", str(result), *args],
        env=dict(os.environ, PYTHONPATH=os.path.join(root, "src")),
        capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    out = json.loads(result.read_text())
    assert out["exit"] == 0
    return out


@pytest.mark.parametrize("command,spans", [
    (["poststratify", "--grouping", "state"], ["poststrat.predict_cells"]),
    (["diagnose"], ["poststrat.predict_cells", "data.load_dataset"])],
    ids=["poststratify", "diagnose"])
def test_benchmark_traced_cli_runs(fitted_run, tmp_path, command, spans):
    # a traced run calls each TARGETS size_of on the call's result, so a
    # changed return type fails only there
    _, _, cfg = _refit_copy(fitted_run, tmp_path)
    trace = tmp_path / "spans.npz"
    _launch(tmp_path, "--trace", str(trace), "cli", "--", command[0],
            "--config", cfg, *command[1:])
    with np.load(trace) as z:
        names = [str(n) for n in z["names"]]
        for span in spans:
            size = z["size"][z["name_id"] == names.index(span)]
            assert len(size) == 1 and size[0] > 0, span


def test_benchmark_sbc_launcher_runs(tmp_path):
    # perfbench/launch.py calls make_cells, run_sbc and the draws' fields
    # directly, so a change there fails every sbc-m1 operation
    out = _launch(tmp_path, "sbc", "1", "1", "2", "--smoke")
    fits = out["rounds"][0]["fits"]
    assert out["grad_calls"] > 0
    assert len(fits) == 2 and all(f["finite"] for f in fits)


def test_reporting_commands_load_no_scipy(fitted_run, tmp_path):
    data, run, cfg = _refit_copy(fitted_run, tmp_path)
    simcfg, _ = _sim_config(tmp_path)
    rec = _recorded(tmp_path / "rec.csv", load_states(data / "states.csv"))
    argvs = [["simulate", "--config", simcfg],
             ["poststratify", "--config", cfg, "--grouping", "state",
              "--recorded", rec],
             ["poststratify", "--config", cfg, "--grouping", "income",
              "--export-draws"],
             ["diagnose", "--config", cfg]]
    out = _run_python("import sys\nfrom mrpkit.cli import main\n"
                      f"print([main(a) for a in {argvs!r}])\n" + _PRINT_SCIPY)
    assert out[-2:] == ["[0, 0, 0, 0]", "[]"]  # after the commands' output
    assert (run / "estimates_income_draws.csv").exists()
    assert (run / "diagnostics.csv").exists()


def test_fit_loads_no_scipy(fitted_run, tmp_path):
    # the gradient's expit and initial_point's Newton steps are numpy, so a
    # whole fit, poststratify and diagnose round loads no scipy module, and
    # neither does an SBC replication
    _, _, cfg = _refit_copy(fitted_run, tmp_path)
    argvs = [["fit", "--config", cfg],
             ["poststratify", "--config", cfg, "--grouping", "state"],
             ["diagnose", "--config", cfg]]
    out = _run_python("import sys\nfrom mrpkit.cli import main\n"
                      f"print([main(a) for a in {argvs!r}])\n"
                      + _PRINT_SCIPY)
    codes = ast.literal_eval(out[-2])
    assert codes[0] in (0, 3) and codes[1:] == [0, 0]  # 3: short chains
    assert out[-1] == "[]"
    out = _run_python(
        "import sys\nfrom mrpkit.sbc import run_sbc\n"
        "from mrpkit.synthetic import Scenario\n"
        "ranks, _ = run_sbc(Scenario(S=5, n=200, seed=1), reps=1, "
        "warmup=50, iters=40)\n"
        "print(ranks.shape)\n" + _PRINT_SCIPY)
    assert out[-2:] == ["(1, 13)", "[]"]


def test_diagnose_table(fitted_run):
    _, fitcfg, datadir, outdir = fitted_run
    assert main(["diagnose", "--config", fitcfg]) == 0
    with open(outdir / "diagnostics.csv", newline="") as f:
        rows = list(csv.DictReader(f))
    assert len(rows) == 30
    assert list(rows[0]) == ["state", "income", "n_respondents", "raw_mean",
                             "raw_se", "model_mean", "model_sd"]
    # raw columns recompute from the survey file; model columns always set
    with open(datadir / "survey.csv", newline="") as f:
        sv = list(csv.DictReader(f))
    counts = {}
    for r in sv:
        key = (r["state"], r["income"])
        n, k = counts.get(key, (0, 0))
        counts[key] = (n + 1, k + int(r["vote"]))
    for r in rows:
        assert r["model_mean"] != ""
        n, k = counts.get((r["state"], r["income"]), (0, 0))
        assert int(r["n_respondents"]) == n
        if n == 0:
            assert r["raw_mean"] == "" and r["raw_se"] == ""
        else:
            p = k / n
            assert abs(float(r["raw_mean"]) - p) < 1e-12
            assert abs(float(r["raw_se"])
                       - np.sqrt(p * (1 - p) / n)) < 1e-12
    # rows ordered by decreasing state-level posterior mean
    state_order = [r["state"] for r in rows[::5]]
    assert len(set(state_order)) == 6


def test_diagnose_sums_over_ethnicity(tmp_path):
    sc = Scenario(S=4, rung="M1", n=600, seed=5, use_ethnicity=True)
    datadir = tmp_path / "sim"
    write_scenario_files(sc, datadir)
    outdir = tmp_path / "run"
    cfg = _fit_config(tmp_path, datadir, outdir, warmup=100, iters=100,
                      model="use_ethnicity = true\n")
    assert main(["fit", "--config", cfg]) in (0, 3)
    assert main(["diagnose", "--config", cfg]) == 0
    with open(outdir / "diagnostics.csv", newline="") as f:
        rows = list(csv.DictReader(f))
    with open(datadir / "survey.csv", newline="") as f:
        sv = list(csv.DictReader(f))
    assert len(rows) == 20 and "ethnicity" in sv[0]
    for r in rows:
        votes = [int(v["vote"]) for v in sv
                 if (v["state"], v["income"]) == (r["state"], r["income"])]
        assert int(r["n_respondents"]) == len(votes)
        if votes:
            assert float(r["raw_mean"]) == sum(votes) / len(votes)


def test_shuffled_survey_rows_give_equal_poll_and_draws(fitted_run,
                                                        tmp_path):
    # the likelihood sees a poll only through its counts per cell, so the
    # order of survey.csv's rows changes neither the loaded Survey nor the
    # draws of a fit
    _, _, datadir, _ = fitted_run
    lines = (datadir / "survey.csv").read_text(encoding="utf-8").splitlines(
        keepends=True)
    rows = lines[1:] + ["S01,1,\n", "S02,5,\n"]  # two with an empty vote
    shuffled = list(rows)
    np.random.default_rng(0).shuffle(shuffled)
    assert shuffled != rows
    states = load_states(datadir / "states.csv")
    surveys, draws = [], []
    for name, body in (("ordered", rows), ("shuffled", shuffled)):
        data = tmp_path / name
        shutil.copytree(datadir, data)
        (data / "survey.csv").write_text("".join(lines[:1] + body),
                                         encoding="utf-8")
        cfg = _fit_config(tmp_path, data, tmp_path / f"run_{name}")
        with pytest.warns(UserWarning, match="dropped 2 row"):
            surveys.append(load_survey(data / "survey.csv", ModelSpec("M1"),
                                       states))
            assert main(["fit", "--config", cfg]) in (0, 3)
        draws.append((tmp_path / f"run_{name}" / "draws.bin").read_bytes())
    a, b = surveys
    assert np.array_equal(a.n, b.n) and np.array_equal(a.k, b.k)
    assert a.n_dropped == b.n_dropped == 2 and len(a) == len(lines) - 1
    assert draws[0] == draws[1]


def test_diagnose_raw_se_closed_form(tmp_path):
    # a cell with 10 Republican votes of 40 reports raw SE ~ 0.0685
    p = 0.25
    se = float(np.sqrt(p * (1 - p) / 40))
    assert abs(se - 0.0685) < 5e-4


def test_diagnose_excludes_ak_hi_dc(tmp_path):
    sc = Scenario(S=6, rung="M1", n=800, seed=3)
    datadir = tmp_path / "sim"
    write_scenario_files(sc, datadir)
    # relabel three states to the excluded set
    text = (datadir / "states.csv").read_text()
    text = text.replace("S01", "AK").replace("S02", "HI").replace("S03", "DC")
    (datadir / "states.csv").write_text(text)
    sv = (datadir / "survey.csv").read_text()
    sv = sv.replace("S01", "AK").replace("S02", "HI").replace("S03", "DC")
    (datadir / "survey.csv").write_text(sv)
    cl = (datadir / "cells.csv").read_text()
    cl = cl.replace("S01", "AK").replace("S02", "HI").replace("S03", "DC")
    (datadir / "cells.csv").write_text(cl)

    outdir = tmp_path / "run"
    cfg = _fit_config(tmp_path, datadir, outdir, warmup=100, iters=100,
                      extra="[report]\nexclude_ak_hi_dc = true\n")
    assert main(["fit", "--config", cfg]) in (0, 3)
    assert main(["diagnose", "--config", cfg]) == 0
    with open(outdir / "diagnostics.csv", newline="") as f:
        rows = list(csv.DictReader(f))
    labels = {r["state"] for r in rows}
    assert labels.isdisjoint({"AK", "HI", "DC"})
    assert len(rows) == 15  # 3 remaining states x 5 incomes
