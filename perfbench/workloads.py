"""The benchmark's three workloads.

Each workload function takes (runner, seed, seconds, smoke) and returns a
dict with the operation counts, any check errors, set-up times, one record
per round (wall, fit and peak RSS), one record per fit (gradient count and
sampler statistics) and, on a traced run, the per-layer metrics.

An operation is one program command or one SBC replication.  It fails when
it exits non-zero, or when its output fails a check; a failed check also
makes the run incorrect.
"""

from __future__ import annotations

import json
import os

import numpy as np

import instrument
import layers
import reference as ref
from launch import ETH_COEFS

REDBLUE_ROUND_S = 10.5   # fit at CLI defaults + 3 reporting commands
REPORT_ROUND_S = 19.0    # fit + 5 reporting commands at 300k respondents
SBC_ROUND_S = 5.0        # 10 replications
SBC_REPS = 10
SETUP_REPEATS = 5
# seed of the simulated world of both CLI workloads (the CLI's default)
WORLD_SEED = 0
# family-wise false-alarm rate of the SBC rank test over all parameters
SBC_ALPHA = 1e-4


class SetupError(RuntimeError):
    pass


class Tally:
    """Operation counts and check outcomes of one run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.check_failed = False
        self.errors: list[str] = []

    def op(self, label, proc, ok_codes=(0,), check=None) -> bool:
        self.attempted += 1
        if proc.code not in ok_codes:
            self.failed += 1
            self.errors.append(f"{label}: exit code {proc.code}")
            return False
        try:
            errors = check() if check is not None else []
        except (OSError, ValueError, KeyError, IndexError) as err:
            errors = [f"output unreadable: {err!r}"]
        if errors:
            self.failed += 1
            self.check_failed = True
            self.errors += [f"{label}: {e}" for e in errors]
            return False
        return True

    def result(self, **more) -> dict:
        return {"attempted": self.attempted, "failed": self.failed,
                "check_failed": self.check_failed, "errors": self.errors,
                **more}


class Round:
    """Wall time, fit time, peak RSS and span files of one round."""

    def __init__(self):
        self.wall_s = 0.0
        self.fit_s = 0.0
        self.rss_mb = 0.0
        self.spans: list[str] = []

    def add(self, proc, fit=False):
        self.wall_s += proc.seconds
        if fit:
            self.fit_s += proc.seconds
        self.rss_mb = max(self.rss_mb, proc.rss_mb)
        if proc.spans_path and os.path.exists(proc.spans_path):
            self.spans.append(proc.spans_path)
        return proc

    def record(self) -> dict:
        return {"wall_s": self.wall_s, "fit_s": self.fit_s,
                "rss_mb": self.rss_mb}


class SetUp:
    """SETUP_REPEATS timed runs of a CLI workload's set-up process.  The
    first writes the inputs; the others write a spare copy between the
    rounds, so that their median samples the host's speed over the whole
    run rather than over its first seconds."""

    def __init__(self, runner, args, n_rounds):
        self.runner = runner
        self.args = args  # args(outdir) -> launch.py arguments
        # repeats before round r; slot n_rounds is after the last round
        self.slots = [0] * (n_rounds + 1)
        for k in range(SETUP_REPEATS):
            self.slots[k * (n_rounds + 1) // SETUP_REPEATS] += 1
        self.seconds: list[float] = []
        self.spans: list[str] = []

    def before(self, r):
        for _ in range(self.slots[r]):
            p = self.runner.run(self.args("spare" if self.seconds else "data"))
            if p.code != 0:
                raise SetupError(f"set-up exited {p.code}: "
                                 f"{self.runner.log_tail()}")
            self.seconds.append(p.seconds)
            self.spans += [p.spans_path] if p.spans_path else []


def _write_ini(path, sections):
    with open(path, "w", encoding="utf-8") as f:
        for name, keys in sections.items():
            f.write(f"[{name}]\n")
            for k, v in keys.items():
                f.write(f"{k} = {v}\n")
            f.write("\n")


def _totals(paths) -> dict:
    return instrument.merge_totals(
        instrument.span_totals(instrument.load_spans(p)) for p in paths)


def _cli(runner, *argv):
    return runner.run(["cli", "--", *argv])


def _recorded_shares(truth_path, cells, labels, rng) -> np.ndarray:
    """True state shares under the cell weights, plus N(0, 0.02) noise: the
    'recorded' totals the state estimates are calibrated to."""
    theta = np.array(ref.read_csv(truth_path)["theta"], dtype=float)
    _, true_share, _ = ref.poststratify(theta[None, :], cells["weight"],
                                        cells["state"][:, None])
    noisy = true_share[0] + 0.02 * rng.standard_normal(len(labels))
    return np.clip(noisy, 0.02, 0.98)


def _write_recorded(path, labels, shares):
    with open(path, "w", encoding="utf-8") as f:
        f.write("state,rep_share\n")
        for lab, x in zip(labels, shares):
            f.write(f"{lab},{float(x)!r}\n")


def _fit_record(run_dir, proc) -> dict:
    with open(os.path.join(run_dir, "diagnostics.json"),
              encoding="utf-8") as f:
        diag = json.load(f)
    with open(os.path.join(run_dir, "manifest.json"), encoding="utf-8") as f:
        n_draws = json.load(f)["n_draws"]
    ess = np.asarray(diag["ess"], dtype=float)
    return {"grads": proc.result["grad_calls"], "draws": n_draws,
            "min_ess": float(np.min(ess)), "median_ess": float(np.median(ess)),
            "max_rhat": float(np.max(diag["rhat"])),
            "divergent": int(diag["divergent"])}


# ---------------------------------------------------------------------------
# checks shared by the CLI workloads

class Inputs:
    """The benchmark's own reading of one dataset directory."""

    def __init__(self, data_dir):
        self.states = ref.read_states(os.path.join(data_dir, "states.csv"))
        self.labels = self.states["labels"]
        self.cells = ref.read_cells(os.path.join(data_dir, "cells.csv"),
                                    self.labels)
        self.raw = ref.raw_table(os.path.join(data_dir, "survey.csv"),
                                 self.labels)


class Posterior:
    """Reference cell probabilities from one run directory's draws."""

    def __init__(self, run_dir, inputs: Inputs):
        self.blocks = ref.read_draws(run_dir)
        self.theta = ref.expit(ref.cell_eta(self.blocks, inputs.cells))
        self.inputs = inputs

    def groups(self, dims):
        keys = ref.group_keys(self.inputs.cells, self.inputs.states, dims)
        return ref.poststratify(self.theta, self.inputs.cells["weight"], keys)

    def compare(self, path, dims, **tol) -> list[str]:
        keys, groups, weight = self.groups(dims)
        return ref.compare_estimates(path, keys, groups, weight, dims,
                                     self.inputs.labels, **tol)


def check_finite(blocks) -> list[str]:
    bad = [k for k, v in blocks.items() if not np.all(np.isfinite(v))]
    return [f"non-finite draws in {bad}"] if bad else []


def check_calibrated(path, inputs: Inputs, recorded) -> list[str]:
    """A state grouping calibrated per draw: every summary equals the
    recorded share, and the weights are the reference state weights."""
    t = ref.read_csv(path)
    if t["state_label"] != inputs.labels:
        return [f"{os.path.basename(path)}: states differ from states.csv"]
    errors = []
    for col in ("mean", "q05", "q50", "q95"):
        got = np.array(t[col], dtype=float)
        if not np.allclose(got, recorded, rtol=0, atol=1e-8):
            k = int(np.argmax(np.abs(got - recorded)))
            errors.append(f"calibrated {col} of {inputs.labels[k]} is "
                          f"{float(got[k])!r}, recorded "
                          f"{float(recorded[k])!r}")
    _, _, weight = ref.poststratify(np.zeros((1, len(inputs.cells["state"]))),
                                    inputs.cells["weight"],
                                    inputs.cells["state"][:, None])
    if not np.allclose(np.array(t["weight"], dtype=float), weight, rtol=1e-12):
        errors.append("state weights differ from the cell table's")
    return errors


def check_diagnose(path, post: Posterior) -> list[str]:
    """n_respondents and raw_mean against the benchmark's group-by of
    survey.csv; model_mean against the reference state x income means."""
    t = ref.read_csv(path)
    raw = post.inputs.raw
    labels = post.inputs.labels
    keys, groups, _ = post.groups(("state", "income"))
    model = {(labels[s - 1], i): m for (s, i), m in zip(keys, groups.mean(0))}
    errors = []
    seen = set()
    for st, inc, n, rm, mm in zip(t["state"], t["income"], t["n_respondents"],
                                  t["raw_mean"], t["model_mean"]):
        key = (st, int(inc))
        seen.add(key)
        want_n, want_k = raw.get(key, (0, 0))
        want_mean = want_k / want_n if want_n else None
        got_mean = float(rm) if rm else None
        if int(n) != want_n or got_mean != want_mean:
            errors.append(f"raw cell {key}: got n={n} mean={rm!r}, survey has "
                          f"n={want_n} mean={want_mean!r}")
        if not np.isclose(float(mm), model[key], rtol=1e-9, atol=0):
            errors.append(f"model_mean of {key} is {mm}, reference "
                          f"{model[key]!r}")
    if seen != set(model):
        errors.append("diagnostics.csv does not list every state x income "
                      "cell")
    return errors[:5]


# ---------------------------------------------------------------------------
# redblue-cli

def redblue_cli(runner, seed, seconds, smoke):
    """`mrp simulate` kind=redblue (the paper's world), then per round
    `mrp fit` at the CLI defaults, `poststratify` by state calibrated to
    recorded shares, `poststratify` by income and `diagnose`, each a fresh
    process.  The world and the sampler seeds (1, 2, ...) are fixed (see
    README.md); --seed picks the recorded shares."""
    S, n = (10, 3000) if smoke else (50, 30000)
    n_rounds = 1 if smoke else _rounds(seconds, REDBLUE_ROUND_S)
    wd = runner.workdir
    for outdir in ("data", "spare"):
        _write_ini(os.path.join(wd, f"sim_{outdir}.ini"), {"scenario": {
            "kind": "redblue", "S": S, "n": n, "seed": WORLD_SEED,
            "outdir": outdir}})
    setup = SetUp(runner, lambda outdir: [
        "cli", "--", "simulate", "--config", f"sim_{outdir}.ini"], n_rounds)
    setup.before(0)

    inputs = Inputs(os.path.join(wd, "data"))
    truth = os.path.join(wd, "data", "truth.csv")
    slopes = ref.true_slopes(truth, inputs.labels)
    recorded = _recorded_shares(truth, inputs.cells, inputs.labels,
                                np.random.default_rng([seed, 1]))
    _write_recorded(os.path.join(wd, "rec.csv"), inputs.labels, recorded)
    ok = (0, 3) if smoke else (0,)
    tally, rounds, fits = Tally(), [], []
    for r in range(n_rounds):
        if r:
            setup.before(r)
        rd = Round()
        run_dir = os.path.join(wd, f"run{r}")
        ini = f"run{r}.ini"
        sampler = {"seed": r + 1}
        if smoke:
            sampler.update(chains=2, warmup=150, iters=150)
        _write_ini(os.path.join(wd, ini), {
            "data": {k: f"data/{k}.csv"
                     for k in ("survey", "cells", "states")},
            "model": {"rung": "M2"}, "sampler": sampler,
            "output": {"dir": f"run{r}"}})

        def check_fit():
            d = ref.read_draws(run_dir)
            errors = check_finite(d)
            if smoke or errors:
                return errors
            est = (d["beta"][:, :1] + d["slope"]).mean(axis=0)
            c_true = np.corrcoef(est, slopes)[0, 1]
            c_inc = np.corrcoef(est, inputs.states["avg_income"])[0, 1]
            if c_true < 0.8:
                errors.append(f"state slopes correlate {c_true:.3f} with the "
                              f"true slopes (< 0.8)")
            if c_inc >= 0:
                errors.append(f"state slopes correlate {c_inc:+.3f} with state"
                              f" income (should be negative)")
            return errors

        fit = rd.add(_cli(runner, "fit", "--config", ini), fit=True)
        if tally.op("fit", fit, ok, check_fit):
            fits.append(_fit_record(run_dir, fit))
        post = None

        def posterior():
            nonlocal post
            post = post or Posterior(run_dir, inputs)
            return post

        p = rd.add(_cli(runner, "poststratify", "--config", ini, "--grouping",
                        "state", "--recorded", "rec.csv"))
        tally.op("poststratify state --recorded", p, check=lambda: (
            check_calibrated(os.path.join(run_dir, "estimates_state.csv"),
                             inputs, recorded)))

        def check_income():
            path = os.path.join(run_dir, "estimates_income.csv")
            errors = posterior().compare(path, ("income",))
            mean = np.array(ref.read_csv(path)["mean"], dtype=float)
            gap = mean[-1] - mean[0]
            if not smoke and abs(gap - 0.20) > 0.03:
                errors.append(f"national top-minus-bottom income gap {gap:.3f}"
                              f" is not within 0.03 of 0.20")
            return errors

        p = rd.add(_cli(runner, "poststratify", "--config", ini, "--grouping",
                        "income"))
        tally.op("poststratify income", p, check=check_income)
        p = rd.add(_cli(runner, "diagnose", "--config", ini))
        tally.op("diagnose", p, check=lambda: check_diagnose(
            os.path.join(run_dir, "diagnostics.csv"), posterior()))
        rounds.append(rd)
    setup.before(n_rounds)
    return _finish(runner, tally, setup, rounds, fits)


# ---------------------------------------------------------------------------
# report-300k

def report_300k(runner, seed, seconds, smoke):
    """A world of M2 with ethnicity at n=300,000 written by
    `synthetic.write_scenario_files`, then per round one short `mrp fit` and
    the reporting commands: poststratify by state (calibrated), by state x
    income x ethnicity, by region and nationally (exporting draws), and
    `diagnose`.  The world and the fit are fixed (see README.md); --seed
    picks the recorded shares."""
    n_rounds = 1 if smoke else _rounds(seconds, REPORT_ROUND_S)
    wd = runner.workdir
    setup = SetUp(runner, lambda outdir: (
        ["scenario", outdir, str(WORLD_SEED)] + (["--smoke"] if smoke else [])),
        n_rounds)
    setup.before(0)

    inputs = Inputs(os.path.join(wd, "data"))
    recorded = _recorded_shares(os.path.join(wd, "data", "truth.csv"),
                                inputs.cells, inputs.labels,
                                np.random.default_rng([seed, 2]))
    _write_recorded(os.path.join(wd, "rec.csv"), inputs.labels, recorded)
    ok = (0, 3) if smoke else (0,)
    sampler = ({"chains": 2, "warmup": 100, "iters": 100} if smoke else
               {"chains": 4, "warmup": 200, "iters": 1000})
    tally, rounds, fits = Tally(), [], []
    for r in range(n_rounds):
        if r:
            setup.before(r)
        rd = Round()
        run_dir = os.path.join(wd, f"run{r}")
        ini = f"run{r}.ini"
        _write_ini(os.path.join(wd, ini), {
            "data": {k: f"data/{k}.csv" for k in ("survey", "cells",
                                                    "states")},
            "model": {"rung": "M2", "use_ethnicity": "true"},
            "sampler": {**sampler, "seed": r + 1},
            "output": {"dir": f"run{r}"}})

        def check_fit():
            d = ref.read_draws(run_dir)
            errors = check_finite(d)
            if smoke or errors:
                return errors
            eth = d["beta"][:, 1:]
            z = (eth.mean(axis=0) - np.array(ETH_COEFS)) / eth.std(axis=0)
            if np.any(np.abs(z) > 4):
                errors.append(f"ethnicity coefficients {eth.mean(0).round(3)}"
                              f" are more than 4 posterior sd from the truth "
                              f"{ETH_COEFS}")
            return errors

        fit = rd.add(_cli(runner, "fit", "--config", ini), fit=True)
        if tally.op("fit", fit, ok, check_fit):
            fits.append(_fit_record(run_dir, fit))
        post = None

        def posterior():
            nonlocal post
            post = post or Posterior(run_dir, inputs)
            return post

        def estimates(name):
            return os.path.join(run_dir, f"estimates_{name}.csv")

        def check_national():
            errors = posterior().compare(estimates("national"), ())
            per_draw = np.loadtxt(estimates("national_draws"), delimiter=",",
                                  skiprows=1, ndmin=1)
            _, by_state, weight = posterior().groups(("state",))
            want = by_state @ weight / weight.sum()
            if not np.allclose(per_draw, want, rtol=1e-9, atol=0):
                errors.append("exported national draws differ from the "
                              "weighted mean of the state draws")
            return errors

        p = rd.add(_cli(runner, "poststratify", "--config", ini, "--grouping",
                        "state", "--recorded", "rec.csv"))
        tally.op("poststratify state --recorded", p, check=lambda: (
            check_calibrated(estimates("state"), inputs, recorded)))
        p = rd.add(_cli(runner, "poststratify", "--config", ini, "--grouping",
                        "state,income,ethnicity"))
        tally.op("poststratify state,income,ethnicity", p,
                 check=lambda: posterior().compare(
                     estimates("state_income_ethnicity"),
                     ("state", "income", "ethnicity")))
        p = rd.add(_cli(runner, "poststratify", "--config", ini, "--grouping",
                        "region"))
        tally.op("poststratify region", p, check=lambda: posterior().compare(
            estimates("region"), ("region",)))
        p = rd.add(_cli(runner, "poststratify", "--config", ini, "--grouping",
                        "", "--export-draws"))
        tally.op("poststratify national --export-draws", p,
                 check=check_national)
        p = rd.add(_cli(runner, "diagnose", "--config", ini))
        tally.op("diagnose", p, check=lambda: check_diagnose(
            os.path.join(run_dir, "diagnostics.csv"), posterior()))
        rounds.append(rd)
    setup.before(n_rounds)
    return _finish(runner, tally, setup, rounds, fits)


# ---------------------------------------------------------------------------
# sbc-m1

def sbc_m1(runner, seed, seconds, smoke):
    """`sbc.run_sbc` on criterion 4's world in one program process: rounds
    of SBC_REPS single-chain replications, each round with its own seed."""
    n_rounds = 1 if smoke else _rounds(seconds, SBC_ROUND_S)
    reps = 2 if smoke else SBC_REPS
    flag = ["--smoke"] if smoke else []
    setup = []
    for _ in range(SETUP_REPEATS):
        p = runner.run(["sbc", str(seed), "0", "0"] + flag)
        if p.code != 0 or "ready" not in p.result:
            raise SetupError(f"sbc set-up exited {p.code}: "
                             f"{runner.log_tail()}")
        setup.append(p.result["ready"] - p.started)
    worker = runner.run(["sbc", str(seed), str(n_rounds), str(reps)] + flag)

    tally = Tally()
    out = worker.result
    rounds, fits, ranks, totals = [], [], [], []
    if worker.code != 0 or len(out.get("rounds", ())) != n_rounds:
        # every replication of the run is lost with the worker; as with a
        # command's non-zero exit, no output was checked
        tally.attempted = tally.failed = n_rounds * reps
        tally.errors.append(f"sbc worker exited {worker.code}: "
                            f"{runner.log_tail()}")
        res = tally.result(setup=setup, rounds=rounds, fits=fits)
        if runner.trace:
            res["layers"] = layers.per_layer([], [], {}, fits, worker.rss_mb)
        return res
    spans = (instrument.load_spans(worker.spans_path)
             if worker.spans_path else None)
    for rnd in out["rounds"]:
        for k, fit in enumerate(rnd["fits"]):
            tally.attempted += 1
            if not fit["finite"]:
                tally.failed += 1
                tally.check_failed = True
                tally.errors.append(f"replication {k}: non-finite draws")
        fits += rnd["fits"]
        ranks += rnd["ranks"]
        rounds.append({"wall_s": rnd["wall_s"],
                       "fit_s": sum(f["fit_s"] for f in rnd["fits"]),
                       "rss_mb": worker.rss_mb})
        if spans is not None:
            totals.append(instrument.span_totals(spans, rnd["start"],
                                                 rnd["end"]))
    if not smoke:
        pvals = ref.rank_uniformity_pvalues(ranks, out["n_rank_draws"])
        if np.min(pvals) < SBC_ALPHA / len(pvals):
            tally.failed = tally.attempted
            tally.check_failed = True
            tally.errors.append(f"SBC ranks not uniform: p-values "
                                f"{np.round(pvals, 6).tolist()}")
    res = tally.result(setup=setup, rounds=rounds, fits=fits)
    if runner.trace:
        res["layers"] = layers.per_layer(
            totals, [r["wall_s"] for r in rounds], {}, fits, worker.rss_mb,
            reps=len(fits))
    return res


# ---------------------------------------------------------------------------

def _rounds(seconds, nominal_round_s):
    """Whole rounds that fill about ``seconds`` of measurement; fixed by
    --seconds so that a seed always runs the same operations."""
    return max(1, round(seconds / nominal_round_s))


def _finish(runner, tally, setup: SetUp, rounds, fits) -> dict:
    res = tally.result(setup=setup.seconds,
                       rounds=[r.record() for r in rounds], fits=fits)
    if runner.trace:
        res["layers"] = layers.per_layer(
            [_totals(r.spans) for r in rounds], [r.wall_s for r in rounds],
            _totals(setup.spans), fits, max(r.rss_mb for r in rounds))
    return res


WORKLOADS = {"redblue-cli": redblue_cli, "report-300k": report_300k,
             "sbc-m1": sbc_m1}
