"""Planted-bug catalogue: each entry is a one-statement bug, applied to a
copy of the repository to see whether the tests catch it (mutation
analysis, DeMillo, Lipton & Sayward 1978).

    python3 checks/plant.py                    # every entry
    python3 checks/plant.py ess-tau rhat-w     # the named entries
    python3 checks/plant.py --test tests/test_diagnostics.py

Each run copies the working tree (no .git) to a temporary directory, plants
one bug there and runs the tests with ``pytest -x``: by default the test
suite without the acceptance criteria 3-8 (the slow ones), or the pytest
arguments given after ``--test``; never tests/test_plant.py. The unchanged
copy is run first and must pass (else exit 2). One line per entry says
whether the bug was killed (the tests fail) or survived; the exit status is
0 if every entry run was killed and 1 otherwise, so the catalogue can gate a
change.

The catalogue is not part of the test suite; tests/test_plant.py checks
only that each entry's old text occurs exactly once in its file.
"""

from __future__ import annotations

import argparse
import os
import shutil
import subprocess
import sys
import tempfile
import time
from typing import NamedTuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
FAST = ["tests", "-k", "not (criterion_3 or criterion_4 or criterion_5 "
        "or criterion_6 or criterion_7 or criterion_8)"]
TIMEOUT = 900  # seconds per run; a bug may make a fit run far longer


class Bug(NamedTuple):
    name: str
    file: str      # relative to the repository root
    old: str       # occurs exactly once in the file
    new: str
    breaks: str


CATALOGUE = (
    Bug("m2-log-density-rho", "src/mrpkit/model.py",
        "quad = float((a * a - 2.0 * rho * a * b + b * b).sum())",
        "quad = float((a * a + b * b).sum())",
        "M2 log_posterior drops the intercept-slope correlation term; grad "
        "keeps it"),
    Bug("m2-precision-rho", "src/mrpkit/model.py",
        "off = -rho / (sa * ss)",
        "off = 0.0",
        "initial_point's Newton steps take an M2 location precision without "
        "the intercept-slope correlation term"),
    Bug("beta-prior-grad", "src/mrpkit/model.py",
        "g[self._coefs] += params[self._coefs] / self._neg_cs2",
        "g[self._coefs] += params[self._coefs] / -self.prior.coef_scale",
        "the gradient of the beta and gamma prior divides by cs, not cs^2"),
    Bug("expit-band", "src/mrpkit/model.py",
        "if np.count_nonzero(nx > _CEXP_EXACT_MAX):",
        "if False:",
        "the gradient's expit keeps cexp's rescaled exp where -eta is "
        "between 709 and the overflow"),
    Bug("log-prior-no-slope-mu", "src/mrpkit/model.py",
        "self._coef_idx = np.append(self._coef_idx, self._mu)",
        "pass",
        "the weak prior's coefficient index drops slope_mu, so "
        "log_posterior and the Newton Hessian leave out its prior; grad "
        "keeps it"),
    Bug("hmc-accept-all", "src/mrpkit/samplers.py",
        "if not divergent and rng.uniform() < accept_prob:",
        "if not divergent and rng.uniform() < 1.0:",
        "HMC accepts every proposal that does not diverge"),
    Bug("energy-nan-accepted", "src/mrpkit/samplers.py",
        "if not np.isfinite(energy_err) or energy_err > DIVERGENCE_ENERGY:",
        "if energy_err > DIVERGENCE_ENERGY:",
        "a trajectory whose energy error is NaN counts as accepted with "
        "probability 1, so the step-size search doubles past it"),
    Bug("region-shift", "src/mrpkit/poststrat.py",
        "cols.append(cells.states.region_id[cells.state_id - 1])",
        "cols.append(cells.states.region_id[cells.state_id - 2])",
        "grouping by region takes each cell's region from the state before"),
    Bug("eth-adjoint-shift", "src/mrpkit/design.py",
        "g_beta[1:] += by_eth[1:]",
        "g_beta[1:] += by_eth[:-1]",
        "the ethnicity coefficients' gradient is off by one category"),
    Bug("poll-by-voters", "src/mrpkit/synthetic.py",
        "rng.multinomial(scenario.n, cells.n_adults / cells.n_adults.sum())",
        "rng.multinomial(scenario.n, cells.n_voters / cells.n_voters.sum())",
        "the simulated poll reaches voters, not adults"),
    Bug("prior-rho-ignored", "src/mrpkit/sbc.py",
        "rho * z1 + np.sqrt(1 - rho ** 2) * z2)",
        "z2)",
        "draw_from_prior's M2 slope residual ignores rho"),
    Bug("prior-cat-log-scale", "src/mrpkit/sbc.py",
        'params[layout.sl("cat")] = np.exp(log_sc) * rng.standard_normal(5)',
        'params[layout.sl("cat")] = log_sc * rng.standard_normal(5)',
        "draw_from_prior's M3 offsets take log sigma_cat as their scale"),
    Bug("ess-tau", "src/mrpkit/diagnostics.py",
        "ess = m * n / (1.0 + 2.0 * tau)",
        "ess = m * n / (1.0 + tau)",
        "split ESS drops the factor 2 on the autocorrelation time"),
    Bug("rhat-w", "src/mrpkit/diagnostics.py",
        "var_hat = (n - 1) / n * W + B / n",
        "var_hat = W + B / n",
        "split R-hat uses W in place of (n-1)/n W"),
    Bug("calibrate-state-index", "src/mrpkit/poststrat.py",
        'raise ValueError(f"state {labels[s - 1]} has zero total "',
        'raise ValueError(f"state {s} has zero total "',
        "calibrate_to_totals names a refused state by its 1-based index, "
        "which no input file holds, not by its label in states.csv"),
    Bug("calibrate-bracket-max", "src/mrpkit/poststrat.py",
        "hi = np.where(f > 0, np.minimum(hi, delta), hi)",
        "hi = np.where(f > 0, np.maximum(hi, delta), hi)",
        "calibration widens the bracket's upper end instead of closing it"),
    Bug("calibrate-zero-weight", "src/mrpkit/poststrat.py",
        "if not w.sum() > 0:",
        "if False:",
        "calibrate_to_totals takes a state with zero total voter weight, "
        "whose weights are 0/0, and writes NaN estimates"),
    Bug("draws-header-null-blocks", "src/mrpkit/samplers.py",
        "if blocks != layout.block_dict() or P != layout.n_params:",
        "if blocks is not None and (blocks != layout.block_dict()\n"
        "                               or P != layout.n_params):",
        "load_draws takes a header whose blocks are null, whatever its "
        "n_params, without checking it against the layout"),
    Bug("draws-header-dtype", "src/mrpkit/samplers.py",
        'if (dtype, order) != ("float64_le", "C"):',
        "if False:",
        "load_draws reads draws.bin as little-endian float64 in C order "
        "whatever dtype and order its header names"),
    Bug("sbc-few-iters", "src/mrpkit/sbc.py",
        "if iters < n_rank_draws:",
        "if False:",
        "run_sbc ranks against fewer than n_rank_draws draws when iters "
        "is smaller, so the ranks stop short"),
    Bug("sbc-no-reps", "src/mrpkit/sbc.py",
        "if reps < 1:",
        "if False:",
        "run_sbc runs no replication for reps = 0 and has no ranks to "
        "return"),
    Bug("sbc-ranks-empty", "src/mrpkit/sbc.py",
        "if reps == 0:",
        "if False:",
        "uniformity_pvalues takes an empty rank array and returns a NaN "
        "p-value for every parameter"),
    Bug("sbc-ranks-range", "src/mrpkit/sbc.py",
        "if np.any((ranks < 0) | (ranks > n_rank_draws)):",
        "if False:",
        "uniformity_pvalues bins ranks outside 0..n_rank_draws without a "
        "word"),
    Bug("dense-metric-variance-cap", "src/mrpkit/samplers.py",
        "wc = np.clip(wc, METRIC_FLOOR * wc.max(), None)",
        "wc = np.clip(wc, 1.0 / 100.0, None)",
        "the dense metric clips every eigenvalue below 0.01, so M2's "
        "beta[0] + slope ridge gets a variance of 100 where the posterior "
        "has 650"),
    Bug("warning-highest-ess", "src/mrpkit/samplers.py",
        'j = int(np.argmin(np.nan_to_num(d["ess"], nan=-np.inf)))',
        'j = int(np.argmax(np.nan_to_num(d["ess"], nan=-np.inf)))',
        "the non-convergence warning names the parameter with the highest "
        "ESS, not the lowest"),
    Bug("uniform-prior-slopes", "src/mrpkit/cli.py",
        'if cfg.prior_mode == "uniform" and cfg.spec.varying_slope:',
        "if False:",
        "mrp fit takes the uniform prior with M2 or M3, whose posterior is "
        "flat along beta[0] + c, slope - c, slope_mu - c"),
    Bug("diffuse-metric-inverse", "src/mrpkit/samplers.py",
        "metric = _DiagMetric(np.clip(var, 1e-8, None))",
        "metric = _DiagMetric(1.0 / np.clip(var, 1e-8, None))",
        "the diffuse warmup's diagonal metric holds inverse variances"),
    Bug("initial-scale-e", "src/mrpkit/model.py",
        'x[self._sa] = np.log(max(float(np.std(u)), 1e-2))',
        'x[self._sa] = np.log(max(float(np.std(u)), 1e-2)) + 1.0',
        "initial_point's sigma_alpha update is a factor e too large"),
    Bug("label-index-sorted", "src/mrpkit/data.py",
        "enumerate(self.labels)}",
        "enumerate(sorted(self.labels))}",
        "a state label maps to its place in sorted order, not to its row "
        "in states.csv"),
    Bug("cells-ethnicity-column", "src/mrpkit/data.py",
        'if "ethnicity" in header and not spec.use_ethnicity:',
        "if False:",
        "load_cells reads a cells.csv with an ethnicity column for a model "
        "without ethnicity, and refuses it as a duplicate cell key"),
    Bug("cells-outside-states", "src/mrpkit/data.py",
        "if np.any((self.state_id < 1) | (self.state_id > states.n_states)):",
        "if False:",
        "a cell table takes cells of states that its state table lacks"),
    Bug("survey-repeats-once", "src/mrpkit/data.py",
        "rows = list(split.values())",
        "rows = [1] * len(split)",
        "load_survey counts each distinct line once, however often it "
        "repeats"),
    Bug("survey-quote-unseen", "src/mrpkit/data.py",
        "if (len(index) < reader.line_num",
        "if (len(index) < 0",
        "load_survey counts a line that opens a quote as one record, "
        "with the lines the quote swallows"),
    Bug("survey-eof-quote-unseen", "src/mrpkit/data.py",
        "reader = csv.reader(split, strict=True)",
        "reader = csv.reader(split)",
        "load_survey takes a last distinct line that opens a quote, which "
        "csv.reader closes at the end of the lines, for one good record"),
    Bug("survey-field-count-unseen", "src/mrpkit/data.py",
        "or any(m != len(header) for m, _ in first)",
        "or any(m < 0 for m, _ in first)",
        "load_survey accepts a row whose field count is not the header's"),
    Bug("survey-header-span-unseen", "src/mrpkit/data.py",
        "if head.line_num > 1:  # the header spans lines",
        "if False:  # the header spans lines",
        "load_survey accepts a header that spans lines"),
    Bug("survey-row-after", "src/mrpkit/data.py",
        "parsed.append(parse(key, r))",
        "parsed.append(parse(key, r + 1))",
        "load_survey's row-by-row read names the row after the bad one"),
    Bug("write-survey-no-first", "src/mrpkit/data.py",
        "for vote in (1, 0))\n"
        "    repeats = [1] + np.column_stack([k, n - k])",
        "for vote in (0, 1))\n"
        "    repeats = [1] + np.column_stack([n - k, k])",
        "write_survey writes each cell's Democratic votes first, so "
        "survey.csv changes its bytes"),
)


def plant(tree: str, bug: Bug) -> None:
    """Apply ``bug`` to the copy of the repository at ``tree``."""
    path = os.path.join(tree, bug.file)
    with open(path, encoding="utf-8") as f:
        text = f.read()
    if text.count(bug.old) != 1:
        raise SystemExit(f"{bug.name}: old text occurs "
                         f"{text.count(bug.old)} times in {bug.file}")
    with open(path, "w", encoding="utf-8") as f:
        f.write(text.replace(bug.old, bug.new))


def run_tests(bug: Bug | None, pytest_args) -> tuple[str, float]:
    """(verdict, seconds) of the tests on a fresh copy with ``bug`` planted
    (none if None): passed, failed, timeout or error rc=N."""
    with tempfile.TemporaryDirectory(prefix="plant-") as tmp:
        tree = os.path.join(tmp, "repo")
        shutil.copytree(ROOT, tree, ignore=shutil.ignore_patterns(
            ".git", "__pycache__", ".pytest_cache", "*.pyc", "_work"))
        if bug is not None:
            plant(tree, bug)
        t0 = time.perf_counter()
        try:
            rc = subprocess.run(
                # test_plant.py looks for the old texts a planted tree lacks
                [sys.executable, "-m", "pytest", "-q", "-x",
                 "-p", "no:cacheprovider", "--ignore=tests/test_plant.py",
                 *pytest_args],
                cwd=tree, env=dict(os.environ,
                                   PYTHONPATH=os.path.join(tree, "src")),
                stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
                timeout=TIMEOUT).returncode
        except subprocess.TimeoutExpired:
            return "timeout", time.perf_counter() - t0
        seconds = time.perf_counter() - t0
    # 1: a test failed; 2: collection failed, which the bug also caused
    return {0: "passed", 1: "failed", 2: "failed"}.get(rc, f"error rc={rc}"), \
        seconds


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("names", nargs="*", help="catalogue entries to run "
                    "(default: all)")
    ap.add_argument("--test", nargs=argparse.REMAINDER, default=FAST,
                    help="pytest arguments (default: the suite without "
                         "criteria 3-8)")
    args = ap.parse_args(argv)
    known = {bug.name: bug for bug in CATALOGUE}
    unknown = [n for n in args.names if n not in known]
    if unknown:
        ap.error(f"unknown entries {unknown}; known: {sorted(known)}")
    bugs = [known[n] for n in args.names] or list(CATALOGUE)

    verdict, seconds = run_tests(None, args.test)
    print(f"{'(no bug)':<24} {verdict:<9} {seconds:6.1f}s", flush=True)
    if verdict != "passed":
        print("the unchanged tree does not pass; nothing to compare")
        return 2
    killed = 0
    for bug in bugs:
        verdict, seconds = run_tests(bug, args.test)
        outcome = {"failed": "killed", "passed": "survived"}.get(verdict,
                                                                verdict)
        killed += outcome == "killed"
        print(f"{bug.name:<24} {outcome:<9} {seconds:6.1f}s  "
              f"{bug.file}: {bug.breaks}", flush=True)
    print(f"{killed} of {len(bugs)} killed")
    return 0 if killed == len(bugs) else 1


if __name__ == "__main__":
    sys.exit(main())
