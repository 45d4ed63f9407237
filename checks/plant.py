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
copy is run first and must pass. One line per entry says whether the bug
was killed (the tests fail) or survived. A survivor marked ``cost only``
changes no output, only the cost of a fit, and the benchmark metric named
shows it.

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
    cost_only: str = ""  # the benchmark metric that shows a cost-only bug


CATALOGUE = (
    Bug("m2-log-density-rho", "src/mrpkit/model.py",
        "quad = float((a * a - 2.0 * rho * a * b + b * b).sum())",
        "quad = float((a * a + b * b).sum())",
        "M2 log_posterior drops the intercept-slope correlation term; grad "
        "keeps it"),
    Bug("beta-prior-grad", "src/mrpkit/model.py",
        'g[self._beta] += -p["beta"] / cs ** 2',
        'g[self._beta] += -p["beta"] / cs',
        "the gradient of the beta prior divides by cs, not cs^2"),
    Bug("hmc-accept-all", "src/mrpkit/samplers.py",
        "if not divergent and rng.uniform() < accept_prob:",
        "if not divergent and rng.uniform() < 1.0:",
        "HMC accepts every proposal that does not diverge"),
    Bug("region-shift", "src/mrpkit/poststrat.py",
        "cols.append(states.region_id[cells.state_id - 1])",
        "cols.append(states.region_id[cells.state_id - 2])",
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
    Bug("calibrate-bracket-max", "src/mrpkit/poststrat.py",
        "hi = np.where(f > 0, np.minimum(hi, delta), hi)",
        "hi = np.where(f > 0, np.maximum(hi, delta), hi)",
        "calibration widens the bracket's upper end instead of closing it"),
    Bug("diffuse-metric-inverse", "src/mrpkit/samplers.py",
        "metric = _DiagMetric(np.clip(var, 1e-8, None))",
        "metric = _DiagMetric(1.0 / np.clip(var, 1e-8, None))",
        "the diffuse warmup's diagonal metric holds inverse variances",
        cost_only="sbc-m1 ess_per_kgrad"),
    Bug("initial-scale-e", "src/mrpkit/model.py",
        'x[self._sa] = np.log(max(float(np.std(u)), 1e-2))',
        'x[self._sa] = np.log(max(float(np.std(u)), 1e-2)) + 1.0',
        "initial_point's sigma_alpha update is a factor e too large",
        cost_only="redblue-cli ess_per_kgrad (gradient count)"),
    Bug("survey-repeats-once", "src/mrpkit/data.py",
        "weight = np.bincount(index, minlength=len(parsed))[kept]",
        "weight = np.bincount(np.unique(index), minlength=len(parsed))[kept]",
        "load_survey counts each distinct record once, however often it "
        "repeats"),
    Bug("write-survey-no-first", "src/mrpkit/data.py",
        "np.tile([1, 0], len(n)),\n"
        "                     np.column_stack([k, n - k])",
        "np.tile([0, 1], len(n)),\n"
        "                     np.column_stack([n - k, k])",
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
        note = (f" [cost only: {bug.cost_only}]"
                if outcome == "survived" and bug.cost_only else "")
        print(f"{bug.name:<24} {outcome:<9} {seconds:6.1f}s  "
              f"{bug.file}: {bug.breaks}{note}", flush=True)
    print(f"{killed} of {len(bugs)} killed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
