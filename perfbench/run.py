#!/usr/bin/env python3
"""Benchmark of the mrpkit pipeline.

    python3 perfbench/run.py --workload redblue-cli --seed 1 --seconds 30 \
        --trace 0
    python3 perfbench/run.py --smoke

Run from the repository root.  Each run sets up the workload's inputs in
fresh processes (repeated to time the set-up), runs whole rounds of program
processes one at a time, checks every output against perfbench/reference.py,
and prints as its last line one JSON object: {"correct", "attempted",
"failed", "metrics"}.  With
``--trace 0`` the metrics are the end-to-end ones; ``--trace 1`` runs the
same rounds with spans around the public calls of each layer and prints the
per-layer metrics instead.  ``--smoke`` runs every workload once at its
smallest size and exits non-zero if any output is wrong.

Working files go to perfbench/_work/<workload>/, which each run empties
first.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
LAUNCH = os.path.join(HERE, "launch.py")
RUN_DEADLINE_S = 170.0
# BLAS/OpenMP pools of the program processes, pinned to one thread
THREAD_PINS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


class Proc:
    """Outcome of one program process."""

    def __init__(self, code, started, seconds, rss_mb, result, spans_path):
        self.code = code
        self.started = started  # time.monotonic() just before the launch
        self.seconds = seconds
        self.rss_mb = rss_mb
        self.result = result
        self.spans_path = spans_path


class Runner:
    """Starts program processes one at a time and waits for each."""

    def __init__(self, workdir, trace, deadline):
        self.workdir = workdir
        self.trace = trace
        self.deadline = deadline
        self.count = 0
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = SRC + (os.pathsep + os.environ["PYTHONPATH"]
                                        if os.environ.get("PYTHONPATH")
                                        else "")
        for name in THREAD_PINS:
            self.env[name] = "1"

    def run(self, args) -> Proc:
        self.count += 1
        stem = os.path.join(self.workdir, f"proc{self.count:03d}")
        cmd = [sys.executable, LAUNCH, "--result", stem + ".json"]
        spans = stem + ".npz" if self.trace else None
        if spans:
            cmd += ["--trace", spans]
        cmd += list(args)
        timeout = max(self.deadline - time.monotonic(), 1.0)
        with open(stem + ".log", "wb") as log:
            started = time.monotonic()
            t0 = time.perf_counter()
            p = subprocess.Popen(cmd, cwd=self.workdir, env=self.env,
                                 stdout=log, stderr=subprocess.STDOUT)
            timer = threading.Timer(timeout, p.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(p.pid, 0)
            finally:
                timer.cancel()
            seconds = time.perf_counter() - t0
        p.returncode = code = os.waitstatus_to_exitcode(status)
        try:
            with open(stem + ".json", encoding="utf-8") as f:
                result = json.load(f)
        except (OSError, ValueError):
            result = {}
        return Proc(code, started, seconds, usage.ru_maxrss / 1024.0, result,
                    spans)

    def log_tail(self, n=5) -> str:
        path = os.path.join(self.workdir, f"proc{self.count:03d}.log")
        with open(path, encoding="utf-8", errors="replace") as f:
            return "".join(f.readlines()[-n:]).strip()


def end_to_end(setup, rounds, fits) -> dict:
    """The five end-to-end metrics.  Times are medians: set-up over its
    repeats, wall and fit time over rounds."""
    from layers import median
    grads = sum(f["grads"] for f in fits)
    return {
        "setup_s": (median(setup), "s"),
        "wall_s": (median(r["wall_s"] for r in rounds), "s"),
        "fit_s": (median(r["fit_s"] for r in rounds), "s"),
        "ess_per_kgrad": (1000.0 * sum(f["min_ess"] for f in fits) / grads
                          if grads else 0.0, "1/kgrad"),
        "peak_rss_mb": (median(r["rss_mb"] for r in rounds), "MB"),
    }


def run_workload(name, seed, seconds, trace, smoke=False) -> dict:
    import workloads
    workdir = os.path.join(HERE, "_work", name)
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    runner = Runner(workdir, trace, time.monotonic() + RUN_DEADLINE_S)
    out = workloads.WORKLOADS[name](runner, seed, seconds, smoke)
    metrics = out.pop("layers") if trace else end_to_end(
        out.pop("setup"), out.pop("rounds"), out["fits"])
    for err in out["errors"]:
        print(f"{name}: {err}", file=sys.stderr)
    return {"correct": not out["check_failed"],
            "attempted": out["attempted"], "failed": out["failed"],
            "metrics": {k: {"value": float(v), "unit": u}
                        for k, (v, u) in metrics.items()}}


def main() -> int:
    if not os.path.isfile(os.path.join(SRC, "mrpkit", "cli.py")):
        print(f"error: mrpkit sources not found under {SRC}; run from a "
              f"checkout of the repository", file=sys.stderr)
        return 2
    import workloads
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="run every workload once at its smallest size")
    args = ap.parse_args()
    if args.workload is None and not args.smoke:
        ap.error("--workload is required unless --smoke is given")
    try:
        if args.smoke:
            ok = True
            for name in workloads.WORKLOADS:
                for trace in (0, 1):
                    res = run_workload(name, args.seed, 1.0, trace, smoke=True)
                    ok &= res["correct"] and res["failed"] == 0
                    print(name, f"trace={trace}", json.dumps(res))
            return 0 if ok else 1
        res = run_workload(args.workload, args.seed, args.seconds, args.trace)
    except workloads.SetupError as err:
        # no operation ran, so there is no result to print
        print(f"error: set-up failed: {err}", file=sys.stderr)
        return 1
    print(json.dumps(res))
    return 0


if __name__ == "__main__":
    sys.exit(main())
