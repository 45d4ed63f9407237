#!/usr/bin/env python3
"""Runs the benchmark once per seed and prints, per workload and metric, the
median, the quartiles and the spread (distance between the quartiles as a
share of the median, from ``statistics.quantiles(values, n=4)``).  This is
the command that regenerates the reference tables in perfbench/README.md:

    python3 perfbench/repeat.py --seeds 1-10
    python3 perfbench/repeat.py --seeds 11-20 --workloads report-300k

Run from the repository root.  Every run is untraced and measures
BENCHMARK.json's run_seconds.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))


def seed_list(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi) + 1)) if hi else \
        [int(s) for s in text.split(",")]


def main() -> int:
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"),
              encoding="utf-8") as f:
        bench = json.load(f)
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seeds", type=seed_list, default=seed_list("1-10"))
    ap.add_argument("--workloads", default=",".join(
        w["name"] for w in bench["workloads"]))
    args = ap.parse_args()
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    status = 0
    for w in args.workloads.split(","):
        values, failed = {}, []
        for seed in args.seeds:
            t0 = time.monotonic()
            p = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"), "--workload", w,
                 "--seed", str(seed), "--seconds", str(bench["run_seconds"]),
                 "--trace", "0"], capture_output=True, text=True)
            elapsed = time.monotonic() - t0
            lines = p.stdout.strip().splitlines()
            if p.returncode != 0 or not lines:
                print(f"{w} seed {seed}: exit {p.returncode}\n"
                      f"{p.stderr[-2000:]}")
                status = 1
                continue
            res = json.loads(lines[-1])
            failed.append(res["failed"] / res["attempted"])
            print(f"{w} seed {seed}: {elapsed:.0f} s, correct={res['correct']}"
                  f" attempted={res['attempted']} failed={res['failed']}",
                  flush=True)
            for k, v in res["metrics"].items():
                values.setdefault(k, []).append(v["value"])
        print(f"{w}: failed share per run {sorted(set(failed))}")
        print(f"{'metric':<32s} {'median':>12s} {'q1':>12s} {'q3':>12s} "
              f"{'spread':>7s} {'bound':>6s}")
        for k, v in values.items():
            med = statistics.median(v)
            q1, _, q3 = statistics.quantiles(v, n=4) if len(v) > 1 else (
                med, med, med)
            spread = (q3 - q1) / med if med else 0.0
            bound = f"{bounds[k]:.2f}" if k in bounds else ""
            print(f"{k:<32s} {med:12.5g} {q1:12.5g} {q3:12.5g} {spread:7.3f} "
                  f"{bound:>6s}", flush=True)
    return status


if __name__ == "__main__":
    sys.exit(main())
