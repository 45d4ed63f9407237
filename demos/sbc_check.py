"""Demo: simulation-based calibration of the sampler.

Draws parameters from the prior, simulates a poll, refits, and records the
rank of each true value among thinned posterior draws. Correct sampling
gives uniform ranks; the chi-square p-values quantify that per parameter.

A short run (40 replications) for demonstration; the acceptance check uses
200. Run: python3 demos/sbc_check.py
"""

import logging

import numpy as np

from mrpkit.sbc import run_sbc, uniformity_pvalues
from mrpkit.synthetic import Scenario

logging.basicConfig(level=logging.INFO, format="  %(message)s")
scenario = Scenario(S=5, rung="M1", n=500, seed=11,
                    state_predictors=("avg_income",))
print("running 40 SBC replications (S=5, n=500, M1)...")
ranks, layout = run_sbc(scenario, reps=40, seed=7)
pvals = uniformity_pvalues(ranks)

names = []
for block, (off, length) in layout.block_dict().items():
    names += [block if length == 1 else f"{block}[{j + 1}]"
              for j in range(length)]

print(f"\n{'parameter':<14s} {'p-value':>8s}  rank histogram (4 bins)")
edges = np.linspace(0, 20, 5)
for j, name in enumerate(names):
    hist, _ = np.histogram(ranks[:, j], bins=edges)
    bars = " ".join(f"{h:3d}" for h in hist)
    print(f"{name:<14s} {pvals[j]:8.3f}  {bars}")

print(f"\nmin p-value: {pvals.min():.3f} "
      f"({'uniform at the 1% level' if pvals.min() > 0.01 else 'NOT uniform'})")
