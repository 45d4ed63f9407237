"""End-to-end demo: the rich-state/poor-state income-voting pattern.

Simulates a 50-state poll where the income slope falls with state income,
fits the varying-slope model, and prints the recovered per-state slopes for
the poorest, a middle, and the richest state.

Run: python3 demos/redblue_pipeline.py
"""

import numpy as np

from mrpkit.model import LogDensityModel
from mrpkit.poststrat import (
    national_income_gap,
    predict_cells,
    state_income_slopes,
)
from mrpkit.samplers import sample_mcmc
from mrpkit.synthetic import (
    draw_truth,
    make_cells,
    make_states,
    redblue_scenario,
    simulate_poll,
)

scenario = redblue_scenario(S=50, n=30000, seed=0)
states = make_states(scenario)
cells = make_cells(scenario, states)
truth = draw_truth(scenario, cells)
dataset = simulate_poll(truth, scenario, cells)

print(f"simulated poll: {len(dataset.survey)} respondents, "
      f"{len(cells)} cells, {states.n_states} states")

model = LogDensityModel(dataset, scenario.spec)
layout = model.layout  # derived from the spec and the state table
draws = sample_mcmc(model, chains=2, warmup=400, iters=800, seed=1)
diag = draws.diagnostics
print(f"sampling: rhat max {np.nanmax(diag['rhat']):.3f}, "
      f"min ESS {np.nanmin(diag['ess']):.0f}, "
      f"{diag['divergent']} divergences")

est = predict_cells(draws, cells)
slopes = state_income_slopes(est)
gap = slopes["gap"]["mean"]

order = np.argsort(states.avg_income)
poor, mid, rich = order[0], order[len(order) // 2], order[-1]
print("\nper-state top-minus-bottom income gap (probability scale):")
for tag, s in (("poorest", poor), ("middle", mid), ("richest", rich)):
    print(f"  {tag:8s} {states.labels[s]}  "
          f"gap {gap[s]:+.3f}  (90% {slopes['gap']['q05'][s]:+.3f} "
          f"to {slopes['gap']['q95'][s]:+.3f})")

slope_means = draws.draws[:, layout.sl("beta").start] \
    + draws.draws[:, layout.sl("slope")].T
corr = np.corrcoef(slope_means.mean(axis=1), states.avg_income)[0, 1]
print(f"\ncorrelation of estimated income slope with state income: {corr:+.3f}")
print(f"national rich-poor gap: "
      f"{national_income_gap(est).mean():.3f} (true 0.20)")
