"""Demo: poststratified aggregates and calibration to recorded totals.

Fits a varying-intercept model to a small synthetic poll, aggregates cell
estimates to states, then shifts each state on the logit scale so the
aggregate matches a supplied recorded vote share.

Run: python3 demos/poststratify_and_calibrate.py
"""

import numpy as np

from mrpkit.model import LogDensityModel
from mrpkit.poststrat import calibrate_to_totals, poststratify, predict_cells
from mrpkit.samplers import sample_mcmc
from mrpkit.synthetic import (
    Scenario,
    draw_truth,
    make_cells,
    make_states,
    simulate_poll,
)

scenario = Scenario(S=8, rung="M1", n=4000, seed=5)
states = make_states(scenario)
cells = make_cells(scenario, states)
truth = draw_truth(scenario, states, cells)
dataset = simulate_poll(truth, scenario, states, cells)

model = LogDensityModel(dataset, scenario.spec)
draws = sample_mcmc(model, chains=2, warmup=400, iters=600, seed=2)
est = predict_cells(draws, cells)

by_state = poststratify(est, ("state",), states)
s = by_state.summary()
print("state aggregates before calibration:")
for g, key in enumerate(by_state.keys):
    print(f"  {states.labels[key[0] - 1]}  mean {s['mean'][g]:.3f}  "
          f"sd {s['sd'][g]:.3f}")

# pretend these are the officially recorded two-party shares
rng = np.random.default_rng(3)
recorded = np.clip(s["mean"] + 0.05 * rng.standard_normal(len(by_state.keys)),
                   0.05, 0.95)
cal, deltas = calibrate_to_totals(est, recorded, states)
cal_state = poststratify(cal, ("state",), states)
print("\nafter calibration (aggregate must equal the recorded share):")
for g, key in enumerate(cal_state.keys):
    print(f"  {states.labels[key[0] - 1]}  recorded {recorded[g]:.3f}  "
          f"calibrated {cal_state.theta[:, g].mean():.3f}  "
          f"mean shift {deltas[:, g].mean():+.3f}")

national = poststratify(cal, ())
print(f"\nnational two-party share after calibration: "
      f"{national.theta.mean():.3f}")
