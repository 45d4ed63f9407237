"""Per-layer metrics of a traced run, from span totals and fit records.

Span totals are {span name: [calls, total s, self s, size]} (see
``instrument.span_totals``).  Three aggregations are used:

- ``round``: seconds the layer takes in one round of the workload (summed
  over its calls in the round), median over rounds;
- ``call``: mean duration of one call, over the whole run;
- ``fit``: a count or sampler statistic per fit.
"""

from __future__ import annotations

import numpy as np

from instrument import merge_totals

CLI_COMMANDS = ("cli.fit", "cli.poststratify", "cli.diagnose")


def _round(rounds, name, field=1):
    return median(r.get(name, [0, 0.0, 0.0, 0.0])[field] for r in rounds)


def _per_call(total, name, scale):
    calls, seconds = total.get(name, [0, 0.0])[:2]
    return scale * seconds / calls if calls else 0.0


def _rate(total, name):
    _, seconds, _, size = total.get(name, [0, 0.0, 0.0, 0.0])
    return size / seconds if seconds > 0 else 0.0


def per_layer(rounds, walls, setup, fits, peak_rss_mb, reps=0) -> dict:
    """Every per-layer metric, as {name: (value, unit)}.

    rounds: span totals of each measured round; walls: each round's wall
    time under tracing; setup: span totals of the set-up processes; fits:
    one dict per fit with grads, draws, min_ess, median_ess, max_rhat,
    divergent; reps: SBC replications run."""
    allt = merge_totals(list(rounds) + [setup])
    run = merge_totals(rounds)
    n_fits = max(len(fits), 1)
    grads = sum(f["grads"] for f in fits)
    draws = sum(f["draws"] for f in fits)

    def self_of(names):
        return median(sum(r.get(n, [0, 0.0, 0.0])[2] for n in names)
                      for r in rounds)

    m = {
        "traced.wall_s": (median(walls), "s"),
        "data.load_dataset_s": (_round(rounds, "data.load_dataset"), "s"),
        "data.survey_rows_per_s": (_rate(run, "data.load_dataset"), "rows/s"),
        "cli.import_s": (_per_call(allt, "cli.import", 1.0), "s"),
        "cli.fit_s": (_round(rounds, "cli.fit"), "s"),
        "cli.poststratify_s": (_round(rounds, "cli.poststratify"), "s"),
        "cli.diagnose_s": (_round(rounds, "cli.diagnose"), "s"),
        "cli.self_s": (self_of(CLI_COMMANDS), "s"),
        "design.eta_cells_us": (_per_call(run, "design.eta_cells", 1e6), "us"),
        "model.grad_us": (_per_call(run, "model.grad", 1e6), "us"),
        "model.log_posterior_us": (_per_call(run, "model.log_posterior", 1e6),
                                   "us"),
        "model.grad_calls": (run.get("model.grad", [0])[0] / n_fits, "count"),
        "model.log_posterior_calls": (
            run.get("model.log_posterior", [0])[0] / n_fits, "count"),
        "model.build_ms": (_per_call(run, "model.build", 1e3), "ms"),
        "model.initial_point_s": (_round(rounds, "model.initial_point"), "s"),
        "samplers.sample_mcmc_s": (_round(rounds, "samplers.sample_mcmc"),
                                   "s"),
        "samplers.self_s": (self_of(("samplers.sample_mcmc",)), "s"),
        "samplers.fd_hessian_s": (_round(rounds, "samplers.fd_hessian"), "s"),
        "samplers.grads_per_draw": (grads / draws if draws else 0.0, "count"),
        "samplers.min_ess": (median(f["min_ess"] for f in fits), "ess"),
        "samplers.median_ess_per_kgrad": (
            median(1000.0 * f["median_ess"] / f["grads"] for f in fits),
            "1/kgrad"),
        "samplers.max_rhat": (max((f["max_rhat"] for f in fits), default=0.0),
                              "ratio"),
        "samplers.divergences": (sum(f["divergent"] for f in fits) / n_fits,
                                 "count"),
        "samplers.save_draws_s": (_round(rounds, "samplers.save_draws"), "s"),
        "samplers.load_draws_s": (_round(rounds, "samplers.load_draws"), "s"),
        "diagnostics.compute_s": (_round(rounds, "diagnostics.compute"), "s"),
        "diagnostics.table_s": (_round(rounds, "diagnostics.table"), "s"),
        "poststrat.predict_cells_s": (
            _round(rounds, "poststrat.predict_cells"), "s"),
        "poststrat.cell_draws_per_s": (_rate(run, "poststrat.predict_cells"),
                                       "1/s"),
        "poststrat.poststratify_s": (_round(rounds, "poststrat.poststratify"),
                                     "s"),
        "poststrat.calibrate_s": (_round(rounds, "poststrat.calibrate"), "s"),
        "synthetic.write_files_s": (_per_call(allt, "synthetic.write_files",
                                              1.0), "s"),
        "synthetic.simulate_poll_s": (
            _per_call(allt, "synthetic.simulate_poll", 1.0), "s"),
        "sbc.replication_s": (run.get("sbc.run", [0, 0.0])[1] / reps
                              if reps else 0.0, "s"),
        "sbc.draw_from_prior_us": (_per_call(run, "sbc.draw_from_prior", 1e6),
                                   "us"),
        "process.peak_rss_mb": (peak_rss_mb, "MB"),
    }
    return m


def median(values):
    """Median, or 0 when a failed run measured nothing."""
    values = list(values)
    return float(np.median(values)) if values else 0.0
