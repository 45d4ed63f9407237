"""Runs one program process of the benchmark: an ``mrp`` command, the
report-300k input writer, or the sbc-m1 replication loop.

    python3 launch.py --result R.json [--trace S.npz] cli -- ARGV...
    python3 launch.py --result R.json [--trace S.npz] scenario DIR SEED
    python3 launch.py --result R.json [--trace S.npz] sbc SEED ROUNDS REPS

``--smoke`` after ``scenario`` or ``sbc`` selects the smallest world.

Every mode counts ``LogDensityModel.grad`` calls; ``--trace`` also records a
span around each public call listed in ``instrument.TARGETS`` and writes the
spans when the process ends.  ``R.json`` gets the exit code, the gradient
count and the mode's own results.
"""

import time

T_START_CLOCK = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402


def _cli(argv, rec, out):
    import mrpkit.cli
    t_import = time.perf_counter()
    if rec is not None:
        rec.add("cli.import", T_START_CLOCK, t_import)
    _install(rec, out)
    return mrpkit.cli.main(argv)


def _install(rec, out):
    import instrument
    counter = instrument.GradCounter()
    instrument.install(rec, counter)
    out["_counter"] = counter


def report_scenario(seed, smoke=False):
    """The report-300k world: M2 with ethnicity, S=50, n=300,000."""
    from mrpkit.synthetic import Scenario
    return Scenario(S=8 if smoke else 50, rung="M2",
                    n=4000 if smoke else 300_000, seed=seed,
                    use_ethnicity=True, eth_coefs=ETH_COEFS,
                    gamma=(0.0, -0.15, 0.1, 0.0, 0.0, 0.0),
                    sigma_alpha=0.3, slope_mu=0.2, slope_sigma=0.05)


ETH_COEFS = (-0.4, 0.25, 0.1)
# thinned posterior draws each SBC rank is taken against (ranks 0..19)
N_RANK_DRAWS = 19


def _scenario(outdir, seed, smoke, rec, out):
    import mrpkit.synthetic
    _install(rec, out)
    mrpkit.synthetic.write_scenario_files(report_scenario(seed, smoke), outdir)
    return 0


def sbc_scenario(seed, smoke=False):
    """Criterion 4's world: M1, S=5, n=500, state predictor avg_income."""
    from mrpkit.synthetic import Scenario
    return Scenario(S=5, rung="M1", n=200 if smoke else 500, seed=seed,
                    state_predictors=("avg_income",))


def _sbc(seed, rounds, reps, smoke, rec, out):
    """Setup (import, the world's states and cells), then ``rounds`` calls
    of ``run_sbc`` with ``reps`` replications each."""
    import numpy as np
    import mrpkit.sbc
    from mrpkit.diagnostics import split_ess, split_rhat
    from mrpkit.synthetic import make_cells, make_states
    scenario = sbc_scenario(seed, smoke)
    make_cells(scenario, make_states(scenario))
    out["ready"] = time.monotonic()
    if rounds == 0:
        return 0
    _install(rec, out)
    counter = out["_counter"]
    sampled = []
    inner = mrpkit.sbc.sample_mcmc

    def sample_mcmc(model, **kwargs):
        g0, t0 = counter.calls, time.perf_counter()
        draws = inner(model, **kwargs)
        sampled.append((time.perf_counter() - t0, counter.calls - g0, draws))
        return draws

    mrpkit.sbc.sample_mcmc = sample_mcmc
    warmup, iters = (100, 150) if smoke else (300, 400)
    out["rounds"] = []
    for r in range(rounds):
        sampled.clear()
        t0 = time.perf_counter()
        ranks, _ = mrpkit.sbc.run_sbc(
            scenario, reps=reps, n_rank_draws=N_RANK_DRAWS, warmup=warmup,
            iters=iters, seed=seed * 1000 + r)
        t1 = time.perf_counter()
        fits = []
        for fit_s, grads, draws in sampled:
            x = draws.draws.T[:, None, :]          # (P, 1 chain, n)
            ess = np.array([split_ess(v) for v in x])
            rhat = np.array([split_rhat(v) for v in x])
            fits.append({
                "fit_s": fit_s, "grads": grads, "draws": int(draws.n_draws),
                "finite": bool(np.all(np.isfinite(draws.draws))),
                "min_ess": float(np.min(ess)),
                "median_ess": float(np.median(ess)),
                "max_rhat": float(np.max(rhat)),
                "divergent": int(draws.diagnostics["divergent"])})
        out["rounds"].append({"start": t0, "end": t1, "wall_s": t1 - t0,
                              "ranks": ranks.tolist(), "fits": fits})
    out["n_rank_draws"] = N_RANK_DRAWS
    return 0


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--result", required=True)
    ap.add_argument("--trace", default=None)
    sub = ap.add_subparsers(dest="mode", required=True)
    p = sub.add_parser("cli")
    p.add_argument("argv", nargs=argparse.REMAINDER)
    p = sub.add_parser("scenario")
    p.add_argument("outdir")
    p.add_argument("seed", type=int)
    p.add_argument("--smoke", action="store_true")
    p = sub.add_parser("sbc")
    p.add_argument("seed", type=int)
    p.add_argument("rounds", type=int)
    p.add_argument("reps", type=int)
    p.add_argument("--smoke", action="store_true")
    args = ap.parse_args()

    rec = None
    if args.trace:
        import instrument
        rec = instrument.Recorder()
    out = {}
    if args.mode == "cli":
        argv = args.argv[1:] if args.argv[:1] == ["--"] else args.argv
        code = _cli(argv, rec, out)
    elif args.mode == "scenario":
        code = _scenario(args.outdir, args.seed, args.smoke, rec, out)
    else:
        code = _sbc(args.seed, args.rounds, args.reps, args.smoke, rec, out)
    counter = out.pop("_counter", None)
    out["exit"] = code
    out["grad_calls"] = counter.calls if counter is not None else 0
    if rec is not None:
        rec.save(args.trace)
    with open(args.result, "w", encoding="utf-8") as f:
        json.dump(out, f)
    return code


if __name__ == "__main__":
    sys.exit(main())
