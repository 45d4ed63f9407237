"""From posterior draws to population estimates.

Every aggregate is the voter-count-weighted average of its member cells,
computed per posterior draw; summaries are taken from the aggregated draws,
never from aggregating summaries; cells are predicted in the draws' layout.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from mrpkit.data import N_INCOME, CellTable
from mrpkit.design import eta_cells, expit, income_code, logit
from mrpkit.samplers import PosteriorDraws

CALIBRATE_TOL = 1e-10     # |state aggregate - recorded share| to stop at
CALIBRATE_MAX_ITER = 200  # safeguarded Newton steps per state
BLOCK = 256               # draws that poststratify aggregates at a time


def draw_summary(draws: np.ndarray) -> dict:
    """Mean, sd and quantiles over draws (rows) of each column."""
    th = np.atleast_2d(draws)
    q = np.quantile(th, (0.05, 0.25, 0.50, 0.75, 0.95), axis=0)
    return {
        "mean": th.mean(axis=0),
        "sd": th.std(axis=0, ddof=1) if th.shape[0] > 1
        else np.zeros(th.shape[1]),
        "q05": q[0], "q25": q[1], "q50": q[2], "q75": q[3], "q95": q[4],
    }


@dataclass
class CellEstimates:
    """Per-cell linear predictors and probabilities, one row per draw."""

    cells: CellTable
    eta: np.ndarray  # (D, C)

    def __post_init__(self):
        self.eta = np.atleast_2d(np.asarray(self.eta, dtype=float))
        if self.eta.shape[1] != len(self.cells):
            raise ValueError("eta width does not match number of cells")

    @property
    def theta(self) -> np.ndarray:
        return expit(self.eta)


@dataclass
class AggregateEstimates:
    """Weighted aggregates over groups of cells."""

    dims: tuple[str, ...]           # grouping dimensions, may be empty
    keys: list[tuple]               # one tuple per group
    theta: np.ndarray               # (D, G)
    weight: np.ndarray              # (G,) total voter count per group

    @property
    def n_groups(self) -> int:
        return len(self.keys)

    def summary(self) -> dict:
        return draw_summary(self.theta)


def predict_cells(draws: PosteriorDraws, cells: CellTable) -> CellEstimates:
    """Linear predictor for every cell under every draw, in the layout the
    draws carry; ValueError for draws without one."""
    if draws.layout is None:
        raise ValueError("draws carry no parameter layout")
    return CellEstimates(cells, eta_cells(draws.draws, draws.layout,
                                          cells.state_id, cells.income_cat,
                                          cells.ethnicity))


def _group_labels(cells: CellTable, dims):
    """(C, len(dims)) array of each cell's value in each grouping dimension."""
    cols = []
    for dim in dims:
        if dim == "state":
            cols.append(cells.state_id)
        elif dim == "income":
            cols.append(cells.income_cat)
        elif dim == "ethnicity":
            if not cells.use_ethnicity:
                raise ValueError("grouping dimension 'ethnicity' is not part "
                                 "of the model cross")
            cols.append(cells.ethnicity)
        elif dim == "region":
            cols.append(cells.states.region_id[cells.state_id - 1])
        else:
            raise ValueError(f"unknown grouping dimension {dim!r}")
    return np.array(cols, dtype=int).reshape(len(cols), len(cells)).T


def poststratify(cell_estimates: CellEstimates,
                 grouping=()) -> AggregateEstimates:
    """N-weighted average of cell probabilities within each group, per draw.

    ``grouping`` is a sequence of dimension names out of
    {state, income, ethnicity, region}; empty means a single national group.
    Groups are in sorted key order. Draws are summed ``BLOCK`` at a time.
    """
    cells = cell_estimates.cells
    dims = tuple(grouping)
    keys, gidx = np.unique(_group_labels(cells, dims), axis=0,
                           return_inverse=True)
    keys = [tuple(k) for k in keys.tolist()]
    G = len(keys)

    N = cells.n_voters
    weight = np.bincount(gidx, weights=N, minlength=G)
    zero = np.flatnonzero(weight == 0)
    if len(zero):
        key = dict(zip(dims, keys[zero[0]]))
        if "state" in key:
            key["state"] = cells.states.labels[key["state"] - 1]
        raise ValueError(f"group {key} has zero total voter weight")

    # every group has a cell, so the segment starts rise strictly
    order = np.argsort(gidx, kind="stable")
    starts = np.searchsorted(gidx[order], np.arange(G))
    eta = cell_estimates.eta
    num = np.empty((eta.shape[0], G))
    for lo in range(0, len(eta), BLOCK):
        wth = expit(eta[lo:lo + BLOCK][:, order]) * N[order]
        num[lo:lo + BLOCK] = np.add.reduceat(wth, starts, axis=1)
    return AggregateEstimates(dims, keys, num / weight, weight)


def calibrate_to_totals(cell_estimates: CellEstimates, recorded):
    """Shift each state's cell linear predictors so the state aggregate
    matches its recorded two-party Republican share, separately per draw.

    ``recorded`` is an array of shares indexed by state (as ``load_recorded``
    returns), each strictly inside (0, 1); a state with zero total voter
    weight has no share to match and is refused, named by its label in
    ``cells.states``. Returns (calibrated CellEstimates, deltas (D, S)).
    """
    cells = cell_estimates.cells
    labels = cells.states.labels
    S = len(labels)
    rec = np.asarray(recorded, dtype=float)
    if len(rec) != S:
        raise ValueError(f"recorded totals cover {len(rec)} states, "
                         f"expected {S}")
    if np.any((rec <= 0.0) | (rec >= 1.0)):
        bad = int(np.argmax((rec <= 0.0) | (rec >= 1.0)))
        raise ValueError(f"recorded share for state {labels[bad]} is "
                         f"not strictly inside (0, 1); no finite logit shift "
                         f"exists")

    eta = cell_estimates.eta.copy()
    D = eta.shape[0]
    deltas = np.zeros((D, S))
    for s in range(1, S + 1):
        mask = cells.state_id == s
        w = cells.n_voters[mask]
        if not w.sum() > 0:
            raise ValueError(f"state {labels[s - 1]} has zero total "
                             f"voter weight")
        w = w / w.sum()
        sub = eta[:, mask]  # (D, C_s)
        target = rec[s - 1]

        cur = sub @ w  # rough center for the initial guess
        delta = logit(target) - cur
        lo = np.full(D, -80.0)
        hi = np.full(D, 80.0)
        for _ in range(CALIBRATE_MAX_ITER):
            p = expit(sub + delta[:, None])
            f = p @ w - target
            done = np.abs(f) < CALIBRATE_TOL
            if np.all(done):
                break
            hi = np.where(f > 0, np.minimum(hi, delta), hi)
            lo = np.where(f < 0, np.maximum(lo, delta), lo)
            fp = (p * (1.0 - p)) @ w
            step = np.where(fp > 0, f / np.where(fp > 0, fp, 1.0), 0.0)
            cand = delta - step
            outside = (cand <= lo) | (cand >= hi) | (fp <= 0)
            delta = np.where(done, delta, np.where(outside, 0.5 * (lo + hi), cand))
        deltas[:, s - 1] = delta
        eta[:, mask] = sub + delta[:, None]
    return CellEstimates(cells, eta), deltas


def state_income_slopes(cell_estimates: CellEstimates) -> dict:
    """Per-state income-voting slope on the probability scale.

    Primary measure: top income category minus bottom. Secondary: the
    least-squares slope of the state's income curve over codes -2..2.
    """
    agg = poststratify(cell_estimates, ("state", "income"))
    # keys are the full (state, income) cross in sorted order
    S = cell_estimates.cells.states.n_states
    curve = agg.theta.reshape(-1, S, N_INCOME)  # (D, S, I)

    gap = curve[:, :, N_INCOME - 1] - curve[:, :, 0]  # (D, S)
    z = income_code(np.arange(1, N_INCOME + 1))
    ls = (curve @ z) / float(np.sum(z * z))

    return {"gap": draw_summary(gap), "ls_slope": draw_summary(ls),
            "gap_draws": gap, "ls_slope_draws": ls}


def national_income_gap(cell_estimates: CellEstimates) -> np.ndarray:
    """Draws of the national top-minus-bottom income category gap."""
    agg = poststratify(cell_estimates, ("income",))  # incomes 1..5
    return agg.theta[:, -1] - agg.theta[:, 0]
