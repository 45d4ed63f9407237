"""Model specification, parameter layout, and linear predictors.

Three model rungs:
  M1  varying state intercept, single centered income slope
  M2  M1 + a per-state income slope with a 2x2 covariance between the
      state intercept and slope errors
  M3  M2 + per-income-category offsets, allowing a nonlinear (on the
      logit scale) income effect

The flat parameter vector is unconstrained: scale parameters are stored as
logs and the intercept/slope correlation as its atanh.

``eta_kernel`` is the one computation of a unit's linear predictor (logit)
and ``eta_adjoint`` its gradient; ``eta_cells``, ``LogDensityModel`` and
``poststrat.predict_cells`` all call them. ``expit`` and ``logit`` map
between the linear predictor and the probability scale for ``poststrat``
and ``synthetic`` in numpy alone, so that the reporting commands never
import scipy. ``expit`` is scipy.special.expit's formula, and equals it up
to the last digits of ``np.exp``; ``LogDensityModel.grad`` still calls
scipy's own so that fixed-seed draws keep their bytes.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from mrpkit.data import N_ETH, N_INCOME, StateTable

RUNGS = ("M1", "M2", "M3")
DEFAULT_STATE_PREDICTORS = ("avg_income", "prev_rep_share", "region")


@dataclass(frozen=True)
class ModelSpec:
    """Which rung to fit and which dimensions/predictors are active."""

    rung: str = "M1"
    use_ethnicity: bool = False
    state_predictors: tuple[str, ...] = DEFAULT_STATE_PREDICTORS

    def __post_init__(self):
        if self.rung not in RUNGS:
            raise ValueError(f"unknown rung {self.rung!r}; expected one of {RUNGS}")
        object.__setattr__(self, "state_predictors", tuple(self.state_predictors))
        for name in self.state_predictors:
            if name not in DEFAULT_STATE_PREDICTORS:
                raise ValueError(f"unknown state_predictors entry {name!r}")

    @property
    def varying_slope(self) -> bool:
        return self.rung in ("M2", "M3")

    @property
    def category_offsets(self) -> bool:
        return self.rung == "M3"


@dataclass(frozen=True)
class ParameterLayout:
    """Named disjoint blocks covering the flat parameter vector.

    Block order is fixed: beta, gamma, alpha, sigma_alpha, then
    slope, slope_mu, slope_sigma, corr (M2/M3), then cat, sigma_cat (M3).
    sigma_* blocks hold log-scale values; corr holds atanh(rho).
    """

    blocks: tuple[tuple[str, int], ...]  # (name, length) in order
    n_states: int
    spec: ModelSpec
    _slices: dict[str, slice] = field(init=False, repr=False, compare=False)
    n_params: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        slices, off = {}, 0
        for name, n in self.blocks:
            slices[name] = slice(off, off + n)
            off += n
        object.__setattr__(self, "_slices", slices)
        object.__setattr__(self, "n_params", off)

    def sl(self, name: str) -> slice:
        return self._slices[name]

    def block_dict(self) -> dict[str, list[int]]:
        """{name: [offset, length]} for serialization."""
        return {name: [s.start, s.stop - s.start]
                for name, s in self._slices.items()}


def predictor_matrix(states: StateTable, spec: ModelSpec) -> np.ndarray:
    """State-level design matrix W: intercept, then the requested columns.

    Continuous predictors are standardized across states; region enters as
    indicators for regions 2..R (region 1 is the baseline).
    """
    cols = [np.ones(states.n_states)]
    for name in spec.state_predictors:
        if name == "avg_income":
            cols.append(states.avg_income)
        elif name == "prev_rep_share":
            x = states.prev_rep_share
            sd = x.std(ddof=1) if len(x) > 1 else 1.0
            cols.append((x - x.mean()) / sd if sd > 0 else x - x.mean())
        elif name == "region":
            for r in range(2, states.n_regions + 1):
                cols.append((states.region_id == r).astype(float))
    return np.column_stack(cols)


def build_layout(spec: ModelSpec, states: StateTable) -> ParameterLayout:
    """Parameter layout for a spec; pure function of (spec, states)."""
    S = states.n_states
    if S < 2:
        raise ValueError("hierarchy requires at least 2 states")
    n_gamma = predictor_matrix(states, spec).shape[1]
    n_beta = 1 + (N_ETH - 1 if spec.use_ethnicity else 0)
    blocks = [("beta", n_beta), ("gamma", n_gamma), ("alpha", S),
              ("sigma_alpha", 1)]
    if spec.varying_slope:
        blocks += [("slope", S), ("slope_mu", 1), ("slope_sigma", 1), ("corr", 1)]
    if spec.category_offsets:
        blocks += [("cat", N_INCOME), ("sigma_cat", 1)]
    return ParameterLayout(tuple(blocks), S, spec)


def income_code(income_cat) -> np.ndarray:
    """Centered income code: categories 1..5 -> -2..2."""
    return np.asarray(income_cat, dtype=float) - 3.0


@dataclass(frozen=True)
class UnitIndex:
    """0-based maps from units (cells or respondents) into the parameter
    blocks, with the blocks' slices; built and range-checked once by
    ``unit_index`` so that ``eta_kernel`` and ``eta_adjoint`` look nothing
    up per call."""

    s0: np.ndarray           # state
    z: np.ndarray            # centered income code
    i0: np.ndarray           # income category
    e0: np.ndarray | None    # ethnicity; None when the model omits it
    n_states: int
    alpha: slice
    beta: slice
    slope: slice | None      # None unless the rung has varying slopes
    cat: slice | None        # None unless the rung has category offsets


def unit_index(layout: ParameterLayout, state_id, income_cat,
               ethnicity) -> UnitIndex:
    """Validated index arrays for ``eta_kernel`` and ``eta_adjoint``."""
    s0 = np.asarray(state_id, dtype=int) - 1
    if np.any((s0 < 0) | (s0 >= layout.n_states)):
        raise ValueError("state index outside declared cross")
    i = np.asarray(income_cat, dtype=int)
    if np.any((i < 1) | (i > N_INCOME)):
        raise ValueError("income category outside declared cross")
    e0 = None
    if layout.spec.use_ethnicity:
        e = np.asarray(ethnicity, dtype=int)
        if np.any((e < 1) | (e > N_ETH)):
            raise ValueError("ethnicity category outside declared cross")
        e0 = e - 1
    sl = layout._slices.get
    return UnitIndex(s0, income_code(i), i - 1, e0, layout.n_states,
                     sl("alpha"), sl("beta"), sl("slope"), sl("cat"))


def eta_kernel(params: np.ndarray, idx: UnitIndex) -> np.ndarray:
    """eta = alpha[s] + (beta_inc + slope[s]) * z + eth[e] + cat[i] per unit
    (terms as the rung has them), for params (P,) -> (C,) or draws (D, P) ->
    (D, C), with ``idx`` from ``unit_index`` on the params' layout. The
    terms pass through one scratch array in the same order for either
    shape, so a batch equals per-draw calls bit for bit."""
    beta = params[..., idx.beta]
    eta = params[..., idx.alpha].take(idx.s0, axis=-1, mode="clip")
    tmp = np.empty_like(eta)
    if idx.slope is not None:
        params[..., idx.slope].take(idx.s0, axis=-1, out=tmp, mode="clip")
        tmp += beta[..., :1]
        tmp *= idx.z
    else:
        np.multiply(beta[..., :1], idx.z, out=tmp)
    eta += tmp
    if idx.e0 is not None:
        eth_coef = np.concatenate(  # category 1 is baseline
            [np.zeros(beta.shape[:-1] + (1,)), beta[..., 1:]], axis=-1)
        eta += eth_coef.take(idx.e0, axis=-1, out=tmp, mode="clip")
    if idx.cat is not None:
        eta += params[..., idx.cat].take(idx.i0, axis=-1, out=tmp,
                                         mode="clip")
    return eta


def eta_adjoint(dl_deta: np.ndarray, idx: UnitIndex,
                g: np.ndarray) -> np.ndarray:
    """Add the gradient of a function of eta_kernel(params) to ``g`` (P,),
    given its derivative with respect to each unit's eta."""
    g[idx.alpha] += np.bincount(idx.s0, weights=dl_deta,
                                minlength=idx.n_states)
    glz = dl_deta * idx.z
    g_beta = g[idx.beta]
    g_beta[0] += glz.sum()
    if idx.e0 is not None:
        by_eth = np.bincount(idx.e0, weights=dl_deta, minlength=N_ETH)
        g_beta[1:] += by_eth[1:]
    if idx.slope is not None:
        g[idx.slope] += np.bincount(idx.s0, weights=glz,
                                    minlength=idx.n_states)
    if idx.cat is not None:
        g[idx.cat] += np.bincount(idx.i0, weights=dl_deta, minlength=N_INCOME)
    return g


def expit(x):
    """Logistic function 1/(1+exp(-x)) elementwise, for a scalar or an
    array; 0 without a warning where exp(-x) overflows, NaN for NaN."""
    out = np.array(x, dtype=float)  # a fresh array that is then reused
    np.negative(out, out=out)
    with np.errstate(over="ignore"):
        np.exp(out, out=out)
    out += 1.0
    np.divide(1.0, out, out=out)
    return out[()]


def logit(p):
    """log(p/(1-p)) elementwise, by scipy.special.logit's formula, which
    keeps the precision near p = 1/2; -inf at 0, inf at 1, NaN for NaN."""
    p = np.asarray(p, dtype=float)
    s = 2.0 * (p - 0.5)
    with np.errstate(divide="ignore", invalid="ignore"):
        out = np.where((p < 0.3) | (p > 0.65), np.log(p / (1.0 - p)),
                       np.log1p(s) - np.log1p(-s))
    return out[()]


def eta_cells(params: np.ndarray, layout: ParameterLayout,
              state_id, income_cat, ethnicity) -> np.ndarray:
    """Linear predictor for an array of units (cells or respondents), for
    one parameter vector (P,) or a matrix of draws (D, P)."""
    params = np.asarray(params, dtype=float)
    if params.shape[-1] != layout.n_params:
        raise ValueError(f"parameter vector length {params.shape[-1]} != "
                         f"layout length {layout.n_params}")
    return eta_kernel(params,
                      unit_index(layout, state_id, income_cat, ethnicity))

