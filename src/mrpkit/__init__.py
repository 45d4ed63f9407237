"""Multilevel regression and poststratification (MRP).

Fit a hierarchical Bayesian logistic regression over demographic x
geographic population cells, simulate from the posterior, and aggregate
cell-level predictions with census voter counts to estimate opinion in
states and other subpopulations.
"""

from mrpkit.data import (
    CellTable,
    DataError,
    Dataset,
    StateTable,
    Survey,
    load_cells,
    load_dataset,
    load_states,
    load_survey,
)
from mrpkit.design import ModelSpec, ParameterLayout, build_layout
from mrpkit.model import LogDensityModel, PriorConfig
from mrpkit.samplers import PosteriorDraws, sample_mcmc
from mrpkit.poststrat import (
    AggregateEstimates,
    CellEstimates,
    calibrate_to_totals,
    poststratify,
    predict_cells,
    state_income_slopes,
)
from mrpkit.synthetic import Scenario, draw_truth, redblue_scenario, simulate_poll

__version__ = "0.1.0"
