import numpy as np
import pytest

from mrpkit.data import (CellTable, Dataset, StateTable, Survey, cell_cross,
                         cell_position)
from mrpkit.design import ModelSpec


def make_state_table(S, n_regions=2, seed=0):
    """Deterministic small state table for unit tests."""
    rng = np.random.default_rng(seed)
    inc = rng.standard_normal(S)
    inc = (inc - inc.mean()) / inc.std(ddof=1)
    share = np.clip(0.5 + 0.1 * rng.standard_normal(S), 0.1, 0.9)
    region = (np.arange(S) % n_regions) + 1
    labels = [f"S{i + 1:02d}" for i in range(S)]
    return StateTable(labels, inc, share, region)


def make_cell_table(S, use_ethnicity=False, seed=0):
    rng = np.random.default_rng(seed)
    sid, inc, eth = cell_cross(S, use_ethnicity)
    n = len(sid)
    n_adults = np.round(1000 + 9000 * rng.random(n))
    turnout = 0.4 + 0.4 * rng.random(n)
    return CellTable(sid, inc, eth, n_adults, turnout)


def survey_from_rows(cells, state_id, income_cat, ethnicity, vote):
    """The poll of respondent rows: respondents and Republican votes per
    cell of ``cells``, in its order."""
    idx = cell_position(state_id, income_cat, ethnicity, cells.use_ethnicity)
    C = len(cells)
    return Survey(np.bincount(idx, minlength=C),
                  np.bincount(idx, weights=vote, minlength=C).astype(int))


def make_survey(S, n, cells=None, theta=0.5, seed=0):
    """Respondents spread over states and incomes, votes at fixed rate,
    counted over ``cells`` (default: ``make_cell_table(S)``)."""
    rng = np.random.default_rng(seed)
    sid = rng.integers(1, S + 1, size=n)
    inc = rng.integers(1, 6, size=n)
    eth = np.zeros(n, dtype=int)
    vote = (rng.random(n) < theta).astype(int)
    cells = cells if cells is not None else make_cell_table(S)
    return survey_from_rows(cells, sid, inc, eth, vote)


@pytest.fixture
def small_dataset():
    S = 4
    states = make_state_table(S)
    cells = make_cell_table(S)
    survey = make_survey(S, 400)
    return Dataset(survey, cells, states)


@pytest.fixture
def m1_spec():
    return ModelSpec("M1")
