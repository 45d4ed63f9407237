"""Input tables: survey microdata, poststratification cells, state predictors.

Every input table is read by ``_read_rows`` from UTF-8 CSV with a header row.
Tables are immutable numpy-array containers after construction; loaders
validate category ranges, key uniqueness, and cross completeness up front so
downstream code can index without checks.
The cell order lives here (``cell_position``, ``cell_cross``), as does the
state-label map (``StateTable.label_index``). A poll is its counts per cell
(``Survey``); only ``load_survey`` and ``write_survey`` see respondent rows.
"""

from __future__ import annotations

import csv
import io
import operator
import warnings
from dataclasses import dataclass, field

import numpy as np

N_INCOME = 5
N_ETH = 4


class DataError(ValueError):
    """Malformed or inconsistent input data."""


@dataclass
class StateTable:
    """Per-state predictors: standardized average income, previous
    Republican two-party share, and region id (1..R).

    ``labels`` maps row position -> state label as it appears in the files;
    state index i (1-based) refers to labels[i-1]; ``label_index`` maps back.
    """

    labels: list[str]
    avg_income: np.ndarray      # standardized: mean 0, sd 1 across states
    prev_rep_share: np.ndarray  # fraction in (0, 1)
    region_id: np.ndarray       # int, 1..R
    label_index: dict[str, int] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self.avg_income = np.asarray(self.avg_income, dtype=float)
        self.prev_rep_share = np.asarray(self.prev_rep_share, dtype=float)
        self.region_id = np.asarray(self.region_id, dtype=int)
        self.label_index = {label: i + 1 for i, label in enumerate(self.labels)}

    @property
    def n_states(self) -> int:
        return len(self.labels)

    @property
    def n_regions(self) -> int:
        return int(self.region_id.max())


class Survey:
    """A poll as counts per cell in canonical cell order: respondents ``n``
    and Republican votes ``k``, plus the number of rows dropped for an empty
    vote. ``len`` is the number of respondents."""

    def __init__(self, n, k, n_dropped: int = 0):
        self.n = np.asarray(n, dtype=int)
        self.k = np.asarray(k, dtype=int)
        self.n_dropped = n_dropped

    def __len__(self) -> int:
        return int(self.n.sum())


def cell_position(state_id, income_cat, ethnicity,
                  use_ethnicity: bool) -> np.ndarray:
    """Row position of cells in canonical order for the given keys."""
    n_eth = N_ETH if use_ethnicity else 1
    e = np.asarray(ethnicity, dtype=int)
    e0 = np.where(e > 0, e - 1, 0)
    return ((np.asarray(state_id) - 1) * N_INCOME
            + (np.asarray(income_cat) - 1)) * n_eth + e0


def cell_cross(n_states: int, use_ethnicity: bool):
    """Keys of the full cross in canonical order; ethnicity 0 if inactive."""
    eth = np.arange(1, N_ETH + 1) if use_ethnicity else np.zeros(1, dtype=int)
    keys = np.meshgrid(np.arange(1, n_states + 1), np.arange(1, N_INCOME + 1),
                       eth, indexing="ij")
    return tuple(k.ravel() for k in keys)


class CellTable:
    """Full cross of poststratification cells in canonical order
    (state, income, ethnicity), with each cell's adult count, turnout rate
    and voter count n_voters = n_adults * turnout_rate."""

    def __init__(self, state_id, income_cat, ethnicity, n_adults, turnout_rate):
        self.state_id = np.asarray(state_id, dtype=int)
        self.income_cat = np.asarray(income_cat, dtype=int)
        self.ethnicity = np.asarray(ethnicity, dtype=int)
        self.n_adults = np.asarray(n_adults, dtype=float)
        self.turnout_rate = np.asarray(turnout_rate, dtype=float)
        self.n_voters = self.n_adults * self.turnout_rate

    def __len__(self) -> int:
        return len(self.state_id)

    @property
    def use_ethnicity(self) -> bool:
        return bool(self.ethnicity.max() > 0)

    @property
    def n_states(self) -> int:
        return int(self.state_id.max())


@dataclass
class Dataset:
    """Everything needed to fit one model: responses, cells, state predictors."""

    survey: Survey
    cells: CellTable
    states: StateTable

    def __post_init__(self):
        n, k, C = self.survey.n, self.survey.k, len(self.cells)
        if not n.shape == k.shape == (C,):
            raise DataError(f"survey counts of shapes {n.shape} and "
                            f"{k.shape} do not fit the {C} cells")


# ---------------------------------------------------------------------------
# loaders

def _read_rows(path):
    """Stripped header and a generator of (row number, fields) of the data
    rows from one csv.reader pass. Refuses a file that cannot be read, and
    text that is not UTF-8 or holds a NUL, at once, then, as reached, a row
    of the wrong field count or that csv.reader cannot split, and after the
    last row any record that spanned lines (a line break inside quotes)."""
    try:
        with open(path, "rb") as f:
            data = f.read()
    except OSError as err:
        raise DataError(f"{path}: cannot be read: {err.strerror}") from None
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as err:
        raise DataError(f"{path}: byte {data[err.start]:#04x} at offset "
                        f"{err.start} is not UTF-8") from None
    if "\x00" in text:
        raise DataError(f"{path}: cannot be read one record per line: a NUL")
    reader = csv.reader(io.StringIO(text, newline=""))
    try:
        header = [h.strip() for h in next(reader)]
    except StopIteration:
        raise DataError(f"{path}: empty file") from None
    except csv.Error as err:
        raise DataError(f"{path}: row 1: {err}") from None

    def rows(n_fields=len(header)):
        r = 1
        try:
            for r, row in enumerate(reader, start=2):
                if len(row) != n_fields:
                    raise DataError(f"{path}: row {r}: expected {n_fields} "
                                    f"fields, got {len(row)}")
                yield r, row
        except csv.Error as err:
            raise DataError(f"{path}: row {r + 1}: {err}") from None
        if reader.line_num != r:
            raise DataError(f"{path}: cannot be read one record per line: a "
                            f"line break inside quotes")
    return header, rows()


def _col(header: list[str], name: str, path) -> int:
    try:
        return header.index(name)
    except ValueError:
        raise DataError(f"{path}: missing required column {name!r}") from None


def _parse_int(value: str, row_num: int, col: str, lo: int, hi: int, path) -> int:
    try:
        v = int(value)
    except ValueError:
        raise DataError(f"{path}: row {row_num}, column {col!r}: "
                        f"cannot parse {value!r} as integer") from None
    if not lo <= v <= hi:
        raise DataError(f"{path}: row {row_num}, column {col!r}: "
                        f"value {v} outside {lo}..{hi}")
    return v


def _parse_float(value: str, row_num: int, col: str, path) -> float:
    try:
        v = float(value)
    except ValueError:
        raise DataError(f"{path}: row {row_num}, column {col!r}: "
                        f"cannot parse {value!r} as a number") from None
    if not np.isfinite(v):
        raise DataError(f"{path}: row {row_num}, column {col!r}: "
                        f"non-finite value {value!r}")
    return v


def _state_index(value: str, states: StateTable | None, row_num: int, path) -> int:
    if states is not None:
        if value not in states.label_index:
            raise DataError(f"{path}: row {row_num}: unknown state label {value!r}")
        return states.label_index[value]
    return _parse_int(value, row_num, "state", 1, 10 ** 6, path)


def load_states(path) -> StateTable:
    """Read states.csv (state,avg_income,prev_rep_share,region).

    avg_income is standardized (mean 0, sd 1 across states) at load time so
    hierarchical coefficients are on comparable scales.
    """
    header, rows = _read_rows(path)
    ci = {name: _col(header, name, path) for name in
          ("state", "avg_income", "prev_rep_share", "region")}
    labels, inc, share, region = [], [], [], []
    for r, row in rows:
        label = row[ci["state"]].strip()
        if label in labels:
            raise DataError(f"{path}: row {r}: duplicate state {label!r}")
        labels.append(label)
        inc.append(_parse_float(row[ci["avg_income"]], r, "avg_income", path))
        share.append(_parse_float(row[ci["prev_rep_share"]], r,
                                  "prev_rep_share", path))
        region.append(_parse_int(row[ci["region"]], r, "region", 1, 99, path))
    inc = np.asarray(inc)
    share = np.asarray(share)
    if np.any((share <= 0) | (share >= 1)):
        bad = int(np.argmax((share <= 0) | (share >= 1)))
        raise DataError(f"{path}: prev_rep_share for state {labels[bad]!r} "
                        f"not strictly inside (0, 1)")
    sd = inc.std(ddof=1) if len(inc) > 1 else 1.0
    if sd > 0:
        inc = (inc - inc.mean()) / sd
    return StateTable(labels, inc, share, np.asarray(region))


def load_survey(path, spec, states: StateTable | None = None) -> Survey:
    """Read survey.csv (state,income[,ethnicity],vote) as counts per cell
    over ``states`` (without one, over states 1..the largest index read).

    Rows with an empty vote field (no stated preference) are dropped and
    counted; a warning reports the count. Any other malformed field is an
    error naming the row and column; the first bad row in file order is
    reported. Fields are split as for every input table (``_read_rows``),
    and each distinct record of the used fields is parsed once, when first
    met.
    """
    header, rows = _read_rows(path)
    c_state = _col(header, "state", path)
    c_income = _col(header, "income", path)
    c_vote = _col(header, "vote", path)
    c_eth = header.index("ethnicity") if "ethnicity" in header else None
    if spec.use_ethnicity and c_eth is None:
        raise DataError(f"{path}: model uses ethnicity but column is missing")

    used = operator.itemgetter(
        c_state, c_income, *([c_eth] if spec.use_ethnicity else []), c_vote)

    def parse(fields, r):
        """(state, income, ethnicity, vote) from the used fields of row r;
        None if the vote is empty."""
        state, income, *eth, vote = fields
        if vote.strip() == "":
            return None
        return (_state_index(state.strip(), states, r, path),
                _parse_int(income, r, "income", 1, N_INCOME, path),
                _parse_int(eth[0], r, "ethnicity", 1, N_ETH, path)
                if eth else 0,
                _parse_int(vote, r, "vote", 0, 1, path))

    ids, parsed, index = {}, [], []  # record -> id; id -> parse; row -> id
    for r, row in rows:
        key = used(row)
        if key not in ids:
            ids[key] = len(parsed)
            parsed.append(parse(key, r))
        index.append(ids[key])
    index = np.array(index, dtype=np.intp)
    kept = np.array([p is not None for p in parsed], dtype=bool)
    table = np.array([p for p in parsed if p], dtype=int).reshape(-1, 4)
    weight = np.bincount(index, minlength=len(parsed))[kept]  # rows each
    n_states = states.n_states if states else int(table[:, 0].max(initial=0))
    C = n_states * N_INCOME * (N_ETH if spec.use_ethnicity else 1)
    pos = cell_position(*table[:, :3].T, spec.use_ethnicity)
    n = np.bincount(pos, weight, minlength=C).astype(int)
    k = np.bincount(pos, weight * table[:, 3], minlength=C).astype(int)

    n_dropped = len(index) - int(n.sum())
    if n_dropped:
        warnings.warn(f"{path}: dropped {n_dropped} row(s) with missing vote",
                      stacklevel=2)
    return Survey(n, k, n_dropped=n_dropped)


def load_cells(path, spec, states: StateTable | None = None) -> CellTable:
    """Read cells.csv; either n_voters directly or (n_adults, turnout_rate).

    The table must contain exactly the full cross of declared categories;
    missing or duplicate keys are errors.
    """
    header, rows = _read_rows(path)
    c_state = _col(header, "state", path)
    c_income = _col(header, "income", path)
    c_eth = header.index("ethnicity") if "ethnicity" in header else None
    if spec.use_ethnicity and c_eth is None:
        raise DataError(f"{path}: model uses ethnicity but column is missing")
    direct = "n_voters" in header
    if direct:
        c_nv = header.index("n_voters")
    else:
        c_na = _col(header, "n_adults", path)
        c_tr = _col(header, "turnout_rate", path)

    keys, vals = [], []
    for r, row in rows:
        s = _state_index(row[c_state].strip(), states, r, path)
        i = _parse_int(row[c_income], r, "income", 1, N_INCOME, path)
        e = (_parse_int(row[c_eth], r, "ethnicity", 1, N_ETH, path)
             if (spec.use_ethnicity and c_eth is not None) else 0)
        if direct:
            nv = _parse_float(row[c_nv], r, "n_voters", path)
            if nv < 0:
                raise DataError(f"{path}: row {r}: negative n_voters")
            na, tr = nv, 1.0
        else:
            na = _parse_float(row[c_na], r, "n_adults", path)
            tr = _parse_float(row[c_tr], r, "turnout_rate", path)
            if na < 0:
                raise DataError(f"{path}: row {r}: negative n_adults")
            if not 0.0 <= tr <= 1.0:
                raise DataError(f"{path}: row {r}: turnout_rate {tr} "
                                f"outside [0, 1]")
        keys.append((s, i, e))
        vals.append((na, tr))

    # parsed keys lie inside the cross: find repeats and gaps by position
    keys = np.array(keys, dtype=int).reshape(-1, 3)
    n_states = states.n_states if states is not None else keys[:, 0].max()
    pos = cell_position(*keys.T, spec.use_ethnicity)
    first = np.unique(pos, return_index=True)[1]
    if len(first) < len(pos):
        j = np.setdiff1d(np.arange(len(pos)), first)[0]
        raise DataError(f"{path}: row {j + 2}: duplicate cell key "
                        f"{tuple(keys[j].tolist())}")
    cross = cell_cross(n_states, spec.use_ethnicity)
    missing = np.setdiff1d(np.arange(len(cross[0])), pos)
    if len(missing):
        shown = ", ".join(f"(state={s}, income={i})" if e == 0
                          else f"(state={s}, income={i}, ethnicity={e})"
                          for s, i, e in zip(*(k[missing[:10]] for k in cross)))
        more = "" if len(missing) <= 10 else f" (+{len(missing) - 10} more)"
        raise DataError(f"{path}: missing cells: {shown}{more}")
    na, tr = np.array(vals).reshape(-1, 2)[np.argsort(pos)].T.copy()
    return CellTable(*cross, na, tr)


def load_recorded(path, states: StateTable) -> np.ndarray:
    """Read recorded two-party Republican shares (state,rep_share) into an
    array indexed by state; every state needs one."""
    header, rows = _read_rows(path)
    c_state = _col(header, "state", path)
    c_share = _col(header, "rep_share", path)
    rec = np.full(states.n_states, np.nan)
    for r, row in rows:
        idx = _state_index(row[c_state].strip(), states, r, path)
        rec[idx - 1] = _parse_float(row[c_share], r, "rep_share", path)
    if np.any(np.isnan(rec)):
        missing = [states.labels[i] for i in np.flatnonzero(np.isnan(rec))]
        raise DataError(f"{path}: missing recorded share for {missing[:5]}")
    return rec


def load_dataset(survey_path, cells_path, states_path, spec) -> Dataset:
    states = load_states(states_path)
    survey = load_survey(survey_path, spec, states)
    cells = load_cells(cells_path, spec, states)
    return Dataset(survey, cells, states)


# ---------------------------------------------------------------------------
# writers (round-trip support and synthetic-data output)

def key_columns(table, states: StateTable | None, use_ethnicity: bool):
    """Header and columns of a cell table's keys: state label (the index
    when ``states`` is None), income and, if used, ethnicity. Each label is
    one shared string; each code a cached small int."""
    labels = states.labels if states is not None else \
        [str(i) for i in range(1, int(table.state_id.max(initial=0)) + 1)]
    header = ["state", "income"] + (["ethnicity"] if use_ethnicity else [])
    cols = [np.array(labels, dtype=object)[table.state_id - 1],
            table.income_cat.tolist()]
    if use_ethnicity:
        cols.append(table.ethnicity.tolist())
    return header, cols


def _write_csv(path, header, cols) -> None:
    with open(path, "w", newline="", encoding="utf-8") as f:
        w = csv.writer(f)
        w.writerow(header)
        w.writerows(zip(*cols))


def write_states(states: StateTable, path) -> None:
    _write_csv(path, ["state", "avg_income", "prev_rep_share", "region"],
               [states.labels, states.avg_income.tolist(),
                states.prev_rep_share.tolist(), states.region_id.tolist()])


def write_survey(dataset: Dataset, path) -> None:
    """One row per respondent of ``dataset.survey``: cells in canonical
    order, each cell's Republican votes first."""
    cells, n, k = dataset.cells, dataset.survey.n, dataset.survey.k
    header, cols = key_columns(cells, dataset.states, cells.use_ethnicity)
    vote = np.repeat(np.tile([1, 0], len(n)),
                     np.column_stack([k, n - k]).ravel())
    _write_csv(path, header + ["vote"],
               [np.repeat(c, n).tolist() for c in cols] + [vote.tolist()])


def write_cells(cells: CellTable, path, states: StateTable | None = None) -> None:
    header, cols = key_columns(cells, states, cells.use_ethnicity)
    _write_csv(path, header + ["n_adults", "turnout_rate"],
               cols + [cells.n_adults.tolist(), cells.turnout_rate.tolist()])
