import csv
import io
import warnings

import numpy as np
import pytest

from mrpkit.data import (
    CellTable,
    DataError,
    Dataset,
    StateTable,
    Survey,
    cell_cross,
    cell_position,
    load_cells,
    load_recorded,
    load_states,
    load_survey,
    write_cells,
    write_states,
    write_survey,
)
from mrpkit.design import ModelSpec
from mrpkit.synthetic import (Scenario, draw_truth, make_cells, make_states,
                              simulate_poll, write_scenario_files)

from conftest import (make_cell_table, make_state_table, make_survey,
                      survey_from_rows)


def _write(path, text):
    path.write_text(text, encoding="utf-8")
    return str(path)


def _brute_force_counts(rows, n_states, use_eth):
    """(n, k) per cell of respondent rows (state, income, ethnicity, vote)
    by a loop over the rows for each cell of the nested-loop cross."""
    cross = [(s, i, e) for s in range(1, n_states + 1) for i in range(1, 6)
             for e in (range(1, 5) if use_eth else (0,))]
    rows = [tuple(int(x) for x in row) for row in rows]
    return (np.array([sum(r[:3] == c for r in rows) for c in cross]),
            np.array([sum(r[3] for r in rows if r[:3] == c) for c in cross]))


def _assert_counts(survey, rows, n_states, use_eth):
    n, k = _brute_force_counts(rows, n_states, use_eth)
    assert survey.n.dtype == survey.k.dtype == n.dtype
    assert np.array_equal(survey.n, n) and np.array_equal(survey.k, k)


# ---------------------------------------------------------------------------
# load_survey

def test_load_survey_direct_parse(tmp_path):
    p = _write(tmp_path / "survey.csv",
               "state,income,vote\n5,4,1\n5,1,0\n")
    sv = load_survey(p, ModelSpec("M1"))
    assert len(sv) == 2
    assert sv.n_dropped == 0
    # without a state table the cross runs to the largest state read
    _assert_counts(sv, [(5, 4, 0, 1), (5, 1, 0, 0)], 5, False)


def test_load_survey_drops_empty_vote_with_warning(tmp_path):
    p = _write(tmp_path / "survey.csv",
               "state,income,vote\n1,2,1\n1,3,\n")
    with pytest.warns(UserWarning, match="dropped 1"):
        sv = load_survey(p, ModelSpec("M1"))
    assert len(sv) == 1
    assert sv.n_dropped == 1


def test_load_survey_bad_income_names_row(tmp_path):
    p = _write(tmp_path / "survey.csv",
               "state,income,vote\n1,2,1\n1,6,0\n")
    with pytest.raises(DataError, match="row 3"):
        load_survey(p, ModelSpec("M1"))


def test_load_survey_unknown_state_label(tmp_path):
    states = make_state_table(3)
    p = _write(tmp_path / "survey.csv",
               "state,income,vote\nS01,2,1\nZZ,3,0\n")
    with pytest.raises(DataError, match="ZZ"):
        load_survey(p, ModelSpec("M1"), states)


def test_load_survey_deterministic(tmp_path):
    text = "state,income,vote\n" + "".join(
        f"{s},{i},{v}\n" for s, i, v in
        [(1, 2, 1), (2, 5, 0), (1, 1, 1), (2, 3, 0)])
    p1 = _write(tmp_path / "a.csv", text)
    p2 = _write(tmp_path / "b.csv", text)
    s1 = load_survey(p1, ModelSpec("M1"))
    s2 = load_survey(p2, ModelSpec("M1"))
    assert np.array_equal(s1.n, s2.n) and np.array_equal(s1.k, s2.k)


def _brute_force_survey(text, states, use_eth):
    """Per-row parse of survey text: (state, income, ethnicity, vote) of
    the rows with a vote, and the number dropped."""
    rows = list(csv.reader(io.StringIO(text, newline="")))
    col = {name.strip(): j for j, name in enumerate(rows[0])}
    kept, dropped = [], 0
    for row in rows[1:]:
        if row[col["vote"]].strip() == "":
            dropped += 1
            continue
        label = row[col["state"]].strip()
        kept.append((states.label_index[label] if states else int(label),
                     int(row[col["income"]]),
                     int(row[col["ethnicity"]]) if use_eth else 0,
                     int(row[col["vote"]])))
    return np.array(kept, dtype=int).reshape(-1, 4), dropped


@pytest.mark.parametrize("with_states", [True, False])
@pytest.mark.parametrize("newline", ["\n", "\r\n", "\r"])
def test_load_survey_equals_brute_force(tmp_path, with_states, newline):
    rng = np.random.default_rng(4)
    labels = ["S01", "New York, NY", 'The "Big" One', "S 04", "#5"]
    states = StateTable(labels, np.arange(5.0), np.full(5, 0.5),
                        [1, 1, 2, 2, 2])
    n = 400
    sid = rng.integers(1, 6, n)
    buf = io.StringIO(newline="")
    w = csv.writer(buf, lineterminator=newline)
    w.writerow(["vote", "state", "ethnicity", "income"])
    for i in range(n):
        s = (labels[sid[i] - 1] if with_states
             else rng.choice(["{}", " {}", "+{}", "0{}", "{} "]).format(sid[i]))
        vote = rng.choice(["0", "1", "1", "", " "])
        w.writerow([vote, s, rng.integers(1, 5), f"{rng.integers(1, 6)}"])
    text = buf.getvalue()
    p = tmp_path / "survey.csv"
    p.write_bytes(text.encode("utf-8"))
    want, dropped = _brute_force_survey(text, states if with_states else None,
                                        True)
    assert dropped > 0
    with pytest.warns(UserWarning, match=f"dropped {dropped} row"):
        sv = load_survey(str(p), ModelSpec("M2", use_ethnicity=True),
                         states if with_states else None)
    assert sv.n_dropped == dropped
    n_states = 5 if with_states else want[:, 0].max()
    _assert_counts(sv, want, n_states, True)


@pytest.mark.parametrize("rows,message", [
    (["1,2,x", "1,6,1"], "row 5, column 'vote': cannot parse 'x' as integer"),
    (["1,6,1", "1,2,x"], "row 5, column 'income': value 6 outside 1..5"),
    (["1,2,1", "1,2", "9999999,2,1"], "row 6: expected 3 fields, got 2"),
    (["1,2,1", "2,2,1", "9999999,2,1", "1,2"],
     "row 7, column 'state': value 9999999 outside 1..1000000"),
])
def test_load_survey_names_first_bad_row(tmp_path, rows, message):
    p = _write(tmp_path / "survey.csv",
               "state,income,vote\n" + "1,1,1\n" * 3 + "\n".join(rows) + "\n")
    with pytest.raises(DataError) as err:
        load_survey(p, ModelSpec("M1"))
    assert str(err.value) == f"{p}: {message}"


def test_load_survey_drops_empty_vote_before_checks(tmp_path):
    states = make_state_table(2)
    p = _write(tmp_path / "survey.csv",
               "state,income,vote\nS01,2,1\nZZ,9, \nS02,x,\n")
    with pytest.warns(UserWarning, match="dropped 2"):
        sv = load_survey(p, ModelSpec("M1"), states)
    assert len(sv) == 1 and sv.n_dropped == 2


def test_load_survey_quoted_label_with_comma(tmp_path):
    states = StateTable(["S01", "Washington, DC"], [0.0, 1.0], [0.5, 0.5],
                        [1, 1])
    p = _write(tmp_path / "survey.csv",
               'state,income,vote\n"Washington, DC",3,1\nS01,2,0\n')
    sv = load_survey(p, ModelSpec("M1"), states)
    _assert_counts(sv, [(2, 3, 0, 1), (1, 2, 0, 0)], 2, False)


@pytest.mark.parametrize("text,row", [
    ("state,income,vote\n1,2,1\n\n1,3,0\n", 3),
    ("state,income,vote\n1,2,1\n1,3,0\n\n", 4),
    ("state,income,vote\r\n\r\n1,3,0\r\n", 2)])
def test_load_survey_blank_line_is_an_error(tmp_path, text, row):
    p = tmp_path / "survey.csv"
    p.write_bytes(text.encode())
    with pytest.raises(DataError,
                       match=rf"survey.csv: row {row}: expected 3 fields, "
                             r"got 0"):
        load_survey(str(p), ModelSpec("M1"))


@pytest.mark.parametrize("text", [
    'state,income,vote\n"1\n",2,1\n', "state,income,vote\n1,2,1\n1,\x00,\n"])
def test_load_survey_refuses_what_it_cannot_split(tmp_path, text):
    # a line break inside quotes or a NUL is refused rather than misread
    p = tmp_path / "survey.csv"
    p.write_bytes(text.encode())
    with pytest.raises(DataError, match="survey.csv: cannot be read one "
                                        "record per line"):
        load_survey(str(p), ModelSpec("M1"))


def test_load_survey_header_only(tmp_path):
    p = _write(tmp_path / "survey.csv", "state,income,vote\n")
    sv = load_survey(p, ModelSpec("M1"))
    assert len(sv) == 0 and sv.n_dropped == 0


# ---------------------------------------------------------------------------
# load_cells

def _cells_csv(S, eth=False, skip=None):
    lines = ["state,income" + (",ethnicity" if eth else "")
             + ",n_adults,turnout_rate"]
    for s in range(1, S + 1):
        for i in range(1, 6):
            for e in (range(1, 5) if eth else (None,)):
                if skip and (s, i) == skip:
                    continue
                key = f"{s},{i}" + (f",{e}" if eth else "")
                lines.append(f"{key},1000,0.6")
    return "\n".join(lines) + "\n"


def test_load_cells_250(tmp_path):
    p = _write(tmp_path / "cells.csv", _cells_csv(50))
    cells = load_cells(p, ModelSpec("M1"))
    assert len(cells) == 250


def test_load_cells_1000_with_ethnicity(tmp_path):
    p = _write(tmp_path / "cells.csv", _cells_csv(50, eth=True))
    cells = load_cells(p, ModelSpec("M1", use_ethnicity=True))
    assert len(cells) == 1000


def test_load_cells_missing_cell_named(tmp_path):
    p = _write(tmp_path / "cells.csv", _cells_csv(5, skip=(3, 2)))
    with pytest.raises(DataError, match=r"state=3, income=2"):
        load_cells(p, ModelSpec("M1"))


def test_load_cells_duplicate_key(tmp_path):
    text = _cells_csv(2) + "2,5,1000,0.6\n"
    p = _write(tmp_path / "cells.csv", text)
    with pytest.raises(DataError, match="duplicate"):
        load_cells(p, ModelSpec("M1"))


def test_load_cells_duplicate_key_names_second_row(tmp_path):
    # (1, 2) first on row 3, again on row 8 with four rows between
    text = _cells_csv(2).replace("2,2,1000,0.6", "1,2,1000,0.6")
    p = _write(tmp_path / "cells.csv", text)
    with pytest.raises(DataError,
                       match=r"cells.csv: row 8: duplicate cell key \(1, 2, 0\)"):
        load_cells(p, ModelSpec("M1"))


def test_load_cells_bad_turnout(tmp_path):
    text = _cells_csv(2).replace("2,5,1000,0.6", "2,5,1000,1.4")
    p = _write(tmp_path / "cells.csv", text)
    with pytest.raises(DataError, match="turnout_rate"):
        load_cells(p, ModelSpec("M1"))


def test_load_cells_direct_n_voters(tmp_path):
    lines = ["state,income,n_voters"]
    for s in (1, 2):
        for i in range(1, 6):
            lines.append(f"{s},{i},{100 * s + i}")
    p = _write(tmp_path / "cells.csv", "\n".join(lines) + "\n")
    cells = load_cells(p, ModelSpec("M1"))
    assert cells.n_voters[0] == 101.0
    assert cells.n_voters[-1] == 205.0


@pytest.mark.parametrize("col,row", [("n_adults", "2,5,inf,0.6"),
                                     ("n_adults", "2,5,nan,0.6"),
                                     ("turnout_rate", "2,5,1000,nan")])
def test_load_cells_rejects_non_finite(tmp_path, col, row):
    text = _cells_csv(2).replace("2,5,1000,0.6", row)
    p = _write(tmp_path / "cells.csv", text)
    with pytest.raises(DataError, match=rf"cells.csv: row 11, column '{col}'"):
        load_cells(p, ModelSpec("M1"))


@pytest.mark.parametrize("value", ["nan", "inf", "lots"])
def test_load_cells_rejects_bad_n_voters(tmp_path, value):
    lines = ["state,income,n_voters"]
    for s in (1, 2):
        for i in range(1, 6):
            lines.append(f"{s},{i},{value if (s, i) == (2, 3) else 100}")
    p = _write(tmp_path / "cells.csv", "\n".join(lines) + "\n")
    with pytest.raises(DataError,
                       match=r"cells.csv: row 9, column 'n_voters'"):
        load_cells(p, ModelSpec("M1"))


# ---------------------------------------------------------------------------
# the cell index

@pytest.mark.parametrize("use_eth", [False, True])
def test_cell_cross_is_canonical_order(use_eth):
    S = 4
    loop = [(s, i, e) for s in range(1, S + 1) for i in range(1, 6)
            for e in (range(1, 5) if use_eth else (0,))]
    keys = cell_cross(S, use_eth)
    assert list(zip(*(k.tolist() for k in keys))) == loop
    assert np.array_equal(cell_position(*keys, use_eth), np.arange(len(loop)))


@pytest.mark.parametrize("use_eth", [False, True])
def test_cell_counts_brute_force(tmp_path, use_eth):
    # the counts of load_survey, and of the tests' survey_from_rows, against
    # a loop over the rows for each cell of the cell table
    S, n = 3, 500
    rng = np.random.default_rng(4)
    eth = rng.integers(1, 5, n) if use_eth else np.zeros(n, dtype=int)
    rows = list(zip(rng.integers(1, S + 1, n).tolist(),
                    rng.integers(1, 6, n).tolist(), eth.tolist(),
                    rng.integers(0, 2, n).tolist()))
    states = make_state_table(S)
    cells = make_cell_table(S, use_ethnicity=use_eth)
    p = _write(tmp_path / "survey.csv",
               "state,income,ethnicity,vote\n" + "".join(
                   f"{states.labels[s - 1]},{i},{e or ''},{v}\n"
                   for s, i, e, v in rows))
    loaded = load_survey(p, ModelSpec("M1", use_eth), states)
    for survey in (loaded, survey_from_rows(cells, *zip(*rows))):
        for c in range(len(cells)):
            key = (cells.state_id[c], cells.income_cat[c], cells.ethnicity[c])
            votes = [v for s, i, e, v in rows if (s, i, e) == key]
            assert survey.n[c] == len(votes)
            assert survey.k[c] == sum(votes)
        assert len(survey.n) == len(cells) and len(survey) == n


def test_cell_counts_empty_cells():
    ds = Dataset(make_survey(2, 0), make_cell_table(2), make_state_table(2))
    n_c, k_c = ds.survey.n, ds.survey.k
    assert n_c.shape == k_c.shape == (10,) and n_c.sum() == k_c.sum() == 0


@pytest.mark.parametrize("n_cells", [9, 11])
def test_dataset_refuses_counts_of_wrong_length(n_cells):
    for n, k in ((n_cells, n_cells), (10, n_cells), (n_cells, 10)):
        with pytest.raises(DataError, match=rf"survey counts of shapes "
                                            rf"\({n},\) and \({k},\) do "
                                            r"not fit the 10 cells"):
            Dataset(Survey(np.zeros(n), np.zeros(k)), make_cell_table(2),
                    make_state_table(2))


# ---------------------------------------------------------------------------
# CellTable.n_voters

def test_voter_weights_product():
    cells = CellTable([1, 1, 1, 1, 1], [1, 2, 3, 4, 5],
                      [0] * 5, [1000, 0, 500, 200, 10],
                      [0.6, 0.9, 0.5, 1.0, 0.0])
    assert cells.n_voters[0] == 600.0
    assert cells.n_voters[1] == 0.0


def test_voter_weights_brute_force_oracle():
    cells = make_cell_table(50)
    assert len(cells) == 250
    # independent cell-by-cell recomputation
    for na, tr, nv in zip(cells.n_adults.tolist(), cells.turnout_rate.tolist(),
                          cells.n_voters.tolist()):
        assert nv == na * tr


# ---------------------------------------------------------------------------
# load_states and round trips

def _small_table(loader, states):
    """Text of a valid table for the three states ``states`` (the cells by
    state index) and the function that loads it."""
    if loader == "survey":
        return ("state,income,vote\nS01,2,1\nS02,3,0\n",
                lambda p: load_survey(p, ModelSpec("M1"), states))
    if loader == "cells":
        return _cells_csv(3), lambda p: load_cells(p, ModelSpec("M1"))
    if loader == "states":
        return ("state,avg_income,prev_rep_share,region\n"
                "S01,1,0.5,1\nS02,2,0.5,1\n", load_states)
    return ("state,rep_share\nS01,0.5\nS02,0.5\nS03,0.5\n",
            lambda p: load_recorded(p, states))


_UNSPLIT = "cannot be read one record per line"


@pytest.mark.parametrize("loader,edit,message", [
    pytest.param("cells", ("1,2,1000,0.6", "1,2"),
                 "row 3: expected 4 fields, got", id="cells"),
    pytest.param("states", ("S02,2,0.5,1", "S02"),
                 "row 3: expected 4 fields, got", id="states"),
    pytest.param("recorded", ("S02,0.5", "S02,0.5,"),
                 "row 3: expected 2 fields, got", id="recorded"),
    # a NUL, or a line break inside quotes in a field that still parses,
    # is refused as in a survey
    pytest.param("cells", ("1,1,", "1,\x001,"), _UNSPLIT, id="cells-NUL"),
    pytest.param("states", ("S01,1,", "S01,1\x00,"), _UNSPLIT,
                 id="states-NUL"),
    pytest.param("recorded", ("S03,0.5", "S03,\x000.5"), _UNSPLIT,
                 id="recorded-NUL"),
    pytest.param("cells", ("1,2,1000,", '1,2,"1000\n",'), _UNSPLIT,
                 id="cells-quoted-line-break"),
    pytest.param("states", ("S01,1,", 'S01,"1\n",'), _UNSPLIT,
                 id="states-quoted-line-break"),
    pytest.param("recorded", ("S01,0.5", 'S01,"0.5\n"'), _UNSPLIT,
                 id="recorded-quoted-line-break"),
    # an unclosed quote swallows the rest of the file into one field
    pytest.param("survey", ("S02,3,0\n", '"S02,3,0\n' + "S01,1,1\n" * 20000),
                 r"row 3: field larger than field limit \(131072\)",
                 id="survey-unclosed-quote"),
])
def test_loaders_check_field_count(tmp_path, loader, edit, message):
    text, load = _small_table(loader, make_state_table(3))
    p = _write(tmp_path / f"{loader}.csv", text.replace(*edit, 1))
    with pytest.raises(DataError, match=rf"{loader}.csv: {message}"):
        load(p)


@pytest.mark.parametrize("loader", ["survey", "cells", "states", "recorded"])
def test_loaders_name_a_byte_that_is_not_utf8(tmp_path, loader):
    text, load = _small_table(loader, make_state_table(3))
    data = bytearray(text.encode())
    at = data.index(b"\n") + 2  # in the first data row
    data[at] = 0xFF
    p = tmp_path / f"{loader}.csv"
    p.write_bytes(bytes(data))
    with pytest.raises(DataError) as err:
        load(str(p))
    assert str(err.value) == f"{p}: byte 0xff at offset {at} is not UTF-8"


def _mutants(data: bytes, rng):
    """(name, bytes) of corrupted copies of a CSV table: truncations, one
    byte inserted, deleted, flipped or set to 0xff, a bad value in one field,
    a row duplicated or deleted, a BOM, other line ends, a NUL and a quoted
    line break."""
    def at():
        return int(rng.integers(len(data)))

    end = b"\r\n" if b"\r\n" in data else b"\n"
    lines = data.splitlines()

    def with_line(i, line):
        return end.join(lines[:i] + [line] + lines[i + 1:]) + end

    def row():
        return int(rng.integers(1, len(lines)))

    out = [("empty", b"")]
    for _ in range(3):
        i = at()
        out.append((f"truncated at {i}", data[:i]))
    for _ in range(2):
        i, b = at(), bytes([int(rng.integers(256))])
        out.append((f"{b!r} inserted at {i}", data[:i] + b + data[i:]))
        i = at()
        out.append((f"byte {i} deleted", data[:i] + data[i + 1:]))
        i, bit = at(), 1 << int(rng.integers(8))
        out.append((f"byte {i} bit {bit} flipped",
                    data[:i] + bytes([data[i] ^ bit]) + data[i + 1:]))
        i = at()
        out.append((f"byte {i} set to 0xff",
                    data[:i] + b"\xff" + data[i + 1:]))
    n_fields = len(lines[0].split(b","))
    for value in (b"nan", b"inf", b"-1", b"x", b""):
        i, j = row(), int(rng.integers(n_fields))
        fields = lines[i].split(b",")
        fields[j] = value
        out.append((f"row {i + 1} field {j + 1} {value!r}",
                    with_line(i, b",".join(fields))))
    i = row()
    out.append((f"row {i + 1} duplicated",
                end.join(lines[:i + 1] + lines[i:]) + end))
    out.append((f"row {i + 1} deleted", end.join(lines[:i] + lines[i + 1:])
                + end))
    out.append(("BOM", b"\xef\xbb\xbf" + data))
    for new_end in (b"\n", b"\r\n", b"\r"):
        out.append((f"line ends {new_end!r}", new_end.join(lines) + new_end))
    i = at()
    out.append(("NUL", data[:i] + b"\x00" + data[i:]))
    i, j = row(), int(rng.integers(n_fields))
    fields = lines[i].split(b",")
    fields[j] = b'"' + fields[j] + b'\n"'
    out.append(("quoted line break", with_line(i, b",".join(fields))))
    return out


@pytest.mark.parametrize("table", ["survey", "cells", "states", "recorded"])
def test_loaders_load_or_name_the_file_on_corrupt_input(tmp_path, table):
    # each corrupted copy loads or raises a DataError that starts with the
    # file's path; never another exception
    sc = Scenario(S=3, n=200, seed=1)
    paths = write_scenario_files(sc, tmp_path / "world")
    states = load_states(paths["states"])
    paths["recorded"] = str(tmp_path / "world" / "recorded.csv")
    _write(tmp_path / "world" / "recorded.csv", "state,rep_share\n" + "".join(
        f"{label},0.{40 + i}\n" for i, label in enumerate(states.labels)))
    load = {"survey": lambda p: load_survey(p, sc.spec, states),
            "cells": lambda p: load_cells(p, sc.spec, states),
            "states": load_states,
            "recorded": lambda p: load_recorded(p, states)}[table]
    data = open(paths[table], "rb").read()
    load(paths[table])
    rng = np.random.default_rng(list(table.encode()))
    refused, wrong = set(), []
    for k, (name, mutant) in enumerate(_mutants(data, rng)):
        path = tmp_path / str(k) / f"{table}.csv"
        path.parent.mkdir()
        path.write_bytes(mutant)
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")  # dropped rows
                load(str(path))
        except DataError as err:
            refused.add(name)
            if not str(err).startswith(f"{path}: "):
                wrong.append((name, str(err)))
        except Exception as err:  # noqa: BLE001
            wrong.append((name, repr(err)))
    assert not wrong
    assert {"empty", "BOM", "NUL", "quoted line break"} <= refused


def test_load_states_standardizes(tmp_path):
    p = _write(tmp_path / "states.csv",
               "state,avg_income,prev_rep_share,region\n"
               "AA,10,0.4,1\nBB,20,0.5,1\nCC,30,0.6,2\n")
    st = load_states(p)
    assert st.labels == ["AA", "BB", "CC"]
    assert abs(st.avg_income.mean()) < 1e-12
    assert abs(st.avg_income.std(ddof=1) - 1.0) < 1e-12
    assert st.label_index["CC"] == 3


def test_load_states_rejects_degenerate_share(tmp_path):
    p = _write(tmp_path / "states.csv",
               "state,avg_income,prev_rep_share,region\n"
               "AA,10,0.0,1\nBB,20,0.5,1\n")
    with pytest.raises(DataError, match="AA"):
        load_states(p)


@pytest.mark.parametrize("col,row", [
    ("avg_income", "BB,nan,0.5,1"), ("avg_income", "BB,inf,0.5,1"),
    ("prev_rep_share", "BB,20,nan,1"), ("prev_rep_share", "BB,20,x,1")])
def test_load_states_rejects_non_finite(tmp_path, col, row):
    # a NaN income would skip standardization (sd > 0 is False for NaN) and
    # a NaN share would pass the (0, 1) check
    p = _write(tmp_path / "states.csv",
               "state,avg_income,prev_rep_share,region\n"
               f"AA,10,0.4,1\n{row}\nCC,30,0.6,2\n")
    with pytest.raises(DataError, match=rf"states.csv: row 3, column '{col}'"):
        load_states(p)


def test_round_trip_states(tmp_path):
    st = make_state_table(7, seed=3)
    path = tmp_path / "states.csv"
    write_states(st, path)
    back = load_states(path)
    assert back.labels == st.labels
    assert np.allclose(back.avg_income, st.avg_income)
    assert np.allclose(back.prev_rep_share, st.prev_rep_share)
    assert np.array_equal(back.region_id, st.region_id)


def test_round_trip_survey_and_cells(tmp_path):
    spec = ModelSpec("M1")
    states = make_state_table(3)
    rng = np.random.default_rng(5)
    cells = make_cell_table(3, seed=5)
    sv = survey_from_rows(cells, rng.integers(1, 4, 40),
                          rng.integers(1, 6, 40), np.zeros(40, dtype=int),
                          rng.integers(0, 2, 40))
    sp, cp = tmp_path / "survey.csv", tmp_path / "cells.csv"
    write_survey(Dataset(sv, cells, states), sp)
    write_cells(cells, cp, states)
    sv2 = load_survey(sp, spec, states)
    cells2 = load_cells(cp, spec, states)
    assert np.array_equal(sv2.n, sv.n) and np.array_equal(sv2.k, sv.k)
    assert np.allclose(cells2.n_adults, cells.n_adults)
    assert np.allclose(cells2.n_voters, cells.n_voters)


@pytest.mark.parametrize("world", ["ethnicity", "no respondents"])
def test_survey_round_trip_keeps_counts(tmp_path, world):
    # write_survey then load_survey gives back each cell's counts
    sc = Scenario(S=4, rung="M2", n=3000, seed=8, use_ethnicity=True)
    states = make_states(sc)
    cells = make_cells(sc, states)
    sv = simulate_poll(draw_truth(sc, states, cells), sc, states, cells).survey
    if world == "no respondents":
        sv = Survey(np.zeros_like(sv.n), np.zeros_like(sv.k))
    p = tmp_path / "survey.csv"
    write_survey(Dataset(sv, cells, states), p)
    back = load_survey(str(p), sc.spec, states)
    assert len(back) == len(sv) and back.n_dropped == 0
    assert np.array_equal(back.n, sv.n) and np.array_equal(back.k, sv.k)


def test_write_survey_rows_in_cell_order_yes_first(tmp_path):
    # each cell's respondents are contiguous, cells in canonical order, and
    # its Republican votes come first
    states = StateTable(["B", "A"], [0.0, 1.0], [0.5, 0.5], [1, 1])
    cells = make_cell_table(2, use_ethnicity=True)
    rng = np.random.default_rng(3)
    n = rng.integers(0, 4, len(cells))
    k = rng.binomial(n, 0.5)
    p = tmp_path / "survey.csv"
    write_survey(Dataset(Survey(n, k), cells, states), p)
    want = ["state,income,ethnicity,vote"]
    c = 0
    for s in ("B", "A"):
        for i in range(1, 6):
            for e in range(1, 5):
                want += ([f"{s},{i},{e},1"] * k[c]
                         + [f"{s},{i},{e},0"] * (n[c] - k[c]))
                c += 1
    assert p.read_text(encoding="utf-8").splitlines() == want
