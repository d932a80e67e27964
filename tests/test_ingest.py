import csv
import math
import re
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from rmtdetect import (
    DataSource,
    DetectorConfig,
    RegionPartition,
    WindowSpec,
    covariance,
    eigen_hermitian,
    les,
    load_csv,
    load_partition,
    standardize,
    sweep,
    write_csv,
)
from rmtdetect.errors import (
    ContractError,
    MalformedInputError,
    ParameterError,
    UnrecoverableRowError,
)
from rmtdetect import ingest
from rmtdetect.ingest import MISSING_POLICIES
from rmtdetect.les import LRF

CSV_3x4 = "node_id,0,1,2,3\na,1.0,2.0,3.0,4.0\nb,5,6,7,8\nc,-1,0.5,2e-1,9\n"


def test_load_csv_parses_finite_matrix(tmp_path):
    p = tmp_path / "d.csv"
    p.write_text(CSV_3x4)
    src = load_csv(p)
    assert src.n == 3 and src.t == 4
    assert src.node_ids == ("a", "b", "c")
    assert src.values[2, 2] == pytest.approx(0.2)


def test_forward_fill_takes_left_neighbor(tmp_path):
    p = tmp_path / "d.csv"
    p.write_text("node_id,0,1,2\na,1.0,,3.0\nb,4,5,6\n")
    src = load_csv(p, policy="forward-fill")
    assert src.values[0, 1] == 1.0


def test_row_mean_policy(tmp_path):
    p = tmp_path / "d.csv"
    p.write_text("node_id,0,1,2\na,1.0,,3.0\nb,4,5,6\n")
    src = load_csv(p, policy="row-mean")
    assert src.values[0, 1] == pytest.approx(2.0)


def test_row_mean_overflow_names_its_row(tmp_path):
    p = tmp_path / "d.csv"
    p.write_text("node_id,0,1,2\na,1e308,1.5e308,\nb,1,2,3\n")
    with pytest.raises(MalformedInputError, match=r"d\.csv row 2 \('a'\).*overflows"):
        load_csv(p, policy="row-mean")


def test_missing_cell_under_error_policy_names_location(tmp_path):
    p = tmp_path / "d.csv"
    p.write_text("node_id,0,1,2\na,1.0,,3.0\nb,4,5,6\n")
    with pytest.raises(MalformedInputError, match="row 2.*column 3"):
        load_csv(p, policy="error")


def test_blank_node_id_is_malformed(tmp_path):
    p = tmp_path / "d.csv"
    p.write_text("node_id,0,1\n,1.0,2.0\nb,3,4\n")
    with pytest.raises(MalformedInputError, match="blank node id"):
        load_csv(p, policy="error")


@pytest.mark.parametrize("policy", ["error", "forward-fill", "row-mean"])
def test_all_missing_row_unrecoverable(tmp_path, policy):
    p = tmp_path / "d.csv"
    p.write_text("node_id,0,1\na,,\nb,3,4\n")
    with pytest.raises(UnrecoverableRowError):
        load_csv(p, policy=policy)


def test_leading_missing_cell_cannot_forward_fill(tmp_path):
    p = tmp_path / "d.csv"
    p.write_text("node_id,0,1\na,,2.0\nb,3,4\n")
    with pytest.raises(MalformedInputError, match="leading"):
        load_csv(p, policy="forward-fill")


MISSING_TOKENS = ("", " ", "nan", "NaN", "inf", "-inf")

# a cell is None (missing, written as one of MISSING_TOKENS) or any finite
# float, so a row's sum can overflow
_cell = st.one_of(st.none(), st.floats(allow_nan=False, allow_infinity=False))


@st.composite
def _grids(draw):
    n, t = draw(st.integers(2, 4)), draw(st.integers(2, 6))
    grid = [[draw(_cell) for _ in range(t)] for _ in range(n)]
    text = [[draw(st.sampled_from(MISSING_TOKENS)) if v is None else repr(v) for v in row]
            for row in grid]
    return grid, text


def _expected_load(grid, policy):
    """Plain re-implementation of the missing-cell policies.

    Returns the filled rows, or (error class, CSV line, CSV column or None)
    for the first row that cannot be loaded.
    """
    out = []
    for line, row in enumerate(grid, start=2):
        missing = [v is None for v in row]
        if all(missing):
            return UnrecoverableRowError, line, None
        if any(missing):
            if policy == "error":
                return MalformedInputError, line, missing.index(True) + 2
            if policy == "forward-fill":
                if missing[0]:
                    return MalformedInputError, line, None
                filled = []
                for v in row:
                    filled.append(filled[-1] if v is None else v)
                row = filled
            else:
                finite = [v for v in row if v is not None]
                mean = sum(finite) / len(finite)  # inf or nan once the sum overflows
                if not math.isfinite(mean):
                    return MalformedInputError, line, None
                row = [mean if v is None else v for v in row]
        out.append(row)
    return out


# forward-fill over consecutive gaps and up to a trailing gap
FILL_GRIDS = [
    ([[1.5, None, None, 4.0, None], [2.0, -3.0, 5.0, 7.0, 1.0]],
     [["1.5", "", "nan", "4.0", "inf"], ["2.0", "-3.0", "5.0", "7.0", "1.0"]]),
    ([[-0.0, None, None, None], [1.0, None, 3.0, None]],
     [["-0.0", " ", "-inf", "NaN"], ["1.0", "", "3.0", ""]]),
]


@settings(max_examples=150, deadline=None)
@given(grid_text=_grids(), policy=st.sampled_from(MISSING_POLICIES))
@example(grid_text=FILL_GRIDS[0], policy="forward-fill")
@example(grid_text=FILL_GRIDS[1], policy="forward-fill")
def test_missing_cell_policies_match_reference(grid_text, policy):
    grid, text = grid_text
    body = "".join(f"n{i}," + ",".join(row) + "\n" for i, row in enumerate(text))
    header = "node_id," + ",".join(str(j) for j in range(len(grid[0]))) + "\n"
    expected = _expected_load(grid, policy)
    with tempfile.TemporaryDirectory() as d:
        path = Path(d) / "d.csv"
        path.write_text(header + body)
        if isinstance(expected, tuple):
            cls, line, column = expected
            with pytest.raises(cls) as err:
                load_csv(path, policy=policy)
            assert re.search(rf"row {line}\b", str(err.value))
            if column is not None:
                assert re.search(rf"column {column}\b", str(err.value))
        else:
            np.testing.assert_allclose(
                load_csv(path, policy=policy).values, expected, rtol=1e-12, atol=1e-8
            )


def _per_cell_load(path, policy):
    """load_csv's values, every cell through _parse_cell one at a time."""
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        next(reader)
        rows = []
        for r, rec in enumerate(reader, start=2):
            vals = np.empty(len(rec) - 1)
            for j, cell in enumerate(rec[1:]):
                try:
                    vals[j] = ingest._parse_cell(cell)
                except MalformedInputError as e:
                    raise MalformedInputError(f"{e} (row {r}, column {j + 2})") from None
            rows.append(ingest._apply_policy(vals, rec[0].strip(), policy, path, r))
    return np.vstack(rows)


def _outcome(load, path, policy):
    try:
        return "ok", load(path, policy).tobytes()
    except MalformedInputError as e:
        return type(e), str(e)


@pytest.mark.parametrize("policy", MISSING_POLICIES)
@pytest.mark.parametrize(
    "row",
    [
        " 1.5 ,\t-2e-3 , -0.0 ,7",   # padded cells
        "nan,2,3,4",
        "1, inf ,3,-inf",
        "1,NaN, ,4",
        "1,,3, 5e-324",
        "1,2.5.1,3,4",               # a bad cell
    ],
)
def test_load_csv_matches_per_cell_parse(tmp_path, row, policy):
    p = tmp_path / "d.csv"
    p.write_text(f"node_id,0,1,2,3\nz,1,2,3,4\nb,{row}\n")
    got = _outcome(lambda path, pol: load_csv(path, policy=pol).values, p, policy)
    assert got == _outcome(_per_cell_load, p, policy)
    if "2.5.1" in row:
        assert got[0] is MalformedInputError and "(row 3, column 3)" in got[1]


def test_non_numeric_cell(tmp_path):
    p = tmp_path / "d.csv"
    p.write_text("node_id,0,1\na,1.0,oops\nb,3,4\n")
    with pytest.raises(MalformedInputError):
        load_csv(p)


LOAD_CSV_EXITS = [
    ("empty", "", "is empty"),
    # a header of no cells fixes no column count
    ("blank-header-line", "\na,1,2\nb,3,4\n", "d.csv row 1: the header row has no cells"),
    ("wrong-cell-count", "node_id,0,1\na,1,2,3\n", "row 2: 3 cells, expected 2"),
    ("blank-lines-only", "node_id,0,1\n\n\n", "has no data rows"),
]


@pytest.mark.parametrize("text, named", [c[1:] for c in LOAD_CSV_EXITS],
                         ids=[c[0] for c in LOAD_CSV_EXITS])
def test_load_csv_input_exits(tmp_path, text, named):
    p = tmp_path / "d.csv"
    p.write_text(text)
    with pytest.raises(MalformedInputError) as info:
        load_csv(p)
    assert info.value.exit_code == 1 and named in str(info.value)


# The header fixes the column count and nothing else: its cells are labels,
# so cells that are no finite number load too.
HEADER_LABELS = [
    ("word-header", "node_id,0,one"),
    ("inf-header", "node_id,0,inf"),
    ("overflowing-header", "node_id,0,1e400"),
]


@pytest.mark.parametrize("header", [c[1] for c in HEADER_LABELS],
                         ids=[c[0] for c in HEADER_LABELS])
def test_load_csv_reads_header_cells_as_labels(tmp_path, header):
    p = tmp_path / "d.csv"
    p.write_text(f"{header}\na,1,2\nb,3,4\n")
    src = load_csv(p)
    assert src.node_ids == ("a", "b")
    np.testing.assert_array_equal(src.values, [[1.0, 2.0], [3.0, 4.0]])


def test_missing_file():
    with pytest.raises(MalformedInputError, match="no such file"):
        load_csv("/nonexistent/data.csv")


def test_unknown_policy(tmp_path):
    p = tmp_path / "d.csv"
    p.write_text(CSV_3x4)
    with pytest.raises(ParameterError):
        load_csv(p, policy="interpolate")


def test_csv_roundtrip(tmp_path, gaussian_source):
    p = tmp_path / "out.csv"
    write_csv(gaussian_source, p)
    back = load_csv(p)
    assert back.node_ids == gaussian_source.node_ids
    np.testing.assert_array_equal(back.values, gaussian_source.values)


def test_datasource_rejects_duplicates_and_tiny_shapes():
    with pytest.raises(ContractError, match="unique"):
        DataSource(np.ones((2, 3)), ("a", "a"))
    with pytest.raises(ContractError, match="node ids must be unique; 'b' repeats$"):
        DataSource(np.ones((4, 3)), ("a", "b", "c", "b"))
    with pytest.raises(ParameterError):
        DataSource(np.ones((1, 5)), ("a",))


DATA_SOURCE_EXITS = [
    ("node-id-count", lambda: DataSource(np.ones((3, 4)), ("a", "b")), "2 node ids for 3 rows"),
    ("non-finite-cell", lambda: DataSource(np.array([[1.0, np.nan], [2.0, 3.0]]), ("a", "b")),
     "data source contains non-finite cells"),
    ("restrict-to-an-unknown-node",
     lambda: DataSource(np.ones((2, 3)), ("a", "b")).restrict(("a", "zz")),
     "unknown node id 'zz'"),
]


@pytest.mark.parametrize("make, named", [c[1:] for c in DATA_SOURCE_EXITS],
                         ids=[c[0] for c in DATA_SOURCE_EXITS])
def test_datasource_contract_exits(make, named):
    with pytest.raises(ContractError) as info:
        make()
    assert info.value.exit_code == 1 and named in str(info.value)


def test_datasource_is_immutable(gaussian_source):
    with pytest.raises(ValueError):
        gaussian_source.values[0, 0] = 99.0


# --- windowing -------------------------------------------------------------


def test_window_full_span(gaussian_source):
    # T == t leaves one window, ending at the last sample and covering it all
    cfg = DetectorConfig(window=WindowSpec(T=gaussian_source.t), functions=("LRF",))
    series = sweep(gaussian_source, cfg)
    np.testing.assert_array_equal(series.t, [gaussian_source.t - 1])
    whole = les.les(eigen_hermitian(covariance(standardize(gaussian_source.values))), LRF)
    assert series.data[("ALL", "LRF")].tau[0] == whole


def test_windowspec_validation():
    with pytest.raises(ParameterError):
        WindowSpec(T=0)
    with pytest.raises(ParameterError):
        WindowSpec(T=10, stride=0)
    with pytest.raises(ParameterError):
        WindowSpec(T=10, L=0)


# --- partitions ------------------------------------------------------------


def test_load_partition(tmp_path):
    p = tmp_path / "regions.json"
    p.write_text('{"A": ["a", "b"], "B": ["c"], "layout": {"a": [0, 0], "b": [1, 0], "c": [0, 1]}}')
    part = load_partition(p)
    assert part.regions["A"] == ("a", "b")
    assert part.layout["c"] == (0.0, 1.0)
    assert part.region_of("c") == "B"
    assert part.region_of("zz") is None


def test_partition_rejects_overlap():
    with pytest.raises(ContractError, match="appears in regions"):
        RegionPartition({"A": ("a",), "B": ("a",)})


def test_partition_rejects_empty_region():
    with pytest.raises(ContractError, match="empty"):
        RegionPartition({"A": ()})


def test_partition_layout_must_cover_nodes():
    with pytest.raises(ContractError, match="layout missing"):
        RegionPartition({"A": ("a", "b")}, layout={"a": (0, 0)})


def test_partition_bad_json(tmp_path):
    p = tmp_path / "regions.json"
    p.write_text("not json")
    with pytest.raises(MalformedInputError):
        load_partition(p)


def test_partition_with_no_regions_and_no_layout(tmp_path):
    p = tmp_path / "regions.json"
    p.write_text("{}")
    with pytest.raises(MalformedInputError, match="defines no regions and no layout") as info:
        load_partition(p)
    assert info.value.exit_code == 1
