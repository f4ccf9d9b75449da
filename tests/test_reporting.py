"""Artifact round trips, ingestion diagnostics, survival summaries."""

import csv
import json
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from roybounds import (
    ConditionalCdfTable,
    ConfidenceBand,
    EvaluationGrid,
    ObservationSample,
    band_values_at,
    cost_bounds_pf,
    cost_survival,
    generate_sample,
    ingest_csv,
    population_tables,
    write_band_csv,
    write_sample_csv,
    write_surface_csv,
    write_table_csv,
)
from roybounds import reporting
from roybounds.errors import DomainError
from roybounds.reporting import (
    fmt,
    json_ready,
    result_data,
    write_if_curve_csv,
    write_survival_csv,
)

from conftest import interior_grid
from reference import parse_float, read_long_csv


# -- float formatting ------------------------------------------------------------

def test_fmt_parse_round_trip_is_bit_exact():
    values = [0.1, 1.0 / 3.0, -2.5e-17, 7.0, 1e300, -1e-300, 0.0, -0.0]
    for x in values:
        assert parse_float(fmt(x)) == x
    assert parse_float(fmt(math.inf)) == math.inf
    assert parse_float(fmt(-math.inf)) == -math.inf
    assert fmt(math.nan) == ""
    assert math.isnan(parse_float(""))


def test_json_ready_replaces_non_finite():
    out = json_ready({"a": math.nan, "b": math.inf, "c": np.float64(0.25),
                      "d": np.array([1.0, math.nan])})
    assert out == {"a": None, "b": "inf", "c": 0.25, "d": [1.0, None]}
    json.dumps(out)


@pytest.mark.parametrize("arr", [
    np.array([1.0, math.nan, -0.0, 2.5e-300]),
    np.array([[math.inf, 1.0], [-math.inf, math.nan]]),
    np.array([0.5, -0.0, 1e300]),
    np.array([[True, False], [False, True]]),
    np.array([-3, 0, 7], dtype=np.int8),
    np.arange(6, dtype=np.uint16).reshape(2, 3),
    np.array([1, 2, 3], dtype=np.int64),
    np.zeros((0, 2)),
])
def test_json_ready_arrays_equal_the_per_element_path(arr):
    want = [json_ready(v) for v in arr.tolist()]
    got = json_ready(arr)
    assert repr(got) == repr(want)
    assert json.dumps(got) == json.dumps(want)


# -- sample ingestion ------------------------------------------------------------

def _write(path, text):
    path.write_text(text)
    return path


def test_ingest_three_rows(tmp_path):
    p = _write(tmp_path / "s.csv", "y,d,z\n1.5,1,0.2\n2.0,0,0.4\n0.5,1,0.9\n")
    s = ingest_csv(p)
    assert s.n == 3
    assert np.array_equal(s.y, [1.5, 2.0, 0.5])
    assert np.array_equal(s.d, [1, 0, 1])
    assert s.lower_support_bound == 0.0


def test_ingest_header_case_and_order(tmp_path):
    p = _write(tmp_path / "s.csv", "Z,Y,D\n0.2,1.5,1\n")
    s = ingest_csv(p)
    assert s.y[0] == 1.5 and s.z[0] == 0.2 and s.d[0] == 1


def test_ingest_names_bad_sector_row(tmp_path):
    rows = ["y,d,z"] + ["1.0,1,0.5"] * 5 + ["1.0,2,0.5"]
    p = _write(tmp_path / "s.csv", "\n".join(rows) + "\n")
    with pytest.raises(DomainError, match="row 7"):
        ingest_csv(p)


def test_ingest_names_non_numeric_cell(tmp_path):
    p = _write(tmp_path / "s.csv", "y,d,z\n1.0,1,0.5\nother,1,0.5\n")
    with pytest.raises(DomainError, match="row 3.*'y'"):
        ingest_csv(p)


def test_ingest_missing_column(tmp_path):
    p = _write(tmp_path / "s.csv", "y,d\n1.0,1\n")
    with pytest.raises(DomainError, match="missing column.*z"):
        ingest_csv(p)


def test_ingest_support_bound_violation(tmp_path):
    p = _write(tmp_path / "s.csv",
               "y,d,z,b_lower\n1.0,1,0.5,0.5\n0.2,0,0.4,0.5\n")
    with pytest.raises(DomainError, match="below the support bound"):
        ingest_csv(p)


def test_ingest_inconstant_bound_rejected(tmp_path):
    p = _write(tmp_path / "s.csv",
               "y,d,z,b_lower\n1.0,1,0.5,0.0\n1.2,0,0.4,0.1\n")
    with pytest.raises(DomainError, match="constant"):
        ingest_csv(p)


def test_ingest_empty_and_header_only(tmp_path):
    with pytest.raises(DomainError, match="no header"):
        ingest_csv(_write(tmp_path / "a.csv", ""))
    with pytest.raises(DomainError, match="no data"):
        ingest_csv(_write(tmp_path / "b.csv", "y,d,z\n"))


# Accepted files: (text, y, d, z, lower support bound), as the csv-module
# reader this one replaced read them.
_ACCEPTED = {
    "crlf": ("y,d,z\r\n1.5,1,0.2\r\n2.0,0,0.4\r\n", [1.5, 2.0], [1, 0], [0.2, 0.4], 0.0),
    "cr-only": ("y,d,z\r1.5,1,0.2\r2.0,0,0.4\r", [1.5, 2.0], [1, 0], [0.2, 0.4], 0.0),
    "comment-between-rows": ("y,d,z\n1.5,1,0.2\n# note, 1\n  # x\n2.0,0,0.4\n",
                             [1.5, 2.0], [1, 0], [0.2, 0.4], 0.0),
    "blank-between-rows": ("y,d,z\n1.5,1,0.2\n\n2.0,0,0.4\n\n",
                           [1.5, 2.0], [1, 0], [0.2, 0.4], 0.0),
    "padded": (" Y , D ,z\t\n 1.5 , 1 ,\t0.2 \n", [1.5], [1], [0.2], 0.0),
    "quoted": ('"y",d,z\n"1.5","1","0.2" \n"#1",0,0.4\n', [1.5], [1], [0.2], 0.0),
    "extra-columns": ("y,d,z,note,w\n1.5,1,0.2,text,\n2.0,0,0.4,\"a,b\",1\n",
                      [1.5, 2.0], [1, 0], [0.2, 0.4], 0.0),
    "trailing-comma": ("y,d,z,\n1.5,1,0.2,\n", [1.5], [1], [0.2], 0.0),
    "duplicated-y": ("y,d,z,y\n1.5,1,0.2,2.5\n", [2.5], [1], [0.2], 0.0),
    "d-spellings": ("y,d,z\n1.5,1.0,0.2\n2.0,0e0,0.4\n", [1.5, 2.0], [1, 0], [0.2, 0.4], 0.0),
    "one-row": ("y,d,z\n1e-3,0,-0.1\n", [0.001], [0], [-0.1], 0.0),
    "config-lines": ('# config: {"a": 1, "b": [1, 2]}\n# config: x\ny,d,z,b_lower\n'
                     "1.5,1,0.2,0.5\n2.0,0,0.4,0.5\n", [1.5, 2.0], [1, 0], [0.2, 0.4], 0.5),
    "number-spellings": ("y,d,z\n+1.5E0,1,.2\n2.,-0,4e-1\n", [1.5, 2.0], [1, 0],
                         [0.2, 0.4], 0.0),
}

# Rejected files: (text, message), again as the replaced reader gave them.
_REJECTED = {
    "short-row": ("y,d,z\n1.5,1,0.2\n2.0,0\n", "row 3: missing value for column 'z'"),
    "nan-y": ("y,d,z\n1.5,1,0.2\nnan,0,0.4\n", "row 3: column 'y' is not numeric: 'nan'"),
    "empty-cell": ("y,d,z\n,1,0.2\n", "row 2: column 'y' is not numeric: ''"),
    "spaces-line": ("y,d,z\n1.5,1,0.2\n   \n", "row 3: column 'y' is not numeric: '   '"),
    "inline-comment": ("y,d,z\n1.5,1,0.2 # c\n", "row 2: column 'z' is not numeric: '0.2 # c'"),
    "inf-z": ("y,d,z\n1.5,1,inf\n", "row 2: y and z must be finite"),
    "d-half": ("y,d,z\n1.5,0.5,0.2\n", "row 2: d must be 0 or 1, got '0.5'"),
    "blank-b-lower": ("y,d,z,b_lower\n1.5,1,0.2,0.5\n2.0,0,0.4,\n",
                      "row 3: column 'b_lower' is not numeric: ''"),
    "inconstant-b-lower": ("y,d,z,b_lower\n1.5,1,0.2,0.5\n2.0,0,0.4,0.25\n",
                           "row 3: b_lower must be constant across the file"),
    "below-bound": ("y,d,z,b_lower\n1.5,1,0.2,1.0\n0.5,0,0.4,1.0\n0.7,1,0.4,1.0\n",
                    "2 row(s) have y below the support bound 1.0, first at row 3"),
    "physical-line": ("# c\r\n\r\ny,d,z\r\n1.5,1,0.2\r\n\r\n# x\r\n1.5,2,0.2\r\n",
                      "row 7: d must be 0 or 1, got '2'"),
    "first-bad-row-wins": ("y,d,z\n1.5,0.5,0.2\nabc,1,0.2\n",
                           "row 2: d must be 0 or 1, got '0.5'"),
    "parse-error-first": ("y,d,z\nabc,1,0.2\n1.5,0.5,0.2\n",
                          "row 2: column 'y' is not numeric: 'abc'"),
    "d-before-b-lower": ("y,d,z,b_lower\n1.5,0.5,0.2,\n", "row 2: d must be 0 or 1, got '0.5'"),
    "missing-column": ("y,d\n1.5,1\n", "missing column(s): z"),
    "header-only": ("# c\ny,d,z\n\n", "no data rows"),
    "comments-only": ("# c\n\n", "empty file: no header row"),
}


@pytest.mark.parametrize("case", sorted(_ACCEPTED))
def test_ingest_accepts(tmp_path, case):
    text, y, d, z, bound = _ACCEPTED[case]
    (tmp_path / "s.csv").write_bytes(text.encode())
    s = ingest_csv(tmp_path / "s.csv")
    assert s.y.tolist() == y and s.d.tolist() == d and s.z.tolist() == z
    assert s.lower_support_bound == bound
    assert (s.y.dtype, s.d.dtype, s.z.dtype) == (np.float64, np.int8, np.float64)


@pytest.mark.parametrize("case", sorted(_REJECTED))
def test_ingest_rejects(tmp_path, case):
    text, message = _REJECTED[case]
    (tmp_path / "s.csv").write_bytes(text.encode())
    with pytest.raises(DomainError) as info:
        ingest_csv(tmp_path / "s.csv")
    assert str(info.value) == message


@pytest.mark.parametrize("text, message", [
    ("y,d,z\n1_000,1,0.2\n", "row 2: column 'y' is not numeric: '1_000'"),
    ("y,d,z\n1.5,1,٠.5\n", "row 2: column 'z' is not numeric: '٠.5'"),
    ('y,d,z,note\n1.5,1,0.2,"a\nb"\n',
     "a quoted cell is not closed on its line: '1.5,1,0.2,\"a'"),
    ('y,d,z\n1.5,1,"0.2\n# c\n', "a quoted cell is not closed on its line: '1.5,1,\"0.2'"),
], ids=["digit-separator", "non-ascii-digit", "quoted-line-break", "unclosed-quote"])
def test_ingest_rejects_what_the_c_reader_cannot_read(tmp_path, text, message):
    # float() accepts '1_000' and non-ASCII digits, and the csv module let a
    # quoted cell run over line ends; the columnar reader takes neither
    (tmp_path / "s.csv").write_bytes(text.encode())
    with pytest.raises(DomainError) as info:
        ingest_csv(tmp_path / "s.csv")
    assert str(info.value) == message


def _reference_ingest(path):
    """The csv-module reader the columnar one replaced, cell by cell.

    Returns (y, d, z, bound) or the DomainError message.
    """
    with open(path, newline="", encoding="utf-8") as handle:
        reader = csv.reader(handle)
        header, rows = None, []
        for row in reader:
            if not row or row[0].lstrip().startswith("#"):
                continue
            if header is None:
                header = {c.strip().lower(): k for k, c in enumerate(row)}
                missing = [c for c in ("y", "d", "z") if c not in header]
                if missing:
                    return f"missing column(s): {', '.join(missing)}"
                continue
            line, values = reader.line_num, {}
            for name in [c for c in ("y", "d", "z", "b_lower") if c in header]:
                if name == "b_lower":
                    if values["d"] not in (0.0, 1.0):
                        return f"row {line}: d must be 0 or 1, got {row[header['d']]!r}"
                    if not (math.isfinite(values["y"]) and math.isfinite(values["z"])):
                        return f"row {line}: y and z must be finite"
                k = header[name]
                if k >= len(row):
                    return f"row {line}: missing value for column {name!r}"
                try:
                    values[name] = parse_float(row[k])
                except ValueError:
                    values[name] = math.nan
                if math.isnan(values[name]):
                    return f"row {line}: column {name!r} is not numeric: {row[k]!r}"
            if values["d"] not in (0.0, 1.0):
                return f"row {line}: d must be 0 or 1, got {row[header['d']]!r}"
            if not (math.isfinite(values["y"]) and math.isfinite(values["z"])):
                return f"row {line}: y and z must be finite"
            if rows and values.get("b_lower", 0.0) != rows[0][3]:
                return f"row {line}: b_lower must be constant across the file"
            rows.append((values["y"], values["d"], values["z"], values.get("b_lower", 0.0), line))
    if header is None:
        return "empty file: no header row"
    if not rows:
        return "no data rows"
    y, d, z, b, lines = (list(c) for c in zip(*rows))
    below = [k for k, v in enumerate(y) if v < b[0] - 1e-12]
    if below:
        return (f"{len(below)} row(s) have y below the support bound {b[0]!r}, "
                f"first at row {lines[below[0]]}")
    try:  # a bound of -inf passes the row checks but not the sample's own
        ObservationSample(y=np.array(y), d=np.array(d), z=np.array(z), lower_support_bound=b[0])
    except DomainError as exc:
        return str(exc)
    return y, d, z, b[0]


_CELLS = ["1.5", "2", "0", "1", "0.25", '"0.5"', " 1 ", "", "nan", "inf", "-inf", "0e0",
          "1.0", "-3", "1e400", "abc", '"', '1"5', '"1"5', "#", " #x", "\t", "\x0c2",
          "\xa01", "2.", ".", "+1", "Infinity", '""']
_HEADERS = ["y,d,z", "Z, y ,D", "y,d,z,b_lower", "b_lower,y,d,z,w", "y,y,d,z", '"y",d,"z"',
            "y,d"]


@settings(max_examples=300, deadline=None)
@given(header=st.sampled_from(_HEADERS),
       rows=st.lists(st.lists(st.sampled_from(_CELLS), min_size=0, max_size=6), max_size=6),
       newline=st.sampled_from(["\n", "\r\n", "\r"]), end=st.booleans(),
       block=st.sampled_from([reporting._LINE_BLOCK, 1, 7]))
def test_ingest_matches_the_csv_module_reader(tmp_path_factory, header, rows, newline, end,
                                              block):
    lines = [header] + [",".join(cells) for cells in rows]
    # a quoted cell left open at a line end is rejected now (see above)
    assume(all(len(list(csv.reader([line, ""]))) == 2 for line in lines if '"' in line))
    path = tmp_path_factory.mktemp("fuzz") / "s.csv"
    path.write_bytes((newline.join(lines) + (newline if end else "")).encode())
    expected = _reference_ingest(path)
    # small blocks split the text into lines in several pieces
    default, reporting._LINE_BLOCK = reporting._LINE_BLOCK, block
    try:
        s = ingest_csv(path)
    except DomainError as exc:
        assert str(exc) == expected
        return
    finally:
        reporting._LINE_BLOCK = default
    y, d, z, bound = expected
    assert s.y.tobytes() == np.array(y).tobytes() and s.z.tobytes() == np.array(z).tobytes()
    assert s.d.tolist() == d and s.lower_support_bound == bound


def test_sample_round_trip_bit_exact(tmp_path, quasi_dgp):
    s = generate_sample(quasi_dgp, 500, seed=3)
    p = tmp_path / "sample.csv"
    write_sample_csv(s, p, config={"seed": 3})
    back = ingest_csv(p)
    assert np.array_equal(back.y, s.y)
    assert np.array_equal(back.d, s.d)
    assert np.array_equal(back.z, s.z)
    assert back.lower_support_bound == s.lower_support_bound


# -- long-format artifacts -------------------------------------------------------

def _grid_matrix(cols, name, ny, nz):
    return cols[name].reshape(nz, ny).T


def test_table_csv_round_trip(tmp_path, quasi_dgp):
    grid = interior_grid(quasi_dgp, n_y=12, n_z=3)
    t = population_tables(quasi_dgp, grid)
    p = tmp_path / "t.csv"
    write_table_csv(t, p, config={"bandwidth": None, "n": 12})
    cols, config = read_long_csv(p)
    assert config == {"bandwidth": None, "n": 12}
    ny, nz = grid.y.size, grid.z.size
    assert np.array_equal(_grid_matrix(cols, "F", ny, nz), t.F)
    assert np.array_equal(_grid_matrix(cols, "F0", ny, nz), t.F0)
    assert np.array_equal(_grid_matrix(cols, "F1", ny, nz), t.F1)
    assert np.array_equal(cols["p"].reshape(nz, ny)[:, 0], t.p)
    blank = tmp_path / "blank.csv"
    blank.write_text("y,z,F\n1.0,0.5,0.2\n\n2.0,0.5,0.4\n")
    cols, config = read_long_csv(blank)
    assert config is None and cols["F"].tolist() == [0.2, 0.4]


def test_surface_csv_round_trip_with_nan(tmp_path, quasi_dgp):
    grid = interior_grid(quasi_dgp, n_y=10, n_z=3)
    surface = cost_bounds_pf(population_tables(quasi_dgp, grid))
    p = tmp_path / "s.csv"
    write_surface_csv(surface, p)
    cols, config = read_long_csv(p)
    assert config is None
    ny, nz = grid.y.size, grid.z.size
    got = _grid_matrix(cols, "clow", ny, nz)
    assert np.array_equal(np.isnan(got), np.isnan(surface.Clow))
    keep = ~np.isnan(got)
    assert np.array_equal(got[keep], surface.Clow[keep])


def test_if_curve_csv_keeps_infinities(tmp_path):
    from roybounds import if_bounds_from_moments

    curve = if_bounds_from_moments([0.1, 0.6], [9.0, 5.0], [4.0, 4.0],
                                   [0.5, 0.0])
    assert math.isinf(curve.Chigh[1])
    p = tmp_path / "if.csv"
    write_if_curve_csv(curve, p)
    cols, _ = read_long_csv(p)
    assert cols["chigh"][1] == math.inf
    assert np.array_equal(cols["clow"], curve.Clow)


def _make_band(grid, Cn):
    shape = Cn.shape
    return ConfidenceBand(Cn=Cn, Chat=Cn.copy(),
                          se=np.zeros(shape), critical_value=0.0,
                          identified_mask=np.ones(shape, dtype=bool),
                          alpha=0.05, B=50, seed=0,
                          side="lower", subset_indices=(0,),
                          table=ConditionalCdfTable(grid, *[np.zeros(shape)] * 3,
                                                    np.zeros(shape[1]),
                                                    bandwidth=0.1))


def test_band_csv_round_trip(tmp_path):
    grid = EvaluationGrid(y=np.linspace(1, 2, 5), z=np.array([0.2, 0.8]))
    Cn = np.outer(np.linspace(0, 1, 5), [1.0, 0.5])
    band = _make_band(grid, Cn)
    p = tmp_path / "band.csv"
    write_band_csv(band, p, config={"alpha": 0.05})
    cols, config = read_long_csv(p)
    assert config == {"alpha": 0.05}
    assert np.array_equal(_grid_matrix(cols, "Cn", 5, 2), Cn)


# -- band interpolation ----------------------------------------------------------

def test_band_interpolation_reproduces_affine_surface():
    grid = EvaluationGrid(y=np.linspace(0.0, 4.0, 9),
                          z=np.linspace(0.0, 1.0, 5))
    Cn = 0.3 + 0.5 * grid.y[:, None] + 1.25 * grid.z[None, :]
    band = _make_band(grid, Cn)
    rng = np.random.default_rng(8)
    y = rng.uniform(0, 4, 40)
    z = rng.uniform(0, 1, 40)
    vals, clamped = band_values_at(band, y, z)
    assert not np.any(clamped)
    assert np.allclose(vals, 0.3 + 0.5 * y + 1.25 * z, atol=1e-12)


def test_band_interpolation_clamps_to_hull():
    grid = EvaluationGrid(y=np.array([1.0, 2.0]), z=np.array([0.4, 0.6]))
    band = _make_band(grid, np.array([[1.0, 1.0], [2.0, 2.0]]))
    vals, clamped = band_values_at(band, [0.0, 3.0, 1.5], [0.5, 0.7, 0.5])
    assert list(clamped) == [True, True, False]
    assert vals[0] == 1.0 and vals[1] == 2.0 and vals[2] == 1.5


def test_band_interpolation_single_z_column():
    grid = EvaluationGrid(y=np.array([0.0, 1.0]), z=np.array([0.5]))
    band = _make_band(grid, np.array([[0.0], [2.0]]))
    vals, _ = band_values_at(band, [0.25], [0.9])
    assert vals[0] == pytest.approx(0.5)


# -- survival summaries ----------------------------------------------------------

def _flat_band(level, y=(1.0, 3.0), z=(0.0, 1.0)):
    grid = EvaluationGrid(y=np.asarray(y, dtype=float),
                          z=np.asarray(z, dtype=float))
    return _make_band(grid, np.full((len(y), len(z)), float(level)))


def test_survival_zero_band():
    band = _flat_band(0.0)
    rng = np.random.default_rng(0)
    s = ObservationSample(y=rng.uniform(1, 3, 200),
                          d=np.ones(200, dtype=np.int8),
                          z=rng.uniform(0, 1, 200))
    summary = cost_survival(band, s)
    # a zero band puts every absolute threshold past the first above it
    assert summary.thresholds_abs[0] == 0.0
    assert np.allclose(summary.pooled_abs, [1.0] + [0.0] * 20)
    assert summary.thresholds_ratio[[0, 4]].tolist() == pytest.approx([0.0, 0.2])
    assert np.allclose(summary.pooled_ratio[[0, 4]], [1.0, 0.0])
    assert np.all(summary.prop_abs[0] == 1.0)
    assert np.all(summary.prop_abs[1:] == 0.0)


def test_survival_quarter_ratio_fixture():
    # flat band at 0.8 and incomes 0.8/r for target ratios r; exactly one
    # of the four ratios [0.8, 0.2, 0.3, 0.35] reaches 0.4
    per_person = np.array([0.8, 0.2, 0.3, 0.35])
    grid = EvaluationGrid(y=np.array([1.0, 4.0]), z=np.array([0.0, 1.0]))
    band = _make_band(grid, np.full((2, 2), 0.8))
    s = ObservationSample(y=0.8 / per_person, d=np.ones(4, dtype=np.int8),
                          z=np.array([0.1, 0.4, 0.6, 0.9]))
    summary = cost_survival(band, s)
    assert summary.thresholds_ratio[8] == pytest.approx(0.4)
    assert summary.pooled_ratio[8] == pytest.approx(0.25)


def test_survival_monotone_in_threshold(quasi_sample, small_grid):
    from roybounds import confidence_band

    band = confidence_band(quasi_sample, small_grid, bandwidth=0.2, B=50,
                           seed=1)
    summary = cost_survival(band, quasi_sample)
    for mat in (summary.prop_abs, summary.prop_ratio):
        d = np.diff(mat, axis=0)
        assert np.all(d[~np.isnan(d)] <= 1e-12)
    assert np.all(np.diff(summary.pooled_abs) <= 1e-12)
    assert np.all(np.diff(summary.pooled_ratio) <= 1e-12)


def test_survival_empty_bin_is_nan_not_error(tmp_path):
    band = _flat_band(0.5)
    s = ObservationSample(y=np.array([1.0, 1.5, 2.5, 2.8]),
                          d=np.ones(4, dtype=np.int8),
                          z=np.array([0.1, 0.2, 0.95, 0.9]))
    summary = cost_survival(band, s, z_bins=[0.0, 0.4, 0.7, 1.0])
    assert summary.bin_counts == (2, 0, 2)
    assert np.all(np.isnan(summary.prop_abs[:, 1]))
    p = tmp_path / "surv.csv"
    write_survival_csv(summary, p)
    cols, _ = read_long_csv(p)
    assert np.any(np.isnan(cols["proportion"]))
    payload = json.dumps(json_ready(result_data(summary, omit=("n_records",))))
    assert "NaN" not in payload


def test_survival_excludes_nonpositive_income_from_ratios():
    band = _flat_band(0.5)
    s = ObservationSample(y=np.array([0.0, 2.0]), d=np.ones(2, dtype=np.int8),
                          z=np.array([0.3, 0.6]))
    summary = cost_survival(band, s)
    assert summary.ratio_excluded == 1
    assert summary.thresholds_ratio[2] == pytest.approx(0.1)
    assert summary.pooled_ratio[2] == pytest.approx(1.0)


def test_survival_counts_hull_clamps():
    band = _flat_band(0.5, y=(1.0, 2.0))
    s = ObservationSample(y=np.array([0.5, 1.5, 5.0]),
                          d=np.ones(3, dtype=np.int8),
                          z=np.array([0.2, 0.5, 0.8]))
    summary = cost_survival(band, s)
    assert summary.clamped_count == 2
