"""CSV/JSON artifact plumbing and cost-survival summaries.

Conventions shared by every artifact: long format, one grid cell per row;
floats written with repr() so re-ingestion is bit-exact; missing values as
empty fields, +inf as the string "inf"; an optional leading comment line
"# config: {...}" echoes the producing configuration.  Readers skip any
line starting with '#'.
"""

from __future__ import annotations

import csv
import itertools
import json
import math
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from .bounds import BoundSurface, IfBoundCurve, RandomCostCdfBounds
from .coverage import CoverageReport
from .errors import DomainError
from .estimation import ConditionalCdfTable
from .inference import ConfidenceBand
from .model import ObservationSample


# characters of CSV text split into lines at a time while a sample is parsed
_LINE_BLOCK = 1 << 18


def fmt(x) -> str:
    x = float(x)
    if math.isnan(x):
        return ""
    if math.isinf(x):
        return "inf" if x > 0 else "-inf"
    return repr(x)


def json_ready(obj):
    """Recursive conversion to JSON-safe structures (no NaN or Infinity)."""
    if isinstance(obj, dict):
        return {str(k): json_ready(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [json_ready(v) for v in obj]
    if isinstance(obj, np.ndarray):
        if obj.dtype.kind in "biu" or (obj.dtype.kind == "f" and np.isfinite(obj).all()):
            return obj.tolist()  # already JSON-safe element by element
        return [json_ready(v) for v in obj.tolist()]
    if isinstance(obj, (np.floating, float)):
        x = float(obj)
        if math.isnan(x):
            return None
        if math.isinf(x):
            return "inf" if x > 0 else "-inf"
        return x
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.bool_,)):
        return bool(obj)
    return obj


def _echo_line(config) -> str:
    if config is None:
        return ""
    return "# config: " + json.dumps(json_ready(config), sort_keys=True) + "\n"


def _write_csv(path, config, header, rows) -> None:
    with open(path, "w", newline="") as handle:
        handle.write(_echo_line(config))
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def write_json_sidecar(csv_path, artifact: str, data: dict, config=None) -> Path:
    path = Path(csv_path).with_suffix(".json")
    payload = {"artifact": artifact, "config": json_ready(config),
               "data": json_ready(data)}
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return path


def result_data(result, omit=()) -> dict:
    """A result's dataclass fields as sidecar data, a ``grid`` as y_grid and z_grid."""
    data = {}
    for f in fields(result):
        value = getattr(result, f.name)
        if f.name == "grid":
            data.update(y_grid=value.y, z_grid=value.z)
        elif f.name not in omit:
            data[f.name] = value
    return data


def _is_record(line: str) -> bool:
    """Not blank, not a comment (first cell starting with '#'); quotes close."""
    if '"' in line and len(rows := list(csv.reader([line, ""]))) == 1:
        raise DomainError(f"a quoted cell is not closed on its line: {line!r}")
    return bool(line) and (rows[0][0] if '"' in line else line).lstrip()[:1] != "#"


def _line_blocks(text: str):
    """``text.split("\n")`` in consecutive lists, one block of text at a time."""
    start = 0
    while (end := text.find("\n", start + _LINE_BLOCK)) >= 0:
        yield text[start:end].split("\n")
        start = end + 1
    yield text[start:].split("\n")


def ingest_csv(path) -> ObservationSample:
    """Parse an observation file with columns y, d, z (case-insensitive).

    One C-level parse of the needed columns, checked as whole columns; only
    a failed check scans the rows, to name the physical line.  An optional
    b_lower column sets the file-level support bound and must be constant.
    The records reach the parse one block of text at a time; a list of all
    line strings made peak memory depend on the allocator's past.
    """
    with open(path, encoding="utf-8") as handle:
        text = handle.read()
    records = filter(_is_record, itertools.chain.from_iterable(_line_blocks(text)))
    header, first = next(records, None), next(records, None)
    if header is None:
        raise DomainError("empty file: no header row")
    cols = {c.strip().lower(): k for k, c in enumerate(next(csv.reader([header])))}
    missing = [c for c in ("y", "d", "z") if c not in cols]
    if missing:
        list(records)  # an unclosed quote on any line is named first
        raise DomainError(f"missing column(s): {', '.join(missing)}")
    if first is None:
        raise DomainError("no data rows")
    try:
        values = np.loadtxt(itertools.chain([first], records), delimiter=",",
                            quotechar='"', comments=None,
                            usecols=[cols[c] for c in ("y", "d", "z", "b_lower") if c in cols],
                            dtype=float, ndmin=2)
    except ValueError as exc:
        _raise_first_bad_row(text.split("\n"), cols, exc)
    b_low = float(values[0, 3]) if values.shape[1] > 3 else 0.0
    if not (np.isfinite(values[:, [0, 2]]).all() and np.isin(values[:, 1], (0.0, 1.0)).all()
            and (values[:, 3:] == b_low).all()):
        _raise_first_bad_row(text.split("\n"), cols, None)
    below = np.flatnonzero(values[:, 0] < b_low - 1e-12)
    if below.size:
        numbers = [k for k, line in enumerate(text.split("\n"), 1) if _is_record(line)]
        raise DomainError(f"{below.size} row(s) have y below the support bound "
                          f"{b_low!r}, first at row {numbers[1 + below[0]]}")
    y, d, z = np.ascontiguousarray(values[:, :3].T)
    return ObservationSample(y=y, d=d, z=z, lower_support_bound=b_low)


def _cell(row, name, k, number) -> float:
    # read as the C reader reads it: float() without '_' or non-ASCII
    if k >= len(row):
        raise DomainError(f"row {number}: missing value for column {name!r}")
    try:
        text = row[k].strip()
        if text.isascii() and "_" not in text and not math.isnan(value := float(text)):
            return value
    except ValueError:
        pass
    raise DomainError(f"row {number}: column {name!r} is not numeric: {row[k]!r}")


def _raise_first_bad_row(lines, cols, error) -> None:
    """Raise the diagnostic of the first data record that fails a row check."""
    b_first = None
    for number, line in [(k, s) for k, s in enumerate(lines, 1) if _is_record(s)][1:]:
        row = next(csv.reader([line]))
        y, d, z = (_cell(row, c, cols[c], number) for c in "ydz")
        if d not in (0.0, 1.0):
            raise DomainError(f"row {number}: d must be 0 or 1, got {row[cols['d']]!r}")
        if not (math.isfinite(y) and math.isfinite(z)):
            raise DomainError(f"row {number}: y and z must be finite")
        if "b_lower" in cols:
            b = _cell(row, "b_lower", cols["b_lower"], number)
            b_first = b if b_first is None else b_first
            if b != b_first:
                raise DomainError(f"row {number}: b_lower must be constant across the file")
    raise DomainError(f"unreadable data rows: {error}")


def write_sample_csv(sample: ObservationSample, path, config=None) -> None:
    with open(path, "w", newline="") as handle:
        handle.write(_echo_line(config) + "y,d,z,b_lower\n")
        b = fmt(sample.lower_support_bound)
        # no field needs quoting, so plain lines are the csv module's bytes
        handle.writelines(f"{fmt(yi)},{int(di)},{fmt(zi)},{b}\n"
                          for yi, di, zi in zip(sample.y, sample.d, sample.z))


def _write_grid_long(path, config, y, z, names, matrices, per_z=()):
    """Long-format writer: one row per (y, z), columns from matrices.

    per_z entries are (name, vector over z) appended to every row.
    """
    def rows():
        for iz, zv in enumerate(z):
            for iy, yv in enumerate(y):
                row = [fmt(yv), fmt(zv)] + [fmt(m[iy, iz]) for m in matrices]
                yield row + [fmt(v[iz]) for _, v in per_z]

    _write_csv(path, config, ["y", "z", *names, *(n for n, _ in per_z)], rows())


def write_table_csv(table: ConditionalCdfTable, path, config=None) -> None:
    _write_grid_long(path, config, table.grid.y, table.grid.z,
                     ["F", "F0", "F1"], [table.F, table.F0, table.F1],
                     per_z=[("p", table.p)])


def write_surface_csv(surface: BoundSurface, path, config=None) -> None:
    _write_grid_long(path, config, surface.grid.y, surface.grid.z,
                     ["clow", "chigh", "identified"],
                     [surface.Clow, surface.Chigh,
                      surface.identified_mask.astype(float)])


def write_if_curve_csv(curve: IfBoundCurve, path, config=None) -> None:
    columns = (curve.z_grid, curve.m, curve.m0b, curve.p, curve.Clow, curve.Chigh)
    _write_csv(path, config, ["z", "m", "m0b", "p", "clow", "chigh"],
               ([fmt(v) for v in row] for row in zip(*columns)))


def write_random_cost_csv(rc: RandomCostCdfBounds, path, config=None) -> None:
    def rows():
        for iz, zv in enumerate(rc.z_grid):
            for ic, cv in enumerate(rc.cost_grid):
                yield [fmt(cv), fmt(zv), fmt(rc.FL[ic, iz]), fmt(rc.FU[ic, iz])]

    _write_csv(path, config, ["c", "z", "FL", "FU"], rows())


def write_band_csv(band: ConfidenceBand, path, config=None) -> None:
    _write_grid_long(path, config, band.table.grid.y, band.table.grid.z,
                     ["Cn", "estimate", "se", "critval", "identified"],
                     [band.Cn, band.Chat, band.se,
                      np.full(band.Cn.shape, band.critical_value),
                      band.identified_mask.astype(float)])


def write_coverage_csv(report: CoverageReport, path, config=None) -> None:
    _write_grid_long(path, config, report.grid.y, report.grid.z,
                     ["coverage_vs_lower", "coverage_vs_cost", "count"],
                     [report.pointwise_coverage_vs_lower,
                      report.pointwise_coverage_vs_cost, report.cell_counts])


def band_values_at(band: ConfidenceBand, y, z):
    """Bilinear band interpolation, clamped to the grid hull.

    Returns (values, clamped flags).
    """
    yg, zg = band.table.grid.y, band.table.grid.z
    y = np.asarray(y, dtype=float)
    z = np.asarray(z, dtype=float)
    yc = np.clip(y, yg[0], yg[-1])
    zc = np.clip(z, zg[0], zg[-1])
    clamped = (y != yc) | (z != zc)
    out = np.empty_like(yc)
    if zg.size == 1:
        out[:] = np.interp(yc, yg, band.Cn[:, 0])
        return out, clamped
    iz = np.clip(np.searchsorted(zg, zc, side="right") - 1, 0, zg.size - 2)
    for col in np.unique(iz):
        sel = iz == col
        w = (zc[sel] - zg[col]) / (zg[col + 1] - zg[col])
        v0 = np.interp(yc[sel], yg, band.Cn[:, col])
        v1 = np.interp(yc[sel], yg, band.Cn[:, col + 1])
        out[sel] = (1.0 - w) * v0 + w * v1
    return out, clamped


@dataclass(frozen=True)
class SurvivalSummary:
    """Proportions of individuals whose band cost exceeds thresholds."""

    thresholds_abs: np.ndarray
    thresholds_ratio: np.ndarray
    bin_edges: np.ndarray
    bin_counts: tuple
    prop_abs: np.ndarray
    prop_ratio: np.ndarray
    pooled_abs: np.ndarray
    pooled_ratio: np.ndarray
    clamped_count: int
    ratio_excluded: int
    n_records: int


def cost_survival(band: ConfidenceBand, sample: ObservationSample,
                  z_bins=None) -> SurvivalSummary:
    """Per-individual band evaluation aggregated into exceedance curves.

    The 21 absolute thresholds run evenly from 0 to the largest band value
    at a record, the 11 ratio thresholds from 0 to 0.5.  Ratio thresholds
    compare Cn(y_i, z_i) / y_i; rows with y <= 0 are excluded from the ratio
    denominators.  Bin b holds the records with edges[b] <= z < edges[b+1],
    the last bin also z == edges[-1]; records outside the edges fall in no
    bin but count in the pooled rows.  Empty z-bins report NaN proportions
    (serialized as nulls) rather than aborting.
    """
    values, clamped = band_values_at(band, sample.y, sample.z)
    thresholds_abs = np.linspace(0.0, max(float(np.nanmax(values)), 1e-12), 21)
    thresholds_ratio = np.linspace(0.0, 0.5, 11)
    if z_bins is None:
        z_bins = np.quantile(sample.z, [0.0, 1.0 / 3.0, 2.0 / 3.0, 1.0])
    z_bins = np.asarray(z_bins, dtype=float)
    nbins = z_bins.size - 1
    which = np.searchsorted(z_bins, sample.z, side="right") - 1
    which[sample.z == z_bins[-1]] = nbins - 1

    pos = sample.y > 0
    ratio = np.full_like(values, np.nan)
    ratio[pos] = values[pos] / sample.y[pos]

    prop_abs = np.full((thresholds_abs.size, nbins), np.nan)
    prop_ratio = np.full((thresholds_ratio.size, nbins), np.nan)
    counts = []
    for b in range(nbins):
        sel = which == b
        counts.append(int(np.sum(sel)))
        if counts[-1]:
            prop_abs[:, b] = np.mean(values[sel][None, :]
                                     >= thresholds_abs[:, None], axis=1)
        selr = sel & pos
        if np.any(selr):
            prop_ratio[:, b] = np.mean(ratio[selr][None, :]
                                       >= thresholds_ratio[:, None], axis=1)
    pooled_abs = np.mean(values[None, :] >= thresholds_abs[:, None], axis=1)
    if np.any(pos):
        pooled_ratio = np.mean(ratio[pos][None, :]
                               >= thresholds_ratio[:, None], axis=1)
    else:
        pooled_ratio = np.full(thresholds_ratio.size, np.nan)
    return SurvivalSummary(thresholds_abs=thresholds_abs,
                           thresholds_ratio=thresholds_ratio,
                           bin_edges=z_bins, bin_counts=tuple(counts),
                           prop_abs=prop_abs, prop_ratio=prop_ratio,
                           pooled_abs=pooled_abs, pooled_ratio=pooled_ratio,
                           clamped_count=int(np.sum(clamped)),
                           ratio_excluded=int(np.sum(~pos)), n_records=sample.n)


def write_survival_csv(summary: SurvivalSummary, path, config=None) -> None:
    edges = summary.bin_edges
    labels = [f"[{fmt(edges[b])},{fmt(edges[b + 1])})" for b in range(edges.size - 1)]

    def rows():
        for kind, thresholds, props, pooled in (
                ("abs", summary.thresholds_abs, summary.prop_abs, summary.pooled_abs),
                ("ratio", summary.thresholds_ratio, summary.prop_ratio,
                 summary.pooled_ratio)):
            for it, t in enumerate(thresholds):
                for b, label in enumerate(labels):
                    yield [kind, fmt(t), label, fmt(props[it, b]), str(summary.bin_counts[b])]
                yield [kind, fmt(t), "pooled", fmt(pooled[it]), str(summary.n_records)]

    _write_csv(path, config, ["kind", "threshold", "zbin", "proportion", "count"], rows())

