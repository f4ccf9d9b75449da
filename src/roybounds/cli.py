"""Command-line entry point.

Subcommands: estimate | bounds | infer | simulate | coverage.  Parameters
resolve in three layers: built-in defaults, then a JSON --config file,
then explicit flags.  Each subcommand takes only the flags it reads, while
a config file may hold any key, so one file serves several subcommands.
Every run writes a long-format CSV plus a JSON sidecar, both carrying the
fully resolved configuration, so artifacts are reproducible from their own
headers.

Exit codes: 0 success, 1 configuration or data errors, 2 model rejection
(the envelope or sandwich crossing test fired on the estimated tables).  An
exit 2 still writes every artifact, then prints one stderr line naming the
check, its worst gap, the tolerance and the (y, z) of the worst cell.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass, field, fields
from pathlib import Path

import numpy as np

from .bounds import cost_bounds_if, cost_bounds_pf, random_cost_bounds, testability_if
from .coverage import run_coverage
from .errors import ConfigError, RoyBoundsError
from .estimation import estimate_tables
from .inference import confidence_band
from .model import DgpSpec, EvaluationGrid, _number, generate_sample
from .reporting import (
    cost_survival,
    ingest_csv,
    json_ready,
    result_data,
    write_band_csv,
    write_coverage_csv,
    write_if_curve_csv,
    write_json_sidecar,
    write_random_cost_csv,
    write_sample_csv,
    write_surface_csv,
    write_survival_csv,
    write_table_csv,
)

# what each field annotation admits from a config file (bool is no number
# here), the name of that type in an error, and how its flag parses
_NONE = type(None)
_TYPES = {"int": ("an integer", (int,), int), "int | None": ("an integer", (int, _NONE), int),
          "float": ("a number", (int, float), float),
          "float | None": ("a number", (int, float, _NONE), float),
          "str": ("a string", (str,), str), "str | None": ("a string", (str, _NONE), str),
          "list | None": ("a list", (list, _NONE), None),
          "dict | None": ("an object", (dict, _NONE), None)}
_MODES = ("pf", "if", "random", "all")
_SIDES = ("lower", "upper")


def _float_list(text: str) -> list:
    try:
        return [float(tok) for tok in text.split(",") if tok.strip() != ""]
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a comma-separated float list: {text!r}")


def _key(default, help: str, commands, **flag):
    """A config key that is also the flag --<name> of ``commands``, the subcommands
    that read it; ``flag`` holds any ``choices`` or ``type`` of its own."""
    return field(default=default, metadata={"help": help, "commands": commands, **flag})


_SAMPLED = ("estimate", "bounds", "infer")  # read a sample; the others draw theirs
_DRAWN = ("simulate", "coverage")


@dataclass(frozen=True)
class RunConfig:
    command: str
    input: str | None = _key(None, "observation CSV with columns y,d,z", _SAMPLED)
    output: str | None = _key(None, "primary CSV artifact path", (*_SAMPLED, *_DRAWN))
    bandwidth: float | None = _key(None, "kernel bandwidth for z", (*_SAMPLED, "coverage"))
    alpha: float = _key(0.05, "band significance level", ("infer", "coverage"))
    bootstrap: int = _key(200, "bootstrap replications", ("infer", "coverage"))
    # bounds reads no seed; it takes --seed because benchmarks/workloads.py
    # passes --seed to every unit it runs
    seed: int = _key(0, "master seed", ("bounds", "infer", *_DRAWN))
    grid_y: int = _key(200, "y grid points", _SAMPLED)
    grid_z: int = _key(8, "z grid points", _SAMPLED)
    mode: str = _key("pf", "bound construction (default pf)", ("bounds",), choices=_MODES)
    crossing_tol: float | None = _key(None, "envelope crossing tolerance", ("bounds", "infer"))
    cost_points: int = _key(41, "cost grid size for random mode", ("bounds",))
    cost_max: float | None = _key(None, "cost grid upper end for random mode", ("bounds",))
    side: str = _key("lower", "band side", ("infer",), choices=_SIDES)
    z_bins: list | None = _key(None, "comma-separated z bin edges for the survival summary",
                               ("infer",), type=_float_list)
    n: int = _key(1000, "sample size (per replication in coverage)", _DRAWN)
    reps: int = _key(200, "Monte-Carlo replications", ("coverage",))
    # config-file keys only
    dgp: dict | None = None
    subset_indices: list | None = None

    def validate(self) -> None:
        if self.output is None:
            raise ConfigError("an --output path is required")
        for f in fields(self):  # config-file values arrive untyped
            value, (noun, kinds, _) = getattr(self, f.name), _TYPES[f.type]
            if isinstance(value, bool) or not isinstance(value, kinds):
                raise ConfigError(f"config value {f.name} must be {noun}, got {value!r}")
        if not 0.0 < self.alpha <= 0.5:
            raise ConfigError(f"alpha must lie in (0, 0.5], got {self.alpha}")
        if self.seed < 0:
            raise ConfigError(f"seed must be non-negative, got {self.seed}")
        if self.bootstrap < 50:
            raise ConfigError(f"bootstrap count must be at least 50, got {self.bootstrap}")
        if self.grid_y < 2:
            raise ConfigError("grid-y must be at least 2")
        if self.grid_z < 1:
            raise ConfigError("grid-z must be at least 1")
        for key, sign in (("bandwidth", "positive"), ("crossing_tol", "nonnegative"),
                          ("cost_max", "positive")):
            value = getattr(self, key)  # each comparison is false for NaN
            if value is not None and not (value < np.inf and (
                    value > 0.0 or value == 0.0 and sign == "nonnegative")):
                raise ConfigError(f"{key.replace('_', '-')} must be {sign} and finite, got {value}")
        if self.n < 1:
            raise ConfigError("n must be at least 1")
        if self.reps < 1:
            raise ConfigError("replication count must be at least 1")
        if self.cost_points < 2:
            raise ConfigError("cost-points must be at least 2")
        if self.mode not in _MODES:
            raise ConfigError(f"unknown bounds mode {self.mode!r}")
        if self.side not in _SIDES:
            raise ConfigError(f"unknown band side {self.side!r}")
        if self.z_bins is not None:
            try:  # each edge a number, as each subset index is an int
                edges = np.array([_number(e) for e in self.z_bins])
            except (TypeError, ValueError):
                edges = np.empty(0)
            if (edges.size < 2 or not np.all(np.isfinite(edges))
                    or np.any(np.diff(edges) <= 0)):
                raise ConfigError("z-bins must be at least 2 finite, strictly "
                                  f"increasing edges, got {self.z_bins!r}")
        if self.subset_indices is not None and any(  # a bool is no index here
                type(i) is not int for i in self.subset_indices):
            raise ConfigError("subset_indices must be a list of integers, "
                              f"got {self.subset_indices!r}")
        if self.command in ("simulate", "coverage") and self.dgp is None:
            raise ConfigError(f"{self.command} needs a dgp section in the config file")

    def echo(self) -> dict:
        out = {f.name: getattr(self, f.name) for f in fields(self)}
        return json_ready(out)


_KEYS = {f.name for f in fields(RunConfig)} - {"command"}


def _load_config_file(path) -> dict:
    with open(path, encoding="utf-8") as handle:
        try:
            raw = json.load(handle)
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise ConfigError(f"config file {path}: {exc}") from None
    if not isinstance(raw, dict):
        raise ConfigError("config file must hold a JSON object")
    unknown = set(raw) - _KEYS
    if unknown:
        raise ConfigError(f"unknown config key(s): {', '.join(sorted(unknown))}")
    return raw


def build_config(args: argparse.Namespace) -> RunConfig:
    """Config-file values, updated by the flags that were set."""
    values = _load_config_file(args.config) if args.config else {}
    values.update((key, flag) for key, flag in vars(args).items()
                  if flag is not None and key not in ("command", "config"))
    return RunConfig(command=args.command, **values)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="roybounds",
        description="Partial-identification bounds on sector-choice costs")
    sub = parser.add_subparsers(dest="command", required=True)
    for command, run in _COMMANDS.items():
        p = sub.add_parser(command, help=run.__doc__)
        p.add_argument("--config", help="JSON config file; flags override it")
        for f in fields(RunConfig):
            flag = dict(f.metadata)
            if command in flag.pop("commands", ()):
                flag.setdefault("type", _TYPES[f.type][2])
                p.add_argument("--" + f.name.replace("_", "-"), **flag)
    return parser


def _tagged(path, tag: str) -> Path:
    p = Path(path)
    return p.with_name(p.stem + f".{tag}" + p.suffix)


def _require_input(config: RunConfig):
    if config.input is None:
        raise ConfigError(f"{config.command} needs an --input CSV")
    try:
        return ingest_csv(config.input)
    except UnicodeDecodeError as exc:
        raise ConfigError(f"input file {config.input}: {exc}") from None


def _crossing_tol(config: RunConfig, n: int) -> float:
    # estimated tables cross by sampling noise alone; the auto default
    # tracks the worst-case noise scale of kernel cdf differences, which
    # pilot runs put well under sqrt(log n / n) for valid designs
    if config.crossing_tol is not None:
        return config.crossing_tol
    n = max(int(n), 2)
    return float(np.sqrt(np.log(n) / n))


def _rejection_status(surface) -> int:
    """Exit status of a bound surface; a rejection also gets one stderr line."""
    for check, report in (("envelopes", surface.crossing),
                          ("sandwich", surface.sandwich_crossing)):
        if report.rejected:
            iy, iz = report.locations[0]
            print(f"rejected: {check} cross by {report.worst_gap:.6g} > tol "
                  f"{report.tol:.6g} at y={surface.grid.y[iy]:.6g}, "
                  f"z={surface.grid.z[iz]:.6g}", file=sys.stderr)
            return 2
    return 0


def _cmd_estimate(config: RunConfig) -> int:
    """conditional cdf tables from a sample"""
    sample = _require_input(config)
    grid = EvaluationGrid.from_sample(sample, config.grid_y, config.grid_z)
    table = estimate_tables(sample, grid, config.bandwidth)
    echo = config.echo()
    write_table_csv(table, config.output, echo)
    write_json_sidecar(config.output, "tables", result_data(table), echo)
    return 0


def _cmd_bounds(config: RunConfig) -> int:
    """cost bounds from a sample"""
    sample = _require_input(config)
    sample.require_z_variation()
    grid = EvaluationGrid.from_sample(sample, config.grid_y, config.grid_z)
    echo = config.echo()
    modes = ("pf", "if", "random") if config.mode == "all" else (config.mode,)
    if config.mode != "if":
        table = estimate_tables(sample, grid, config.bandwidth)
    surface = None
    for mode in modes:
        out = _tagged(config.output, mode) if config.mode == "all" else Path(config.output)
        if mode == "pf":
            surface = cost_bounds_pf(table, sample.lower_support_bound,
                                     crossing_tol=_crossing_tol(config, sample.n))
            write_surface_csv(surface, out, echo)
            write_json_sidecar(out, "bound_surface", {
                "y_grid": grid.y, "z_grid": grid.z, "clow": surface.Clow,
                "chigh": surface.Chigh, "identified": surface.identified_mask,
                "crossing_rejected": surface.crossing.rejected,
                "crossing_worst_gap": surface.crossing.worst_gap,
                "crossing_tol": surface.crossing.tol,
                "sandwich_rejected": surface.sandwich_crossing.rejected,
                "identification_tol": surface.identification_tol}, echo)
        elif mode == "if":
            curve = cost_bounds_if(sample, grid.z, config.bandwidth)
            report = testability_if(curve)
            write_if_curve_csv(curve, out, echo)
            write_json_sidecar(out, "if_bound_curve", {
                "z_grid": curve.z_grid, "m": curve.m, "m0b": curve.m0b,
                "p": curve.p, "clow": curve.Clow, "chigh": curve.Chigh,
                "p_tol": curve.p_tol,
                "testability_rejected": report.rejected,
                "testability_worst": report.worst_violation}, echo)
        else:
            top = config.cost_max
            if top is None:
                top = float(grid.y[-1] - grid.y[0])
            cost_grid = np.linspace(0.0, top, config.cost_points)
            rc = random_cost_bounds(table, cost_grid, sample.lower_support_bound)
            write_random_cost_csv(rc, out, echo)
            write_json_sidecar(out, "random_cost_bounds", result_data(rc), echo)
    return 0 if surface is None else _rejection_status(surface)


def _cmd_infer(config: RunConfig) -> int:
    """one-sided uniform confidence band"""
    sample = _require_input(config)
    sample.require_z_variation()
    grid = EvaluationGrid.from_sample(sample, config.grid_y, config.grid_z)
    echo = config.echo()
    band = confidence_band(sample, grid, config.bandwidth, alpha=config.alpha,
                           B=config.bootstrap, seed=config.seed,
                           subset_indices=config.subset_indices, side=config.side)
    surface = cost_bounds_pf(band.table, sample.lower_support_bound,
                             crossing_tol=_crossing_tol(config, sample.n))
    write_band_csv(band, config.output, echo)
    write_json_sidecar(config.output, "confidence_band", {
        "y_grid": grid.y, "z_grid": grid.z, "Cn": band.Cn,
        "estimate": band.Chat, "se": band.se,
        "critical_value": band.critical_value,
        "identified": band.identified_mask, "alpha": band.alpha,
        "B": band.B, "seed": band.seed,
        "bandwidth": band.table.bandwidth, "side": band.side,
        "subset_indices": list(band.subset_indices),
        "crossing_rejected": surface.rejected}, echo)
    z_bins = np.asarray(config.z_bins, dtype=float) if config.z_bins else None
    summary = cost_survival(band, sample, z_bins=z_bins)
    survival_out = _tagged(config.output, "survival")
    write_survival_csv(summary, survival_out, echo)
    write_json_sidecar(survival_out, "survival_summary",
                       result_data(summary, omit=("n_records",)), echo)
    return _rejection_status(surface)


def _cmd_simulate(config: RunConfig) -> int:
    """draw a sample from a configured DGP"""
    dgp = DgpSpec.from_json(config.dgp)
    sample = generate_sample(dgp, config.n, config.seed)
    echo = config.echo()
    write_sample_csv(sample, config.output, echo)
    write_json_sidecar(config.output, "sample", {
        "n": sample.n, "lower_support_bound": sample.lower_support_bound,
        "dgp": dgp.to_json()}, echo)
    return 0


def _cmd_coverage(config: RunConfig) -> int:
    """Monte-Carlo coverage study"""
    dgp = DgpSpec.from_json(config.dgp)
    report = run_coverage(dgp, config.reps, config.n, alpha=config.alpha,
                          B=config.bootstrap, seed=config.seed,
                          bandwidth=config.bandwidth)
    echo = config.echo()
    write_coverage_csv(report, config.output, echo)
    write_json_sidecar(config.output, "coverage_report", result_data(report), echo)
    return 0


_COMMANDS = {
    "estimate": _cmd_estimate,
    "bounds": _cmd_bounds,
    "infer": _cmd_infer,
    "simulate": _cmd_simulate,
    "coverage": _cmd_coverage,
}


def run_command(config: RunConfig) -> int:
    config.validate()
    return _COMMANDS[config.command](config)


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 1
    try:
        config = build_config(args)
        return run_command(config)
    except (RoyBoundsError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
