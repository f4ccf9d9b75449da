"""End-to-end command tests: config layering, artifacts, exit codes."""

import argparse
import json
import re
import shlex
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from roybounds import ingest_csv
from roybounds.cli import _COMMANDS, RunConfig, _build_parser, main

from conftest import quasi_dgp_spec
from reference import read_long_csv


def _config_file(tmp_path, **overrides):
    body = {"dgp": quasi_dgp_spec().to_json()}
    body.update(overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(body))
    return str(path)


def _simulated(tmp_path, n=3000, seed=11):
    out = tmp_path / "sample.csv"
    code = main(["simulate", "--config", _config_file(tmp_path),
                 "--n", str(n), "--seed", str(seed), "--output", str(out)])
    assert code == 0
    return str(out)


def _sidecar(csv_path):
    path = str(csv_path)[: -len(".csv")] + ".json"
    with open(path) as handle:
        return json.load(handle)


# -- parsing and config ----------------------------------------------------------

def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    assert main(["bounds", "--help"]) == 0
    capsys.readouterr()


def test_no_command_is_an_error(capsys):
    assert main([]) == 1
    capsys.readouterr()


# each flag with an argument and the value it parses to, and the flags of
# each subcommand: exactly those its run reads (bounds --seed aside)
_VALUES = {
    "--config": ("c.json", "c.json"), "--input": ("s.csv", "s.csv"),
    "--output": ("o.csv", "o.csv"), "--bandwidth": ("0.25", 0.25),
    "--alpha": ("0.1", 0.1), "--bootstrap": ("60", 60), "--seed": ("3", 3),
    "--grid-y": ("7", 7), "--grid-z": ("2", 2), "--mode": ("if", "if"),
    "--crossing-tol": ("0.5", 0.5), "--cost-points": ("7", 7), "--cost-max": ("2.5", 2.5),
    "--side": ("upper", "upper"), "--z-bins": ("0.1,0.2", [0.1, 0.2]),
    "--n": ("50", 50), "--reps": ("4", 4),
}
_SAMPLE_FLAGS = ("--config", "--input", "--output", "--bandwidth", "--grid-y", "--grid-z")
_FLAGS = {
    "estimate": _SAMPLE_FLAGS,
    "bounds": (*_SAMPLE_FLAGS, "--seed", "--mode", "--crossing-tol", "--cost-points",
               "--cost-max"),
    "infer": (*_SAMPLE_FLAGS, "--alpha", "--bootstrap", "--seed", "--crossing-tol",
              "--side", "--z-bins"),
    "simulate": ("--config", "--output", "--seed", "--n"),
    "coverage": ("--config", "--output", "--bandwidth", "--alpha", "--bootstrap", "--seed",
                 "--n", "--reps"),
}


def _subparser(command):
    subparsers = next(a for a in _build_parser()._actions
                      if isinstance(a, argparse._SubParsersAction))
    return subparsers.choices[command]


@pytest.mark.parametrize("command", list(_FLAGS))
def test_each_subcommand_takes_exactly_its_flags(command):
    parser = _subparser(command)
    assert ({s for a in parser._actions for s in a.option_strings}
            == {"-h", "--help", *_FLAGS[command]})
    assert all(value is None for value in vars(parser.parse_args([])).values())
    for flag in _FLAGS[command]:
        text, value = _VALUES[flag]
        parsed = getattr(parser.parse_args([flag, text]), flag[2:].replace("-", "_"))
        assert parsed == value and type(parsed) is type(value)


def test_each_flag_is_read_by_its_subcommand(tmp_path):
    read = set()

    class Recording(RunConfig):
        """A RunConfig that notes each name read outside ``echo()``."""

        def __getattribute__(self, name):
            read.add(name)
            return super().__getattribute__(name)

        def echo(self):
            before = set(read)
            out = super().echo()
            read.intersection_update(before)
            return out

    sample = _simulated(tmp_path, n=400)
    dgp = quasi_dgp_spec().to_json()
    toy = {  # every branch that reads a field: bounds --mode all runs all three modes
        "estimate": {"input": sample, "grid_y": 10, "grid_z": 3},
        "bounds": {"input": sample, "grid_y": 10, "grid_z": 3, "mode": "all"},
        "infer": {"input": sample, "grid_y": 10, "grid_z": 3, "bootstrap": 50},
        "simulate": {"dgp": dgp, "n": 50},
        "coverage": {"dgp": dgp, "n": 300, "reps": 1, "bootstrap": 50},
    }
    flagged = {f.name for f in fields(RunConfig) if f.metadata.get("commands")}
    for command, values in toy.items():
        read.clear()
        config = Recording(command=command, output=str(tmp_path / f"{command}.csv"), **values)
        assert _COMMANDS[command](config) == 0
        reads = {"--" + name.replace("_", "-") for name in read & flagged}
        # the one flag a subcommand takes without reading it (see RunConfig.seed)
        unread = {"--seed"} if command == "bounds" else set()
        assert not reads & unread
        takes = {s for a in _subparser(command)._actions for s in a.option_strings}
        assert takes == {"-h", "--help", "--config", *reads, *unread}, command


@pytest.mark.parametrize("argv", [
    ["bounds", "--mode", "both"], ["infer", "--side", "left"],
    ["bounds", "--side", "upper"], ["estimate", "--mode", "pf"],
    ["simulate", "--reps", "3"], ["estimate", "--grid-y", "7.5"],
    ["infer", "--z-bins", "0.1,x"], ["infer", "--epsilon", "0"], ["infer", "--workers", "3"],
    # flags a subcommand does not read
    ["estimate", "--seed", "1"], ["bounds", "--bootstrap", "60"],
    ["simulate", "--grid-y", "7"], ["coverage", "--grid-z", "3"],
    ["simulate", "--input", "s.csv"], ["coverage", "--input", "s.csv"],
])
def test_bad_or_foreign_flags_exit_one(tmp_path, capsys, argv):
    assert main([*argv, "--output", str(tmp_path / "out.csv")]) == 1
    err = capsys.readouterr().err  # argparse's usage error, before any config check
    assert err.startswith("usage: roybounds ") and re.search(r"^roybounds.*: error: ", err, re.M)
    assert not any(tmp_path.iterdir())


def test_readme_commands_parse():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    lines = "".join(re.findall(r"```bash\n(.*?)```", readme, re.S)).replace("\\\n", " ")
    commands = [shlex.split(line)[1:] for line in lines.splitlines()
                if line.startswith("roybounds ")]
    assert sorted(argv[0] for argv in commands) == sorted(_FLAGS)
    for argv in commands:  # a flag the subcommand does not take exits here
        _build_parser().parse_args(argv)


def test_missing_output_is_config_error(tmp_path, capsys):
    assert main(["simulate", "--config", _config_file(tmp_path)]) == 1
    assert "output" in capsys.readouterr().err


def test_bad_alpha_is_config_error(tmp_path, capsys):
    sample = _simulated(tmp_path, n=200)
    out = tmp_path / "band.csv"
    code = main(["infer", "--input", sample, "--output", str(out),
                 "--alpha", "0.7"])
    assert code == 1
    assert "alpha" in capsys.readouterr().err


@pytest.mark.parametrize("value", [float("nan"), float("inf")], ids=["nan", "inf"])
@pytest.mark.parametrize("key", ["bandwidth", "crossing_tol"])
@pytest.mark.parametrize("form", ["flag", "config"])
def test_non_finite_tuning_values_are_config_errors(tmp_path, capsys, form, key, value):
    sample = _simulated(tmp_path, n=400)
    capsys.readouterr()
    flag = "--" + key.replace("_", "-")
    source = ([flag, str(value)] if form == "flag"
              else ["--config", _config_file(tmp_path, **{key: value})])
    out = tmp_path / "band.csv"
    code = main(["infer", "--input", sample, "--output", str(out),
                 "--bootstrap", "50", *source])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {flag[2:]} must be") and err.count("\n") == 1
    assert "finite" in err and not out.exists()


@pytest.mark.parametrize("value", ["nan", "inf", "-1", "0"])
@pytest.mark.parametrize("form", ["flag", "config"])
def test_bad_cost_max_is_a_config_error(tmp_path, capsys, form, value):
    sample = _simulated(tmp_path, n=400)
    capsys.readouterr()
    source = (["--cost-max", value] if form == "flag"
              else ["--config", _config_file(tmp_path, cost_max=float(value))])
    out = tmp_path / "rc.csv"
    code = main(["bounds", "--mode", "random", "--input", sample, "--output", str(out),
                 "--grid-y", "20", "--grid-z", "4", *source])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: cost-max must be positive and finite")
    assert err.count("\n") == 1 and not out.exists()


@pytest.mark.parametrize("command, key, value", [
    ("infer", "bandwidth", "abc"), ("infer", "alpha", "0.1"), ("infer", "crossing_tol", "0"),
    ("bounds", "grid_y", "20"), ("bounds", "cost_points", "5"), ("bounds", "grid_y", 20.5),
    ("infer", "bootstrap", 50.5), ("infer", "seed", "1"), ("bounds", "cost_max", "x"),
    ("bounds", "grid_z", True), ("infer", "alpha", None), ("bounds", "crossing_tol", [0.1]),
])
def test_non_numeric_config_values_are_config_errors(tmp_path, capsys, command, key, value):
    sample = _simulated(tmp_path, n=400)
    capsys.readouterr()
    out = tmp_path / "out.csv"
    code = main([command, "--input", sample, "--output", str(out),
                 "--config", _config_file(tmp_path, **{key: value})])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: config value {key} must be") and err.count("\n") == 1
    assert not out.exists()


def test_numeric_config_values_accept_json_numbers(tmp_path):
    sample = _simulated(tmp_path, n=400)
    out = tmp_path / "rc.csv"
    config = _config_file(tmp_path, cost_max=2, alpha=0.1, grid_y=20, grid_z=4,
                          cost_points=5, seed=3)
    assert main(["bounds", "--mode", "random", "--input", sample, "--output", str(out),
                 "--config", config]) == 0
    assert np.unique(read_long_csv(out)[0]["c"]).tolist() == [0.0, 0.5, 1.0, 1.5, 2.0]


@pytest.mark.parametrize("command, key, value, noun", [
    ("estimate", "output", 1, "a string"), ("estimate", "output", 7, "a string"),
    ("estimate", "output", ["a"], "a string"), ("estimate", "output", True, "a string"),
    ("estimate", "input", 0, "a string"), ("bounds", "mode", 1, "a string"),
    ("infer", "side", None, "a string"), ("infer", "z_bins", "0.2,0.8", "a list"),
    ("simulate", "dgp", ["quasi"], "an object"),
])
def test_config_values_of_every_type_are_checked(tmp_path, capsys, monkeypatch,
                                                  command, key, value, noun):
    sample = _simulated(tmp_path, n=400)
    config = _config_file(tmp_path, **{"input": sample, "output": "out.csv", key: value})
    monkeypatch.chdir(tmp_path)
    before = sorted(tmp_path.iterdir())
    capsys.readouterr()
    assert main([command, "--config", config]) == 1
    message = f"error: config value {key} must be {noun}, got {value!r}\n"
    assert capsys.readouterr() == ("", message)
    assert sorted(tmp_path.iterdir()) == before


@pytest.mark.parametrize("value, message", [
    ([1000], "selection subset index 1000 is outside the y grid of 10 points"),
    ([-1], "selection subset index -1 is outside the y grid of 10 points"),
    (["a"], "subset_indices must be a list of integers, got ['a']"),
    ([1.5], "subset_indices must be a list of integers, got [1.5]"),
    ([True], "subset_indices must be a list of integers, got [True]"),
    (3, "config value subset_indices must be a list, got 3"),
])
def test_bad_subset_indices_are_config_errors(tmp_path, capsys, value, message):
    sample = _simulated(tmp_path, n=400)
    capsys.readouterr()
    out = tmp_path / "band.csv"
    assert main(["infer", "--input", sample, "--output", str(out), "--bootstrap", "50",
                 "--grid-y", "10", "--grid-z", "3",
                 "--config", _config_file(tmp_path, subset_indices=value)]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("command, form", [
    (command, form) for command in _FLAGS for form in ("flag", "config")
    if form == "config" or "--seed" in _FLAGS[command]])
def test_negative_seed_is_a_config_error(tmp_path, capsys, command, form):
    sample = ["--input", _simulated(tmp_path, n=400)] if "--input" in _FLAGS[command] else []
    source = (["--config", _config_file(tmp_path), "--seed", "-1"] if form == "flag"
              else ["--config", _config_file(tmp_path, seed=-1)])
    out = tmp_path / "out.csv"
    assert main([command, *sample, "--output", str(out), *source]) == 1
    assert capsys.readouterr().err == "error: seed must be non-negative, got -1\n"
    assert not out.exists()


def test_unknown_config_key_is_rejected(tmp_path, capsys):
    # a misspelt key, and two retired keys that old config files may carry
    for key, value in (("alfa", 0.05), ("epsilon", 0), ("workers", 3)):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({key: value}))
        code = main(["estimate", "--config", str(path),
                     "--output", str(tmp_path / "t.csv")])
        assert code == 1
        assert capsys.readouterr().err == f"error: unknown config key(s): {key}\n"


def test_missing_input_file_is_an_error(tmp_path, capsys):
    code = main(["estimate", "--input", str(tmp_path / "absent.csv"),
                 "--output", str(tmp_path / "t.csv")])
    assert code == 1
    capsys.readouterr()


def test_estimate_without_input_is_config_error(tmp_path, capsys):
    code = main(["estimate", "--output", str(tmp_path / "t.csv")])
    assert code == 1
    assert "input" in capsys.readouterr().err


def test_flag_overrides_config_file(tmp_path):
    config = _config_file(tmp_path, n=77, seed=4)
    out = tmp_path / "s.csv"
    assert main(["simulate", "--config", config, "--n", "33",
                 "--output", str(out)]) == 0
    assert ingest_csv(out).n == 33
    echo = _sidecar(out)["config"]
    assert echo["n"] == 33
    assert echo["seed"] == 4


def test_config_file_fills_unset_values(tmp_path):
    config = _config_file(tmp_path, n=21)
    out = tmp_path / "s.csv"
    assert main(["simulate", "--config", config, "--output", str(out)]) == 0
    assert ingest_csv(out).n == 21


# -- the pipeline ----------------------------------------------------------------

def test_simulate_estimate_bounds_infer_pipeline(tmp_path):
    sample_path = _simulated(tmp_path)

    tables = tmp_path / "tables.csv"
    assert main(["estimate", "--input", sample_path, "--output", str(tables),
                 "--grid-y", "30", "--grid-z", "5"]) == 0
    side = _sidecar(tables)
    assert side["artifact"] == "tables"
    assert side["config"]["grid_y"] == 30
    cols, echo = read_long_csv(tables)
    assert echo["command"] == "estimate"
    assert cols["y"].size == 30 * 5
    assert np.all((cols["F"] >= 0) & (cols["F"] <= 1))

    bounds = tmp_path / "bounds.csv"
    assert main(["bounds", "--input", sample_path, "--output", str(bounds),
                 "--grid-y", "30", "--grid-z", "5"]) == 0
    side = _sidecar(bounds)
    assert side["artifact"] == "bound_surface"
    assert side["data"]["crossing_rejected"] is False
    expected_tol = float(np.sqrt(np.log(3000) / 3000))
    assert side["data"]["crossing_tol"] == pytest.approx(expected_tol)

    band = tmp_path / "band.csv"
    assert main(["infer", "--input", sample_path, "--output", str(band),
                 "--grid-y", "25", "--grid-z", "4", "--bootstrap", "50",
                 "--alpha", "0.1", "--seed", "2"]) == 0
    side = _sidecar(band)
    assert side["artifact"] == "confidence_band"
    assert side["data"]["alpha"] == 0.1
    assert side["data"]["crossing_rejected"] is False
    cols, echo = read_long_csv(band)
    assert echo["bootstrap"] == 50
    assert set(cols) == {"y", "z", "Cn", "estimate", "se", "critval",
                         "identified"}
    assert np.all(cols["Cn"] <= cols["estimate"] + 1e-12)

    survival = tmp_path / "band.survival.csv"
    assert survival.exists()
    assert _sidecar(survival)["artifact"] == "survival_summary"
    scols, _ = read_long_csv(survival)
    assert set(np.unique(scols["kind"])) == {"abs", "ratio"}


def test_estimate_writes_no_negative_zero(tmp_path):
    # the quasi-linear design of scripts/golden_artifacts.py, whose tables
    # held -0.0 cells when zero weights reached the cumulative sums
    affine = {"mu0": {"intercept": 0.0, "slope": 0.3},
              "mu1": {"intercept": 0.2, "slope": 0.5},
              "sigma0": 0.6, "sigma1": 0.7, "outcome_corr": 0.0,
              "g0": {"intercept": 1.5, "slope": -0.8}, "g1": 0.3}
    config = _config_file(tmp_path, dgp={"family": "quasi_linear", "params": affine})
    sample = tmp_path / "sample.csv"
    assert main(["simulate", "--config", config, "--n", "600", "--seed", "3",
                 "--output", str(sample)]) == 0
    tables = tmp_path / "tables.csv"
    assert main(["estimate", "--input", str(sample), "--grid-y", "25",
                 "--grid-z", "4", "--output", str(tables)]) == 0
    cols, _ = read_long_csv(tables)
    numbers = list(np.concatenate(list(cols.values())))
    assert len(numbers) == 25 * 4 * 6
    with open(str(tables)[: -len(".csv")] + ".json") as handle:
        json.load(handle, parse_float=lambda text: numbers.append(float(text)))
    assert not any(x == 0.0 and np.signbit(x) for x in numbers)


def test_bounds_mode_all_writes_three_artifacts(tmp_path):
    sample_path = _simulated(tmp_path, n=2000, seed=3)
    out = tmp_path / "b.csv"
    assert main(["bounds", "--input", sample_path, "--output", str(out),
                 "--mode", "all", "--grid-y", "25", "--grid-z", "4"]) == 0
    for tag, artifact in (("pf", "bound_surface"), ("if", "if_bound_curve"),
                          ("random", "random_cost_bounds")):
        csv_path = tmp_path / f"b.{tag}.csv"
        assert csv_path.exists()
        assert _sidecar(csv_path)["artifact"] == artifact


# the data keys of each sidecar kind; four sidecars hold their result's
# dataclass fields, so a new field shows here before it reaches an artifact
_SIDECAR_KEYS = {
    "sample": {"n", "lower_support_bound", "dgp"},
    "tables": {"y_grid", "z_grid", "F", "F0", "F1", "p", "bandwidth", "n_obs"},
    "bound_surface": {"y_grid", "z_grid", "clow", "chigh", "identified",
                      "crossing_rejected", "crossing_worst_gap", "crossing_tol",
                      "sandwich_rejected", "identification_tol"},
    "if_bound_curve": {"z_grid", "m", "m0b", "p", "clow", "chigh", "p_tol",
                       "testability_rejected", "testability_worst"},
    "random_cost_bounds": {"cost_grid", "z_grid", "FL", "FU", "identified_z", "p_tol"},
    "confidence_band": {"y_grid", "z_grid", "Cn", "estimate", "se", "critical_value",
                        "identified", "alpha", "B", "seed", "bandwidth", "side",
                        "subset_indices", "crossing_rejected"},
    "survival_summary": {"thresholds_abs", "thresholds_ratio", "bin_edges", "bin_counts",
                         "prop_abs", "prop_ratio", "pooled_abs", "pooled_ratio",
                         "clamped_count", "ratio_excluded"},
    "coverage_report": {"y_grid", "z_grid", "reps", "n", "alpha", "B", "seed",
                        "pointwise_coverage_vs_lower", "pointwise_coverage_vs_cost",
                        "cell_counts", "uniform_coverage_vs_lower",
                        "uniform_coverage_vs_cost", "violations_vs_lower",
                        "violations_vs_cost", "population_lower", "population_mask",
                        "true_cost"},
}


def test_each_sidecar_holds_exactly_its_keys(tmp_path):
    sample = _simulated(tmp_path, n=600, seed=3)
    grid = ["--grid-y", "25", "--grid-z", "4"]
    for argv in (["estimate", "--input", sample, *grid],
                 ["bounds", "--input", sample, "--mode", "all", *grid],
                 ["infer", "--input", sample, "--bootstrap", "50", *grid],
                 ["coverage", "--config", _config_file(tmp_path), "--n", "300",
                  "--reps", "1", "--bootstrap", "50"]):
        assert main([*argv, "--output", str(tmp_path / f"{argv[0]}.csv")]) == 0
    keys = {}
    for path in tmp_path.glob("*.json"):
        if path.name != "config.json":
            side = json.loads(path.read_text())
            keys[side["artifact"]] = set(side["data"])
    assert keys == _SIDECAR_KEYS


# the one stderr line of an exit 2
_REJECTED = re.compile(r"rejected: (envelopes|sandwich) cross by \S+ > tol \S+ at y=\S+, z=\S+\n")


def test_bounds_zero_crossing_tol_flags_rejection(tmp_path, capsys):
    sample_path = _simulated(tmp_path)
    out = tmp_path / "b.csv"
    code = main(["bounds", "--input", sample_path, "--output", str(out),
                 "--crossing-tol", "0.0", "--grid-y", "30", "--grid-z", "5"])
    assert code == 2
    side = _sidecar(out)
    assert side["data"]["crossing_rejected"] is True
    assert out.exists()
    assert _REJECTED.fullmatch(capsys.readouterr().err)


def test_infer_zero_crossing_tol_exits_two(tmp_path, capsys):
    sample_path = _simulated(tmp_path, n=1500, seed=9)
    out = tmp_path / "band.csv"
    code = main(["infer", "--input", sample_path, "--output", str(out),
                 "--crossing-tol", "0.0", "--grid-y", "20", "--grid-z", "4",
                 "--bootstrap", "50"])
    assert code == 2
    assert _sidecar(out)["data"]["crossing_rejected"] is True
    assert _REJECTED.fullmatch(capsys.readouterr().err)


def test_sector_zero_only_sample_exits_two_with_one_line(tmp_path, capsys):
    rng = np.random.default_rng(8)
    path = tmp_path / "d0.csv"
    rows = [f"{float(y)!r},0,{float(z)!r}"
            for y, z in zip(rng.uniform(1, 3, 400), rng.uniform(size=400))]
    path.write_text("y,d,z\n" + "\n".join(rows) + "\n")
    out = str(tmp_path / "out.csv")
    for args in (["bounds"], ["bounds", "--mode", "all"], ["infer", "--bootstrap", "50"]):
        assert main([*args, "--input", str(path), "--output", out]) == 2
        assert _REJECTED.fullmatch(capsys.readouterr().err)


def test_repeat_run_writes_identical_bytes(tmp_path):
    config = _config_file(tmp_path, n=400, seed=6)
    out = tmp_path / "s.csv"
    main(["simulate", "--config", config, "--output", str(out)])
    first = out.read_bytes()
    main(["simulate", "--config", config, "--output", str(out)])
    assert out.read_bytes() == first

    bounds = tmp_path / "b.csv"
    args = ["bounds", "--input", str(out), "--output", str(bounds),
            "--grid-y", "20", "--grid-z", "4"]
    main(args)
    first = bounds.read_bytes()
    main(args)
    assert bounds.read_bytes() == first


def test_survival_bins_hold_only_records_inside_their_edges(tmp_path):
    sample_path = _simulated(tmp_path, n=500)
    z = ingest_csv(sample_path).z
    top = float(np.sort(z)[300])  # one record sits on the last edge
    out = tmp_path / "band.csv"
    code = main(["infer", "--input", sample_path, "--output", str(out),
                 "--bootstrap", "50", "--grid-y", "15", "--grid-z", "3",
                 "--z-bins", f"0.4,0.5,{top!r}"])
    assert code in (0, 2)
    cols, _ = read_long_csv(tmp_path / "band.survival.csv")
    counts = dict(zip(cols["zbin"], cols["count"]))
    assert len(counts) == 3
    low, high, pooled = counts.values()
    assert low == np.sum((z >= 0.4) & (z < 0.5))
    assert high == np.sum((z >= 0.5) & (z <= top))
    assert pooled == 500


def _dgp_with(**changes):
    return {**quasi_dgp_spec().to_json(), **changes}


def _params_with(**changes):
    return _dgp_with(params={**quasi_dgp_spec().to_json()["params"], **changes})


@pytest.mark.parametrize("dgp", [
    {k: v for k, v in _dgp_with().items() if k != "family"},
    _dgp_with(z_law={"kind": "bogus"}),
    _dgp_with(z_law={"kind": "uniform", "low": "a"}),
    _dgp_with(z_law="abc"),
    _params_with(mu0="abc"),
    _params_with(zeta=1),
    _params_with(g0=[1.0]),
    _params_with(g1={"slope": 0.1}),
    _dgp_with(params="abc"),
    _dgp_with(lower_support_bound="abc"),
    "abc",
    _dgp_with(z_law={"kind": "choice", "values": [0.2, 0.7], "probs": [0.5, 0.6]}),
    _dgp_with(z_law={"kind": "choice", "values": [0.2, 0.7], "probs": [-0.5, 1.5]}),
    _params_with(sigma0=float("nan")),
    _dgp_with(z_law={"kind": "uniform", "low": 0.0, "high": float("inf")}),
    _dgp_with(lower_support_bound=float("nan")),
    _params_with(g0=True),
    _params_with(mu1=[0.2, False]),
    _params_with(g1={"intercept": 0.3, "slope": True}),
    _params_with(outcome_corr=False),
    _dgp_with(lower_support_bound=True),
    _dgp_with(z_law={"kind": "uniform", "low": False, "high": 1.0}),
    _dgp_with(z_law={"kind": "choice", "values": [0.2, True]}),
    _dgp_with(z_law={"kind": "fixed", "value": True}),
    _params_with(rho=7.0, eta0=0.4),
    _dgp_with(forsight="imperfect"),
    _dgp_with(z_law={"kind": "uniform", "low": 0.0, "high": 1.0, "values": [0.5]}),
    _params_with(mu0="0.5"),
    _dgp_with(z_law={"kind": "choice", "values": "12"}),
    _dgp_with(z_law={"kind": "choice", "values": {"0.2": 1, "0.7": 2}}),
    _params_with(mu0=10 ** 400)],
    ids=["no-family", "bogus-z-law-kind", "text-z-law-bound", "text-z-law",
         "text-param", "unknown-param", "short-pair", "no-intercept",
         "text-params", "text-lower-bound", "text-dgp", "probs-sum-above-one",
         "negative-probs", "nan-param", "infinite-z-law-bound",
         "nan-lower-bound", "bool-param", "bool-in-pair", "bool-slope",
         "bool-scalar", "bool-lower-bound", "bool-z-law-bound", "bool-z-law-value",
         "bool-z-law-fixed", "unread-family-param", "misspelled-dgp-key",
         "foreign-z-law-key", "numeric-text-param", "text-z-law-values",
         "object-z-law-values", "huge-int-param"])
@pytest.mark.parametrize("command", ["simulate", "coverage"])
def test_malformed_dgp_is_a_one_line_error(tmp_path, capsys, dgp, command):
    out = tmp_path / "out.csv"
    reps = ["--reps", "1"] if command == "coverage" else []
    code = main([command, "--config", _config_file(tmp_path, dgp=dgp),
                 "--output", str(out), "--n", "50", *reps])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "dgp" in err or "z law" in err  # the message names the section
    assert not out.exists()


def test_collapsed_population_nodes_are_a_one_line_error(tmp_path, capsys):
    # 20 001 nodes over 17 sigma of 1e-15 fall below one ulp of mu = 1
    out = tmp_path / "cov.csv"
    dgp = _params_with(mu0=1.0, mu1=1.0, sigma0=1e-15, sigma1=1e-15)
    code = main(["coverage", "--config", _config_file(tmp_path, dgp=dgp),
                 "--output", str(out), "--n", "300", "--reps", "1", "--bootstrap", "50"])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: dgp sigma 1e-15 is too small beside mu 1.0")
    assert err.count("\n") == 1
    assert not out.exists()


def test_custom_family_is_unknown(tmp_path, capsys):
    out = tmp_path / "out.csv"
    config = _config_file(tmp_path, dgp=_dgp_with(family="custom"))
    code = main(["simulate", "--config", config, "--output", str(out), "--n", "50"])
    assert code == 1
    assert capsys.readouterr().err == "error: unknown family 'custom'\n"
    assert not out.exists()


def test_coverage_smoke(tmp_path):
    config = _config_file(tmp_path, n=300, reps=2, bootstrap=50,
                          grid_y=12, grid_z=3)
    out = tmp_path / "cov.csv"
    assert main(["coverage", "--config", config, "--output", str(out),
                 "--seed", "1"]) == 0
    side = _sidecar(out)
    assert side["artifact"] == "coverage_report"
    cols, echo = read_long_csv(out)
    assert echo["reps"] == 2
    vals = cols["coverage_vs_lower"]
    ok = ~np.isnan(vals)
    assert np.all((vals[ok] >= 0) & (vals[ok] <= 1))


def test_console_entry_point_runs():
    proc = subprocess.run([sys.executable, "-m", "roybounds.cli", "--help"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert "estimate" in proc.stdout


@pytest.mark.parametrize("source", [
    ["--z-bins=0.9,0.5,0.1"], ["--z-bins=0.5"], ["--z-bins=0.2,0.2,0.8"],
    ["--z-bins=0.1,nan,0.9"], {"z_bins": ["low", "high"]}, {"z_bins": ["0.1", "0.5"]},
    {"z_bins": [0.1, True]}, {"z_bins": [0.1, 10 ** 400]}],
    ids=["decreasing", "one-edge", "repeated-edge", "nan-edge", "config-text",
         "config-numeric-text", "config-bool", "config-huge-int"])
def test_bad_z_bins_are_config_errors(tmp_path, capsys, source):
    sample = _simulated(tmp_path, n=200)
    if isinstance(source, dict):
        source = ["--config", _config_file(tmp_path, **source)]
    out = tmp_path / "band.csv"
    code = main(["infer", "--input", sample, "--output", str(out),
                 "--bootstrap", "50", *source])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: z-bins") and err.count("\n") == 1
    assert not out.exists()


def test_single_z_value_is_rejected_by_bound_commands(tmp_path, capsys):
    rng = np.random.default_rng(4)
    path = tmp_path / "flat.csv"
    rows = [f"{float(y)!r},{int(d)},0.5" for y, d in
            zip(rng.uniform(1, 3, 300), rng.uniform(size=300) < 0.5)]
    path.write_text("y,d,z\n" + "\n".join(rows) + "\n")
    common = ["--input", str(path), "--grid-y", "10", "--grid-z", "3"]
    for args in (["bounds", "--mode", "pf"], ["bounds", "--mode", "if"],
                 ["bounds", "--mode", "random"], ["bounds", "--mode", "all"],
                 ["infer", "--bootstrap", "50"]):
        assert main(args + common + ["--output", str(tmp_path / "b.csv")]) == 1
        assert capsys.readouterr().err == (
            "error: bound operations need at least 2 distinct z values\n")
    assert [p.name for p in tmp_path.iterdir()] == ["flat.csv"]
    assert main(["estimate", *common, "--output", str(tmp_path / "t.csv")]) == 0


@pytest.mark.parametrize("cell", ["", "nan"])
def test_blank_or_nan_b_lower_is_not_numeric(tmp_path, capsys, cell):
    path = tmp_path / "s.csv"
    path.write_text(f"y,d,z,b_lower\n1.5,1,0.2,{cell}\n2.0,0,0.7,{cell}\n")
    out = tmp_path / "t.csv"
    assert main(["estimate", "--input", str(path), "--output", str(out)]) == 1
    assert capsys.readouterr().err == (
        f"error: row 2: column 'b_lower' is not numeric: {cell!r}\n")
    assert not out.exists()


@pytest.mark.parametrize("flag", ["--input", "--config"])
def test_non_utf8_file_is_a_one_line_error(tmp_path, capsys, flag):
    path = tmp_path / "latin.bin"
    path.write_bytes(b"\xff\xfey,d,z\n1.5,1,0.2\n")
    out = tmp_path / "t.csv"
    assert main(["estimate", flag, str(path), "--output", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert str(path) in err
    assert not out.exists()
