"""The benchmark's workloads: inputs, the CLI call that makes one unit, checks.

Each workload drives the package from outside through ``roybounds.cli.main``
with the files its set-up step wrote.  Every argument that shapes the work
(sizes, grids, bootstrap count, alpha, side) is written into the workload's
``config.json`` explicitly, so a later change of a CLI default does not
change what is measured.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

# tests/conftest.py::quasi_dgp_spec, the design of ROADMAP end-to-end case 1
QUASI = {"family": "quasi_linear",
         "params": {"mu0": [0.0, 0.3], "mu1": [0.2, 0.5], "sigma0": 0.6,
                    "sigma1": 0.7, "g0": [1.5, -0.8], "g1": [0.3, 0.0]}}
# multiplicative cost C(y, z) = y (1 - g1(z) / g0(z)); g = [intercept, slope]
MULT = {"family": "multiplicative",
        "params": {"mu0": [0.0, 0.3], "mu1": [0.2, 0.5], "sigma0": 0.6,
                   "sigma1": 0.7, "g0": [1.0, 0.0], "g1": [0.6, 0.2]}}

# Clow may overshoot the true cost by sampling noise; the acceptance tests
# use the same slack for estimated surfaces
CLOW_SLACK = 0.05
# quantile levels of the y grid on which check_bounds tests containment
INTERIOR = (0.05, 0.95)


def derive_seeds(seed: int) -> tuple:
    """(data seed, program seed) from the benchmark seed, as plain ints."""
    data, run = np.random.SeedSequence(int(seed)).generate_state(2)
    return int(data), int(run)


def digest(paths) -> str:
    """sha256 over (name, bytes) of the given files, in the given order."""
    h = hashlib.sha256()
    for p in paths:
        h.update(p.name.encode() + b"\0")
        h.update(p.read_bytes())
    return h.hexdigest()


def tree_digest(root: Path) -> str:
    return digest(sorted(p for p in root.iterdir() if p.is_file()))


def _floats(values) -> np.ndarray:
    """JSON sidecar values back to floats (null is NaN, "inf" strings parse)."""
    if isinstance(values, list):
        return np.array([_floats(v) for v in values], dtype=float)
    return np.float64(math.nan if values is None else float(values))


def _sidecar(path: Path) -> dict:
    return json.loads(path.read_text())["data"]


def check_infer(out: Path) -> tuple:
    data = _sidecar(out / "band.json")
    cn, chat = _floats(data["Cn"]), _floats(data["estimate"])
    ident = np.asarray(data["identified"], dtype=bool)
    crit = data["critical_value"]
    crit = math.nan if crit is None else float(crit)
    ok = (math.isfinite(crit) and crit >= 0.0 and bool(ident.any())
          and bool(np.all(cn[ident] <= chat[ident]))
          and (out / "band.survival.json").is_file())
    return ok, {"critical_value": crit, "identified_cells": int(ident.sum())}


def _true_mult_cost(y: np.ndarray, z: np.ndarray) -> np.ndarray:
    (a0, b0), (a1, b1) = MULT["params"]["g0"], MULT["params"]["g1"]
    ratio = (a1 + b1 * z) / (a0 + b0 * z)
    return y[:, None] * (1.0 - ratio)[None, :]


def check_bounds(out: Path) -> tuple:
    """Order and containment of the true cost on identified interior cells.

    The CLI's y grid is the sample's quantiles at evenly spaced levels, so
    row k sits at level k / (n_y - 1).  Containment is checked between the
    INTERIOR levels, as the acceptance tests check it on interior grids:
    kernel estimates at the extreme order statistics carry no precision
    guarantee, and a few such cells miss the truth on some seeds.  Those are
    reported as ``tail_violations``, not counted as a failure.
    """
    pf = _sidecar(out / "bounds.pf.json")
    clow, chigh = _floats(pf["clow"]), _floats(pf["chigh"])
    ident = np.asarray(pf["identified"], dtype=bool)
    y = _floats(pf["y_grid"])
    truth = _true_mult_cost(y, _floats(pf["z_grid"]))
    level = np.arange(y.size) / max(y.size - 1, 1)
    interior = (level >= INTERIOR[0]) & (level <= INTERIOR[1])
    bad = ident & ~((clow <= chigh) & (clow <= truth + CLOW_SLACK)
                    & (chigh >= truth))
    rc = _sidecar(out / "bounds.random.json")
    fl, fu = _floats(rc["FL"]), _floats(rc["FU"])
    both = np.isfinite(fl) & np.isfinite(fu)
    crossed = both & (fl > fu)
    inner_bad = int(bad[interior].sum())
    ok = (bool(ident[interior].any()) and inner_bad == 0 and bool(both.any())
          and not crossed.any() and (out / "bounds.if.json").is_file())
    return ok, {"identified_cells": int(ident.sum()),
                "violations": inner_bad + int(crossed.sum()),
                "tail_violations": int(bad[~interior].sum())}


def check_coverage(out: Path) -> tuple:
    """The report parses and compared some cells, only population-identified
    ones, at most once per replication each."""
    data = _sidecar(out / "coverage.json")
    counts = _floats(data["cell_counts"])
    population = np.asarray(data["population_mask"], dtype=bool)
    reps = int(data["reps"])
    uniform = (data["uniform_coverage_vs_lower"], data["uniform_coverage_vs_cost"])
    ok = (counts.shape == population.shape and bool(np.any(counts > 0))
          and not np.any(counts[~population] > 0) and bool(np.all(counts <= reps))
          and all(0.0 <= u <= 1.0 for u in uniform))
    return ok, {"violations_vs_lower": data["violations_vs_lower"],
                "violations_vs_cost": data["violations_vs_cost"],
                "compared_cells": int(np.sum(counts > 0))}


@dataclass(frozen=True)
class Workload:
    name: str
    command: str
    full: dict
    toy: dict
    check: Callable[[Path], tuple]
    output: str
    simulate: bool = True
    extra_args: tuple = ()

    def config(self, size: str) -> dict:
        if size not in ("full", "toy"):
            raise ValueError(f"unknown size {size!r}")
        return {**self.full, **self.toy} if size == "toy" else dict(self.full)

    def argv(self, run_seed: int) -> list:
        """One unit's CLI arguments, relative to the set-up directory."""
        args = [self.command, "--config", "config.json"]
        if self.simulate:
            args += ["--input", "input.csv"]
        return args + list(self.extra_args) + [
            "--seed", str(run_seed), "--output", f"out/{self.output}"]


# why each workload was chosen is recorded in BENCHMARK.json
WORKLOADS = {w.name: w for w in (
    Workload(
        name="infer-large",
        command="infer",
        full={"dgp": QUASI, "n": 20000, "grid_y": 200, "grid_z": 8,
              "bootstrap": 200, "alpha": 0.05, "side": "lower"},
        toy={"n": 1500, "grid_y": 30, "grid_z": 4, "bootstrap": 50},
        check=check_infer, output="band.csv"),
    Workload(
        name="coverage-small",
        command="coverage",
        full={"dgp": QUASI, "n": 2000, "reps": 4, "bootstrap": 200,
              "alpha": 0.05},
        toy={"n": 600, "reps": 1, "bootstrap": 50},
        check=check_coverage, output="coverage.csv", simulate=False),
    Workload(
        name="bounds-all",
        command="bounds",
        full={"dgp": MULT, "n": 100000, "grid_y": 200, "grid_z": 8,
              "cost_points": 41},
        # a few thousand records miss the containment check on some seeds
        toy={"n": 20000, "grid_y": 30, "grid_z": 4, "cost_points": 11},
        check=check_bounds, output="bounds.csv", extra_args=("--mode", "all")),
)}
