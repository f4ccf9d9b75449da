"""Run a fixed set of CLI commands and print one sha256 per artifact.

The set covers simulate, estimate, bounds (--mode all, each mode alone,
pf at a zero crossing tolerance and random on a given cost grid), infer
(lower, upper, with --bandwidth/--z-bins, at a zero crossing tolerance,
lower and upper on a grid whose bootstrap runs in more than one chunk, and
lower on a grid of more than 256 y rows, whose draws take two bytes)
and coverage on the quasi-linear and multiplicative designs, simulate on
the pure Roy, quadratic, isoelastic, an imperfect-foresight and a
degenerate pure Roy design (each cost family's closed form and both
selection rules) and on quasi-linear designs with a weighted choice and a
fixed z law (each JSON form of the z law), coverage, whose references are
the population tables, on the quadratic, isoelastic, imperfect-foresight
and degenerate pure Roy designs (every branch of the population tables),
simulate and infer on a quasi-linear design with a discrete z law, and
infer on both sides on a quasi-linear sample whose y are rounded to tenths
(ties inside every kernel window), and simulate, bounds (--mode all),
infer on both sides and coverage on a quasi-linear design whose lower
bound is positive, at small sizes and fixed seeds.  Every command runs in
OUTDIR with relative paths, so the artifacts (whose headers echo the
resolved configuration, paths included) do not depend on where OUTDIR
lies, and two checkouts can be compared line by line:

    python3 scripts/golden_artifacts.py PARENT_CHECKOUT /tmp/a > a.txt
    python3 scripts/golden_artifacts.py .               /tmp/b > b.txt
    diff a.txt b.txt

scripts/compare_artifacts.py then says what moved in the artifacts whose
digests differ.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

AFFINE = {"mu0": {"intercept": 0.0, "slope": 0.3},
          "mu1": {"intercept": 0.2, "slope": 0.5},
          "sigma0": 0.6, "sigma1": 0.7, "outcome_corr": 0.0}
DESIGNS = {
    "quasi": {"family": "quasi_linear",
              "params": {**AFFINE, "g0": {"intercept": 1.5, "slope": -0.8}, "g1": 0.3}},
    "mult": {"family": "multiplicative",
             "params": {**AFFINE, "g0": 1.0, "g1": {"intercept": 0.55, "slope": 0.35}}},
}
# designs run through simulate only, and the COVERED ones through coverage too;
# the quadratic one sits low enough to keep draws clear of its curvature cap
SIMULATED = {
    "roy": {"family": "pure_roy", "params": AFFINE},
    "quad": {"family": "quadratic",
             "params": {**AFFINE, "mu0": {"intercept": -1.3, "slope": 0.2},
                        "mu1": {"intercept": -1.2, "slope": 0.3},
                        "eta0": 0.25, "eta1": {"intercept": 0.45, "slope": -0.1},
                        "f": 0.8}},
    "iso": {"family": "isoelastic",
            "params": {**AFFINE, "sigma0": 0.5, "sigma1": 0.7, "rho": 2.0}},
    "quasi-if": {**DESIGNS["quasi"], "foresight": "imperfect"},
    # equal sector laws and perfectly correlated outcomes: the closed form
    "roy-equal": {"family": "pure_roy",
                  "params": {**AFFINE, "mu1": AFFINE["mu0"], "sigma1": AFFINE["sigma0"],
                             "outcome_corr": 1.0}},
    # the z law's JSON forms: a choice law with probs, a fixed law
    "quasi-zprobs": {**DESIGNS["quasi"], "z_law": {
        "kind": "choice", "values": [0.0, 0.5, 1.0], "probs": [0.25, 0.25, 0.5]}},
    "quasi-zfixed": {**DESIGNS["quasi"], "z_law": {"kind": "fixed", "value": 0.4}},
}
COVERED = ("quad", "iso", "quasi-if", "roy-equal")
# simulate and one infer on a discrete z law (ties in z), at a bandwidth that
# leaves no kernel window of the 25x4 grid empty in any replication
DISCRETE_Z = {"quasi-zchoice": {**DESIGNS["quasi"], "z_law": {
    "kind": "choice", "values": [0.0, 0.25, 0.5, 0.75, 1.0]}}}
# simulate, round y to tenths, then infer on both sides: ties in y inside
# every kernel window, for the sort order of tied records
TIED_Y = {"quasi-ties": DESIGNS["quasi"]}
# simulate, bounds --mode all, infer on both sides and coverage on a design
# whose population lower bound is positive on about half its identified cells
CONTENT = {"content": {"family": "quasi_linear", "params": {
    "mu0": 0.0, "mu1": {"intercept": 0.2, "slope": -0.3}, "sigma0": 0.6, "sigma1": 0.6,
    "outcome_corr": 0.0, "g0": {"intercept": 1.5, "slope": -1.5}, "g1": 0.0}}}
GRID = ["--grid-y", "25", "--grid-z", "4"]
# the last --grid-y/--grid-z flags win: at 100x6 the bootstrap's 50
# replications run in several chunks, the last of them ragged
CHUNKED = ["--grid-y", "100", "--grid-z", "6"]
# past 256 y rows the bootstrap stores each draw's grid index in two bytes
WIDE_Y = ["--grid-y", "300", "--grid-z", "3"]
# at 60x8 the estimated envelopes cross, so a zero tolerance exits 2
CROSSED = ["--grid-y", "60", "--grid-z", "8", "--crossing-tol", "0"]
INFER = {
    "lower": [],
    "upper": ["--side", "upper"],
    "options": ["--bandwidth", "0.25", "--z-bins", "0.2,0.5,0.8"],
    "chunked-lower": CHUNKED,
    "chunked-upper": [*CHUNKED, "--side", "upper"],
    "wide-y": WIDE_Y,
    "rejected": [*CROSSED, "--alpha", "0.1"],
}
# each bounds mode alone writes untagged artifacts
BOUNDS = {
    "pf": ["--mode", "pf"],
    "if": ["--mode", "if"],
    "random": ["--mode", "random"],
    "pf-rejected": ["--mode", "pf", *CROSSED],
    "random-grid": ["--mode", "random", "--cost-points", "7", "--cost-max", "2.5"],
}


def commands(name: str) -> list:
    sample = f"{name}.sample.csv"
    infer = ["infer", "--input", sample, "--bootstrap", "50", "--seed", "5", *GRID]
    simulate = ["simulate", "--config", f"{name}.json", "--n", "600", "--seed", "3",
                "--output", sample]
    coverage = ["coverage", "--config", f"{name}.json", "--n", "300", "--reps", "2",
                "--bootstrap", "50", "--seed", "1", "--output", f"{name}.coverage.csv"]
    if name in SIMULATED:
        return [simulate, *([coverage] if name in COVERED else [])]
    if name in DISCRETE_Z:
        return [simulate, [*infer, "--bandwidth", "0.3", "--output", f"{name}.band-lower.csv"]]
    bands = [[*infer, "--output", f"{name}.band-lower.csv"],
             [*infer, "--side", "upper", "--output", f"{name}.band-upper.csv"]]
    if name in TIED_Y:
        return [simulate, round_y, *bands]
    if name in CONTENT:
        return [simulate, ["bounds", "--input", sample, "--mode", "all", *GRID,
                           "--output", f"{name}.bounds.csv"], *bands, coverage]
    return [
        simulate,
        ["estimate", "--input", sample, *GRID, "--output", f"{name}.tables.csv"],
        ["bounds", "--input", sample, "--mode", "all", *GRID,
         "--output", f"{name}.bounds.csv"],
        *(["bounds", "--input", sample, *GRID, *extra, "--output", f"{name}.bounds-{label}.csv"]
          for label, extra in BOUNDS.items()),
        *([*infer, *extra, "--output", f"{name}.band-{label}.csv"]
          for label, extra in INFER.items()),
        coverage,
    ]


def round_y(sample: Path) -> None:
    """Round the y column of a sample CSV to tenths, in place."""
    lines = sample.read_text().splitlines(keepends=True)
    data = lines.index("y,d,z,b_lower\n") + 1
    rounded = (f"{round(float(y), 1)!r},{rest}" for y, rest in
               (line.split(",", 1) for line in lines[data:]))
    sample.write_text("".join([*lines[:data], *rounded]))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("repo", type=Path, help="checkout whose src/ is run")
    parser.add_argument("outdir", type=Path, help="empty or new directory")
    args = parser.parse_args()
    args.outdir.mkdir(parents=True, exist_ok=True)
    env = {**os.environ, "PYTHONPATH": str(args.repo.resolve() / "src")}
    for name, dgp in {**DESIGNS, **SIMULATED, **DISCRETE_Z, **TIED_Y, **CONTENT}.items():
        (args.outdir / f"{name}.json").write_text(json.dumps({"dgp": dgp}))
        for argv in commands(name):
            if argv is round_y:
                round_y(args.outdir / f"{name}.sample.csv")
                continue
            proc = subprocess.run([sys.executable, "-m", "roybounds.cli", *argv],
                                  cwd=args.outdir, env=env, capture_output=True,
                                  text=True)
            # exit 2 (crossing test fired) still writes every artifact
            if proc.returncode not in (0, 2):
                sys.exit(f"{' '.join(argv)} exited {proc.returncode}: {proc.stderr}")
    for path in sorted(args.outdir.iterdir()):
        print(hashlib.sha256(path.read_bytes()).hexdigest(), path.name)
    return 0


if __name__ == "__main__":
    sys.exit(main())
