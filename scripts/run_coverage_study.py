"""Monte-Carlo coverage study for the one-sided uniform confidence band.

Repeatedly simulates a quasi-linear sector-choice sample, fits the lower
band at level alpha, and counts uniform violations against both the
population lower bound and the true cost.  Writes the full report as JSON.

Usage:
    python3 scripts/run_coverage_study.py --reps 200 --n 2000 --bootstrap 200
"""

import argparse
import json
import time
from pathlib import Path

from roybounds import DgpSpec
from roybounds.coverage import run_coverage
from roybounds.reporting import json_ready, result_data


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--reps", type=int, default=200)
    ap.add_argument("--n", type=int, default=2000)
    ap.add_argument("--alpha", type=float, default=0.05)
    ap.add_argument("--bootstrap", type=int, default=200)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--output", type=Path, default=Path("coverage_report.json"))
    args = ap.parse_args()

    dgp = DgpSpec.quasi_linear(mu0=(0.0, 0.3), mu1=(0.2, 0.5),
                               sigma0=0.6, sigma1=0.7,
                               g0=(1.5, -0.8), g1=(0.3, 0.0))
    t0 = time.monotonic()
    report = run_coverage(dgp, reps=args.reps, n=args.n, alpha=args.alpha,
                          B=args.bootstrap, seed=args.seed)
    dt = time.monotonic() - t0

    print(f"reps={args.reps} n={args.n} alpha={args.alpha} "
          f"B={args.bootstrap} seed={args.seed} ({dt:.0f}s)")
    print(f"uniform coverage vs population lower bound: "
          f"{report.uniform_coverage_vs_lower:.3f} "
          f"({report.violations_vs_lower} violations)")
    print(f"uniform coverage vs true cost:              "
          f"{report.uniform_coverage_vs_cost:.3f} "
          f"({report.violations_vs_cost} violations)")
    print(f"nominal level: {1.0 - args.alpha:.3f}")

    payload = json_ready(result_data(report))
    payload["elapsed_seconds"] = round(dt, 1)
    args.output.write_text(json.dumps(payload, indent=2))
    print(f"report written to {args.output}")


if __name__ == "__main__":
    main()
