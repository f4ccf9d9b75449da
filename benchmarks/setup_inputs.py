"""Set-up step of the benchmark: write one workload's config and input CSV.

    python3 benchmarks/setup_inputs.py --workload NAME --seed N --size full --out DIR

Run as a script this is one timed set-up repetition: a fresh interpreter
that imports roybounds, writes ``config.json`` and, for workloads that read
a sample, draws it with ``roybounds simulate`` into ``input.csv``.  All
paths handed to the CLI are relative to DIR, so the files (whose headers
echo the resolved configuration) are byte-identical wherever DIR lives.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

from workloads import WORKLOADS, derive_seeds  # noqa: E402


def write_inputs(name: str, seed: int, size: str, out: Path) -> None:
    """Write config.json (and input.csv with its sidecar) into ``out``."""
    from roybounds import cli

    workload = WORKLOADS[name]
    data_seed, _ = derive_seeds(seed)
    out.mkdir(parents=True, exist_ok=True)
    previous = Path.cwd()
    os.chdir(out)
    try:
        Path("config.json").write_text(
            json.dumps(workload.config(size), indent=1, sort_keys=True) + "\n")
        if workload.simulate:
            status = cli.main(["simulate", "--config", "config.json",
                               "--seed", str(data_seed), "--output", "input.csv"])
            if status != 0:
                raise RuntimeError(f"roybounds simulate exited with {status}")
    finally:
        os.chdir(previous)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--size", choices=("full", "toy"), default="full")
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    write_inputs(args.workload, args.seed, args.size, args.out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
