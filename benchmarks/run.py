#!/usr/bin/env python3
"""roybounds benchmark: three CLI workloads, end-to-end and per-layer metrics.

    python3 benchmarks/run.py --workload infer-large --seed 1 --seconds 30 --trace 0

Run from the repository root (any copy of it: the package is imported from
its ``src/`` directory, never from an installed copy).  One process runs one
workload, single-threaded: ``ROYBOUNDS_WORKERS`` is cleared, ``--workers``
is never passed, and BLAS/OpenMP pools are capped at the CPU count.

Set-up writes the seed's ``config.json`` and input CSV (workloads.py) in
three fresh interpreters (setup_inputs.py); ``setup_s`` is their median
wall time from process start to files written, and the copies must be
byte-identical.  One untimed toy-size unit then warms the code paths.  Each
timed unit is one ``roybounds.cli.main([...])`` call in this process, and
its outputs are checked (workloads.py).  Units run until the next one would
end past ``--seconds``.

``--trace 0`` reports the end-to-end metrics, all with tracing off:
``setup_s``, ``wall_s_p50`` (median unit wall time) and ``peak_rss_mb``
(``ru_maxrss`` of this process).  ``--trace 1`` spends the first half of
the time untraced and the second half with spans recorded around every
public function of the package (spans.py), and reports the per-layer
metrics plus ``trace.overhead_frac``, the traced minus untraced median unit
time over the untraced one.  Spans are written to ``spans.jsonl`` in the
work directory ``.bench_work/<workload>-seed<n>/``.

The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``, where ``attempted`` counts
timed units and ``failed`` those that raised, exited non-zero or failed
their check.  The lines before it give the run header (code and library
versions), each metric with its unit and sample count, ``failed_frac``, and
the per-workload output information (critical value or violation count,
and the sha256 of the artifacts, which must not move under a change that
claims to keep outputs identical).
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
SETUP_REPS = {"full": 3, "toy": 1}
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


def pin_environment() -> int:
    """Clear the package's worker switch and cap native thread pools.

    Must run before numpy is imported; child processes inherit it.
    """
    nproc = len(os.sched_getaffinity(0))
    os.environ.pop("ROYBOUNDS_WORKERS", None)
    for var in THREAD_VARS:
        os.environ[var] = str(nproc)
    return nproc


def git_sha() -> str | None:
    """HEAD of the checkout's git directory, if it has one (no git needed)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.is_file():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def run_header(nproc: int) -> dict:
    import numpy
    import scipy

    from workloads import digest
    sources = sorted((SRC / "roybounds").glob("*.py"))
    return {"git_sha": git_sha(), "src_sha256": digest(sources),
            "nproc": nproc, "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "threads": {v: os.environ[v] for v in THREAD_VARS},
            "roybounds_workers": os.environ.get("ROYBOUNDS_WORKERS")}


def set_up(name: str, seed: int, size: str, work: Path) -> tuple:
    """Timed set-ups in fresh interpreters; returns (times, first dir)."""
    from workloads import tree_digest
    times, digests = [], set()
    for k in range(SETUP_REPS[size]):
        out = work / f"setup{k}"
        start = time.perf_counter()
        subprocess.run([sys.executable, str(HERE / "setup_inputs.py"),
                        "--workload", name, "--seed", str(seed), "--size", size,
                        "--out", str(out)], check=True, timeout=120)
        times.append(time.perf_counter() - start)
        digests.add(tree_digest(out))
        if k:
            shutil.rmtree(out)
    if len(digests) != 1:
        raise RuntimeError("set-up wrote different inputs for the same seed")
    return times, work / "setup0"


class Runner:
    """Timed units of one workload in its set-up directory."""

    def __init__(self, workload, seed: int):
        from roybounds import cli
        from workloads import derive_seeds
        self.workload = workload
        self.main = cli.main
        self.argv = workload.argv(derive_seeds(seed)[1])
        self.walls: list[float] = []
        self.failed = 0
        self.info: dict = {}
        self.digests: set = set()
        self.bytes_written: list[int] = []

    def unit(self, tracer=None) -> float:
        from workloads import tree_digest
        out = Path("out")
        shutil.rmtree(out, ignore_errors=True)
        out.mkdir()
        gc.collect()
        start = time.perf_counter()
        try:
            if tracer is None:
                status = self.main(self.argv)
            else:
                status = tracer.run_unit(len(self.walls), self.main, self.argv)
        except Exception:
            traceback.print_exc()
            status = None
        wall = time.perf_counter() - start
        self.walls.append(wall)
        ok = status == 0
        if ok:
            try:
                ok, self.info = self.workload.check(out)
            except (OSError, ValueError, KeyError, TypeError):
                traceback.print_exc()
                ok = False
        if ok:
            self.digests.add(tree_digest(out))
            self.bytes_written.append(sum(p.stat().st_size for p in out.iterdir()))
        else:
            self.failed += 1
            print(f"unit {len(self.walls)} failed (exit {status})", file=sys.stderr)
        return wall

    def run_for(self, seconds: float, tracer=None) -> list:
        """Units until the next would end past ``seconds``; at least one."""
        start = time.perf_counter()
        walls = [self.unit(tracer)]
        while time.perf_counter() - start + statistics.median(walls) <= seconds:
            walls.append(self.unit(tracer))
        return walls


def warm_up(name: str, seed: int, work: Path) -> None:
    """One untimed toy-size unit: first-call costs stay out of the timings."""
    from setup_inputs import write_inputs
    from workloads import WORKLOADS
    toy = work / "warmup"
    write_inputs(name, seed, "toy", toy)
    previous = Path.cwd()
    os.chdir(toy)
    try:
        Runner(WORKLOADS[name], seed).unit()
    finally:
        os.chdir(previous)
    shutil.rmtree(toy)


def measure(args) -> dict:
    from workloads import WORKLOADS
    workload = WORKLOADS[args.workload]
    work = WORK / f"{args.workload}-seed{args.seed}{'-toy' if args.size == 'toy' else ''}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    setup_times, inputs = set_up(args.workload, args.seed, args.size, work)

    import roybounds
    if Path(roybounds.__file__).resolve().parent != (SRC / "roybounds").resolve():
        raise RuntimeError(f"roybounds imported from {roybounds.__file__}, not {SRC}")
    if args.size == "full":
        warm_up(args.workload, args.seed, work)

    os.chdir(inputs)
    runner = Runner(workload, args.seed)
    report = {"setup": setup_times}
    if not args.trace:
        report["untraced"] = runner.run_for(args.seconds)
        report["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    else:
        from spans import Tracer
        report["untraced"] = runner.run_for(args.seconds / 2.0)
        with Tracer() as tracer:
            report["traced"] = runner.run_for(args.seconds / 2.0, tracer)
        tracer.write(work / "spans.jsonl")
        report["spans"] = tracer.spans
    report["runner"] = runner
    return report


def metrics_of(report, trace: int) -> dict:
    """{name: (value, unit, sample count)} for the chosen metric set."""
    runner = report["runner"]
    untraced = report["untraced"]
    if not trace:
        return {"setup_s": (statistics.median(report["setup"]), "s", len(report["setup"])),
                "wall_s_p50": (statistics.median(untraced), "s", len(untraced)),
                "peak_rss_mb": (report["peak_rss_mb"], "MiB", 1)}
    from spans import layer_metrics
    traced = report["traced"]
    out = {name: (value, unit, len(traced))
           for name, (value, unit) in layer_metrics(report["spans"]).items()}
    written = runner.bytes_written
    out["reporting.bytes_written"] = (
        statistics.median(written) if written else 0, "bytes", len(written))
    base = statistics.median(untraced)
    out["trace.overhead_frac"] = (
        (statistics.median(traced) - base) / base, "ratio", len(untraced) + len(traced))
    return out


def parse_args(argv=None):
    from workloads import WORKLOADS
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(WORKLOADS) + ["all"],
                        help="all runs each workload in its own process, in turn")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "toy"), default="full",
                        help="toy runs every workload at a few-second size")
    return parser.parse_args(argv)


def run_all(argv: list) -> int:
    """Every workload in a child process, one after another."""
    from workloads import WORKLOADS
    at = argv.index("--workload") + 1
    status = 0
    for name in WORKLOADS:
        print(f"== {name}", flush=True)
        child = subprocess.run([sys.executable, __file__] + argv[:at] + [name]
                               + argv[at + 1:])
        status = status or child.returncode
    return status


def main(argv=None) -> int:
    if not (SRC / "roybounds" / "__init__.py").is_file():
        print(f"error: no roybounds package under {SRC}", file=sys.stderr)
        return 2
    nproc = pin_environment()
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(argv if argv is not None else sys.argv[1:])
    previous = Path.cwd()
    try:
        report = measure(args)
    finally:
        os.chdir(previous)
    runner = report["runner"]
    attempted = len(runner.walls)
    metrics = metrics_of(report, args.trace)

    print(json.dumps({"header": run_header(nproc), "workload": args.workload,
                      "seed": args.seed, "seconds": args.seconds,
                      "trace": args.trace, "size": args.size}))
    for name, (value, unit, count) in metrics.items():
        print(f"{name:42s} {value:14.6g} {unit:6s} n={count}")
    print(f"{'failed_frac':42s} {runner.failed / attempted:14.6g} {'ratio':6s} "
          f"n={attempted}")
    print(json.dumps({"outputs": runner.info,
                      "artifact_sha256": sorted(runner.digests),
                      "setup_s_all": report["setup"], "unit_s_all": runner.walls}))
    print(json.dumps({
        "correct": runner.failed == 0,
        "attempted": attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit, _) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
