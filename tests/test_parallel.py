"""Fork-join over the CPUs: the bootstrap and the coverage replications give
the same bytes at any width, a failing range raises the serial error, and no
child process outlives a call or its parent."""

import json
import os
import select
import signal
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import roybounds.parallel
from roybounds.coverage import run_coverage
from roybounds.inference import _CHUNK_ENTRIES, _pairs, bootstrap_errors
from roybounds.model import EvaluationGrid, generate_sample
from roybounds.parallel import fork_join

from conftest import quasi_dgp_spec

SRC = Path(__file__).resolve().parent.parent / "src"


@pytest.fixture(autouse=True)
def no_child_left():
    yield
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _at_width(monkeypatch, width):
    monkeypatch.setattr(roybounds.parallel, "_width", lambda: width)


@pytest.mark.parametrize("side", ["lower", "upper"])
def test_bootstrap_is_byte_equal_at_every_width(monkeypatch, side):
    sample = generate_sample(quasi_dgp_spec(), 1500, seed=21)
    grid = EvaluationGrid.from_sample(sample, 40, 5)
    B = 120
    # a range of 60 or 40 replications ends in a ragged chunk
    chunk = _CHUNK_ENTRIES // (grid.y.size * len(_pairs(grid.z.size, side)))
    assert 60 % chunk and chunk < 60
    runs = {}
    for width in (1, 2, 3):
        _at_width(monkeypatch, width)
        runs[width] = bootstrap_errors(sample, grid, 0.2, B=B, seed=17, side=side)
    for width in (2, 3):
        for got, want in zip(runs[width], runs[1]):
            assert got.shape == want.shape and got.tobytes() == want.tobytes()


def test_coverage_report_is_equal_at_every_width(monkeypatch):
    reports = []
    for width in (1, 2):
        _at_width(monkeypatch, width)
        reports.append(run_coverage(quasi_dgp_spec(), reps=3, n=300, B=50, seed=4)
                       .to_dict())
    assert reports[0].keys() == reports[1].keys()
    for key, value in reports[0].items():
        other = reports[1][key]
        assert type(value) is type(other), key
        if isinstance(value, np.ndarray):
            assert value.dtype == other.dtype and value.tobytes() == other.tobytes(), key
        else:
            assert value == other, key


def _fill(log=None, fail=None):
    def run(lo, hi, out):
        if log is not None:
            log.append((lo, hi))
        for r in range(lo, hi):
            if r == fail:
                raise ValueError(f"replication {r} failed")
            out[r] = (r, os.getpid())
    return run


def test_width_one_runs_the_whole_range_here(monkeypatch):
    _at_width(monkeypatch, 1)
    log = []
    out = fork_join(_fill(log), 7, (2,), np.int64)
    assert log == [(0, 7)]
    assert out[:, 0].tolist() == list(range(7))
    assert set(out[:, 1]) == {os.getpid()}


@pytest.mark.parametrize("width,n", [(2, 7), (3, 7), (3, 2), (2, 0)])
def test_ranges_split_contiguously_over_processes(monkeypatch, width, n):
    _at_width(monkeypatch, width)
    out = fork_join(_fill(), n, (2,), np.int64)
    assert out.shape == (n, 2)
    assert out[:, 0].tolist() == list(range(n))
    pids = out[:, 1].tolist()
    assert len(set(pids)) == min(width, n)
    assert pids == sorted(pids, key=pids.index)  # each process holds one run
    assert not n or pids[0] == os.getpid()


def test_a_child_failure_raises_the_serial_error(monkeypatch):
    _at_width(monkeypatch, 1)
    with pytest.raises(ValueError) as serial:
        fork_join(_fill(fail=5), 7, (2,), np.int64)
    _at_width(monkeypatch, 3)
    log = []
    with pytest.raises(ValueError) as forked:
        fork_join(_fill(log, fail=5), 7, (2,), np.int64)
    assert str(forked.value) == str(serial.value) == "replication 5 failed"
    # the parent ran its own range and then the failed child's range again
    assert log == [(0, 2), (4, 7)]


def test_a_child_that_dies_has_its_range_rerun(monkeypatch):
    _at_width(monkeypatch, 2)
    parent = os.getpid()

    def run(lo, hi, out):
        if os.getpid() != parent:
            os.kill(os.getpid(), signal.SIGKILL)
        out[lo:hi] = np.arange(lo, hi)[:, None]

    assert fork_join(run, 6, (1,), np.int64)[:, 0].tolist() == list(range(6))


@pytest.mark.parametrize("error", [RuntimeError, KeyboardInterrupt])
def test_a_parent_failure_kills_the_children(monkeypatch, error):
    _at_width(monkeypatch, 3)
    parent = os.getpid()

    def run(lo, hi, out):
        if os.getpid() == parent:
            raise error("parent range failed")
        time.sleep(60)

    start = time.monotonic()
    with pytest.raises(error, match="parent range failed"):
        fork_join(run, 6, (), np.int64)
    assert time.monotonic() - start < 30


def test_a_nested_call_runs_serially(monkeypatch):
    _at_width(monkeypatch, 2)

    def inner(lo, hi, out):
        out[lo:hi] = os.getpid()

    def outer(lo, hi, out):
        for r in range(lo, hi):
            pids = fork_join(inner, 3, (), np.int64)
            out[r] = (os.getpid(), *pids)

    out = fork_join(outer, 4, (4,), np.int64)
    assert len(set(out[:, 0])) == 2
    assert np.all(out[:, 1:] == out[:, :1])
    # the flag is cleared once the call returns
    assert len(set(fork_join(inner, 2, (), np.int64))) == 2


_SLEEP_IN_A_CHILD = """
import os, time
import roybounds.parallel as parallel
parallel._width = lambda: 2
parent = os.getpid()
def run(lo, hi, out):
    if os.getpid() != parent:
        print(os.getpid(), flush=True)
    time.sleep(60)
parallel.fork_join(run, 2, (), float)
"""


def _state(pid):
    """The state letter of a process (Z for a zombie), None once it is gone."""
    try:
        return Path(f"/proc/{pid}/stat").read_text().rsplit(")", 1)[1].split()[0]
    except FileNotFoundError:
        return None


@pytest.mark.skipif(not Path("/proc/self/stat").exists(), reason="needs /proc")
def test_children_die_with_their_parent():
    path = [str(SRC), *filter(None, [os.environ.get("PYTHONPATH")])]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(path)}
    child = None
    with subprocess.Popen([sys.executable, "-c", _SLEEP_IN_A_CHILD], env=env,
                          stdout=subprocess.PIPE, text=True) as proc:
        try:
            assert select.select([proc.stdout], [], [], 30)[0], "no child reported"
            child = int(proc.stdout.readline())
            proc.terminate()
            proc.wait(timeout=30)
            deadline = time.monotonic() + 5.0
            while _state(child) not in (None, "Z") and time.monotonic() < deadline:
                time.sleep(0.05)
            assert _state(child) in (None, "Z")
        finally:
            proc.kill()
            if child is not None and _state(child) not in (None, "Z"):
                os.kill(child, signal.SIGKILL)


_RUN_CLI = """
import json, sys
from roybounds.cli import main
for args in json.loads(sys.argv[1]):
    assert main(args) == 0, args
"""


def test_cli_bytes_do_not_depend_on_the_cpu_mask(tmp_path):
    cpus = sorted(os.sched_getaffinity(0))
    if len(cpus) < 2:
        pytest.skip("needs at least 2 CPUs")
    commands = [
        ["simulate", "--config", "dgp.json", "--n", "600", "--seed", "3",
         "--output", "sample.csv"],
        *(["infer", "--input", "sample.csv", "--grid-y", "40", "--grid-z", "5",
           "--bootstrap", "60", "--seed", "5", "--side", side,
           "--output", f"band-{side}.csv"] for side in ("lower", "upper")),
        ["coverage", "--config", "dgp.json", "--n", "300", "--reps", "3",
         "--bootstrap", "50", "--seed", "1", "--output", "coverage.csv"],
    ]
    path = [str(SRC), *filter(None, [os.environ.get("PYTHONPATH")])]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(path)}
    artifacts = {}
    for name, pin in (("pinned", lambda: os.sched_setaffinity(0, {cpus[0]})),
                      ("unpinned", None)):
        work = tmp_path / name
        work.mkdir()
        (work / "dgp.json").write_text(json.dumps({"dgp": quasi_dgp_spec().to_json()}))
        proc = subprocess.run([sys.executable, "-c", _RUN_CLI, json.dumps(commands)],
                              cwd=work, env=env, preexec_fn=pin,
                              capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        artifacts[name] = {p.name: p.read_bytes() for p in sorted(work.iterdir())}
    assert len(artifacts["pinned"]) == 13
    assert artifacts["pinned"] == artifacts["unpinned"]


def test_a_range_that_cannot_fork_runs_in_the_parent(monkeypatch):
    _at_width(monkeypatch, 3)

    def no_fork():
        raise BlockingIOError(11, "Resource temporarily unavailable")

    monkeypatch.setattr(os, "fork", no_fork)
    out = fork_join(_fill(), 7, (2,), np.int64)
    assert out[:, 0].tolist() == list(range(7))
    assert set(out[:, 1]) == {os.getpid()}
