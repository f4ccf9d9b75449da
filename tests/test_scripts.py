"""README's two experiment scripts run end to end at small sizes.

Each runs in a fresh interpreter, as README shows it, writing into a
temporary directory; it must exit 0 and leave its output file.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("script,args,output", [
    ("run_bounds_demo.py", ["--n", "2000", "--grid-y", "20", "--grid-z", "4",
                            "--outdir", "{tmp}"], "bounds_quasi_linear_n2000_seed0.csv"),
    ("run_coverage_study.py", ["--reps", "1", "--n", "300", "--bootstrap", "50",
                               "--output", "{tmp}/coverage.json"], "coverage.json")],
    ids=["bounds-demo", "coverage-study"])
def test_experiment_script_runs(tmp_path, script, args, output):
    path = [str(ROOT / "src"), *filter(None, [os.environ.get("PYTHONPATH")])]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(path)}
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / script),
                           *(a.format(tmp=tmp_path) for a in args)],
                          cwd=tmp_path, env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / output).is_file()
