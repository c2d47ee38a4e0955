"""Smoke runs of the experiment scripts in ``scripts/``."""
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def run_script(name, *argv, cwd):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    return subprocess.run([sys.executable, str(ROOT / "scripts" / name), *argv],
                          cwd=cwd, env=env, capture_output=True, text=True, timeout=120)


@pytest.mark.parametrize("name,argv", [
    ("run_trace_demo.py", ("--long-frames", "20000")),
    ("run_sweep.py", ("--start", "10", "--stop", "10", "--grid-step", "0.25",
                      "--out", "sweep.csv")),
])
def test_script_exits_cleanly(tmp_path, name, argv):
    done = run_script(name, *argv, cwd=tmp_path)
    assert done.returncode == 0, done.stderr
