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


def test_trace_demo_prints_only_the_searched_thresholds(tmp_path):
    done = run_script("run_trace_demo.py", "--long-frames", "2000", cwd=tmp_path)
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    assert lines[0] == "optimized policies at 10 dB:"
    assert [line.split("throughput")[0].strip() for line in lines[1:5]] == [
        "htt: per-frame split", "ip: g_u=1.626", "pi: g_l=1.026", "pip: g_l=0.250, g_u=1.800"]


def test_count_code_lines_skips_blanks_comments_and_docstrings(tmp_path):
    (tmp_path / "mod.py").write_text(
        '"""Module docstring,\n'
        'two lines."""\n'
        "import math  # a trailing comment keeps the line\n"
        "\n"
        "# a comment line\n"
        "class A:\n"
        '    """Class docstring."""\n'
        "    def f(self):\n"
        "        '''Method\n"
        "        docstring.'''\n"
        '        return """not a\n'
        'docstring"""\n')
    (tmp_path / "empty.py").write_text("")
    done = run_script("count_code_lines.py", str(tmp_path), cwd=tmp_path)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "0 empty.py\n5 mod.py\n5 total\n"
