"""Smoke runs of the experiment scripts in ``scripts/``."""
import os
import re
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


def test_line_trace_names_unlisted_unrun_lines_and_stale_entries(tmp_path):
    (tmp_path / "lib").mkdir()
    (tmp_path / "lib" / "mod.py").write_text(
        "def f(x):\n"
        "    if x > 0:\n"
        "        return x\n"
        "    return -x\n"
        "\n"
        "\n"
        "def g():\n"
        "    return 0\n")
    (tmp_path / "test_mod.py").write_text(
        "import sys\n"
        "from pathlib import Path\n"
        "\n"
        "sys.path.insert(0, str(Path(__file__).parent / 'lib'))\n"
        "import mod\n"
        "\n"
        "\n"
        "def test_f():\n"
        "    assert mod.f(1) == 1\n")
    allow = tmp_path / "allow.json"
    # without the hypothesis plugin, whose import is most of a run's time
    pytest_args = ("--", "-q", "-p", "no:cacheprovider", "-p", "no:hypothesispytest",
                   "test_mod.py")
    # "return x" runs, so its entry is stale; "return 0" is unrun and unlisted
    allow.write_text('[{"module": "mod.py", "line": "return -x", "reason": "f of x <= 0"},'
                     ' {"module": "mod.py", "line": "return x", "reason": "stale"}]')
    done = run_script("line_trace.py", "lib", str(allow), *pytest_args, cwd=tmp_path)
    assert done.returncode == 1, done.stderr
    assert done.stdout.splitlines()[-2:] == [
        "unrun, not in the allowlist: mod.py:8: return 0",
        "stale allowlist entry, no unrun line has its text: mod.py: return x"]
    allow.write_text('[{"module": "mod.py", "line": "return -x", "reason": "f of x <= 0"},'
                     ' {"module": "mod.py", "line": "return 0", "reason": "g is not called"}]')
    done = run_script("line_trace.py", "lib", str(allow), *pytest_args, cwd=tmp_path)
    assert done.returncode == 0, done.stdout
    assert done.stdout.splitlines()[-1] == "2 unrun lines in lib, all in the allowlist"


def test_ab_compare_alternates_two_checkouts_in_one_process(tmp_path):
    # each fixture's cli prints its side and appends the argv to a log,
    # so the log shows which checkout ran each command line, in order
    log = tmp_path / "runs.log"
    for side in ("old", "new"):
        package = tmp_path / side / "src" / "wpcn"
        package.mkdir(parents=True)
        (package / "__init__.py").write_text("")
        (package / "cli.py").write_text(
            "def main(argv):\n"
            f"    with open({str(log)!r}, 'a') as fh:\n"
            f"        fh.write({side!r} + ' ' + ' '.join(argv) + '\\n')\n"
            f"    print({side!r} if argv == ['diverge'] else 'same')\n"
            "    return 0\n")
    done = run_script("ab_compare.py", "old", "new", "--pairs", "3", "--", "a", "1",
                      "--", "b", cwd=tmp_path)
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    assert re.fullmatch(r"old old: min \d+\.\d{4} s, median \d+\.\d{4} s", lines[0])
    assert re.fullmatch(r"new new: min \d+\.\d{4} s, median \d+\.\d{4} s", lines[1])
    assert re.fullmatch(r"paired new/old: median \d+\.\d{3} over 3 pairs, new faster in [0-3]",
                        lines[2])
    assert lines[3:] == ["stdout: identical"]
    # one untimed run of each side, then the pairs, the first side alternating
    sides = [line.split()[0] for line in log.read_text().splitlines()[::2]]
    assert sides == ["old", "new", "old", "new", "new", "old", "old", "new"]
    assert log.read_text().splitlines()[:2] == ["old a 1", "old b"]
    done = run_script("ab_compare.py", "old", "new", "--pairs", "1", "--", "diverge", cwd=tmp_path)
    assert done.stdout.splitlines()[-1] == "stdout: differs"


# the bit ledger (scripts/bit_ledger.py): sha256 of the reprs of solver
# outputs, recorded before the per-axis PIP and HTT solves (the sweeps and
# PIP entries) and before failures moved out of the lockstep layers (the
# IP, PI, HTT and evaluate_policy entries); the wide-cap IP and PI entries
# were recorded once a flat or undefined upper slope no longer stopped their
# search. Every bit of every threshold, power and throughput in it must stay
BIT_LEDGER = """\
axis-full cdcfd84e677913647fbbc94aaea290a35164282ede6f21866721f875fa31658a
headline-gbar2 3c312f2dd1586e025b51ec17122f6d24a7875fbd96310477ca7d0ba01b7e2e67
tiny-gbar 5aa98342435c5274a60b9ad6de885ac97419833e120a45054b003437b626a96e
pip-step0.005-cap1 07b52af9a4633ec23ee8ac926dcae6aaa25ba0822571d55b5ed6ac93f333c669
pip-step0.005-cap40 33f89b9c82a99e2c0e35cbfa431da1ee98f503e8d3a45428c363ad009592c539
pip-step0.05-cap1 c20c96085358bbc6c22ede2ba18e0a0083622f3e8b45446ae6393ff304f6836a
pip-step0.05-cap40 d5fc6874058582941127e4339f434572bac14e1ec1f17ad0adeb1a019910e9b9
ip-step0.005-cap1 cacbf77933dd2d7cc3f7cd18ca266b8de061f6885cc61b9216cfcd485658f62e
ip-step0.005-cap40 87ec039879a404851769d30ca1818d7c1669d66bc0e52676284126b80b9a8d5c
ip-step0.05-cap1 cacbf77933dd2d7cc3f7cd18ca266b8de061f6885cc61b9216cfcd485658f62e
ip-step0.05-cap40 87ec039879a404851769d30ca1818d7c1669d66bc0e52676284126b80b9a8d5c
pi-step0.005-cap1 f8675af422d88e35a1f0f23ddfedc13d4b6a835db4737f8a15ea74fdbe554c23
pi-step0.005-cap40 3bfd49bffedc39af0fa59b3b5ecbe20097f55cade6774c66e4bef2a22d914c60
pi-step0.05-cap1 f8675af422d88e35a1f0f23ddfedc13d4b6a835db4737f8a15ea74fdbe554c23
pi-step0.05-cap40 3bfd49bffedc39af0fa59b3b5ecbe20097f55cade6774c66e4bef2a22d914c60
htt-step0.005-cap1 d4af84bca3d9f2d8d19134c38878a21a67b06d0ed051caced6d7fec5934ebc62
htt-step0.005-cap40 d4af84bca3d9f2d8d19134c38878a21a67b06d0ed051caced6d7fec5934ebc62
htt-step0.05-cap1 d4af84bca3d9f2d8d19134c38878a21a67b06d0ed051caced6d7fec5934ebc62
htt-step0.05-cap40 d4af84bca3d9f2d8d19134c38878a21a67b06d0ed051caced6d7fec5934ebc62
ip-cap100000 e2b5b9e49674438c188131ca5014d0fad6c0a7997755ac4f0ff59d5b15b8f20f
ip-cap1e+300 338dd5f1f318881e93171de149094fdc4822bc355c733f935fcd98780b824c97
pi-cap100000 df51e21ce35a9639c61afa87de3bcd67bb009b8b07a83dd9155ddd685c9cd470
pi-cap1e+300 851c685e21468eee5b8b65d8bfa7d789a5aba7f343e79bb144086837ad14bcca
evaluate-htt f727676c83d7159f8283987bd11734f4249664e0e5b8fece9c61b34eedb54d54
evaluate-ip 9e8b52b7e371abfb12b6891cfb39c52648226b373fe938d51d76e1ce36b9dec1
evaluate-pi 8473cc93774098b782904654f10a431638700fccb1fb9c2a8fae8a559cabfe89
evaluate-pip 0f3db6f6e3f081a67c12baef2afab3bff998eef44e3d31cc4969551a208f29f5
"""


def test_bit_ledger_is_pinned(tmp_path):
    done = run_script("bit_ledger.py", cwd=tmp_path)
    assert done.returncode == 0, done.stderr
    assert done.stdout == BIT_LEDGER
