"""Run pytest under a line tracer and report the lines of a source directory it leaves unrun.

pytest runs in this process under ``sys.settrace``, which follows only the
code of the modules in ``directory`` (not recursed); the subprocesses that
tests start are not traced. A line is executable if an instruction of its
compiled module starts on it (``co_lines``). Every executable line that no
test ran must be in the allowlist: a JSON list of
``{"module": <file name>, "line": <stripped text>, "reason": <why>}``
entries. Prints each unrun line that the allowlist does not hold and each
entry that names no unrun line (a stale entry), and exits 1 if there is
one, or if pytest fails.

    python scripts/line_trace.py src/wpcn scripts/unrun_lines.json -- -q -p no:cacheprovider tests
"""
import argparse
import json
import os
import sys
from pathlib import Path

import pytest


def executable_lines(path: Path) -> set[int]:
    """Lines of the module ``path`` on which an instruction of its code starts."""
    lines: set[int] = set()
    codes = [compile(path.read_text(encoding="utf-8"), str(path), "exec")]
    while codes:
        code = codes.pop()
        lines.update(line for _, _, line in code.co_lines() if line)
        codes.extend(c for c in code.co_consts if isinstance(c, type(code)))
    return lines


def run_traced(modules: dict, pytest_args: list) -> tuple[int, dict]:
    """pytest's exit code and the lines it ran of each module: {name: lines}.

    ``modules`` maps each module's resolved path to its name.
    """
    ran = {name: set() for name in modules.values()}
    names: dict = {}  # co_filename -> module name, or None if not traced

    def trace_calls(frame, event, arg):
        filename = frame.f_code.co_filename
        if filename not in names:
            names[filename] = modules.get(os.path.realpath(filename))
        if names[filename] is None:
            return None
        hit = ran[names[filename]]

        def trace_lines(frame, event, arg):
            hit.add(frame.f_lineno)
            return trace_lines

        return trace_lines(frame, event, arg)

    sys.settrace(trace_calls)
    try:
        code = pytest.main(pytest_args)
    finally:
        sys.settrace(None)
    return int(code), ran


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("directory", type=Path, help="directory of the traced modules")
    parser.add_argument("allowlist", type=Path, help="JSON list of the lines allowed unrun")
    parser.add_argument("pytest_args", nargs="*", help="pytest's arguments, after --")
    args = parser.parse_args(argv)
    paths = sorted(args.directory.glob("*.py"))
    code, ran = run_traced({os.path.realpath(p): p.name for p in paths}, args.pytest_args)
    unrun = []
    for path in paths:
        text = path.read_text(encoding="utf-8").splitlines()
        unrun += [(path.name, n, text[n - 1].strip())
                  for n in sorted(executable_lines(path) - ran[path.name])]
    entries = json.loads(args.allowlist.read_text(encoding="utf-8"))
    listed = {(e["module"], e["line"]) for e in entries if e.get("reason")}
    bad = [f"allowlist entry without a reason: {e}" for e in entries if not e.get("reason")]
    bad += [f"unrun, not in the allowlist: {name}:{n}: {line}"
            for name, n, line in unrun if (name, line) not in listed]
    bad += [f"stale allowlist entry, no unrun line has its text: {name}: {line}"
            for name, line in sorted(listed - {(name, line) for name, _, line in unrun})]
    print("\n".join(bad or [f"{len(unrun)} unrun lines in {args.directory}, all in the allowlist"]))
    if code:
        print(f"pytest exited {code}")
    return 1 if bad or code else 0


if __name__ == "__main__":
    raise SystemExit(main())
