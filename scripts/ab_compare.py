"""Time ``wpcn`` command lines on two checkouts in one process, the two sides alternating.

Each checkout's package (``<root>/src/wpcn``) is imported once, and its
modules are put back in ``sys.modules`` before each of its runs. A run
calls ``wpcn.cli.main`` on every command line once, its stdout and stderr
captured; a command that exits nonzero stops the comparison. The first
run of each side is untimed: it warms the side up and gives its stdout.
Then each pair runs both sides, the first side alternating from pair to
pair, so a drift of the machine's load falls on both sides alike.
Prints each side's min and median seconds per run, the median over the
pairs of new/old (the paired ratio, with the number of pairs in which the
new side was faster), and whether the two sides printed the same stdout.
Command lines are separated by ``--``:

    python scripts/ab_compare.py OLD_ROOT NEW_ROOT --pairs 20 -- \\
        simulate --scheme ip --g-u 1.6 --causal -- simulate --scheme htt --causal
"""
import argparse
import contextlib
import importlib
import io
import statistics
import sys
import time
from pathlib import Path


def _is_wpcn(name: str) -> bool:
    return name == "wpcn" or name.startswith("wpcn.")


def load(root: Path) -> dict:
    """The ``wpcn`` modules of the checkout at ``root``: {module name: module}."""
    for name in [name for name in sys.modules if _is_wpcn(name)]:
        del sys.modules[name]
    sys.path.insert(0, str(root / "src"))
    try:
        importlib.import_module("wpcn.cli")
    finally:
        sys.path.remove(str(root / "src"))
    return {name: module for name, module in sys.modules.items() if _is_wpcn(name)}


def run(modules: dict, argvs: list) -> tuple[float, str]:
    """Seconds that ``wpcn.cli.main`` takes on every command line, and their stdout."""
    for name in [name for name in sys.modules if _is_wpcn(name)]:
        del sys.modules[name]
    sys.modules.update(modules)
    main = modules["wpcn.cli"].main
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        for argv in argvs:
            code = main(list(argv))
            if code:
                break
        seconds = time.perf_counter() - start
    if code:
        raise SystemExit(f"{modules['wpcn'].__file__}: wpcn {' '.join(argv)} exited {code}: "
                         f"{err.getvalue().strip()}")
    return seconds, out.getvalue()


def split_commands(argv: list) -> tuple[list, list]:
    """The script's own arguments, and the command lines after the first ``--``."""
    if "--" not in argv:
        raise SystemExit("no wpcn command line: put it after --")
    cut = argv.index("--")
    own, commands, rest = argv[:cut], [], argv[cut + 1:]
    while "--" in rest:
        cut = rest.index("--")
        commands.append(rest[:cut])
        rest = rest[cut + 1:]
    commands.append(rest)
    if not all(commands):
        raise SystemExit("an empty wpcn command line")
    return own, commands


def main(argv=None) -> int:
    own, commands = split_commands(list(sys.argv[1:] if argv is None else argv))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("old", type=Path, help="root of the old checkout")
    parser.add_argument("new", type=Path, help="root of the new checkout")
    parser.add_argument("--pairs", type=int, default=10, help="timed pairs of runs")
    args = parser.parse_args(own)
    if args.pairs < 1:
        parser.error("--pairs must be >= 1")
    sides = [load(args.old.resolve()), load(args.new.resolve())]
    outputs = [run(modules, commands)[1] for modules in sides]
    times = ([], [])
    for k in range(args.pairs):
        for side in ((0, 1) if k % 2 == 0 else (1, 0)):
            times[side].append(run(sides[side], commands)[0])
    for label, root, seconds in zip(("old", "new"), (args.old, args.new), times):
        print(f"{label} {root}: min {min(seconds):.4f} s, median {statistics.median(seconds):.4f} s")
    ratios = [new / old for old, new in zip(*times)]
    faster = sum(ratio < 1.0 for ratio in ratios)
    print(f"paired new/old: median {statistics.median(ratios):.3f} over {args.pairs} pairs, "
          f"new faster in {faster}")
    print("stdout: " + ("identical" if outputs[0] == outputs[1] else "differs"))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
