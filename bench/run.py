"""Run one workload of the wpcn benchmark and print its metrics.

Run from the root of a wpcn checkout (the directory that holds ``src/wpcn``):

    python3 bench/run.py --workload sweep --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload ledger --seed 1 --seconds 30 --trace 1

The process times fresh-interpreter imports of ``wpcn.cli`` (``setup_s``),
then repeats the workload's command lines through ``wpcn.cli.main`` until the
next repetition would end after ``--seconds`` (always at least one), and
checks every output outside the timed region. With ``--trace 1`` each
repetition runs under the span tracer of ``spans.py`` and the result holds
the per-layer metrics instead of the end-to-end ones.

The last line of stdout is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``. Failed ops are measured outcomes and still give
exit code 0; a fault of the harness itself exits 3 without a result line.
"""
from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from spans import PER_LAYER, Tracer, layer_metrics, median_metrics
from workloads import WORKLOADS, CommandRun, HarnessError, fingerprint

END_TO_END = (("setup_s", "s"), ("wall_s", "s"), ("peak_rss_mb", "MB"))
SETUP_SAMPLES = 5
# One client, one core: keep numpy's native libraries from starting threads.
_SINGLE_THREAD = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
_IMPORT_TIMER = ("import time; t = time.perf_counter(); import wpcn.cli; "
                 "print(time.perf_counter() - t)")


def time_import(root: Path) -> float:
    """Seconds a fresh interpreter takes to import wpcn.cli."""
    proc = subprocess.run([sys.executable, "-c", _IMPORT_TIMER], cwd=root, env=os.environ,
                          capture_output=True, text=True, timeout=120, check=False)
    if proc.returncode != 0:
        raise HarnessError(f"importing wpcn.cli failed: {proc.stderr.strip()}")
    return float(proc.stdout)


def run_repetition(main, argvs: list[list[str]], tracer: Tracer | None):
    """Run the command lines back to back; returns (runs, wall seconds)."""
    runs = []
    with tracer if tracer is not None else contextlib.nullcontext():
        start = time.perf_counter()
        for argv in argvs:
            out, err = io.StringIO(), io.StringIO()
            rc, error = None, None
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                try:
                    rc = main(argv)
                except Exception as exc:    # the program's fault: a failed op, not ours
                    error = f"{type(exc).__name__}: {exc}"
            runs.append(CommandRun(argv, rc, out.getvalue(), err.getvalue(), error))
        wall = time.perf_counter() - start
    return runs, wall


def describe(values: list[float]) -> str:
    """Median, the highest percentile with ten samples beyond it, and the count."""
    n = len(values)
    text = f"median {statistics.median(values):.6g}"
    if n >= 11:
        q = 1.0 - 10.0 / n
        cut = statistics.quantiles(values, n=100, method="inclusive")[int(q * 100) - 1]
        text += f"  p{int(q * 100)} {cut:.6g}"
    else:
        text += "  (no percentile has ten samples beyond it)"
    return text + f"  n={n}  samples " + " ".join(f"{v:.4g}" for v in values)


def environment(root: Path, seed: int, curve_sha256: str | None) -> dict:
    import numpy
    import scipy

    sha = None
    if (root / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                              capture_output=True, text=True, check=False)
        sha = proc.stdout.strip() or None
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_sha": sha,
        "seed": seed,
        "curve_sha256": curve_sha256,
    }


def repeat(workload, seed: int, seconds: float, trace: bool, main, root: Path):
    """Repeat the workload until the next repetition would end after ``seconds``.

    Returns the wall times, the per-layer metrics of traced repetitions, the
    outcome of each repetition, the peak RSS after the first one in MB, and
    the sha256 of the first sweep CSV (None for other workloads).
    """
    walls, layers, per_rep = [], [], []
    peak_rss_mb = None
    first = None                # (fingerprint, outcome, curve sha) of the first repetition
    with tempfile.TemporaryDirectory(dir=root, prefix=".bench-") as tmp:
        out = Path(tmp)
        argvs = workload.argvs(seed, out)
        outputs = [out / name for name in workload.outputs]
        start = time.perf_counter()
        while True:
            for path in outputs:                    # a stale file must not pass a check
                path.unlink(missing_ok=True)
            tracer = Tracer() if trace else None
            runs, wall = run_repetition(main, argvs, tracer)
            walls.append(wall)
            if peak_rss_mb is None:
                peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            if tracer is not None:
                layers.append(layer_metrics(tracer, wall))
            # Identical outputs need no second check; anything new is checked in full.
            fp = fingerprint(runs, outputs)
            if first is not None and fp == first[0]:
                outcome = first[1]
            else:
                outcome = workload.check(runs, seed, out)
                if first is None:
                    curve = out / "curve.csv"
                    curve_sha = (hashlib.sha256(curve.read_bytes()).hexdigest()
                                 if curve.exists() else None)
                    first = (fp, outcome, curve_sha)
            per_rep.append(outcome)
            if time.perf_counter() - start + statistics.median(walls) > seconds:
                break
    return walls, layers, per_rep, peak_rss_mb, first[2]


def run(workload_name: str, seed: int, seconds: float, trace: bool, root: Path) -> dict:
    workload = WORKLOADS[workload_name]
    src = root / "src"
    if not (src / "wpcn" / "cli.py").is_file():
        raise HarnessError(f"no wpcn sources under {src}; run from the root of a checkout")
    os.environ.update(_SINGLE_THREAD)
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(src), os.environ.get("PYTHONPATH")) if p)
    sys.path.insert(0, str(src))

    setup = []
    if not trace:
        time_import(root)       # untimed: writes the bytecode cache, as a first run would
        setup = [time_import(root) for _ in range(SETUP_SAMPLES)]
    import wpcn.cli

    walls, layers, per_rep, peak_rss_mb, curve_sha = repeat(
        workload, seed, seconds, trace, wpcn.cli.main, root)
    attempted = sum(o.attempted for o in per_rep)
    failed = sum(o.failed for o in per_rep)
    wrong = sum(o.wrong for o in per_rep)
    if trace:
        values = median_metrics(layers)
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER}
    else:
        values = {"setup_s": statistics.median(setup), "wall_s": statistics.median(walls),
                  "peak_rss_mb": peak_rss_mb}
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}

    mode = "traced" if trace else "untraced"
    print(f"workload {workload_name}  seed {seed}  {mode}  repetitions {len(walls)}")
    if setup:
        print(f"  setup_s      [s]     {describe(setup)}")
    print(f"  wall_s       [s]     {describe(walls)}" + ("  (traced)" if trace else ""))
    print(f"  peak_rss_mb  [MB]    {peak_rss_mb:.6g}  n=1")
    print(f"  failed_share         {per_rep[0].failed}/{per_rep[0].attempted} per repetition;"
          f" {failed}/{attempted} in all")
    print("  waiting time: not applicable (wpcn is single-threaded and queues nothing)")
    for note in per_rep[0].notes:
        print(f"  failed op: {note}")
    if trace:
        for name, unit in PER_LAYER:
            print(f"  {name:44s} [{unit}] {metrics[name]['value']:.6g}")
    print("environment " + json.dumps(environment(root, seed, curve_sha)))
    return {"correct": wrong == 0, "attempted": attempted, "failed": failed, "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace), Path.cwd())
    except HarnessError as exc:
        print(f"harness error: {exc}", file=sys.stderr)
        return 3
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    # On SIGTERM, unwind: the import-timing child is killed and awaited and
    # the scratch directory removed, as on any other exit.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    sys.exit(main())
