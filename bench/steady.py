"""Repeat the benchmark and record how steady its end-to-end metrics are.

Run from the root of a wpcn checkout:

    python3 bench/steady.py --runs 10 --traced 3 --out bench/results/steadiness.json
    python3 bench/steady.py --runs 10 --against bench/results/steadiness.json

Each run is one ``bench/run.py`` process with its own ``--seed``; runs of the
workloads are interleaved so that drift in machine load falls on all of
them alike. For every workload and end-to-end metric the record holds the
median, the quartiles (``statistics.quantiles(values, n=4)``) and the spread
(q3 - q1) / median, next to the metric's bound from BENCHMARK.json. With
``--traced k`` it also makes k traced runs per workload and records the
tracing overhead: the median over seeds of traced wall_s minus untraced
wall_s, each traced run made right after its untraced twin. With
``--against`` it reports each median's change from an earlier record, as a
share of that record's median.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

def run_once(root: Path, config: dict, workload: str, seed: int, trace: int) -> dict:
    cmd = [*config["command"], "--workload", workload, "--seed", str(seed),
           "--seconds", str(config["run_seconds"]), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True, timeout=900,
                          check=False)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    env = next((json.loads(line.split(" ", 1)[1]) for line in lines
                if line.startswith("environment ")), None)
    return {"env": env, **json.loads(lines[-1])}


def summarize(values: list[float], bound: float | None) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    spread = (q3 - q1) / median
    entry = {"median": median, "q1": q1, "q3": q3, "spread": spread,
             "values": values}
    if bound is not None:
        entry.update(bound=bound, within_third_of_bound=spread < bound / 3.0)
    return entry


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--traced", type=int, default=0, help="traced runs per workload")
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workloads", nargs="*", help="default: all in BENCHMARK.json")
    parser.add_argument("--out", type=Path, help="write the record here as JSON")
    parser.add_argument("--against", type=Path, help="an earlier record to compare with")
    args = parser.parse_args(argv)
    if args.runs < 2:
        parser.error("--runs must be at least 2 for quartiles")

    root = Path.cwd()
    config = json.loads((root / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in config["end_to_end"]}
    names = args.workloads or [w["name"] for w in config["workloads"]]
    seeds = range(args.first_seed, args.first_seed + args.runs)

    # Each traced run follows the untraced run of the same seed, so the pair
    # sees the same machine load and their difference is the tracing overhead.
    results = {w: [] for w in names}
    traced = {w: [] for w in names}
    for i, seed in enumerate(seeds):
        for w in names:
            results[w].append(run_once(root, config, w, seed, 0))
            print(f"{w} seed {seed}: " + ", ".join(
                f"{k} {v['value']:.4g}" for k, v in results[w][-1]["metrics"].items()),
                file=sys.stderr)
            if i < args.traced:
                traced[w].append(run_once(root, config, w, seed, 1))

    earlier = json.loads(args.against.read_text())["workloads"] if args.against else {}
    record = {"environment": results[names[0]][0]["env"], "run_seconds": config["run_seconds"],
              "seeds": list(seeds), "workloads": {}}
    for w in names:
        runs = results[w]
        entry = {"attempted": sum(r["attempted"] for r in runs),
                 "failed": sum(r["failed"] for r in runs),
                 "correct": all(r["correct"] for r in runs), "metrics": {}}
        for metric in runs[0]["metrics"]:
            stats = summarize([r["metrics"][metric]["value"] for r in runs], bounds.get(metric))
            before = earlier.get(w, {}).get("metrics", {}).get(metric)
            if before:
                stats["change_from_earlier"] = stats["median"] / before["median"] - 1.0
            entry["metrics"][metric] = stats
        if traced[w]:
            pairs = zip(traced[w], runs)
            entry["tracing"] = {
                "runs": len(traced[w]),
                "traced_wall_s": statistics.median(
                    t["metrics"]["trace.wall_s"]["value"] for t in traced[w]),
                "overhead_s": statistics.median(
                    t["metrics"]["trace.wall_s"]["value"] - u["metrics"]["wall_s"]["value"]
                    for t, u in pairs),
                "covered_share": min(
                    t["metrics"]["trace.covered_share"]["value"] for t in traced[w]),
            }
        record["workloads"][w] = entry

    for w, entry in record["workloads"].items():
        print(f"{w:8s} failed_share {entry['failed']}/{entry['attempted']} ops over "
              f"{args.runs} runs; outputs {'correct' if entry['correct'] else 'WRONG'}")
        for metric, s in entry["metrics"].items():
            line = (f"{w:8s} {metric:12s} median {s['median']:.5g}  q1 {s['q1']:.5g}  "
                    f"q3 {s['q3']:.5g}  spread {s['spread']:.2%}")
            if "bound" in s:
                line += f" (bound {s['bound']:.0%})"
            if "change_from_earlier" in s:
                line += f"  change {s['change_from_earlier']:+.2%}"
            print(line)
        if "tracing" in entry:
            t = entry["tracing"]
            print(f"{w:8s} tracing overhead {t['overhead_s']:+.3f} s on "
                  f"{t['traced_wall_s']:.3f} s traced; at least {t['covered_share']:.1%} in spans")
    if args.out:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
