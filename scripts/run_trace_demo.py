#!/usr/bin/env python3
"""Frame-allocation demo: how each policy uses the same fading realization.

Optimizes all four schemes at one SNR, replays them over a shared gain draw,
and prints a per-frame allocation timeline (harvest / transmit / split)
followed by long-run ledger statistics in causal and non-causal modes.
"""
import argparse
import sys

from wpcn import optimize, schemes, sim
from wpcn.optimize import SolveConfig
from wpcn.schemes import SystemParams


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--snr-db", type=float, default=10.0)
    ap.add_argument("--frames", type=int, default=40, help="frames in the timeline")
    ap.add_argument("--long-frames", type=int, default=100_000,
                    help="frames for the ledger statistics")
    ap.add_argument("--seed", type=int, default=7)
    args = ap.parse_args()

    params = SystemParams.from_snr_db(args.snr_db)
    cfg = SolveConfig(grid_step=0.05)
    results = {tag: optimize._SOLVERS[tag](params, cfg) for tag in ("htt", "ip", "pi", "pip")}

    print(f"optimized policies at {args.snr_db:g} dB:")
    for tag, res in results.items():
        pol = res.policy
        thr = ", ".join(
            f"{name}={getattr(pol, name):.3f}"
            for name in ("g_l", "g_u") if hasattr(pol, name)
        ) or "per-frame split"
        print(f"  {tag:>4}: {thr:<24} throughput {res.throughput_bits:.4f} bits/frame")

    glyph = {sim.MODE_WIT: "T", sim.MODE_WPT: "h", sim.MODE_SPLIT: "s"}
    traces = {
        tag: sim.run_policy_trace(res.policy, params, args.frames, args.seed)[0]
        for tag, res in results.items()
    }
    gains = traces["htt"].gain
    print("\nframe timeline (T transmit, h harvest, s split), shared gains:")
    print("  gain>1: " + "".join("#" if g > 1.0 else "." for g in gains))
    for tag in ("ip", "pi", "pip", "htt"):
        line = "".join(glyph[sim.MODE_NAMES[code]] for code in traces[tag].mode.tolist())
        print(f"  {tag:>6}: {line}")

    print(f"\nledger statistics over {args.long_frames} frames:")
    for tag, res in results.items():
        closed = res.throughput_bits
        for causal in (False, True):
            _, s = sim.run_policy_trace(res.policy, params, args.long_frames,
                                        args.seed, causal=causal)
            mode = "causal " if causal else "free   "
            print(f"  {tag:>4} {mode} rate {s.mean_rate_bits:.4f} "
                  f"(closed {closed:.4f})  min_stored {s.min_stored:10.1f}  "
                  f"skipped {s.skipped_wit_frames}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
