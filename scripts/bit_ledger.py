"""Print the bit ledger: sha256 digests of solver outputs that must not move.

Each entry is the sha256 of the reprs of a run's results, one a line. A
float's repr round-trips, so a digest pins every threshold, split, power and
throughput bit for bit, where the CSV's .12g cells could hide a moved bit.
Prints one ``<entry> <sha256>`` line per entry:

- ``axis-full``: the SweepPoints of -60..90 dB in steps of 3 at grid step 0.05;
- ``headline-gbar2``: 0..30 dB in steps of 2 at gbar = 2, sigma2 = 0.5;
- ``tiny-gbar``: 0..30 dB in steps of 6 at gbar = 1e-3, sigma2 = 1e-9;
- ``<tag>-step<s>-cap<c>``: the SolveResult of ``optimize._SOLVERS[tag]``
  at 10 dB on the grid of step s and gain cap c, for s in 0.005, 0.05 and
  c in 1, 40, for each scheme tag (HTT reads neither);
- ``<tag>-cap<c>``: the same for IP and PI at the default grid step and the
  gain caps 1e5 and 1e300, past which their throughput underflows or their
  bands are not eligible;
- ``ip-floor-overflow`` and ``pi-edge``: the SolveResult of IP and PI at a
  p_d near 1e302 and 1e306, where the IP bands next to the floor and the PI
  bands past g_l ~ 0.01 are not eligible, so the optimum lies next to
  bands that are not eligible;
- ``evaluate-<tag>``: ``schemes.evaluate_policy`` of the scheme's policy of
  fixed thresholds at -60, -10, 10, 30 and 90 dB.

    python scripts/bit_ledger.py
"""
import hashlib

from wpcn import optimize
from wpcn.optimize import SolveConfig
from wpcn.schemes import BandPolicy, HTTPolicy, SystemParams, evaluate_policy

# each scheme's policy with thresholds near its 10 dB optimum
FIXED_POLICIES = {"htt": HTTPolicy(), "ip": BandPolicy(g_u=1.626), "pi": BandPolicy(g_l=1.026),
                  "pip": BandPolicy(0.25, 1.8)}


def digest(results) -> str:
    return hashlib.sha256("\n".join(map(repr, results)).encode()).hexdigest()


def ledger() -> dict[str, str]:
    """Entry name -> sha256 of its results' reprs."""
    entries = {
        "axis-full": optimize.sweep(-60.0, 90.0, 3.0, cfg=SolveConfig(grid_step=0.05)).points,
        "headline-gbar2": optimize.sweep(0.0, 30.0, 2.0, gbar=2.0, sigma2=0.5).points,
        "tiny-gbar": optimize.sweep(0.0, 30.0, 6.0, gbar=1e-3, sigma2=1e-9).points,
    }
    params = SystemParams.from_snr_db(10.0)
    for tag in ("pip", "ip", "pi", "htt"):
        for step in (0.005, 0.05):
            for cap in (1.0, 40.0):
                result = optimize._SOLVERS[tag](params, SolveConfig(gain_cap=cap, grid_step=step))
                entries[f"{tag}-step{step:g}-cap{cap:g}"] = (result,)
    for tag in ("ip", "pi"):
        for cap in (1e5, 1e300):
            result = optimize._SOLVERS[tag](params, SolveConfig(gain_cap=cap))
            entries[f"{tag}-cap{cap:g}"] = (result,)
    entries["ip-floor-overflow"] = (optimize.solve_ip(
        SystemParams(p_d=7.11203322238475e+301, gbar=2.2222936297403004, sigma2=0.809876911077366),
        SolveConfig(gain_cap=999.5380359634353)),)
    entries["pi-edge"] = (optimize.solve_pi(
        SystemParams(p_d=2.156272299568374e306, gbar=3.631698349604619, sigma2=14.421922606466026),
        SolveConfig(gain_cap=772.7775264106529)),)
    for tag, policy in FIXED_POLICIES.items():
        entries[f"evaluate-{tag}"] = [evaluate_policy(policy, SystemParams.from_snr_db(db))
                                      for db in (-60.0, -10.0, 10.0, 30.0, 90.0)]
    return {name: digest(results) for name, results in entries.items()}


def main() -> int:
    for name, sha in ledger().items():
        print(f"{name} {sha}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
