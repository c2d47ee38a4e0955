"""Monte-Carlo throughput estimation and frame-level energy-ledger traces.

The trace simulator replays a policy over seeded gain draws and keeps the
stored-energy ledger as one running sum of the frames' net energy. Two modes:

* non-causal (default): matches the analysis, which balances energy only in
  expectation; the ledger may go negative and the analytical throughput is
  an upper bound that the trace mean converges to.
* causal: a frame scheduled for transmission is demoted to harvesting when
  the stored energy cannot cover the frame's consumption. This realizes the
  "may only harvest at start-up" behaviour; the exact demotion rule is this
  package's choice, not part of the analytical model. The running sum
  restarts at each demoted frame from the exact level before it.

Memory: the six ``FrameTrace`` columns are the only full-length arrays,
41 bytes a frame (about 39 MiB for 1e6 frames). They are allocated once
and filled ``_FRAME_BLOCK`` frames at a time (gains by ``channel.sample``,
modes, energies and rates here), and the ledger sums the frames' net
energy in windows of ``_LEDGER_BLOCK`` frames. Every entry is that of one
whole-array expression, bit for bit; the means and the minimum of the
summary run on whole columns, since per-block sums would change the bits
of numpy's pairwise summation.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import channel, numerics, schemes
from .schemes import HTTPolicy, Policy, SystemParams

MODE_WIT = "WIT"
MODE_WPT = "WPT"
MODE_SPLIT = "SPLIT"
MODE_NAMES = (MODE_WIT, MODE_WPT, MODE_SPLIT)
_WIT, _WPT, _SPLIT = 0, 1, 2
_FRAME_BLOCK = channel._FRAME_BLOCK  # frames per block of per-frame quantities
_LEDGER_BLOCK = 4096  # frames per ledger window: a demotion re-sums at most this many


@dataclass
class FrameTrace:
    """Columnar per-frame ledger: one array per quantity, one entry per frame.

    ``mode`` holds int codes; ``MODE_NAMES[code]`` is the mode's name. The
    HTT split is not stored: ``schemes.htt_frame(gain, params)[0]`` gives it.
    """

    gain: np.ndarray
    mode: np.ndarray          # int codes, see MODE_NAMES
    harvested: np.ndarray
    consumed: np.ndarray
    stored: np.ndarray        # post-frame ledger
    rate: np.ndarray


@dataclass(frozen=True)
class TraceSummary:
    n_frames: int
    mean_rate_bits: float
    mean_harvested: float
    mean_consumed: float
    min_stored: float
    skipped_wit_frames: int


@dataclass(frozen=True)
class McEstimate:
    mean: float
    std_error: float


def mc_throughput(policy: Policy, params: SystemParams, n: int, seed: int) -> McEstimate:
    """Sample-mean throughput over n seeded gain draws, with standard error.

    The rates are those of the non-causal ``run_policy_trace`` on the same
    draws, so its mean rate equals this estimate's mean exactly.
    """
    if n < 2:
        raise ValueError("mc_throughput needs n >= 2 for a standard error")
    rates = run_policy_trace(policy, params, n, seed)[0].rate
    return McEstimate(
        mean=float(np.mean(rates)),
        std_error=float(np.std(rates, ddof=1) / math.sqrt(n)),
    )


def run_policy_trace(policy: Policy, params: SystemParams, n_frames: int, seed: int,
                     causal: bool = False,
                     initial_energy: float = 0.0) -> tuple[FrameTrace, TraceSummary]:
    """Simulate the per-frame energy ledger of a policy.

    Transmit frames consume the policy's uplink energy, harvest frames add
    p_d gbar g, and split (HTT) frames net to zero by construction. In
    causal mode a transmit frame with insufficient stored energy is demoted
    to harvesting and counted in ``skipped_wit_frames``. ``initial_energy``
    is the ledger's starting charge and must be finite and >= 0. The ledger
    is one running sum, restarted at each demotion, so ``stored`` is bitwise
    the recurrence ``stored[k] = stored[k-1] + (harvested[k] - consumed[k])``.
    """
    if n_frames < 1:
        raise ValueError("n_frames must be >= 1")
    if not 0.0 <= initial_energy < math.inf:
        raise ValueError("initial_energy must be finite and >= 0")
    htt = isinstance(policy, HTTPolicy)
    if htt:  # bind W0 first: scipy loaded above the frame arrays stops the heap shrinking
        numerics._load_special()
    g = channel.sample(n_frames, seed).values
    with np.errstate(over="ignore", invalid="ignore"):  # rejected below
        pd_gbar = params.p_d * params.gbar
        # p_d gbar g rises with g, so the largest draw decides for every frame
        top = pd_gbar * np.max(g)
    if not np.isfinite(top):
        raise ValueError(f"full-frame harvest p_d gbar g overflows at p_d={params.p_d}")

    harvested, consumed, stored, rate = (np.empty(n_frames) for _ in range(4))
    if htt:
        mode = np.full(n_frames, _SPLIT, dtype=np.int8)
    else:
        mode = np.empty(n_frames, dtype=np.int8)
        lo, hi = policy.band
        if not schemes.band_eligible(lo, hi, params):
            raise schemes.UplinkOverflowError(params)
        pu = schemes.band_ul_power(lo, hi, params)
        gammabar = pu * params.gbar / params.sigma2
    for start in range(0, n_frames, _FRAME_BLOCK):
        block = slice(start, min(start + _FRAME_BLOCK, n_frames))
        gb = g[block]
        if htt:
            tau, rate[block], _ = schemes.htt_frame(gb, params)
            np.multiply(tau, pd_gbar * gb, out=harvested[block])
            consumed[block] = harvested[block]  # per-frame balance, exact by construction
        else:
            wit = (gb >= lo) & (gb < hi)  # half-open band: ties go to the upper side
            mode[block] = np.where(wit, _WIT, _WPT)
            harvested[block] = np.where(wit, 0.0, pd_gbar * gb)
            consumed[block] = np.where(wit, pu, 0.0)
            rate[block] = np.where(wit, np.log1p(gammabar * gb) / schemes.LN2, 0.0)

    # net is exact (one of harvested/consumed is 0, or the two are equal in
    # HTT), and np.cumsum adds in sequence: each level is stored[k-1] + net[k]
    level, skipped, i = float(initial_energy), 0, 0
    while i < n_frames:
        j = min(i + _LEDGER_BLOCK, n_frames)
        net = harvested[i:j] - consumed[i:j]
        run = np.cumsum(np.concatenate(([level], net)))  # run[k]: level before frame i+k
        broke = np.flatnonzero((mode[i:j] == _WIT) & (run[:-1] < consumed[i:j])) if causal else []
        if len(broke):
            # not enough charge: demote the first such frame to harvesting and
            # restart the sum there, from the exact level before it; the next
            # window begins at that frame and sums its new net
            j = i + int(broke[0])
            mode[j], consumed[j], rate[j] = _WPT, 0.0, 0.0
            harvested[j] = pd_gbar * g[j]
            skipped += 1
        stored[i:j] = run[1:j - i + 1]
        level, i = run[j - i], j

    trace = FrameTrace(
        gain=g, mode=mode, harvested=harvested, consumed=consumed, stored=stored, rate=rate,
    )
    summary = TraceSummary(
        n_frames=n_frames,
        mean_rate_bits=float(np.mean(rate)),
        mean_harvested=float(np.mean(harvested)),
        mean_consumed=float(np.mean(consumed)),
        min_stored=float(np.min(stored)),
        skipped_wit_frames=skipped,
    )
    return trace, summary

