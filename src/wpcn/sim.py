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
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import channel, schemes
from .schemes import HTTPolicy, Policy, SystemParams

MODE_WIT = "WIT"
MODE_WPT = "WPT"
MODE_SPLIT = "SPLIT"
MODE_NAMES = (MODE_WIT, MODE_WPT, MODE_SPLIT)
_WIT, _WPT, _SPLIT = 0, 1, 2
_LEDGER_BLOCK = 4096  # frames per ledger window: a demotion re-sums at most this many


@dataclass
class FrameTrace:
    """Columnar per-frame ledger: one array per quantity, one entry per frame.

    ``mode`` holds int codes; ``MODE_NAMES[code]`` is the mode's name.
    """

    gain: np.ndarray
    mode: np.ndarray          # int codes, see MODE_NAMES
    tau: np.ndarray           # NaN outside SPLIT frames
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


@dataclass(frozen=True)
class ConvergenceReport:
    closed_form_bits: float
    noncausal_mean: float
    noncausal_std_error: float
    causal_mean: float
    rel_gap: float


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
    g = channel.sample(n_frames, seed).values
    with np.errstate(over="ignore", invalid="ignore"):  # rejected below
        harvest_full = params.p_d * params.gbar * g  # full-frame harvest energy
    if not np.all(np.isfinite(harvest_full)):
        raise ValueError(f"full-frame harvest p_d gbar g overflows at p_d={params.p_d}")

    if isinstance(policy, HTTPolicy):
        tau = schemes.htt_tau(g, params)
        harvested = tau * harvest_full
        consumed = harvested.copy()  # per-frame balance, exact by construction
        rate = schemes.htt_instant_rate(g, tau, params)
        mode = np.full(n_frames, _SPLIT, dtype=np.int8)
    else:
        pu = schemes.evaluate_policy(policy, params).ul_power
        gammabar = pu * params.gbar / params.sigma2
        lo, hi = policy.band
        wit = (g >= lo) & (g < hi)  # half-open band: ties go to the upper side
        mode = np.where(wit, _WIT, _WPT).astype(np.int8)
        harvested = np.where(wit, 0.0, harvest_full)
        consumed = np.where(wit, pu, 0.0)
        rate = np.where(wit, np.log1p(gammabar * g) / schemes.LN2, 0.0)
        tau = np.full(n_frames, np.nan)

    # net is exact (one of harvested/consumed is 0, or the two are equal in
    # HTT), and np.cumsum adds in sequence: each level is stored[k-1] + net[k]
    net = harvested - consumed
    stored = np.empty(n_frames)
    level, skipped, i = float(initial_energy), 0, 0
    while i < n_frames:
        j = min(i + _LEDGER_BLOCK, n_frames)
        run = np.cumsum(np.concatenate(([level], net[i:j])))  # run[k]: level before frame i+k
        broke = np.flatnonzero((mode[i:j] == _WIT) & (run[:-1] < consumed[i:j])) if causal else []
        if len(broke):
            # not enough charge: demote the first such frame to harvesting and
            # restart the sum there, from the exact level before it
            j = i + int(broke[0])
            mode[j], consumed[j], rate[j] = _WPT, 0.0, 0.0
            harvested[j] = net[j] = harvest_full[j]
            skipped += 1
        stored[i:j] = run[1:j - i + 1]
        level, i = run[j - i], j

    trace = FrameTrace(
        gain=g, mode=mode, tau=tau,
        harvested=harvested, consumed=consumed, stored=stored, rate=rate,
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


def trace_throughput_convergence(policy: Policy, params: SystemParams,
                                 n_frames: int, seed: int) -> ConvergenceReport:
    """Compare trace throughput (both modes, shared draws) to the closed form."""
    if n_frames < 10_000:
        raise ValueError("convergence check needs n_frames >= 1e4")
    closed = schemes.evaluate_policy(policy, params).throughput_bits
    free = mc_throughput(policy, params, n_frames, seed)
    _, capped = run_policy_trace(policy, params, n_frames, seed, causal=True)
    gap = (free.mean - closed) / closed if closed > 0.0 else 0.0
    return ConvergenceReport(
        closed_form_bits=closed,
        noncausal_mean=free.mean,
        noncausal_std_error=free.std_error,
        causal_mean=capped.mean_rate_bits,
        rel_gap=gap,
    )
