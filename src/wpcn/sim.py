"""Monte-Carlo throughput estimation and frame-level energy-ledger traces.

The trace simulator replays a policy frame by frame over seeded gain draws
and keeps the stored-energy ledger. Two modes:

* non-causal (default): matches the analysis, which balances energy only in
  expectation; the ledger may go negative and the analytical throughput is
  an upper bound that the trace mean converges to.
* causal: a frame scheduled for transmission is demoted to harvesting when
  the stored energy cannot cover the frame's consumption. This realizes the
  "may only harvest at start-up" behaviour; the exact demotion rule is this
  package's choice, not part of the analytical model.
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
_MODE_NAMES = (MODE_WIT, MODE_WPT, MODE_SPLIT)
_WIT, _WPT, _SPLIT = 0, 1, 2


@dataclass(frozen=True)
class FrameRecord:
    index: int
    gain: float
    mode: str
    tau: float | None
    harvested_energy: float
    consumed_energy: float
    stored_energy: float
    rate_bits: float


@dataclass
class FrameTrace:
    """Columnar per-frame ledger; indexable as a sequence of FrameRecord."""

    gain: np.ndarray
    mode: np.ndarray          # int codes, see _MODE_NAMES
    tau: np.ndarray           # NaN outside SPLIT frames
    harvested: np.ndarray
    consumed: np.ndarray
    stored: np.ndarray        # post-frame ledger
    rate: np.ndarray

    def __len__(self) -> int:
        return len(self.gain)

    def record(self, i: int) -> FrameRecord:
        tau = float(self.tau[i])
        return FrameRecord(
            index=i,
            gain=float(self.gain[i]),
            mode=_MODE_NAMES[int(self.mode[i])],
            tau=None if math.isnan(tau) else tau,
            harvested_energy=float(self.harvested[i]),
            consumed_energy=float(self.consumed[i]),
            stored_energy=float(self.stored[i]),
            rate_bits=float(self.rate[i]),
        )

    def __getitem__(self, i: int) -> FrameRecord:
        return self.record(range(len(self))[i])

    def __iter__(self):
        return (self.record(i) for i in range(len(self)))


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


def _wit_mask(policy: Policy, g: np.ndarray) -> np.ndarray:
    # Half-open decision intervals: ties at a threshold go to the upper side.
    lo, hi = policy.band
    return (g >= lo) & (g < hi)


def _htt_tau(policy: HTTPolicy, g: np.ndarray, params: SystemParams) -> np.ndarray:
    if policy.tau_rule is not None:
        return np.asarray([float(policy.tau_rule(float(x))) for x in g])
    gamma = schemes.htt_instant_snr(g, params)
    tau = np.ones_like(g)  # harvest-everything limit at zero SNR
    live = gamma > 0.0
    if live.any():
        tau[live] = schemes.htt_optimal_tau(gamma[live])
    return tau


def mc_throughput(policy: Policy, params: SystemParams, n: int, seed: int) -> McEstimate:
    """Sample-mean throughput over n seeded gain draws, with standard error."""
    if n < 2:
        raise ValueError("mc_throughput needs n >= 2 for a standard error")
    g = channel.sample(n, seed).values
    if isinstance(policy, HTTPolicy):
        tau = _htt_tau(policy, g, params)
        rates = schemes.htt_instant_rate(g, tau, params)
    else:
        pu = schemes.evaluate_policy(policy, params).ul_power
        gammabar = pu * params.gbar / params.sigma2
        rates = np.where(
            _wit_mask(policy, g), np.log1p(gammabar * g) / schemes.LN2, 0.0
        )
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
    to harvesting and counted in ``skipped_wit_frames``.
    """
    if n_frames < 1:
        raise ValueError("n_frames must be >= 1")
    if initial_energy < 0.0:
        raise ValueError("initial_energy must be >= 0")
    g = channel.sample(n_frames, seed).values
    harvest_full = params.p_d * params.gbar * g  # full-frame harvest energy

    if isinstance(policy, HTTPolicy):
        tau = _htt_tau(policy, g, params)
        harvested = tau * harvest_full
        consumed = harvested.copy()  # per-frame balance, exact by construction
        rate = schemes.htt_instant_rate(g, tau, params)
        mode = np.full(n_frames, _SPLIT, dtype=np.int8)
        stored = np.full(n_frames, float(initial_energy))
        skipped = 0
    else:
        pu = schemes.evaluate_policy(policy, params).ul_power
        gammabar = pu * params.gbar / params.sigma2
        wit = _wit_mask(policy, g)
        mode = np.where(wit, _WIT, _WPT).astype(np.int8)
        harvested = np.where(wit, 0.0, harvest_full)
        consumed = np.where(wit, pu, 0.0)
        rate = np.where(wit, np.log1p(gammabar * g) / schemes.LN2, 0.0)
        tau = np.full(n_frames, np.nan)
        skipped = 0
        if causal:
            stored = np.empty(n_frames)
            level = float(initial_energy)
            for i in range(n_frames):
                if mode[i] == _WIT and level < consumed[i]:
                    # not enough charge: demote to a harvesting frame
                    mode[i] = _WPT
                    harvested[i] = harvest_full[i]
                    consumed[i] = 0.0
                    rate[i] = 0.0
                    skipped += 1
                level = level + harvested[i] - consumed[i]
                stored[i] = level
        else:
            # seed the running sum with the initial charge so the ledger
            # recurrence stored[k] = stored[k-1] + net[k] holds to the bit
            net = np.concatenate(([initial_energy], harvested - consumed))
            stored = np.cumsum(net)[1:]

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
    _, free = run_policy_trace(policy, params, n_frames, seed, causal=False)
    _, capped = run_policy_trace(policy, params, n_frames, seed, causal=True)
    _, se = _trace_rate_se(policy, params, n_frames, seed)
    gap = (free.mean_rate_bits - closed) / closed if closed > 0.0 else 0.0
    return ConvergenceReport(
        closed_form_bits=closed,
        noncausal_mean=free.mean_rate_bits,
        noncausal_std_error=se,
        causal_mean=capped.mean_rate_bits,
        rel_gap=gap,
    )


def _trace_rate_se(policy, params, n_frames, seed):
    est = mc_throughput(policy, params, n_frames, seed)
    return est.mean, est.std_error
