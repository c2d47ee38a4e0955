"""Closed-form throughput and uplink-power evaluators.

Four transmit strategies for a single-antenna wireless-powered link:

* HTT   -- every frame is split: a fraction tau harvests downlink power,
           the rest transmits uplink data with the energy just harvested.
* IP    -- whole frames: transmit on the band [0, g_u), harvest above
           (information interval left of the power interval).
* PI    -- transmit on the band [g_l, inf), harvest below.
* PIP   -- transmit on the middle band [g_l, g_u), harvest on both tails.

The three threshold schemes are one rule: transmit while the normalized gain
lies in a band [lo, hi) (each policy's ``band``), harvest outside it. Their
uplink power is the constant that balances expected harvested and expected
consumed energy (``band_ul_power``); the ergodic throughput then has a closed
form in the exponential integral (``band_throughput``). The ``ip_*``
functions call these two with g_l = 0, the ``pi_*`` functions with
g_u = inf, and the ``pip_*`` functions pass both thresholds through. Every
closed form is checked against ``quad_throughput_oracle`` (direct
quadrature of the rate integral), which is the ground truth throughout the
test suite.

All throughputs are in bits per unit frame (equal to bits/s/Hz here since
frame length and bandwidth are fixed at one).
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Union

import numpy as np

from . import channel
from .numerics import (
    Interval,
    OPEN_END,
    exp_scaled_e1,
    integrate,
    lambert_w0,
)

LN2 = math.log(2.0)
_TAU_AT_UNIT_SNR = 1.0 - 1.0 / math.e  # limit of the optimal split at SNR 1


@dataclass(frozen=True)
class SystemParams:
    """Physical constants of the link.

    p_d     downlink transmit power (W)
    gbar    average channel power gain (dimensionless)
    sigma2  receiver noise variance (W)

    Frame length and bandwidth are fixed at one; rates in bits/frame.
    """

    p_d: float
    gbar: float = 1.0
    sigma2: float = 1.0

    def __post_init__(self) -> None:
        for name in ("p_d", "gbar", "sigma2"):
            if not 0.0 < getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be positive and finite")

    @property
    def dl_snr(self) -> float:
        """Downlink-referenced SNR p_d gbar^2 / sigma^2 (the sweep axis)."""
        return self.p_d * self.gbar**2 / self.sigma2

    @classmethod
    def from_snr_db(cls, snr_db: float, gbar: float = 1.0, sigma2: float = 1.0) -> "SystemParams":
        """Build params with p_d chosen so that dl_snr equals 10^(snr_db/10)."""
        rho = 10.0 ** (snr_db / 10.0)
        return cls(p_d=rho * sigma2 / gbar**2, gbar=gbar, sigma2=sigma2)


@dataclass(frozen=True)
class Partition:
    """Disjoint information (wit) and power (wpt) gain sets covering [0, inf)."""

    wit: tuple[Interval, ...]
    wpt: tuple[Interval, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "wit", tuple(self.wit))
        object.__setattr__(self, "wpt", tuple(self.wpt))
        for name, intervals in (("wit", self.wit), ("wpt", self.wpt)):
            for prev, cur in zip(intervals, intervals[1:]):
                if cur.lo < prev.hi:
                    raise ValueError(f"{name} intervals must be sorted and disjoint")
        pieces = sorted(
            [iv for iv in self.wit + self.wpt if not iv.empty], key=lambda iv: iv.lo
        )
        if not pieces:
            raise ValueError("partition covers nothing")
        if pieces[0].lo != 0.0:
            raise ValueError("partition must start at 0")
        for prev, cur in zip(pieces, pieces[1:]):
            if cur.lo < prev.hi:
                raise ValueError("wit and wpt intervals overlap")
            if cur.lo > prev.hi:
                raise ValueError(f"partition leaves a gap at [{prev.hi}, {cur.lo})")
        if not pieces[-1].unbounded:
            raise ValueError("partition must extend to infinity")

    def wit_prob(self) -> float:
        return sum(channel.interval_prob(iv.lo, iv.hi) for iv in self.wit)

    def wpt_gain_mean(self) -> float:
        return sum(channel.interval_gain_mean(iv.lo, iv.hi) for iv in self.wpt)


# ---------------------------------------------------------------------------
# Policies
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class HTTPolicy:
    """Per-frame split policy at the rate-maximizing split ``htt_optimal_tau``.

    A marker with no fields: the split of each frame follows from its gain.
    """


@dataclass(frozen=True)
class IPPolicy:
    g_u: float

    def __post_init__(self) -> None:
        if not self.g_u > 0.0:
            raise ValueError("IP policy requires g_u > 0")

    @property
    def band(self) -> tuple[float, float]:
        """Transmit band [lo, hi) of the normalized gain."""
        return (0.0, self.g_u)


@dataclass(frozen=True)
class PIPolicy:
    g_l: float

    def __post_init__(self) -> None:
        if self.g_l < 0.0 or math.isnan(self.g_l):
            raise ValueError("PI policy requires g_l >= 0")

    @property
    def band(self) -> tuple[float, float]:
        """Transmit band [lo, hi) of the normalized gain."""
        return (self.g_l, OPEN_END)


@dataclass(frozen=True)
class PIPPolicy:
    g_l: float
    g_u: float

    def __post_init__(self) -> None:
        if self.g_l < 0.0 or math.isnan(self.g_l):
            raise ValueError("PIP policy requires g_l >= 0")
        if not self.g_u > self.g_l:
            raise ValueError("PIP policy requires g_l < g_u")

    @property
    def band(self) -> tuple[float, float]:
        """Transmit band [lo, hi) of the normalized gain."""
        return (self.g_l, self.g_u)


Policy = Union[HTTPolicy, IPPolicy, PIPolicy, PIPPolicy]


def policy_partition(policy: Policy) -> Partition:
    """Information/power gain sets induced by a threshold policy."""
    if isinstance(policy, HTTPolicy):
        raise ValueError(f"no gain partition for policy {policy!r}")
    lo, hi = policy.band
    below = () if lo == 0.0 else (Interval(0.0, lo),)
    above = () if math.isinf(hi) else (Interval(hi, OPEN_END),)
    return Partition(wit=(Interval(lo, hi),), wpt=below + above)


@dataclass(frozen=True)
class SchemeEvaluation:
    """Throughput (bits/frame), uplink power (W), expected uplink SNR."""

    throughput_bits: float
    ul_power: float
    expected_ul_snr_gammabar: float


# ---------------------------------------------------------------------------
# HTT
# ---------------------------------------------------------------------------

def htt_instant_snr(g, params: SystemParams):
    """Per-frame SNR p_d gbar^2 g^2 / sigma^2 at normalized gain g."""
    arr = np.asarray(g, dtype=float)
    if np.any(arr < 0.0) or np.isnan(arr).any():
        raise ValueError("gain must be >= 0")
    out = params.p_d * params.gbar**2 * np.square(arr) / params.sigma2
    return float(out) if arr.ndim == 0 else out


def htt_instant_rate(g, tau, params: SystemParams):
    """Frame rate (1 - tau) log2(1 + gamma tau/(1 - tau)); zero at tau = 1."""
    g_arr = np.asarray(g, dtype=float)
    t_arr = np.asarray(tau, dtype=float)
    if np.any(t_arr < 0.0) or np.any(t_arr > 1.0) or np.isnan(t_arr).any():
        raise ValueError("tau must lie in [0, 1]")
    gamma = htt_instant_snr(g_arr, params)
    full = t_arr == 1.0
    safe_t = np.where(full, 0.0, t_arr)
    rate = (1.0 - safe_t) * np.log1p(gamma * safe_t / (1.0 - safe_t)) / LN2
    out = np.where(full, 0.0, rate)
    scalar = g_arr.ndim == 0 and t_arr.ndim == 0
    return float(out) if scalar else out


def htt_optimal_tau(gamma):
    """Rate-maximizing harvest fraction for a frame at SNR gamma > 0.

    tau* = (gamma - 1 - W0((gamma-1)/e)) / ((W0((gamma-1)/e) + 1)(gamma - 1)),
    continued through gamma = 1 with its limit 1 - 1/e. Verified against a
    dense grid search of the frame rate in the test suite.
    """
    arr = np.asarray(gamma, dtype=float)
    if np.any(arr <= 0.0) or np.isnan(arr).any():
        raise ValueError("htt_optimal_tau requires gamma > 0")
    scalar = arr.ndim == 0
    arr = np.atleast_1d(arr)
    w = np.atleast_1d(lambert_w0((arr - 1.0) / math.e))
    denom = (w + 1.0) * (arr - 1.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        tau = (arr - 1.0 - w) / denom
    # W0 rounds to exactly -1 once gamma drops below ~1e-32; use the
    # small-gamma asymptote 1 - sqrt(gamma/2) there
    tau = np.where(denom == 0.0, 1.0 - np.sqrt(arr / 2.0), tau)
    tau = np.where(np.abs(arr - 1.0) < 1e-9, _TAU_AT_UNIT_SNR, tau)
    tau = np.clip(tau, 0.0, 1.0 - 1e-16)
    return float(tau[0]) if scalar else tau


def htt_tau(g, params: SystemParams):
    """Per-frame optimal split at normalized gain g.

    ``htt_optimal_tau`` of the frame SNR ``htt_instant_snr(g)``, and 1 (harvest
    the whole frame) where that SNR is 0: at g = 0, or where g^2 underflows.
    """
    gamma = np.atleast_1d(htt_instant_snr(g, params))
    tau = np.ones_like(gamma)
    live = gamma > 0.0
    if live.any():
        tau[live] = htt_optimal_tau(gamma[live])
    return tau if np.ndim(g) else float(tau[0])


def htt_ergodic_throughput(params: SystemParams) -> SchemeEvaluation:
    """Fading-averaged rate of the per-frame-optimal split, by quadrature.

    Rate and uplink power are integrated against the gain density; the
    reported uplink power is the fading-averaged per-frame power
    tau/(1-tau) p_d gbar g, which is 0 where the split harvests the whole
    frame. The Monte-Carlo counterpart is ``sim.mc_throughput(HTTPolicy(), ...)``.
    """
    def rate(g: float) -> float:
        return htt_instant_rate(g, htt_tau(g, params), params) * math.exp(-g)

    def power(g: float) -> float:
        tau = htt_tau(g, params)
        if tau == 1.0:
            return 0.0
        return tau / (1.0 - tau) * params.p_d * params.gbar * g * math.exp(-g)

    rate_bits = integrate(rate, 0.0, OPEN_END)
    mean_pu = integrate(power, 0.0, OPEN_END)
    return SchemeEvaluation(
        throughput_bits=rate_bits,
        ul_power=mean_pu,
        expected_ul_snr_gammabar=mean_pu * params.gbar / params.sigma2,
    )


# ---------------------------------------------------------------------------
# Threshold schemes: uplink power from the energy balance
# ---------------------------------------------------------------------------

def balance_ul_power(partition: Partition, params: SystemParams) -> float:
    """Constant uplink power equating expected consumed and harvested energy.

    p_u = p_d gbar * (integral of g e^{-g} over wpt) / (P(g in wit)).
    """
    harvested = partition.wpt_gain_mean()
    if harvested == 0.0:
        return 0.0
    prob_wit = partition.wit_prob()
    if prob_wit <= 0.0:
        raise ValueError("information set has zero probability; uplink power is unbounded")
    return params.p_d * params.gbar * harvested / prob_wit


def _zero_at_open_end(term, open_end):
    """``term`` with the entries where g_u is infinite set to 0.

    A term for the gains above the band is inf * 0 = NaN there, while the
    true value is 0: no gain lies above an open band.
    """
    return np.where(open_end, 0.0, term) if open_end.any() else term


def band_ul_power(g_l, g_u, params: SystemParams):
    """Uplink power transmitting on [g_l, g_u) and harvesting outside it.

    p_d gbar ((g_u+1) e^{g_l-g_u} + e^{g_l} - g_l - 1) / (1 - e^{g_l-g_u}),
    the energy balance of ``balance_ul_power`` in closed form; g_u may be inf.
    """
    gl = np.asarray(g_l, dtype=float)
    gu = np.asarray(g_u, dtype=float)
    if not np.all(gl >= 0.0):
        raise ValueError("band_ul_power requires g_l >= 0")
    if not np.all(gu > gl):
        raise ValueError("band_ul_power requires g_l < g_u (zero transmit probability otherwise)")
    # Two terms, not one fraction: at g_l = 0 the sum rounds exactly like the
    # IP form and at g_u = inf exactly like the PI form, which keeps the
    # solvers' outputs bit for bit.
    scale = params.p_d * params.gbar
    denom = -np.expm1(gl - gu)
    with np.errstate(invalid="ignore"):
        above = scale * (gu + 1.0) * np.exp(gl - gu) / denom
    out = _zero_at_open_end(above, np.isinf(gu)) + scale * (np.expm1(gl) - gl) / denom
    return float(out) if out.ndim == 0 else out


def ip_ul_power(g_u, params: SystemParams):
    """p_d gbar (g_u + 1) e^{-g_u} / (1 - e^{-g_u})."""
    return band_ul_power(0.0, g_u, params)


def pi_ul_power(g_l, params: SystemParams):
    """p_d gbar (e^{g_l} - g_l - 1)."""
    return band_ul_power(g_l, OPEN_END, params)


def pip_ul_power(g_l, g_u, params: SystemParams):
    """p_d gbar (1 - (g_l+1) e^{-g_l} + (g_u+1) e^{-g_u}) / (e^{-g_l} - e^{-g_u})."""
    return band_ul_power(g_l, g_u, params)


# ---------------------------------------------------------------------------
# Threshold schemes: ergodic throughput
# ---------------------------------------------------------------------------

def _rate_mass(gammabar, bound):
    """e^{-b} (ln(1 + gammabar b) + e^{b + 1/gammabar} E1(1/gammabar + b)).

    Antiderivative piece of the rate integral: the throughput over [l, u) is
    (_rate_mass(l) - _rate_mass(u)) / ln 2, and the piece vanishes as the
    bound grows. Written with the scaled exponential integral so small
    gammabar (huge 1/gammabar) stays finite.
    """
    return np.exp(-bound) * (
        np.log1p(gammabar * bound) + exp_scaled_e1(1.0 / gammabar + bound)
    )


def band_throughput(g_l, g_u, params: SystemParams):
    """Ergodic bits/frame transmitting on [g_l, g_u) at ``band_ul_power``.

    The integral of log2(1 + gammabar g) e^{-g} over the band, in closed
    form; g_u may be inf. Zero at a zero uplink power by continuity.
    """
    gl = np.asarray(g_l, dtype=float)
    gu = np.asarray(g_u, dtype=float)
    gb = band_ul_power(gl, gu, params) * params.gbar / params.sigma2
    if not np.all(np.isfinite(gb)):
        raise ValueError("uplink SNR overflowed; thresholds leave no usable transmit set")
    # Below ~1e-280 the throughput is zero to hundreds of digits and
    # 1/gammabar would lose the scaled-E1 argument to overflow.
    zero = gb <= 1e-280
    safe = np.where(zero, 1.0, gb)
    open_end = np.isinf(gu)
    if open_end.all():
        hi_mass = 0.0
    else:
        with np.errstate(invalid="ignore"):
            hi_mass = _zero_at_open_end(_rate_mass(safe, gu), open_end)
    out = np.where(zero, 0.0, (_rate_mass(safe, gl) - hi_mass) / LN2)
    return float(out) if out.ndim == 0 else out


def ip_throughput(g_u, params: SystemParams):
    """Ergodic bits/frame when transmitting below g_u and harvesting above."""
    return band_throughput(0.0, g_u, params)


def pi_throughput(g_l, params: SystemParams):
    """Ergodic bits/frame when harvesting below g_l and transmitting above."""
    return band_throughput(g_l, OPEN_END, params)


def pip_throughput(g_l, g_u, params: SystemParams):
    """Ergodic bits/frame transmitting on the middle band [g_l, g_u).

    Reduces exactly to the two-interval forms: g_l = 0 is the IP scheme and
    g_u = inf is the PI scheme.
    """
    return band_throughput(g_l, g_u, params)


def quad_throughput_oracle(partition: Partition, ul_power: float,
                           params: SystemParams) -> float:
    """Ground truth: direct quadrature of the rate integral over the wit set."""
    if ul_power < 0.0:
        raise ValueError("ul_power must be >= 0")
    if ul_power == 0.0:
        return 0.0
    gammabar = ul_power * params.gbar / params.sigma2
    total = 0.0
    for iv in partition.wit:
        if iv.empty:
            continue
        total += integrate(
            lambda g: np.log1p(gammabar * g) / LN2 * math.exp(-g), iv.lo, iv.hi
        )
    return total


def evaluate_policy(policy: Policy, params: SystemParams) -> SchemeEvaluation:
    """Closed-form evaluation of any policy (quadrature averaging for HTT)."""
    if isinstance(policy, HTTPolicy):
        return htt_ergodic_throughput(params)
    lo, hi = policy.band
    pu = band_ul_power(lo, hi, params)
    return SchemeEvaluation(
        throughput_bits=band_throughput(lo, hi, params),
        ul_power=pu,
        expected_ul_snr_gammabar=pu * params.gbar / params.sigma2,
    )


# ---------------------------------------------------------------------------
# High-SNR asymptotes (used for the convexity checks and solver sanity)
# ---------------------------------------------------------------------------

def ip_asymptotic_throughput(g_u, params: SystemParams):
    """Infinite-downlink-power limit log2(dl_snr (g_u+1)e^{-g_u}/(1-e^{-g_u})) (1-e^{-g_u})."""
    gu = np.asarray(g_u, dtype=float)
    if np.any(gu <= 0.0) or np.isnan(gu).any():
        raise ValueError("ip_asymptotic_throughput requires g_u > 0")
    mass = -np.expm1(-gu)
    ratio = (gu + 1.0) * np.exp(-gu) / mass
    out = np.log2(params.dl_snr * ratio) * mass
    return float(out) if gu.ndim == 0 else out


def pi_asymptotic_throughput(g_l, params: SystemParams):
    """Infinite-downlink-power limit log2(p_d gbar/sigma2 (e^{g_l}-g_l-1)) e^{-g_l}."""
    gl = np.asarray(g_l, dtype=float)
    if np.any(gl <= 0.0) or np.isnan(gl).any():
        raise ValueError("pi_asymptotic_throughput requires g_l > 0")
    scale = params.p_d * params.gbar / params.sigma2
    out = np.log2(scale * (np.expm1(gl) - gl)) * np.exp(-gl)
    return float(out) if gl.ndim == 0 else out
