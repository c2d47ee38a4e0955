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
form in the exponential integral (``band_throughput``), with the high-power
limit ``band_asymptotic_throughput``. ``ip_throughput`` passes g_l = 0,
``pi_throughput`` g_u = inf. The test suite checks the closed forms against
two references over the band: ``balance_ul_power`` (the channel's interval
moments) and ``quad_throughput_oracle`` (quadrature of the rate integral).

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
    OPEN_END,
    exp_scaled_e1,
    integrate,
    lambert_w0,
)

LN2 = math.log(2.0)
_TAU_AT_UNIT_SNR = 1.0 - 1.0 / math.e  # limit of the optimal split at SNR 1


def _check_positive_finite(name: str, value: float) -> None:
    if not 0.0 < value < math.inf:
        raise ValueError(f"{name} must be positive and finite")


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
            _check_positive_finite(name, getattr(self, name))

    @property
    def dl_snr(self) -> float:
        """Downlink-referenced SNR p_d gbar^2 / sigma^2 (the sweep axis)."""
        return self.p_d * self.gbar**2 / self.sigma2

    @classmethod
    def from_snr_db(cls, snr_db: float, gbar: float = 1.0, sigma2: float = 1.0) -> "SystemParams":
        """Build params with p_d chosen so that dl_snr equals 10^(snr_db/10)."""
        _check_positive_finite("gbar", gbar)
        _check_positive_finite("sigma2", sigma2)
        with np.errstate(all="ignore"):  # a non-finite or zero result is rejected below
            rho = float(np.float64(10.0) ** (snr_db / 10.0))
            p_d = float(rho * sigma2 / np.float64(gbar) ** 2)
        _check_positive_finite(f"10^(snr_db/10) at snr_db={snr_db}", rho)
        _check_positive_finite(
            f"the downlink power at snr_db={snr_db}, gbar={gbar}, sigma2={sigma2}", p_d)
        return cls(p_d=p_d, gbar=gbar, sigma2=sigma2)


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


@dataclass(frozen=True)
class SchemeEvaluation:
    """Throughput (bits/frame), uplink power (W), expected uplink SNR, HTT's mean split."""

    throughput_bits: float
    ul_power: float
    expected_ul_snr_gammabar: float
    tau_mean: float | None = None  # a result of HTT; None for threshold policies


# ---------------------------------------------------------------------------
# HTT
# ---------------------------------------------------------------------------

def htt_instant_snr(g, params: SystemParams):
    """Per-frame SNR p_d gbar^2 g^2 / sigma^2 at normalized gain g."""
    arr = np.asarray(g, dtype=float)
    if np.any(arr < 0.0) or np.isnan(arr).any():
        raise ValueError("gain must be >= 0")
    with np.errstate(over="ignore", invalid="ignore"):  # rejected below
        out = params.p_d * params.gbar**2 * np.square(arr) / params.sigma2
    if not np.all(np.isfinite(out)):
        raise ValueError(f"frame SNR p_d gbar^2 g^2 / sigma2 overflows at p_d={params.p_d}")
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
    """Fading-averaged rate, uplink power and mean split of HTT, in one pass.

    One quadrature integrates [rate, power, tau] e^{-g}, calling ``htt_tau``
    once per node. The frame power tau/(1-tau) p_d gbar g (0 where tau = 1)
    is integrated in units of max(1, p_d gbar) W: quad_vec's rounding
    estimate grows with the integral, and thousands of watts (above 38 dB)
    would fail the absolute gate of ``integrate``. Monte-Carlo counterpart:
    ``sim.mc_throughput(HTTPolicy(), ...)``.
    """
    unit = max(1.0, params.p_d * params.gbar)

    def frame(g: float) -> np.ndarray:
        tau = htt_tau(g, params)
        power = 0.0 if tau == 1.0 else tau / (1.0 - tau) * params.p_d * params.gbar * g / unit
        return np.array([htt_instant_rate(g, tau, params), power, tau]) * math.exp(-g)

    integral = integrate(frame, 0.0, OPEN_END) * [1.0, unit, 1.0]
    rate_bits, mean_pu, tau_mean = integral.tolist()
    return SchemeEvaluation(
        throughput_bits=rate_bits,
        ul_power=mean_pu,
        expected_ul_snr_gammabar=mean_pu * params.gbar / params.sigma2,
        tau_mean=tau_mean,
    )


# ---------------------------------------------------------------------------
# Threshold schemes: uplink power from the energy balance
# ---------------------------------------------------------------------------

def balance_ul_power(g_l: float, g_u: float, params: SystemParams) -> float:
    """Uplink power for the band [g_l, g_u), from the energy balance term by term.

    p_u = p_d gbar * (integral of g e^{-g} over both tails) / P(g_l <= g < g_u),
    with ``channel``'s interval moments: the reference for ``band_ul_power``.
    """
    harvested = channel.interval_gain_mean(0.0, g_l) + channel.interval_gain_mean(g_u, OPEN_END)
    if harvested == 0.0:
        return 0.0
    prob = channel.interval_prob(g_l, g_u)
    if prob <= 0.0:
        raise ValueError("transmit band has zero probability; uplink power is unbounded")
    return params.p_d * params.gbar * harvested / prob


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


def quad_throughput_oracle(g_l: float, g_u: float, ul_power: float,
                           params: SystemParams) -> float:
    """Ground truth: direct quadrature of the rate integral over the band [g_l, g_u)."""
    if ul_power < 0.0:
        raise ValueError("ul_power must be >= 0")
    if ul_power == 0.0:
        return 0.0
    gammabar = ul_power * params.gbar / params.sigma2
    return integrate(lambda g: np.log1p(gammabar * g) / LN2 * math.exp(-g), g_l, g_u)


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
# High-SNR asymptote (used for the convexity checks and solver sanity)
# ---------------------------------------------------------------------------

def band_asymptotic_throughput(g_l, g_u, params: SystemParams):
    """High-power limit log2(gammabar) P(g_l <= g < g_u) of ``band_throughput``.

    gammabar = ``band_ul_power`` gbar / sigma2. The gap to the exact
    throughput tends to the integral of log2(g) e^{-g} over the band.
    """
    gl = np.asarray(g_l, dtype=float)
    gu = np.asarray(g_u, dtype=float)
    gb = band_ul_power(gl, gu, params) * params.gbar / params.sigma2
    if not np.all((gb > 0.0) & np.isfinite(gb)):
        raise ValueError("band_asymptotic_throughput requires a positive, finite uplink power")
    out = np.log2(gb) * np.exp(-gl) * -np.expm1(gl - gu)
    return float(out) if out.ndim == 0 else out
