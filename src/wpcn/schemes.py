"""Closed-form throughput and uplink-power evaluators.

Four transmit strategies for a single-antenna wireless-powered link:

* HTT   -- every frame is split: a fraction tau harvests downlink power,
           the rest transmits uplink data with the energy just harvested.
* IP    -- whole frames: transmit on the band [0, g_u), harvest above
           (information interval left of the power interval).
* PI    -- transmit on the band [g_l, inf), harvest below.
* PIP   -- transmit on the middle band [g_l, g_u), harvest on both tails.

The three threshold schemes are one policy, ``BandPolicy``: transmit while
the normalized gain lies in a band [g_l, g_u) (its ``band``), harvest
outside it. IP leaves g_l at 0 and PI g_u at inf. The uplink power is the
constant that balances expected harvested and expected consumed energy.
``band_uplink`` gives it together with the expected uplink SNR
gammabar = p_u gbar / sigma2 and whether gammabar g fits a float on the
band (its eligibility); every reader of a band's power or gammabar (the
closed forms, the pair bound, the solvers, ``evaluate_policy`` and the
frame traces of ``sim``) takes it from there. The ergodic throughput then
has a closed form in the exponential integral (``band_throughput``), with the
high-power limit ``band_asymptotic_throughput``. ``ip_throughput`` passes
g_l = 0, ``pi_throughput`` g_u = inf. The test suite checks the closed
forms against two references over the band: ``balance_ul_power`` (the
channel's interval moments) and ``quad_throughput_oracle`` (quadrature of
the rate integral).

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
    _scalar_or_array,
    exp_neg,
    exp_scaled_e1,
    integrate,
    integrate_lockstep,
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
        """Downlink-referenced SNR p_d gbar^2 / sigma^2 (the sweep axis); inf on overflow."""
        with np.errstate(over="ignore"):  # Python's gbar**2 raises OverflowError instead
            return float(self.p_d * np.float64(self.gbar) ** 2 / self.sigma2)

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
class BandPolicy:
    """Whole-frame policy: transmit while the normalized gain lies in [g_l, g_u), harvest outside.

    IP is ``BandPolicy(g_u=x)``, PI ``BandPolicy(g_l=x)`` and PIP
    ``BandPolicy(g_l, g_u)``; ``optimize.THRESHOLDS`` names the edges each
    scheme searches.
    """

    g_l: float = 0.0
    g_u: float = OPEN_END

    def __post_init__(self) -> None:
        if not 0.0 <= self.g_l < self.g_u:  # NaN fails too
            raise ValueError(
                f"band policy requires 0 <= g_l < g_u, got g_l={self.g_l}, g_u={self.g_u}")

    @property
    def band(self) -> tuple[float, float]:
        """Transmit band [lo, hi) of the normalized gain."""
        return (self.g_l, self.g_u)


Policy = Union[HTTPolicy, BandPolicy]


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

def _htt_link(params: SystemParams) -> tuple:
    """(p_d gbar^2, p_d, gbar, sigma2): the constants of a link that HTT's frames read.

    p_d gbar^2 by np.float64, since Python's gbar**2 raises OverflowError; it
    may overflow to inf, which ``_instant_snr`` rejects.
    """
    with np.errstate(over="ignore"):
        scale = float(params.p_d * np.float64(params.gbar) ** 2)
    return scale, params.p_d, params.gbar, params.sigma2


def _instant_snr(g: np.ndarray, link: tuple) -> np.ndarray:
    """Frame SNR p_d gbar^2 g^2 / sigma2 of gains g >= 0; each constant of
    ``link`` is a float or holds one value per gain."""
    if np.any(g < 0.0) or np.isnan(g).any():
        raise ValueError("gain must be >= 0")
    scale, p_d, gbar, sigma2 = link
    with np.errstate(over="ignore", invalid="ignore"):  # rejected below
        out = scale * np.square(g) / sigma2
    fits = np.isfinite(out)
    if not fits.all():
        bad = np.argmin(fits)  # the first frame that overflows names its constants
        p_d, gbar, sigma2 = (float(np.broadcast_to(x, out.shape).flat[bad])
                             for x in (p_d, gbar, sigma2))
        raise ValueError("frame SNR p_d gbar^2 g^2 / sigma2 overflows at "
                         f"p_d={p_d}, gbar={gbar}, sigma2={sigma2}")
    return out


def htt_instant_snr(g, params: SystemParams):
    """Per-frame SNR p_d gbar^2 g^2 / sigma^2 at normalized gain g."""
    arr = np.asarray(g, dtype=float)
    return _scalar_or_array(_instant_snr(arr, _htt_link(params)), arr.ndim == 0)


def _split_rate(gamma, tau):
    """(1 - tau) log2(1 + gamma tau/(1 - tau)) for tau < 1, on floats or arrays.

    ``np.log1p`` on a float too: ``math.log1p`` differs from it by an ulp
    at some headline points.
    """
    return (1.0 - tau) * np.log1p(gamma * tau / (1.0 - tau)) / LN2


_TAU_MAX = 1.0 - 1e-16  # the split stays below 1, so 1 - tau never divides by 0


def _split_of_huge_snr(gamma, w):
    # (gamma - 1)(W0 + 1) overflows while gamma fits: divide by each factor
    return (gamma - 1.0 - w) / (gamma - 1.0) / (w + 1.0)


def htt_optimal_tau(gamma):
    """Rate-maximizing harvest fraction for a frame at SNR gamma > 0.

    tau* = (gamma - 1 - W0((gamma-1)/e)) / ((W0((gamma-1)/e) + 1)(gamma - 1)),
    continued through gamma = 1 with its limit 1 - 1/e. Verified against a
    dense grid search of the frame rate in the test suite.
    """
    arr = np.asarray(gamma, dtype=float)
    if np.any(arr <= 0.0) or np.isnan(arr).any():
        raise ValueError("htt_optimal_tau requires gamma > 0")
    return _scalar_or_array(_optimal_tau(np.atleast_1d(arr)).reshape(arr.shape), arr.ndim == 0)


def _optimal_tau(gamma: np.ndarray) -> np.ndarray:
    # htt_optimal_tau on an array of SNRs > 0, unchecked; each rare branch
    # is computed on its own frames only
    gm1 = gamma - 1.0
    w = lambert_w0(gm1 / math.e)
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        denom = (w + 1.0) * gm1
        tau = (gm1 - w) / denom
        huge = np.isinf(denom)
        if huge.any():
            tau[huge] = _split_of_huge_snr(gamma[huge], w[huge])
    # gamma - 1 rounds to -1 once gamma drops below ~5.6e-17, and W0 of it
    # to exactly -1; use the small-gamma asymptote 1 - sqrt(gamma/2) there
    # (it clips to _TAU_MAX only below ~1e-32)
    tiny = denom == 0.0
    if tiny.any():
        tau[tiny] = 1.0 - np.sqrt(gamma[tiny] / 2.0)
    tau[np.abs(gm1) < 1e-9] = _TAU_AT_UNIT_SNR
    return np.clip(tau, 0.0, _TAU_MAX, out=tau)


def htt_frame(g, params: SystemParams):
    """Split, rate (bits) and uplink power (W) of HTT frames at normalized gain g.

    Computes the frame SNR gamma = ``htt_instant_snr(g)`` once. The split is
    ``htt_optimal_tau(gamma)``, or 1 (harvest the whole frame) where gamma
    is 0: at g = 0, or where g^2 underflows. The rate is
    (1 - tau) log2(1 + gamma tau/(1 - tau)) and the power, the harvested
    energy spent over the rest of the frame, tau/(1 - tau) p_d gbar g; both
    are 0 where tau = 1. Returns the tuple (tau, rate, power).

    A float, or any 0-d input, runs as one frame and gives floats with the
    bits of an array; an array gives arrays of its shape, as for the HTT
    frames of ``sim.run_policy_trace``.
    """
    g_arr = np.asarray(g, dtype=float)
    out = _htt_frame(np.atleast_1d(g_arr), _htt_link(params))
    return tuple(float(x[0]) for x in out) if g_arr.ndim == 0 else out


def _htt_frame(frames: np.ndarray, link: tuple) -> tuple:
    # htt_frame on an array of gains; each constant of ``link`` (_htt_link)
    # is a float or holds one value per gain, and every step acts frame by
    # frame, so a frame's bits do not depend on the others
    gamma = _instant_snr(frames, link)
    live = gamma > 0.0
    if live.all():
        tau = split = _optimal_tau(gamma)
    else:
        tau = np.ones_like(gamma)
        if live.any():
            tau[live] = _optimal_tau(gamma[live])
        split = np.where(live, tau, 0.0)  # a zero split: rate and power are exactly 0
    _, p_d, gbar, _ = link
    power = split / (1.0 - split) * p_d * gbar * frames
    return tau, _split_rate(gamma, split), power


def htt_ergodic_throughput(params: SystemParams) -> SchemeEvaluation:
    """Fading-averaged rate, uplink power and mean split of HTT, in one pass.

    ``htt_ergodic_throughputs`` at the one point ``params``. Monte-Carlo
    counterpart: ``sim.mc_throughput(HTTPolicy(), ...)``.
    """
    return htt_ergodic_throughputs([params])[0]


def htt_ergodic_throughputs(axis: list) -> list:
    """``htt_ergodic_throughput`` at each SystemParams of ``axis``, in lockstep.

    One quadrature per point integrates [rate, power, tau] e^{-g}. The
    quadratures run round by round together (``integrate_lockstep``): each
    round makes one pass of ``htt_frame``'s array path, so one W0 call, on
    the 21 nodes of every interval that any of them splits, with each node's
    p_d, gbar, sigma2 and power unit. The frame power is integrated in units
    of max(1, p_d gbar) W: the quadrature's rounding estimate grows with the
    integral, and thousands of watts (above 38 dB) would fail the absolute
    gate of ``integrate``. Every step acts node by node, so each point gets
    the bits of its quadrature alone. One entry per point: its
    SchemeEvaluation. The first error any point hits (its frame SNR
    overflows, or its quadrature misses the gate) is raised for the whole
    axis, as ``htt_ergodic_throughput`` raises it on that point alone.
    """
    links = [np.array(column) for column in zip(*map(_htt_link, axis))]
    units = np.array([max(1.0, params.p_d * params.gbar) for params in axis])

    def frame(g: np.ndarray, owner: np.ndarray) -> np.ndarray:
        tau, rate, power = _htt_frame(g, tuple(column[owner] for column in links))
        return np.stack((rate, power / units[owner], tau), axis=1) * exp_neg(g)[:, None]

    out = []
    for params, unit, integral in zip(axis, units, integrate_lockstep(
            frame, [(0.0, OPEN_END)] * len(axis))):
        rate_bits, mean_pu, tau_mean = (integral * [1.0, unit, 1.0]).tolist()
        out.append(SchemeEvaluation(
            throughput_bits=rate_bits,
            ul_power=mean_pu,
            expected_ul_snr_gammabar=mean_pu * params.gbar / params.sigma2,
            tau_mean=tau_mean,
        ))
    return out


# ---------------------------------------------------------------------------
# Threshold schemes: uplink power from the energy balance
# ---------------------------------------------------------------------------

def balance_ul_power(g_l: float, g_u: float, params: SystemParams) -> float:
    """Uplink power for the band [g_l, g_u), from the energy balance term by term.

    p_u = p_d gbar * (integral of g e^{-g} over both tails) / P(g_l <= g < g_u),
    with ``channel``'s interval moments: the reference for ``band_uplink``'s power.
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


# e^x - 1 fits a float for x below ln(max float) ~ 709.78, so the float
# path of band_uplink enters np.errstate only from here up
_EXPM1_FITS_BELOW = 709.0


def band_uplink(g_l, g_u, params: SystemParams):
    """Uplink power, expected uplink SNR and eligibility of the band [g_l, g_u).

    Returns (power, gammabar, eligible). The power transmitting on [g_l, g_u)
    and harvesting outside it is
    p_d gbar ((g_u+1) e^{g_l-g_u} + e^{g_l} - g_l - 1) / (1 - e^{g_l-g_u}),
    the energy balance of ``balance_ul_power`` in closed form; g_u may be
    inf. gammabar = power gbar / sigma2. The band is eligible
    (``band_throughput`` can evaluate it) where gammabar g at its largest
    finite edge fits a float. The power may fit though gammabar does not,
    and inf * 0 is NaN, so an infinite gammabar is not eligible at g_l = 0
    either. Every reader of a band's power, gammabar or eligibility takes
    it from here.

    Two floats take a float path with the checks, errors and bits of the
    array path: numpy's ufuncs on floats and Python arithmetic elsewhere.
    A 0-d input gives the power and gammabar as floats and the eligibility
    as an ``np.bool_``.
    """
    if isinstance(g_l, float) and isinstance(g_u, float):
        gl, gu = float(g_l), float(g_u)  # an np.float64 would warn where a float overflows
        if not gl >= 0.0:
            raise ValueError("band_uplink requires g_l >= 0")
        if not gu > gl:
            raise ValueError("band_uplink requires g_l < g_u (zero transmit probability otherwise)")
        scale = params.p_d * params.gbar
        denom = -float(np.expm1(gl - gu))
        above = 0.0 if gu == math.inf else scale * (gu + 1.0) * float(np.exp(gl - gu)) / denom
        if gl < _EXPM1_FITS_BELOW:
            grown = float(np.expm1(gl))
        else:
            with np.errstate(over="ignore"):  # an infinite power is not eligible
                grown = float(np.expm1(gl))
        power = above + scale * (grown - gl) / denom
        gammabar = power * params.gbar / params.sigma2
        return power, gammabar, math.isfinite(gammabar * (gl if gu == math.inf else gu))
    gl = np.asarray(g_l, dtype=float)
    gu = np.asarray(g_u, dtype=float)
    if not np.all(gl >= 0.0):
        raise ValueError("band_uplink requires g_l >= 0")
    if not np.all(gu > gl):
        raise ValueError("band_uplink requires g_l < g_u (zero transmit probability otherwise)")
    # Two terms, not one fraction: at g_l = 0 the sum rounds exactly like the
    # IP form and at g_u = inf exactly like the PI form, which keeps the
    # solvers' outputs bit for bit.
    scale = params.p_d * params.gbar
    denom = -np.expm1(gl - gu)
    # an intermediate may overflow though the power fits; an infinite power
    # or gammabar is not eligible
    with np.errstate(over="ignore", invalid="ignore"):
        above = scale * (gu + 1.0) * np.exp(gl - gu) / denom
        power = _zero_at_open_end(above, np.isinf(gu)) + scale * (np.expm1(gl) - gl) / denom
        power = _scalar_or_array(power, power.ndim == 0)
        gammabar = power * params.gbar / params.sigma2
        return power, gammabar, np.isfinite(gammabar * np.where(np.isinf(gu), gl, gu))


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


class UplinkOverflowError(ValueError):
    """The uplink SNR of a band overflows a float: the band is not eligible (see ``band_uplink``)."""

    def __init__(self, params: SystemParams):
        super().__init__(
            "expected uplink SNR power gbar / sigma2 overflows on this band at "
            f"p_d={params.p_d}, gbar={params.gbar}, sigma2={params.sigma2}")


def band_throughput(g_l, g_u, params: SystemParams):
    """Ergodic bits/frame transmitting on [g_l, g_u) at the power of ``band_uplink``.

    The integral of log2(1 + gammabar g) e^{-g} over the band, in closed
    form; g_u may be inf. Zero at a zero uplink power by continuity, and
    never below zero, though the closed form may cancel there. Raises
    ``UplinkOverflowError`` unless every band is eligible (``band_uplink``).

    Two floats, as the IP and PI solvers pass one threshold at a time, take
    a float path with the same checks, errors and bits as the array path:
    numpy's ufuncs on floats (``math``'s differ from them by an ulp at some
    points) and Python arithmetic elsewhere, with no 0-d arrays.
    """
    if isinstance(g_l, float) and isinstance(g_u, float):
        # float() turns an np.float64 into a Python float, whose arithmetic
        # overflows to inf without a warning
        gl, gu = float(g_l), float(g_u)
        _, gb, eligible = band_uplink(gl, gu, params)
        if not eligible:
            raise UplinkOverflowError(params)
        if gb <= 1e-280:
            return 0.0
        mass = float(_rate_mass(gb, gl)) - (0.0 if gu == math.inf else float(_rate_mass(gb, gu)))
        return 0.0 if mass < 0.0 else mass / LN2
    gl = np.asarray(g_l, dtype=float)
    gu = np.asarray(g_u, dtype=float)
    _, gb, eligible = band_uplink(gl, gu, params)
    if not np.all(eligible):
        raise UplinkOverflowError(params)
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
    mass = _rate_mass(safe, gl) - hi_mass
    # the integrand is non-negative; on a band a few ulps wide the difference
    # of the two masses can cancel to just below 0
    out = np.where(zero | (mass < 0.0), 0.0, mass / LN2)
    return _scalar_or_array(out, out.ndim == 0)


def _band_prob_mean(gl, gu):
    """P = e^{-g_l} - e^{-g_u} and the mean gain of the band [g_l, g_u); g_u may be inf.

    The mean is the gain mass (g_l+1) e^{-g_l} - (g_u+1) e^{-g_u} over P,
    evaluated as g_l + 1 - d/(e^d - 1), d = g_u - g_l, which does not cancel
    on narrow bands.
    """
    span = gu - gl
    tail = -np.expm1(-span)
    mean = gl + 1.0 - _zero_at_open_end(span * np.exp(-span) / tail, np.isinf(gu))
    return np.exp(-gl) * tail, mean


def _log_snr(params: SystemParams) -> float:
    """ln(p_d gbar^2 / sigma2), finite where the SNR itself overflows."""
    return math.log(params.p_d) + 2.0 * math.log(params.gbar) - math.log(params.sigma2)


def _log_mass_ratio(gl, gu, prob, mean):
    """ln(H m / P), so that ln(gammabar mean) = ln snr + ln(H m / P) in log space.

    Finite where gammabar = snr H/P overflows; snr = p_d gbar^2/sigma2 does
    not enter. P = ``prob``, m = ``mean``, and H = e^{-g_l}(e^{g_l} - g_l - 1)
    + (g_u+1) e^{-g_u} <= 1 is the gain mass harvested outside [g_l, g_u),
    capped at 1 (it rounds to 1 past g_l ~ 709, where e^{g_l} overflows).
    """
    held = _zero_at_open_end((gu + 1.0) * np.exp(gl - gu), np.isinf(gu)) + (np.expm1(gl) - gl)
    return np.minimum(np.log(held) - gl, 0.0) + np.log(mean) - np.log(prob)


def band_throughput_bound(g_l, g_u, params: SystemParams):
    """Upper bound on ``band_throughput`` from Jensen's inequality, with no E1.

    log2(1 + gammabar g) is concave in g, so its integral against e^{-g}
    over the band is at most P log2(1 + gammabar m/P), with P the band's
    probability and m/P its mean gain (``_band_prob_mean``); g_u may be inf.

    On a band that is not eligible (``band_uplink``) the logarithm is taken in log
    space, from ``_log_mass_ratio``, so the bound stays finite; it is 0
    where P underflows to 0. Eligible bands take gammabar from
    ``band_uplink``, as ``band_throughput`` does, which keeps the bound
    above the closed form in floats.
    """
    gl = np.asarray(g_l, dtype=float)
    gu = np.asarray(g_u, dtype=float)
    _, gb, eligible = band_uplink(gl, gu, params)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        prob, mean = _band_prob_mean(gl, gu)
        out = prob * np.log1p(gb * mean) / LN2
        if not eligible.all():
            log_arg = _log_snr(params) + _log_mass_ratio(gl, gu, prob, mean)
            logged = prob * np.logaddexp(0.0, log_arg) / LN2
            out = np.where(eligible, out, np.where(prob > 0.0, logged, 0.0))
    return _scalar_or_array(out, out.ndim == 0)


# Relative pad on the logarithm of band_block_bound: it keeps the
# bound above the pair bounds, whose argument rounds differently (by up to
# ~7e-15 relative seen).
_BLOCK_LOG_PAD = 1e-11
# Floats keep full precision down to e^-708: below e^-_LOG_FLOOR a pair
# bound's logarithm rounds in subnormal floats, which the pad does not
# cover, so the block bound's logarithm is taken no smaller.
_LOG_FLOOR = 700.0


def band_block_geometry(g_l, g_lo, g_hi) -> tuple:
    """The SNR-free part of ``band_block_bound`` on its blocks: (P, ln(H m/P)).

    A block is the bands [g_l, g_u), g_lo <= g_u <= g_hi.
    ``band_throughput_bound`` is P log2(1 + snr H m/P) in both its forms,
    snr = p_d gbar^2/sigma2, with P the band's probability, m its mean gain
    and H <= 1 the gain mass harvested outside the band
    (``_band_prob_mean``, ``_log_mass_ratio``). The form increases in P and
    in H m; P and m grow with g_u and H falls, so the P and m of
    [g_l, g_hi) and the H of [g_l, g_lo) bound the block. They are the same
    at every SNR, so a sweep builds them once per grid. Needs
    g_l < g_lo <= g_hi < inf.
    """
    gl = np.asarray(g_l, dtype=float)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        prob, mean = _band_prob_mean(gl, np.asarray(g_hi, dtype=float))
        return prob, _log_mass_ratio(gl, np.asarray(g_lo, dtype=float), prob, mean)


def band_block_bound(prob, log_ratio, params: SystemParams) -> np.ndarray:
    """Upper bound on ``band_throughput_bound`` over each block of ``band_block_geometry``.

    It lies at or above every pair bound of its block in floats, or
    ``solve_pip`` can drop an overflowing band that should have raised.
    Three things hold that: the _BLOCK_LOG_PAD on the logarithm, the pair
    bound's operation order (P log, then / ln 2) and the logarithm's
    argument snr H m/P taken no smaller than e^-_LOG_FLOOR. 0 where P
    underflows.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        log_term = np.logaddexp(0.0, np.maximum(_log_snr(params) + log_ratio, -_LOG_FLOOR))
        # in the pair bound's order: (P log) / ln 2 rounds alike where P is subnormal
        return np.where(prob > 0.0, prob * (log_term * (1.0 + _BLOCK_LOG_PAD)) / LN2, 0.0)


# band_throughput_refined_bound applies Jensen's inequality on this many
# equal pieces of the band ...
_REFINED_PIECES = 4
# ... pads the sum by this relative amount: where gammabar is tiny the two
# all but meet, and the closed form, whose two rate masses cancel as
# 1/width^2, rounds up to 1.6e-11 relative above the unpadded sum on grids
# of step 1e-3 and more (measured) ...
_REFINED_PAD = 1e-9
# ... and does not refine a band whose sum falls below this, where its terms
# may be subnormal floats (band_throughput is 0 at a gammabar this small)
_REFINED_FLOOR = 1e-280


def band_throughput_refined_bound(g_l, g_u, params: SystemParams):
    """Upper bound on ``band_throughput`` that is tighter than ``band_throughput_bound``.

    The band is cut into _REFINED_PIECES pieces of equal width, and each gets
    Jensen's bound P_k log2(1 + gammabar m_k), with P_k its probability and
    m_k its mean gain (``_band_prob_mean``) and the band's gammabar
    (``band_uplink``). log2(1 + gammabar g) is concave, so the sum bounds
    the closed form and lies at or below the one-piece bound; it is padded
    by a relative _REFINED_PAD. A band is not refined (its bound is inf)
    where it is not eligible, or where the sum falls below _REFINED_FLOOR
    (an empty piece of a band a few ulps wide makes it NaN). Needs g_u < inf.
    """
    gl = np.asarray(g_l, dtype=float)
    gu = np.asarray(g_u, dtype=float)
    gb, eligible = band_uplink(gl, gu, params)[1:]
    total, lo, width = 0.0, gl, gu - gl
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for k in range(1, _REFINED_PIECES + 1):
            # piece by piece: (pairs, pieces) arrays would lift sweep's peak RSS by 3 MB
            hi = gu if k == _REFINED_PIECES else gl + width * (k / _REFINED_PIECES)
            prob, mean = _band_prob_mean(lo, hi)
            total = total + prob * np.log1p(gb * mean)
            lo = hi
        out = np.where(eligible & (total > _REFINED_FLOOR),
                       total / LN2 * (1.0 + _REFINED_PAD), np.inf)
    return _scalar_or_array(out, out.ndim == 0)


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
    return integrate(lambda g: np.log1p(gammabar * g) / LN2 * exp_neg(g), g_l, g_u)


def evaluate_policy(policy: Policy, params: SystemParams) -> SchemeEvaluation:
    """Closed-form evaluation of any policy (quadrature averaging for HTT)."""
    if isinstance(policy, HTTPolicy):
        return htt_ergodic_throughput(params)
    pu, gammabar, _ = band_uplink(*policy.band, params)
    return SchemeEvaluation(
        throughput_bits=band_throughput(*policy.band, params),
        ul_power=pu,
        expected_ul_snr_gammabar=gammabar,
    )


# ---------------------------------------------------------------------------
# High-SNR asymptote (used for the convexity checks and solver sanity)
# ---------------------------------------------------------------------------

def band_asymptotic_throughput(g_l, g_u, params: SystemParams):
    """High-power limit log2(gammabar) P(g_l <= g < g_u) of ``band_throughput``.

    gammabar from ``band_uplink``. The gap to the exact
    throughput tends to the integral of log2(g) e^{-g} over the band.
    """
    gl = np.asarray(g_l, dtype=float)
    gu = np.asarray(g_u, dtype=float)
    gb = band_uplink(gl, gu, params)[1]
    if not np.all((gb > 0.0) & np.isfinite(gb)):
        raise ValueError("band_asymptotic_throughput requires a positive, finite uplink power")
    out = np.log2(gb) * np.exp(-gl) * -np.expm1(gl - gu)
    return _scalar_or_array(out, out.ndim == 0)
