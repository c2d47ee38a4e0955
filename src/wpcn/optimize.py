"""Threshold solvers and the SNR sweep comparing all schemes.

The two-interval objectives are only provably well behaved in the
infinite-power limit, so the scalar solvers hedge: a coarse scan plus
derivative-bisection refinement from several brackets, best candidate wins.
The three-interval scheme's optimum is one band [g_l, g_u) with 0 < g_l and
g_u < inf (the energy-balanced Lagrangian admits a gain where a concave rate
beats an affine cost), but its edges have no closed form, so it is solved by
a grid search over the pairs g_l < g_u. It prunes with bounds that need no
E1: a coarse sub-grid seeds the pruning threshold, a block bound
``schemes.band_block_bound`` drops the runs of g_u in a row g_l
that cannot win before any pair of them is bounded, the Jensen bound
``schemes.band_throughput_bound`` picks the pairs of the other blocks that
are refined, and ``schemes.band_throughput_refined_bound`` (Jensen on four
pieces of the band) those that are scored. It finds the same thresholds as
an exhaustive search, bounding about 3% of the pairs, refining about 1% and
scoring about 0.15% (the headline's 16 grids: 241k, 72k and 12k of 8.0M).

``sweep`` solves PIP and HTT once per axis, all SNR points together, and
``solve_pip``/``solve_htt`` are the same code on a one-point axis. The
block bound's geometry does not depend on the SNR, so the axis builds it
once (on the 8,320 blocks of the default grid and the seed's 7,875 coarse
pairs). The HTT quadratures run in lockstep: one ``schemes.htt_frame``
pass a round on the nodes of every point (10 over the headline's 16
points). IP and PI solve point by point. A per-axis solve raises the
first error any of its points hits; ``_solve_axis`` then solves each point
of that axis alone, so a point whose solve fails is flagged alone.

A threshold whose band is not eligible (the third entry of
``schemes.band_uplink``: its uplink SNR overflows a float) scores -inf. The
solve fails with ``schemes.UplinkOverflowError`` only if such a point might
have won: if its throughput bound reaches the best eligible value.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import schemes
from .numerics import (
    ConvergenceError,
    GridSearch,
    Interval,
    grid_argmax_2d,  # not called; test_wrapping_rebinds_every_copy_and_restores_them rebinds it
    grid_argmax_axis,
    integrate,  # not called; test_wrapping_rebinds_every_copy_and_restores_them rebinds it
    maximize_scalar,
    step_count,
)
from .schemes import BandPolicy, HTTPolicy, Policy, SystemParams

# scheme tag -> the edges of its BandPolicy that the scheme searches; the
# others keep BandPolicy's defaults (g_l = 0, g_u = inf), and HTT has none
THRESHOLDS = {"htt": (), "ip": ("g_u",), "pi": ("g_l",), "pip": ("g_l", "g_u")}
SCHEME_TAGS = tuple(THRESHOLDS)


def thresholds(scheme: str, policy: Policy) -> tuple[float | None, float | None]:
    """(g_l, g_u) of a scheme's policy, None for an edge the scheme does not search."""
    searched = THRESHOLDS[scheme]
    return (policy.g_l if "g_l" in searched else None,
            policy.g_u if "g_u" in searched else None)


# Two-interval thresholds are searched down to this floor instead of 0 (or
# to half the gain cap if that is lower): the IP power expression is 0/0 at
# the origin and both objectives vanish there.
_THRESHOLD_FLOOR = 1e-6
_COARSE_POINTS = 201
# Bracket width at which the derivative bisection refining the IP/PI thresholds stops.
_THRESHOLD_TOL = 1e-7


@dataclass(frozen=True)
class SolveConfig:
    """Search-space settings shared by all solvers.

    gain_cap bounds the threshold search (the searchable gain range) and
    must be finite; grid_step is the spacing of the PIP grid, whose best
    pair is found exactly. Every solver scores the closed forms of
    ``schemes``.
    """

    gain_cap: float = 10.0
    grid_step: float = 0.01

    def __post_init__(self) -> None:
        if not 0.0 < self.gain_cap < math.inf:
            raise ValueError("gain_cap must be positive and finite")
        if not 0.0 < self.grid_step < self.gain_cap:
            raise ValueError("grid_step must lie in (0, gain_cap)")


@dataclass(frozen=True)
class SolveResult:
    scheme: str
    policy: Policy
    throughput_bits: float
    ul_power: float
    at_boundary: bool = False
    tau_mean: float | None = None


@dataclass(frozen=True)
class SweepPoint:
    snr_db: float
    scheme: str
    g_l: float | None
    g_u: float | None
    tau_mean: float | None
    ul_power: float
    throughput_bits: float
    error: str | None = None


@dataclass(frozen=True)
class ThroughputCurve:
    points: tuple[SweepPoint, ...]

    def by_scheme(self, scheme: str) -> list[SweepPoint]:
        return [p for p in self.points if p.scheme == scheme]


class _Eligible:
    """A throughput objective that scores a band ``schemes.band_uplink`` finds ineligible as -inf.

    ``band`` maps the objective's arguments to the band's (lo, hi), whose
    eligibility is an array, or an ``np.bool_`` on a 0-d band. The
    largest ``schemes.band_throughput_bound`` among the ineligible points
    scored is kept; ``check(best)`` raises the overflow error if it reaches
    ``best``, since such a point might have won. A float argument is scored
    once per instance (one solve): ``maximize_scalar`` scores its ends again
    after their slopes, and the brackets of ``_solve_threshold`` share ends.
    """

    def __init__(self, objective, band, params: SystemParams):
        self.objective, self.band, self.params = objective, band, params
        self.ineligible_bound = -math.inf
        self.scored: dict[float, float] = {}

    def __call__(self, *args):
        if len(args) == 1 and isinstance(args[0], float):
            x = args[0]
            if x not in self.scored:
                self.scored[x] = self._score(x)
            return self.scored[x]
        return self._score(*args)

    def _score(self, *args):
        try:
            return self.objective(*args)
        except schemes.UplinkOverflowError:
            pass
        lo, hi = np.broadcast_arrays(*self.band(*args))
        ok = schemes.band_uplink(lo, hi, self.params)[2]
        bad_bound = schemes.band_throughput_bound(lo[~ok], hi[~ok], self.params)
        self.ineligible_bound = max(self.ineligible_bound, float(np.max(bad_bound)))
        if lo.ndim == 0:
            return -math.inf
        out = np.full(lo.shape, -np.inf)
        if ok.any():
            out[ok] = self.objective(*(np.asarray(a)[ok] for a in args))
        return out

    def check(self, best: float) -> None:
        if not self.ineligible_bound < best:
            raise schemes.UplinkOverflowError(self.params)


def _solve_threshold(scheme: str, throughput, band, lo: float,
                     params: SystemParams, cfg: SolveConfig) -> SolveResult:
    """Best threshold x in [lo, gain_cap] of the scheme whose closed form is
    ``throughput(x, params)`` and transmit band ``band(x)``.

    Where the search would refuse (an ineligible band's bound reaches the
    best value), the eligible bands may all lie between two scan points:
    the eligible part of [lo, gain_cap] is searched again alone, its edge
    bisected, before the refusal is decided.
    """
    f = _Eligible(lambda x: throughput(x, params), band, params)
    cap = cfg.gain_cap
    best_x, best_v, step = _search_threshold(f, lo, cap)
    if not f.ineligible_bound < best_v:
        eligible = _eligible_part(band, lo, cap, params)
        if eligible is not None:
            x, v, _ = _search_threshold(f, *eligible)
            if v > best_v:
                best_x, best_v = x, v
    f.check(best_v)
    policy = BandPolicy(*band(best_x))
    return SolveResult(
        scheme=scheme, policy=policy, throughput_bits=best_v,
        ul_power=schemes.band_uplink(*policy.band, params)[0],
        at_boundary=bool(cap - best_x <= max(cfg.grid_step, step)),
    )


def _search_threshold(f, lo: float, hi: float) -> tuple[float, float, float]:
    """(x, f(x), scan step): the best of a coarse scan of [lo, hi] and of
    ``maximize_scalar`` on four brackets, one around the scan's best point."""
    xs = np.linspace(lo, hi, _COARSE_POINTS)
    coarse = f(xs)
    i0 = int(np.argmax(coarse))
    step = xs[1] - xs[0]

    best_x, best_v = float(xs[i0]), float(coarse[i0])
    brackets = [
        (max(lo, xs[i0] - 2.0 * step), min(hi, xs[i0] + 2.0 * step)),
        (lo, lo + 0.4 * (hi - lo)),
        (lo + 0.2 * (hi - lo), lo + 0.7 * (hi - lo)),
        (lo + 0.5 * (hi - lo), hi),
    ]
    for a, b in brackets:
        x, v = maximize_scalar(f, Interval(float(a), float(b)), _THRESHOLD_TOL)
        if v > best_v:
            best_x, best_v = float(x), float(v)
    return best_x, best_v, float(step)


def _eligible_part(band, lo: float, hi: float, params: SystemParams):
    """(a, b): the thresholds of [lo, hi] whose band is eligible, where one
    end of [lo, hi] is eligible and the other not, the edge between them
    bisected to adjacent floats. None where both ends are alike or the
    part is one point."""
    def eligible(x: float) -> bool:
        return bool(schemes.band_uplink(*band(x), params)[2])

    good, bad = (lo, hi) if eligible(lo) else (hi, lo)
    if not eligible(good) or eligible(bad):
        return None
    while (mid := good + 0.5 * (bad - good)) not in (good, bad):
        if eligible(mid):
            good = mid
        else:
            bad = mid
    part = (lo, good) if good < bad else (good, hi)
    return part if part[0] < part[1] else None


def solve_ip(params: SystemParams, cfg: SolveConfig | None = None) -> SolveResult:
    """Best transmit-below threshold g_u in (0, gain_cap]."""
    cfg = cfg or SolveConfig()
    return _solve_threshold("ip", schemes.ip_throughput, lambda x: (0.0, x),
                            min(_THRESHOLD_FLOOR, 0.5 * cfg.gain_cap), params, cfg)


def solve_pi(params: SystemParams, cfg: SolveConfig | None = None) -> SolveResult:
    """Best transmit-above threshold g_l in [0, gain_cap]."""
    cfg = cfg or SolveConfig()
    return _solve_threshold("pi", schemes.pi_throughput, lambda x: (x, math.inf),
                            0.0, params, cfg)


def solve_pip(params: SystemParams, cfg: SolveConfig | None = None) -> SolveResult:
    """Best grid pair 0 <= g_l < g_u <= gain_cap, pruned by throughput bounds.

    ``_solve_pip_axis`` at the one point ``params``. Spot-check it with
    ``schemes.quad_throughput_oracle(*result.policy.band, result.ul_power, params)``.
    """
    return _solve_pip_axis([params], cfg or SolveConfig())[0]


def _solve_pip_axis(axis: list, cfg: SolveConfig) -> list:
    """``solve_pip`` at each SystemParams of ``axis``, on one grid walked together.

    ``numerics.grid_argmax_axis`` builds the blocks of the grid's pair
    triangle once, and ``schemes.band_block_geometry`` on them and on the
    seed's coarse pairs once: the block bound's P, m and H do not depend on
    the SNR, so a point's block bounds cost one ``schemes.band_block_bound``
    on that geometry. Each point seeds its threshold from the coarse pairs
    of largest block bound and walks the rows g_l once, in chunks of 64 and
    blocks of 64 g_u: a block whose block bound falls below the threshold
    is dropped whole, the pairs of the other blocks get the Jensen bound
    ``schemes.band_throughput_bound``, those where it reaches the threshold
    get ``schemes.band_throughput_refined_bound``, and the closed form is
    scored only where that reaches it; the best score so far raises the
    threshold. At 10 dB under 5% of the pairs are bounded, about 1% refined
    and 0.13% scored, and the winner is the exhaustive search's. One entry
    per point: its SolveResult. The first error any point hits is raised
    for the whole axis.
    """
    objectives = [_Eligible(functools.partial(schemes.pip_throughput, params=params),
                            lambda gl, gu: (gl, gu), params) for params in axis]
    searches = [GridSearch(
        objective,
        bound=functools.partial(schemes.band_throughput_bound, params=params),
        block_bound=functools.partial(schemes.band_block_bound, params=params),
        refined=functools.partial(schemes.band_throughput_refined_bound, params=params),
    ) for params, objective in zip(axis, objectives)]
    found = grid_argmax_axis(searches, Interval(0.0, cfg.gain_cap), cfg.grid_step,
                             block_geometry=schemes.band_block_geometry)
    results = []
    for params, objective, ((g_l, g_u), value) in zip(axis, objectives, found):
        objective.check(value)
        policy = BandPolicy(g_l, g_u)
        results.append(SolveResult(
            scheme="pip", policy=policy, throughput_bits=value,
            ul_power=schemes.band_uplink(*policy.band, params)[0],
            at_boundary=bool(cfg.gain_cap - g_u <= cfg.grid_step),
        ))
    return results


def solve_htt(params: SystemParams, cfg: SolveConfig | None = None) -> SolveResult:
    """Per-frame optimal split policy and its fading-averaged throughput.

    ``_solve_htt_axis`` at the one point ``params``. HTT has no threshold
    to search; ``cfg`` is taken for the common solver signature and not read.
    """
    return _solve_htt_axis([params], cfg)[0]


def _solve_htt_axis(axis: list, cfg: SolveConfig | None) -> list:
    """``solve_htt`` at each SystemParams of ``axis``: the quadratures of
    ``schemes.htt_ergodic_throughputs`` in lockstep. One entry per point:
    its SolveResult. The first error any point hits is raised for the
    whole axis."""
    return [SolveResult(
        scheme="htt", policy=HTTPolicy(), throughput_bits=ev.throughput_bits,
        ul_power=ev.ul_power, tau_mean=ev.tau_mean,
    ) for ev in schemes.htt_ergodic_throughputs(axis)]


_SOLVERS = {
    "htt": solve_htt,
    "ip": solve_ip,
    "pi": solve_pi,
    "pip": solve_pip,
}
# The schemes whose sweep solves every point of the axis in one call: what
# does not depend on the SNR is built once. The others solve point by point
# through _SOLVERS.
_AXIS_SOLVERS = {"htt": _solve_htt_axis, "pip": _solve_pip_axis}
# The errors that fail one point of a sweep and not the others; any other
# error stops the sweep.
POINT_ERRORS = (ValueError, ArithmeticError, ConvergenceError)


def _solve_axis(tag: str, axis: list, cfg: SolveConfig) -> list:
    """One entry per SystemParams of ``axis``: its SolveResult, or the error
    (one of ``POINT_ERRORS``) that its solve raises alone.

    The one place a failing point is isolated. A per-axis solve
    (``_AXIS_SOLVERS``) raises the first error any of its points hits; then
    each point of the axis is solved alone through ``_SOLVERS``, which gives
    each its own answer or error, with the bits of the per-axis solve. A
    one-point axis goes to ``_SOLVERS`` at once: its per-axis solve is the
    same solve.
    """
    if tag in _AXIS_SOLVERS and len(axis) > 1:
        try:
            return _AXIS_SOLVERS[tag](axis, cfg)
        except POINT_ERRORS:
            pass  # some point failed: solve each alone, below
    results = []
    for params in axis:
        try:
            results.append(_SOLVERS[tag](params, cfg))
        except POINT_ERRORS as exc:
            results.append(exc)
    return results


def _sweep_point(snr_db: float, result: SolveResult) -> SweepPoint:
    g_l, g_u = thresholds(result.scheme, result.policy)
    return SweepPoint(
        snr_db=snr_db, scheme=result.scheme, g_l=g_l, g_u=g_u,
        tau_mean=result.tau_mean, ul_power=result.ul_power,
        throughput_bits=result.throughput_bits,
    )


def sweep(start_db: float, stop_db: float, step_db: float,
          schemes_to_run=SCHEME_TAGS, gbar: float = 1.0, sigma2: float = 1.0,
          cfg: SolveConfig | None = None) -> ThroughputCurve:
    """Optimize each scheme across a downlink-SNR range.

    Each point sets p_d so that p_d gbar^2/sigma2 equals the point's SNR,
    at the given average gain ``gbar`` and noise variance ``sigma2``. Every
    point's params are built before the first solve, so a bad ``gbar``,
    ``sigma2`` or point SNR raises before any solver runs. Each scheme is
    solved over the whole axis (``_solve_axis``). A failing solve flags its
    point and the sweep continues; output is ordered by (snr_db, scheme).
    """
    if not step_db > 0.0:
        raise ValueError(f"step_db must be positive, got {step_db}")
    for name, bound in (("start_db", start_db), ("stop_db", stop_db)):
        if not math.isfinite(bound):
            raise ValueError(f"{name} must be finite, got {bound}")
    if not stop_db >= start_db:
        raise ValueError("stop_db must be >= start_db")
    cfg = cfg or SolveConfig()
    tags = sorted(set(schemes_to_run))
    unknown = [t for t in tags if t not in SCHEME_TAGS]
    if unknown:
        raise ValueError(f"unknown scheme tags: {unknown}")

    n_points = step_count(start_db, stop_db, step_db, "step_db")
    snrs = [start_db + k * step_db for k in range(n_points)]
    axis = [SystemParams.from_snr_db(snr_db, gbar=gbar, sigma2=sigma2) for snr_db in snrs]
    solved = {tag: _solve_axis(tag, axis, cfg) for tag in tags}
    points: list[SweepPoint] = []
    for k, snr_db in enumerate(snrs):
        for tag in tags:
            result = solved[tag][k]
            points.append(_sweep_point(snr_db, result) if isinstance(result, SolveResult)
                          else SweepPoint(snr_db=snr_db, scheme=tag, g_l=None, g_u=None,
                                          tau_mean=None, ul_power=math.nan,
                                          throughput_bits=math.nan, error=str(result)))
    return ThroughputCurve(points=tuple(points))
