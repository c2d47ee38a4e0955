"""Threshold solvers and the SNR sweep comparing all schemes.

The two-interval objectives are only provably well behaved in the
infinite-power limit, so the scalar solvers hedge: a coarse scan plus
derivative-bisection refinement from several brackets, best candidate wins.
The three-interval scheme has no usable structure at all and is solved by
exhaustive search over the grid pairs g_l < g_u, vectorized over all of them.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import schemes
from .numerics import (
    ConvergenceError,
    Interval,
    ToleranceSpec,
    grid_argmax_2d,
    integrate,  # not called; test_wrapping_rebinds_every_copy_and_restores_them rebinds it
    maximize_scalar,
)
from .schemes import (
    HTTPolicy,
    IPPolicy,
    PIPolicy,
    PIPPolicy,
    Policy,
    SystemParams,
)

SCHEME_TAGS = ("htt", "ip", "pi", "pip")

# Two-interval thresholds are searched down to this floor instead of 0: the
# IP power expression is 0/0 at the origin and both objectives vanish there.
_THRESHOLD_FLOOR = 1e-6
_COARSE_POINTS = 201
# Stopping rule of the derivative bisection that refines the IP/PI thresholds.
_THRESHOLD_TOL = ToleranceSpec(abs_tol=1e-7)


@dataclass(frozen=True)
class SolveConfig:
    """Search-space settings shared by all solvers.

    gain_cap bounds the threshold search (the searchable gain range) and
    must be finite; grid_step is the exhaustive-search resolution for the
    PIP scheme. Every solver scores the closed forms of ``schemes``.
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


def _solve_threshold(f, cfg: SolveConfig, lo: float) -> tuple[float, float, bool]:
    cap = cfg.gain_cap
    xs = np.linspace(lo, cap, _COARSE_POINTS)
    coarse = f(xs)
    i0 = int(np.argmax(coarse))
    step = xs[1] - xs[0]

    best_x, best_v = float(xs[i0]), float(coarse[i0])
    brackets = [
        (max(lo, xs[i0] - 2.0 * step), min(cap, xs[i0] + 2.0 * step)),
        (lo, lo + 0.4 * (cap - lo)),
        (lo + 0.2 * (cap - lo), lo + 0.7 * (cap - lo)),
        (lo + 0.5 * (cap - lo), cap),
    ]
    for a, b in brackets:
        x, v = maximize_scalar(f, Interval(float(a), float(b)), _THRESHOLD_TOL)
        if v > best_v:
            best_x, best_v = float(x), float(v)
    at_boundary = bool(cap - best_x <= max(cfg.grid_step, float(step)))
    return best_x, best_v, at_boundary


def solve_ip(params: SystemParams, cfg: SolveConfig | None = None) -> SolveResult:
    """Best transmit-below threshold g_u in (0, gain_cap]."""
    cfg = cfg or SolveConfig()
    g_u, value, boundary = _solve_threshold(
        lambda x: schemes.ip_throughput(x, params), cfg, _THRESHOLD_FLOOR
    )
    policy = IPPolicy(g_u=g_u)
    return SolveResult(
        scheme="ip", policy=policy, throughput_bits=value,
        ul_power=schemes.band_ul_power(*policy.band, params), at_boundary=boundary,
    )


def solve_pi(params: SystemParams, cfg: SolveConfig | None = None) -> SolveResult:
    """Best transmit-above threshold g_l in [0, gain_cap]."""
    cfg = cfg or SolveConfig()
    g_l, value, boundary = _solve_threshold(
        lambda x: schemes.pi_throughput(x, params), cfg, 0.0
    )
    policy = PIPolicy(g_l=g_l)
    return SolveResult(
        scheme="pi", policy=policy, throughput_bits=value,
        ul_power=schemes.band_ul_power(*policy.band, params), at_boundary=boundary,
    )


def solve_pip(params: SystemParams, cfg: SolveConfig | None = None) -> SolveResult:
    """Exhaustive grid search over 0 <= g_l < g_u <= gain_cap.

    The search always scores the closed form (the only affordable objective
    on ~1e6 grid points); spot-check the winner with
    ``schemes.quad_throughput_oracle(*result.policy.band, result.ul_power, params)``.
    """
    cfg = cfg or SolveConfig()
    (g_l, g_u), value = grid_argmax_2d(
        lambda gl, gu: schemes.pip_throughput(gl, gu, params),
        Interval(0.0, cfg.gain_cap), cfg.grid_step,
    )
    policy = PIPPolicy(g_l=g_l, g_u=g_u)
    return SolveResult(
        scheme="pip", policy=policy, throughput_bits=value,
        ul_power=schemes.band_ul_power(*policy.band, params),
        at_boundary=bool(cfg.gain_cap - g_u <= cfg.grid_step),
    )


def solve_htt(params: SystemParams, cfg: SolveConfig | None = None) -> SolveResult:
    """Per-frame optimal split policy and its fading-averaged throughput.

    HTT has no threshold to search; ``cfg`` is taken for the common solver
    signature and not read.
    """
    ev = schemes.htt_ergodic_throughput(params)
    return SolveResult(
        scheme="htt", policy=HTTPolicy(), throughput_bits=ev.throughput_bits,
        ul_power=ev.ul_power, tau_mean=ev.tau_mean,
    )


_SOLVERS = {
    "htt": solve_htt,
    "ip": solve_ip,
    "pi": solve_pi,
    "pip": solve_pip,
}


def _sweep_point(snr_db: float, result: SolveResult) -> SweepPoint:
    policy = result.policy
    g_l = getattr(policy, "g_l", None)
    g_u = getattr(policy, "g_u", None)
    return SweepPoint(
        snr_db=snr_db, scheme=result.scheme, g_l=g_l, g_u=g_u,
        tau_mean=result.tau_mean, ul_power=result.ul_power,
        throughput_bits=result.throughput_bits,
    )


def sweep(start_db: float, stop_db: float, step_db: float,
          schemes_to_run=SCHEME_TAGS,
          params_template: SystemParams | None = None,
          cfg: SolveConfig | None = None) -> ThroughputCurve:
    """Optimize each scheme across a downlink-SNR range.

    Each point fixes p_d gbar^2/sigma^2 to the point's SNR (gbar and sigma2
    taken from ``params_template``). A failing solve flags its point and the
    sweep continues; output is ordered by (snr_db, scheme).
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
    gbar = params_template.gbar if params_template else 1.0
    sigma2 = params_template.sigma2 if params_template else 1.0

    n_points = int(math.floor((stop_db - start_db) / step_db + 1e-9)) + 1
    points: list[SweepPoint] = []
    for k in range(n_points):
        snr_db = start_db + k * step_db
        params = SystemParams.from_snr_db(snr_db, gbar=gbar, sigma2=sigma2)
        for tag in tags:
            try:
                points.append(_sweep_point(snr_db, _SOLVERS[tag](params, cfg)))
            except (ValueError, ArithmeticError, ConvergenceError) as exc:
                points.append(SweepPoint(
                    snr_db=snr_db, scheme=tag, g_l=None, g_u=None, tau_mean=None,
                    ul_power=math.nan, throughput_bits=math.nan, error=str(exc),
                ))
    return ThroughputCurve(points=tuple(points))
