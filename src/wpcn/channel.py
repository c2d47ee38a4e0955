"""Normalized Rayleigh-fading channel model.

Under Rayleigh fading the channel power gain divided by its mean is a
unit-mean exponential random variable; this module provides its density,
interval probabilities and truncated first moments in closed form, plus a
reproducible inverse-CDF sampler.

The sampler is built on splitmix64, a counter-based 64-bit generator chosen
so the exact draw sequence can be reproduced from the documented algorithm
in any language:

    state_i = (seed + i * 0x9E3779B97F4A7C15) mod 2^64      (i = 1, 2, ...)
    z = state_i
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) mod 2^64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) mod 2^64
    z = z ^ (z >> 31)
    u_i = (z >> 11) * 2^-53          # uniform in [0, 1)
    g_i = -log(1 - u_i)              # unit-mean exponential
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

_SM64_INCREMENT = 0x9E3779B97F4A7C15
_SM64_MIX1 = 0xBF58476D1CE4E5B9
_SM64_MIX2 = 0x94D049BB133111EB


@dataclass(frozen=True)
class GainSampleBatch:
    """A reproducible batch of normalized gain draws."""

    values: np.ndarray
    seed: int
    count: int

    def __post_init__(self) -> None:
        if self.count < 1:
            raise ValueError("count must be >= 1")
        if len(self.values) != self.count:
            raise ValueError("values length does not match count")
        if np.any(self.values < 0.0):
            raise ValueError("gain draws must be non-negative")


def pdf(g):
    """Density e^{-g} of the normalized gain (g >= 0)."""
    arr = np.asarray(g, dtype=float)
    if np.any(arr < 0.0) or np.isnan(arr).any():
        raise ValueError("pdf requires g >= 0")
    out = np.exp(-arr)
    return float(out) if arr.ndim == 0 else out


def interval_prob(a: float, b: float) -> float:
    """P(a <= g < b) = e^{-a} - e^{-b}; b may be infinite."""
    _check_bounds(a, b)
    # e^{-a} - e^{-b} written via expm1 so narrow intervals keep full precision
    return -math.exp(-a) * math.expm1(-(b - a)) if not math.isinf(b) else math.exp(-a)


def interval_gain_mean(a: float, b: float) -> float:
    """Truncated first moment: integral of g e^{-g} over [a, b); a and b may be infinite."""
    _check_bounds(a, b)

    def tail(x: float) -> float:  # integral of g e^{-g} over [x, inf)
        return 0.0 if math.isinf(x) else (x + 1.0) * math.exp(-x)

    return tail(a) - tail(b)


def _check_bounds(a: float, b: float) -> None:
    if math.isnan(a) or math.isnan(b):
        raise ValueError("interval bounds must not be NaN")
    if a < 0.0:
        raise ValueError(f"interval lower bound must be >= 0, got {a}")
    if a > b:
        raise ValueError(f"interval bounds out of order: [{a}, {b})")


def splitmix64(seed: int, count: int) -> np.ndarray:
    """The raw 64-bit outputs of the counter-based generator (see module doc)."""
    idx = np.arange(1, count + 1, dtype=np.uint64)
    state = np.uint64(seed % 2**64) + idx * np.uint64(_SM64_INCREMENT)
    z = state
    z = (z ^ (z >> np.uint64(30))) * np.uint64(_SM64_MIX1)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(_SM64_MIX2)
    return z ^ (z >> np.uint64(31))


def uniform01(seed: int, count: int) -> np.ndarray:
    """Deterministic uniforms in [0, 1) with 53-bit resolution."""
    return (splitmix64(seed, count) >> np.uint64(11)) * 2.0**-53


def sample(count: int, seed: int) -> GainSampleBatch:
    """Draw ``count`` normalized gains by inverse CDF: g = -ln(1 - u).

    Identical (count, seed) pairs reproduce identical sequences bit for bit.
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    u = uniform01(seed, count)
    values = -np.log1p(-u)
    return GainSampleBatch(values=values, seed=int(seed), count=int(count))
