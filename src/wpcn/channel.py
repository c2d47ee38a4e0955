"""Normalized Rayleigh-fading channel model.

Under Rayleigh fading the channel power gain divided by its mean is a
unit-mean exponential random variable; this module provides its interval
probabilities and truncated first moments in closed form, plus a
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
# frames per block: the sampler and the frame traces of ``sim`` work on at
# most this many at a time, 64 KiB per float64 column, which fits in L2
# cache; a streamed trace holds under 1 MiB
_FRAME_BLOCK = 1 << 13
# no draw exceeds this: the largest, at u = 1 - 2^-53, is 53 ln 2 = 36.7368...
G_MAX = 36.75


@dataclass(frozen=True)
class GainSampleBatch:
    """A reproducible batch of normalized gain draws."""

    values: np.ndarray

    def __post_init__(self) -> None:
        if self.count < 1:
            raise ValueError("count must be >= 1")
        if np.any(self.values < 0.0):
            raise ValueError("gain draws must be non-negative")

    @property
    def count(self) -> int:
        return len(self.values)


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


def _splitmix64_block(seed: int, start: int, stop: int) -> np.ndarray:
    """Generator outputs for counters start+1..stop: draws [start, stop) of the stream."""
    z = np.arange(start + 1, stop + 1, dtype=np.uint64)
    z *= np.uint64(_SM64_INCREMENT)
    z += np.uint64(seed % 2**64)
    z ^= z >> np.uint64(30)
    z *= np.uint64(_SM64_MIX1)
    z ^= z >> np.uint64(27)
    z *= np.uint64(_SM64_MIX2)
    z ^= z >> np.uint64(31)
    return z


def _uniform01_block(seed: int, start: int, stop: int) -> np.ndarray:
    z = _splitmix64_block(seed, start, stop)
    z >>= np.uint64(11)
    return z * 2.0**-53


def splitmix64(seed: int, count: int) -> np.ndarray:
    """The raw 64-bit outputs of the counter-based generator (see module doc)."""
    return _splitmix64_block(seed, 0, count)


def uniform01(seed: int, count: int) -> np.ndarray:
    """Deterministic uniforms in [0, 1) with 53-bit resolution."""
    return _uniform01_block(seed, 0, count)


def sample(count: int, seed: int, start: int = 0) -> GainSampleBatch:
    """Draw ``count`` normalized gains by inverse CDF: g = -ln(1 - u).

    The draws are [start, start + count) of the seed's stream: identical
    (count, seed, start) reproduce identical sequences bit for bit, and
    ``sample(k, seed, start)`` is ``sample(start + k, seed).values[start:]``.
    The generator is counter-based, so the draws are made ``_FRAME_BLOCK``
    at a time into one output array: no full-length temporary.
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    if start < 0:
        raise ValueError("start must be >= 0")
    values = np.empty(count)
    for lo in range(0, count, _FRAME_BLOCK):
        block = values[lo:lo + _FRAME_BLOCK]
        u = _uniform01_block(seed, start + lo, start + lo + len(block))
        np.negative(u, out=u)
        np.log1p(u, out=block)
        np.negative(block, out=block)
    return GainSampleBatch(values=values)
