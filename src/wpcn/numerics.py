"""Special functions and small maximization primitives.

Contains the two special functions the closed-form throughput expressions
are built from (the exponential integral E1 and the principal Lambert-W
branch), one adaptive quadrature routine (``integrate``, on
``scipy.integrate.quad_vec``: float or vector integrands, so one pass can
integrate several quantities on shared nodes) that is the ground-truth
oracle for every closed form, and the maximizers for the threshold searches.

E1 and W0 come from ``scipy.special`` (``exp1`` and ``lambertw``). Two
pieces stay local: the asymptotic tail of the scaled form e^x E1(x) above
x = 600, where e^x overflows, and its float path, a power series and a
continued fraction whose exact rounding the threshold solvers depend on.
W0 is clamped to -1 at the branch point, where ``lambertw`` returns NaN.

The special functions accept floats or numpy arrays and preserve shape.
Everything is pure; there is no shared state.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.integrate import quad_vec
from scipy.special import exp1, lambertw

EULER_GAMMA = 0.5772156649015328606065121
#: Marker for an open upper integration bound, e.g. ``integrate(f, a, OPEN_END)``.
OPEN_END = math.inf

# Every integrand in this package decays at least like e^{-g}; truncating an
# open upper bound 40 units past the lower bound leaves a remainder below
# e^{-40} < 1e-17, under the double-precision noise floor of the results.
_TAIL_LENGTH = 40.0
_INTEGRATE_GATE = 1e-10  # largest error estimate integrate accepts
_TINY = 1e-300

_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0
_INV_PHI2 = (3.0 - math.sqrt(5.0)) / 2.0


class ConvergenceError(RuntimeError):
    """An iterative routine failed to reach its requested tolerance."""


@dataclass(frozen=True)
class ToleranceSpec:
    """Stopping rule for iterative maximizers."""

    abs_tol: float = 1e-9
    max_iter: int = 200

    def __post_init__(self) -> None:
        if not self.abs_tol > 0.0:
            raise ValueError(f"abs_tol must be > 0, got {self.abs_tol}")
        if self.max_iter < 1:
            raise ValueError(f"max_iter must be >= 1, got {self.max_iter}")


@dataclass(frozen=True)
class Interval:
    """Half-open interval [lo, hi); ``hi`` may be ``OPEN_END`` (math.inf)."""

    lo: float
    hi: float

    def __post_init__(self) -> None:
        if not math.isfinite(self.lo):
            raise ValueError(f"interval lower bound must be finite, got {self.lo}")
        if math.isnan(self.hi):
            raise ValueError("interval upper bound is NaN")
        if self.lo > self.hi:
            raise ValueError(f"interval requires lo <= hi, got [{self.lo}, {self.hi})")

    @property
    def unbounded(self) -> bool:
        return math.isinf(self.hi)


def _as_array(x, name: str):
    arr = np.asarray(x, dtype=float)
    if np.isnan(arr).any():
        raise ValueError(f"{name} contains NaN")
    return arr, arr.ndim == 0


def _scalar_or_array(out: np.ndarray, scalar: bool):
    return float(out) if scalar else out


# ---------------------------------------------------------------------------
# Exponential integral E1
# ---------------------------------------------------------------------------

# Above this argument the array path of exp_scaled_e1 switches from
# e^x * exp1(x) (e^x overflows past ~709) to the asymptotic series
# (1/x) sum_{k<12} (-1)^k k!/x^k, whose truncation error 12!/x^12 is below
# 1e-25 relative there.
_E1_TAIL_FROM = 600.0
_E1_TAIL_TERMS = 12


def _e1_series_scalar(x: float) -> float:
    # E1(x) = -gamma - ln x + sum_{k>=1} (-1)^{k+1} x^k / (k k!),  for x <= 1
    total = 0.0
    term = x  # (-1)^{k+1} x^k / k!
    k = 1
    while k <= 60:
        total += term / k
        term *= -x / (k + 1)
        if abs(term) <= 1e-18 * max(abs(total), 1.0):
            break
        k += 1
    return -EULER_GAMMA - math.log(x) + total


def _e1_cf_scaled_scalar(x: float, tol: float = 5e-16, max_iter: int = 500) -> float:
    # Modified Lentz evaluation of the continued fraction for e^x E1(x):
    #   e^x E1(x) = 1/(x+1 - 1/(x+3 - 4/(x+5 - 9/(x+7 - ...))))
    # Converges for x > 1 (slowest near 1: roughly 90 iterations).
    b = x + 1.0
    c = 1.0 / _TINY
    d = 1.0 / b
    h = d
    for i in range(1, max_iter + 1):
        a = -float(i * i)
        b += 2.0
        d = a * d + b
        if d == 0.0:
            d = _TINY
        c = b + a / c
        if c == 0.0:
            c = _TINY
        d = 1.0 / d
        delta = c * d
        h *= delta
        if abs(delta - 1.0) < tol:
            return h
    raise ConvergenceError(f"E1 continued fraction did not converge at x={x!r}")


def _e1_tail_scaled(x: np.ndarray) -> np.ndarray:
    # Horner form of (1/x) sum_{k<_E1_TAIL_TERMS} (-1)^k k!/x^k
    inv = 1.0 / x
    total = np.ones_like(x)
    for k in range(_E1_TAIL_TERMS - 1, 0, -1):
        total = 1.0 - k * inv * total
    return total * inv


def exp_integral_e1(x):
    """Exponential integral E1(x) = integral_x^inf e^{-t}/t dt, for x > 0.

    Evaluated by ``scipy.special.exp1``, to a few ulps; it underflows to 0
    beyond x ~ 740 (use ``exp_scaled_e1`` there).
    """
    arr, scalar = _as_array(x, "x")
    if np.any(arr <= 0.0):
        raise ValueError("exp_integral_e1 requires x > 0")
    return _scalar_or_array(exp1(arr), scalar)


def exp_scaled_e1(x):
    """Scaled exponential integral e^x E1(x), stable for arbitrarily large x.

    The throughput closed forms need products e^{y} E1(x) with y up to 1/SNR;
    evaluating the scaled form avoids overflow of the bare exponential.
    Arrays use e^x * ``scipy.special.exp1(x)`` up to x = 600 and the 12-term
    asymptotic series (1/x) sum_k (-1)^k k!/x^k above it (truncation error
    below 1e-25 relative). A float uses a power series up to 1 and a
    continued fraction above.
    """
    arr, scalar = _as_array(x, "x")
    if np.any(arr <= 0.0):
        raise ValueError("exp_scaled_e1 requires x > 0")
    if scalar:
        # The IP and PI solvers bisect on the sign of a 1e-7 finite difference
        # of their throughput, which reaches this path one float at a time.
        # An ulp-level change here moves their printed thresholds in the 8th
        # digit (exp1 in its place changes six cells of the 0-30 dB sweep
        # CSV), so the scalar path keeps its own series and continued fraction.
        xv = float(arr)
        if xv <= 1.0:
            return math.exp(xv) * _e1_series_scalar(xv)
        return _e1_cf_scaled_scalar(xv)
    head = np.minimum(arr, _E1_TAIL_FROM)
    out = np.exp(head) * exp1(head)
    tail = arr > _E1_TAIL_FROM
    if tail.any():
        out[tail] = _e1_tail_scaled(arr[tail])
    return out


def e1_asymptotic(x):
    """Shared small-x / large-x limit form of E1: e^{-x} ln(1 + 1/x).

    This is the upper bound of Abramowitz & Stegun 5.1.20,
    (1/2) e^{-x} ln(1 + 2/x) < E1(x) < e^{-x} ln(1 + 1/x), so it lies above
    E1 everywhere and is exact only in the limits.  The relative gap is about
    gamma/E1(x) as x -> 0 and about 1/(2x) as x -> infinity: the form is
    9.0% off at x = 1e-3 and 1.5% off at x = 30.
    """
    arr, scalar = _as_array(x, "x")
    if np.any(arr <= 0.0):
        raise ValueError("e1_asymptotic requires x > 0")
    return _scalar_or_array(np.exp(-arr) * np.log1p(1.0 / arr), scalar)


# ---------------------------------------------------------------------------
# Lambert W, principal branch
# ---------------------------------------------------------------------------

_NEG_INV_E = -math.exp(-1.0)


def lambert_w0(x):
    """Principal branch of the Lambert W function: w with w e^w = x, w >= -1.

    Defined for x >= -1/e (inputs up to 1e-15 below it are accepted);
    evaluated by ``scipy.special.lambertw(x).real``. The float -exp(-1.0)
    lies 1.2e-17 below the true -1/e and ``lambertw`` returns NaN there, so
    every input at or below it returns exactly -1.
    """
    arr, scalar = _as_array(x, "x")
    if np.any(arr < _NEG_INV_E - 1e-15):
        raise ValueError(f"lambert_w0 requires x >= -1/e ~ {_NEG_INV_E:.17g}")
    return _scalar_or_array(np.where(arr <= _NEG_INV_E, -1.0, lambertw(arr).real), scalar)


# ---------------------------------------------------------------------------
# Adaptive quadrature
# ---------------------------------------------------------------------------

def integrate(f: Callable[[float], float | np.ndarray], a: float, b: float) -> float | np.ndarray:
    """Adaptive quadrature of f over [a, b]; b may be OPEN_END (infinity).

    f returns a float or a 1-D array (integrated on shared subintervals) and
    the result has the same form. Open upper bounds are truncated at a + 40
    (see _TAIL_LENGTH). Raises ConvergenceError when the error estimate, the
    2-norm over the components, exceeds _INTEGRATE_GATE.
    """
    if math.isnan(a) or math.isnan(b):
        raise ValueError("integration bounds must not be NaN")
    hi = a + _TAIL_LENGTH if math.isinf(b) else b
    if hi < a:
        raise ValueError(f"integration bounds out of order: [{a}, {b}]")
    value, err_estimate = quad_vec(f, a, hi, epsabs=1e-12, epsrel=1e-12, limit=400)
    if err_estimate > _INTEGRATE_GATE:
        raise ConvergenceError(
            f"quadrature on [{a}, {hi}] did not converge: error estimate "
            f"{err_estimate:.3g} exceeds {_INTEGRATE_GATE:.3g}"
        )
    return value if np.ndim(value) else float(value)


# ---------------------------------------------------------------------------
# Scalar and grid maximization
# ---------------------------------------------------------------------------

def _golden_max(f, lo: float, hi: float, tol: ToleranceSpec):
    a, b = lo, hi
    h = b - a
    c = a + _INV_PHI2 * h
    d = a + _INV_PHI * h
    fc, fd = f(c), f(d)
    for _ in range(tol.max_iter):
        if h <= tol.abs_tol:
            break
        if fc > fd:
            b, d, fd = d, c, fc
            h = b - a
            c = a + _INV_PHI2 * h
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            h = b - a
            d = a + _INV_PHI * h
            fd = f(d)
    else:
        warnings.warn("golden-section search exhausted max_iter; returning best so far")
    x = c if fc > fd else d
    return x, f(x)


def maximize_scalar(f: Callable[[float], float], domain: Interval,
                    tol: ToleranceSpec | None = None) -> tuple[float, float]:
    """Maximize a unimodal scalar function on a closed interval.

    Bisects on the sign of a central finite difference of f (step
    1e-7 * max(1, |x|)); if the endpoint derivative signs do not bracket an
    interior maximum the search falls back to golden section. Endpoints are
    always considered as candidates. Returns (argmax, f(argmax)).
    """
    if tol is None:
        tol = ToleranceSpec()
    lo, hi = domain.lo, domain.hi
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ValueError("maximize_scalar requires a bounded domain")
    if hi <= lo:
        return lo, f(lo)

    def dsign(x: float) -> float:
        h = 1e-7 * max(1.0, abs(x))
        x1 = max(lo, x - h)
        x2 = min(hi, x + h)
        return f(x2) - f(x1)

    d_lo = dsign(lo)
    d_hi = dsign(hi)
    if d_lo > 0.0 and d_hi < 0.0:
        a, b = lo, hi
        iterations = 0
        while b - a > tol.abs_tol and iterations < tol.max_iter:
            m = 0.5 * (a + b)
            if dsign(m) > 0.0:
                a = m
            else:
                b = m
            iterations += 1
        if b - a > tol.abs_tol:
            warnings.warn("derivative bisection exhausted max_iter; returning best so far")
        x = 0.5 * (a + b)
        fx = f(x)
    else:
        x, fx = _golden_max(f, lo, hi, tol)

    best_x, best_f = x, fx
    for cand in (lo, hi):
        fc = f(cand)
        if fc > best_f:
            best_x, best_f = cand, fc
    return best_x, best_f


def _grid_axis(lo: float, hi: float, step: float) -> np.ndarray:
    n = int(math.floor((hi - lo) / step + 1e-9)) + 1
    # accumulation can overshoot hi by an ulp; keep points inside the domain
    return np.minimum(lo + step * np.arange(n), hi)


def grid_argmax_2d(f, domain: Interval, step: float) -> tuple[tuple[float, float], float]:
    """Exhaustive maximization of f(x, y) over the grid pairs x < y of one axis.

    The axis runs from ``domain.lo`` to ``domain.hi`` in steps of ``step``;
    f is called once, on two arrays holding every pair, and must return an
    array of their shape. Ties break toward the lexicographically smallest
    (x, y) so results are reproducible.
    """
    if not step > 0.0:
        raise ValueError(f"step must be positive, got {step}")
    if domain.unbounded:
        raise ValueError("grid search requires a bounded interval")
    xs = _grid_axis(domain.lo, domain.hi, step)
    if xs.size < 2:
        raise ValueError("grid axis has fewer than 2 points; no pair x < y")
    # The axis increases strictly, so the pairs x < y are the index pairs
    # i < j, which triu_indices yields in lexicographic order: argmax then
    # resolves ties toward the smallest point.
    rows, cols = np.triu_indices(xs.size, k=1)
    gx, gy = xs[rows], xs[cols]
    del rows, cols  # free the int64 index arrays before f allocates its own
    vals = f(gx, gy)
    i = int(np.argmax(vals))
    return (float(gx[i]), float(gy[i])), float(vals[i])
