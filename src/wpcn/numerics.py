"""Special functions and small maximization primitives.

Contains the two special functions the closed-form throughput expressions
are built from (the exponential integral E1 and the principal Lambert-W
branch), one adaptive quadrature routine (``integrate``, scipy's
``quad_vec`` ported step for step: its integrand takes the 21 nodes of
each interval a round splits as one array, and returns one or several
quantities on them) that is the ground-truth oracle for every closed form,
and the maximizers for the threshold searches: derivative bisection on an
interval and a search over the pairs x < y of a grid, seeded from a coarse
sub-grid and walked once by rows, that drops a block of a row by its block
bound and scores a pair only where its bound, and then a tighter refined
bound, can still win. The quadrature and the grid search each have a
lockstep form for a sweep's points (``integrate_lockstep``,
``grid_argmax_axis``): the work the points share is done once and each
point keeps the bits it gets alone. A lockstep raises the first error any
of its points hits, as its one-point form does; ``optimize._solve_axis``
alone isolates a failing point.

E1 and W0 are scipy's ufuncs ``exp1`` and ``_lambertw`` (the one behind
``scipy.special.lambertw``), bound from their extension module. Two
pieces of E1 stay local: the asymptotic tail of the scaled form e^x E1(x)
above x = 600, where e^x overflows, and its float path, a power series and
a continued fraction whose exact rounding the threshold solvers depend on.
W0 is clamped to -1 at the branch point, where ``lambertw`` returns NaN.
Importing the package loads numpy and no scipy module. The first call that
needs the ufuncs (the array paths of E1, W0) loads their extension module
alone; neither the ``scipy.special`` package nor ``scipy.integrate`` is
ever imported.

The special functions accept floats or numpy arrays and preserve shape.
``exp_scaled_e1`` gives a float or a 0-d input one scalar entry, with no
array round trip, since the scalar solvers call it one float at a time.
Everything is pure; the only module state is the binding of the two
scipy ufuncs.
"""
from __future__ import annotations

import heapq
import itertools
import math
import sys
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

EULER_GAMMA = 0.5772156649015328606065121
#: Marker for an open upper integration bound, e.g. ``integrate(f, a, OPEN_END)``.
OPEN_END = math.inf

# Every integrand in this package decays at least like e^{-g}; truncating an
# open upper bound 40 units past the lower bound leaves a remainder below
# e^{-40} < 1e-17, under the double-precision noise floor of the results.
_TAIL_LENGTH = 40.0
_INTEGRATE_GATE = 1e-10  # largest error estimate integrate accepts
_TINY = 1e-300


class ConvergenceError(RuntimeError):
    """An iterative routine failed to reach its requested tolerance."""


@dataclass(frozen=True)
class Interval:
    """Bounded interval [lo, hi]: both ends finite, lo <= hi."""

    lo: float
    hi: float

    def __post_init__(self) -> None:
        for name, end in (("lower", self.lo), ("upper", self.hi)):
            if not math.isfinite(end):
                raise ValueError(f"interval {name} bound must be finite, got {end}")
        if self.lo > self.hi:
            raise ValueError(f"interval requires lo <= hi, got [{self.lo}, {self.hi}]")


def _as_array(x, name: str):
    arr = np.asarray(x, dtype=float)
    if np.isnan(arr).any():
        raise ValueError(f"{name} contains NaN")
    return arr, arr.ndim == 0


def _scalar_or_array(out: np.ndarray, scalar: bool):
    return float(out) if scalar else out


# ---------------------------------------------------------------------------
# scipy's E1 and W0 ufuncs, bound on first use
# ---------------------------------------------------------------------------

# The extension module that holds both ufuncs (scipy 1.17.1 has it; older
# layouts may not): the scipy.special package imports it, but it loads alone
_SPECIAL_UFUNCS = "scipy.special._special_ufuncs"
# scipy.special.lambertw's defaults: the principal branch, and its tolerance
_W0_BRANCH, _W0_TOL = 0, 1e-8


def _exp1(x):
    # stands in for scipy's exp1 until its first call binds it
    _load_special()
    return _exp1(x)


def _lambertw(x, k, tol):
    # stands in for scipy's Lambert W until its first call binds it
    _load_special()
    return _lambertw(x, k, tol)


def _load_special() -> None:
    """Bind ``_exp1`` and ``_lambertw`` to scipy's ufuncs, loading them if need be.

    Both live in the extension module ``scipy.special._special_ufuncs``,
    which is loaded on its own: running ``scipy/special/__init__.py`` would
    cost 24 MB of RSS and 0.3 s of imports (its array-API support pulls in
    300 modules), the extension about 1 MB and 1-2 ms. ``_lambertw(x, k,
    tol)`` is the ufunc that ``scipy.special.lambertw`` calls, so W0 has
    its bits. If scipy.special is already imported, its module is reused.
    A fresh load leaves no ``sys.modules`` entry, so a later ``import
    scipy.special`` loads the module as usual and gets the same ufunc
    objects. Where scipy has no such module, or it lacks either ufunc
    (older layouts), both come from ``scipy.special``. Once bound, a call
    pays no import machinery.
    """
    global _exp1, _lambertw
    ufuncs = sys.modules.get(_SPECIAL_UFUNCS)
    if ufuncs is None:
        import importlib.machinery
        import importlib.util
        import os

        scipy = importlib.util.find_spec("scipy")  # locates scipy without importing it
        spec = None if scipy is None else importlib.machinery.PathFinder.find_spec(
            _SPECIAL_UFUNCS,
            [os.path.join(path, "special") for path in scipy.submodule_search_locations])
        if spec is not None:
            ufuncs = importlib.util.module_from_spec(spec)
            spec.loader.exec_module(ufuncs)
            sys.modules.pop(_SPECIAL_UFUNCS, None)
    if hasattr(ufuncs, "exp1") and hasattr(ufuncs, "_lambertw"):
        _exp1, _lambertw = ufuncs.exp1, ufuncs._lambertw
    else:
        from scipy.special import exp1, lambertw

        _exp1, _lambertw = exp1, lambertw


# ---------------------------------------------------------------------------
# Exponential integral E1
# ---------------------------------------------------------------------------

# Above this argument the array path of exp_scaled_e1 switches from
# e^x * exp1(x) (e^x overflows past ~709) to the asymptotic series
# (1/x) sum_{k<12} (-1)^k k!/x^k, whose truncation error 12!/x^12 is below
# 1e-25 relative there.
_E1_TAIL_FROM = 600.0
_E1_TAIL_TERMS = 12
# _e1_cf_scaled_scalar stops at |delta - 1| < _E1_CF_TOL, or raises after _E1_CF_MAX_ITER
_E1_CF_TOL = 5e-16
_E1_CF_MAX_ITER = 500
# the partial numerators -i^2, i = 1 .. _E1_CF_MAX_ITER, of that fraction
_E1_CF_NUMERATORS = tuple(-float(i * i) for i in range(1, _E1_CF_MAX_ITER + 1))


def _e1_series_scalar(x: float) -> float:
    # E1(x) = -gamma - ln x + sum_{k>=1} (-1)^{k+1} x^k / (k k!),  for 0 < x <= 1.
    # The partial sums lie in (0, x], so the stop |term| <= 1e-18 max(|total|, 1)
    # reads |term| <= 1e-18 there.
    total = 0.0
    term = x  # (-1)^{k+1} x^k / k!
    for k in range(1, 61):
        total += term / k
        term *= -x / (k + 1)
        if -1e-18 <= term <= 1e-18:
            break
    return -EULER_GAMMA - math.log(x) + total


def _e1_cf_scaled_scalar(x: float) -> float:
    # Modified Lentz evaluation of the continued fraction for e^x E1(x):
    #   e^x E1(x) = 1/(x+1 - 1/(x+3 - 4/(x+5 - 9/(x+7 - ...))))
    # Converges for x > 1 (slowest near 1: roughly 90 iterations).
    tol = _E1_CF_TOL
    b = x + 1.0
    c = 1.0 / _TINY
    d = 1.0 / b
    h = d
    for a in _E1_CF_NUMERATORS:
        b += 2.0
        d = a * d + b  # never 0 for x > 0: d >= x + i + 1 at step i
        c = b + a / c  # likewise c >= x + i + 1
        d = 1.0 / d
        delta = c * d
        h *= delta
        if -tol < delta - 1.0 < tol:
            return h
    raise ConvergenceError(f"E1 continued fraction did not converge at x={x!r}")


def _e1_tail_scaled(x: np.ndarray) -> np.ndarray:
    # Horner form of (1/x) sum_{k<_E1_TAIL_TERMS} (-1)^k k!/x^k
    inv = 1.0 / x
    total = np.ones_like(x)
    for k in range(_E1_TAIL_TERMS - 1, 0, -1):
        total = 1.0 - k * inv * total
    return total * inv


def _exp_scaled_e1_float(x: float) -> float:
    # The IP and PI solvers bisect on the sign of a 1e-7 finite difference
    # of their throughput, which reaches this path one float at a time.
    # An ulp-level change here moves their printed thresholds in the 8th
    # digit (exp1 in its place changes six cells of the 0-30 dB sweep
    # CSV), so the float path keeps its own series and continued fraction.
    if x <= 1.0:
        return math.exp(x) * _e1_series_scalar(x)
    return _e1_cf_scaled_scalar(x)


def exp_integral_e1(x):
    """Exponential integral E1(x) = integral_x^inf e^{-t}/t dt, for x > 0.

    Evaluated by ``scipy.special.exp1``, to a few ulps; it underflows to 0
    beyond x ~ 740 (use ``exp_scaled_e1`` there).
    """
    arr, scalar = _as_array(x, "x")
    if np.any(arr <= 0.0):
        raise ValueError("exp_integral_e1 requires x > 0")
    return _scalar_or_array(_exp1(arr), scalar)


def exp_scaled_e1(x):
    """Scaled exponential integral e^x E1(x), stable for arbitrarily large x.

    The throughput closed forms need products e^{y} E1(x) with y up to 1/SNR;
    evaluating the scaled form avoids overflow of the bare exponential.
    Arrays use e^x * ``scipy.special.exp1(x)`` up to x = 600 and the 12-term
    asymptotic series (1/x) sum_k (-1)^k k!/x^k above it (truncation error
    below 1e-25 relative). A float or any 0-d input takes one scalar entry,
    with no array round trip: a power series up to 1 and a continued
    fraction above.
    """
    if isinstance(x, float) or np.ndim(x) == 0:
        x = float(x)  # an np.float64 or a 0-d array becomes a Python float
        if math.isnan(x):
            raise ValueError("x contains NaN")
        if not x > 0.0:
            raise ValueError("exp_scaled_e1 requires x > 0")
        return _exp_scaled_e1_float(x)
    arr, _ = _as_array(x, "x")
    if np.any(arr <= 0.0):
        raise ValueError("exp_scaled_e1 requires x > 0")
    head = np.minimum(arr, _E1_TAIL_FROM)
    out = np.exp(head) * _exp1(head)
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
_W0_DOMAIN = f"lambert_w0 requires x >= -1/e ~ {_NEG_INV_E:.17g}"


def lambert_w0(x):
    """Principal branch of the Lambert W function: w with w e^w = x, w >= -1.

    Defined for x >= -1/e (inputs up to 1e-15 below it are accepted);
    evaluated by ``scipy.special.lambertw(x).real``. The float -exp(-1.0)
    lies 1.2e-17 below the true -1/e and ``lambertw`` returns NaN there, so
    every input at or below it returns exactly -1.
    """
    arr, scalar = _as_array(x, "x")
    if np.any(arr < _NEG_INV_E - 1e-15):
        raise ValueError(_W0_DOMAIN)
    w = _lambertw(arr, _W0_BRANCH, _W0_TOL).real
    return _scalar_or_array(np.where(arr <= _NEG_INV_E, -1.0, w), scalar)


# ---------------------------------------------------------------------------
# Adaptive quadrature
# ---------------------------------------------------------------------------

# The Gauss-Kronrod 21-point rule on [-1, 1] of scipy's quad_vec, in the
# shortest reprs of its doubles: the Kronrod nodes from 1 down to 0 with
# their weights, and the Gauss weights of the odd-indexed nodes from the
# outermost in. The rule is symmetric and negation is exact: each half is
# mirrored.
_GK21_X = (0.9956571630258081, 0.9739065285171717, 0.9301574913557082, 0.8650633666889845,
           0.7808177265864169, 0.6794095682990244, 0.5627571346686047, 0.4333953941292472,
           0.2943928627014602, 0.14887433898163122, 0.0)
_GK21_V = (0.011694638867371874, 0.032558162307964725, 0.054755896574351995, 0.07503967481091996,
           0.0931254545836976, 0.10938715880229764, 0.12349197626206584, 0.13470921731147334,
           0.14277593857706009, 0.14773910490133849, 0.1494455540029169)
_GK21_W = (0.06667134430868814, 0.1494513491505806, 0.21908636251598204, 0.26926671930999635,
           0.29552422471475287)
_GK21_X = np.array(_GK21_X + tuple(-x for x in _GK21_X[-2::-1]))
_GK21_V = np.array(_GK21_V + _GK21_V[-2::-1])
_GK21_W = np.array(_GK21_W + _GK21_W[::-1])
_QUAD_TOL = 1e-12  # absolute and relative tolerance of integrate
_QUAD_LIMIT = 400  # subintervals integrate splits [a, b] into at most
_QUAD_BATCH = 128  # intervals split per round at most
# integrate_lockstep runs at most this many integrals at once, the rest after
# them: a round of each splits at most 2 * _QUAD_BATCH intervals of 21 nodes
_LOCKSTEP_INTEGRALS = 64


def exp_neg(g: np.ndarray) -> np.ndarray:
    """e^{-g} node by node with ``math.exp``: ``np.exp`` on an array differs
    from it in the last bit at some points, and the quadrature's bits follow."""
    return np.array([math.exp(-x) for x in g.tolist()])


def _weighted_sum(weights: np.ndarray, values: np.ndarray):
    # sum over k of weights[k] * values[k], added one term after another
    # from 0.0, as quad_vec's loops add (np.sum adds pairwise and moves bits)
    terms = (weights * values.T).T
    return np.cumsum(np.concatenate((np.zeros((1,) + terms.shape[1:]), terms)), axis=0)[-1]


def _gk21(f, intervals: list, norm) -> list:
    """quad_vec's Gauss-Kronrod 21 rule on each interval (owner, lo, hi) of
    ``intervals``: a list of (integral, error, rounding error), one per interval.

    f is called once, on the 21 nodes of every interval one after another,
    and the owner of each node's interval. Every sum adds node by node, in
    quad_vec's order, and ``norm`` is taken interval by interval, so each
    result has quad_vec's bits.
    """
    owner, lo, hi = (np.array(x) for x in zip(*intervals))
    c = 0.5 * (lo + hi)
    h = 0.5 * (hi - lo)
    fv = np.asarray(f((c[:, None] + h[:, None] * _GK21_X).ravel(),
                      np.repeat(owner, _GK21_X.size)), dtype=float)
    fv = fv.reshape((lo.size, _GK21_X.size) + fv.shape[1:]).swapaxes(0, 1)  # node axis first
    h = h.reshape(h.shape + (1,) * (fv.ndim - 2))
    out = []
    with np.errstate(over="ignore", invalid="ignore"):  # as on Python floats
        s_k = _weighted_sum(_GK21_V, fv)
        s_k_abs = _weighted_sum(_GK21_V, np.abs(fv))
        s_g = _weighted_sum(_GK21_W, fv[1::2])
        s_k_dabs = _weighted_sum(_GK21_V, np.abs(fv - s_k / 2.0))
        errs, dabss = (s_k - s_g) * h, s_k_dabs * h
        round_errs = 50 * sys.float_info.epsilon * h * s_k_abs
        integrals = h * s_k
        for k in range(lo.size):
            err, dabs = float(norm(errs[k])), float(norm(dabss[k]))
            round_err = float(norm(round_errs[k]))
            if dabs != 0 and err != 0:
                err = dabs * min(1.0, (200 * err / dabs) ** 1.5)
            if round_err > sys.float_info.min:
                err = max(err, round_err)
            out.append((integrals[k], err, round_err))
    return out


def _quad_vec_steps(owner: int, a: float, b: float, first: tuple, norm):
    """quad_vec's loop on the integral ``owner`` of ``_quad_vec_lockstep``,
    from the rule ``first`` on [a, b]: a generator.

    Each round it yields the halves (owner, lo, hi) of the intervals it
    splits and is sent their rules; it returns (integral, error estimate).
    The interval of largest error is split first, a batch of them a round,
    until the error is below an eighth of the tolerance or below the
    rounding error. A heap entry (-err, lo, hi, seq, integral) carries its
    interval's integral, the rule on those ends: what quad_vec's interval
    cache holds for it, or recomputes where two entries had the same ends.
    ``seq`` orders only entries of equal error and ends, which hold equal
    integrals, so heapq never compares integrals.
    """
    total, error, rounding = first
    seq = itertools.count()
    heap = [(-error, a, b, next(seq), total)]
    while heap and len(heap) < _QUAD_LIMIT:
        tol = max(_QUAD_TOL, _QUAD_TOL * norm(total))
        batch, err_sum = [], 0.0
        while heap and len(batch) < _QUAD_BATCH and not (batch and err_sum > error - tol / 8):
            neg_err, lo, hi, _, old = heapq.heappop(heap)
            batch.append((-neg_err, lo, hi, 0.5 * (lo + hi), old))
            err_sum += -neg_err
        halves = yield [(owner, end_lo, end_hi) for _, lo, hi, mid, _ in batch
                        for end_lo, end_hi in ((lo, mid), (mid, hi))]
        for k, (old_err, lo, hi, mid, old) in enumerate(batch):
            (s1, err1, round1), (s2, err2, round2) = halves[2 * k], halves[2 * k + 1]
            total = total + (s1 + s2 - old)
            error += err1 + err2 - old_err
            rounding += round1 + round2
            heapq.heappush(heap, (-err1, lo, mid, next(seq), s1))
            heapq.heappush(heap, (-err2, mid, hi, next(seq), s2))
        if len(heap) >= 2:
            tol = max(_QUAD_TOL, _QUAD_TOL * norm(total))
            if error < tol / 8 or error < rounding:
                break
        if not (math.isfinite(error) and math.isfinite(rounding)):
            break
    return total, error + rounding


def _quad_vec_lockstep(f, ends: list) -> list:
    """``scipy.integrate.quad_vec(f, a, b, epsabs=1e-12, epsrel=1e-12, limit=400)``
    on each finite [a, b] of ``ends``, step for step, all advanced round by round.

    f(x, owner) takes the nodes of every interval that a round splits, of
    every integral still running, and the index in ``ends`` of each node's
    integral: one ``_gk21`` call a round, whose rules go back to each
    integral in the order it asked for its halves. Each integral keeps its
    own loop (``_quad_vec_steps``), and f acts node by node, so each gets
    quad_vec's bits. One entry per integral: (integral, error estimate).
    What f raises on any integral's nodes ends them all.
    """
    first = _gk21(f, [(k, a, b) for k, (a, b) in enumerate(ends)], np.linalg.norm)
    norm = abs if np.ndim(first[0][0]) == 0 else np.linalg.norm
    steps = {k: _quad_vec_steps(k, a, b, first[k], norm) for k, (a, b) in enumerate(ends)}
    results: dict = {}
    sent = dict.fromkeys(steps)  # what each running integral is sent next
    while sent:
        asked = {}
        for k, rules in sent.items():
            try:
                asked[k] = steps[k].send(rules)
            except StopIteration as stop:
                results[k] = stop.value
        rules = iter(_gk21(f, [half for halves in asked.values() for half in halves], norm)
                     if asked else ())
        sent = {k: [next(rules) for _ in halves] for k, halves in asked.items()}
    return [results[k] for k in range(len(ends))]


def _integration_range(a: float, b: float) -> tuple[float, float]:
    # [a, b] with an open upper bound truncated at a + 40 (see _TAIL_LENGTH)
    if math.isnan(a) or math.isnan(b):
        raise ValueError("integration bounds must not be NaN")
    hi = a + _TAIL_LENGTH if math.isinf(b) else b
    if hi < a:
        raise ValueError(f"integration bounds out of order: [{a}, {b}]")
    return a, hi


def integrate_lockstep(f, ends: list) -> list:
    """``integrate`` on each (a, b) of ``ends``, the integrals advanced round by round together.

    f(x, owner) takes the nodes of a round of every integral still running,
    and the index in ``ends`` of each node's integral
    (``_quad_vec_lockstep``), at most _LOCKSTEP_INTEGRALS integrals at a
    time; it must act node by node, so each integral gets the bits
    ``integrate`` gives it alone. One entry per integral: its value. The
    first error any integral hits ends them all, as ``integrate`` raises
    it: what f raised on its nodes, or the ConvergenceError of the first
    integral that misses the gate. Bounds that are NaN or out of order
    raise ValueError before any integrand call.
    """
    ranges = [_integration_range(a, b) for a, b in ends]
    found = []
    for first in range(0, len(ranges), _LOCKSTEP_INTEGRALS):
        found += _quad_vec_lockstep(
            lambda x, owner, first=first: f(x, owner + first),
            [(float(a), float(hi)) for a, hi in ranges[first:first + _LOCKSTEP_INTEGRALS]])
    for (a, hi), (_, err_estimate) in zip(ranges, found):
        if not err_estimate <= _INTEGRATE_GATE:  # NaN fails too: an integrand value was not finite
            why = ("comes from a non-finite integrand value" if math.isnan(err_estimate)
                   else f"exceeds {_INTEGRATE_GATE:.3g}")
            raise ConvergenceError(f"quadrature on [{a}, {hi}] did not converge: "
                                   f"error estimate {err_estimate:.3g} {why}")
    return [value if np.ndim(value) else float(value) for value, _ in found]


def integrate(f: Callable[[np.ndarray], np.ndarray], a: float, b: float) -> float | np.ndarray:
    """Adaptive quadrature of f over [a, b]; b may be OPEN_END (infinity).

    f takes the array of a round's nodes, the 21 Gauss-Kronrod nodes of each
    interval in turn (n = 21 per interval), and returns shape (n,) for a
    float integral or (n, k) for k integrals on shared subintervals; the
    result is a float or an array of k. f must act node by node. The steps and
    the bits are those of ``scipy.integrate.quad_vec`` with its 21-point
    rule, epsabs = epsrel = 1e-12 and 400 subintervals (``_quad_vec_steps``).
    Open upper bounds are truncated at a + 40 (see _TAIL_LENGTH). Raises
    ConvergenceError when the error estimate, the 2-norm over the
    components, exceeds _INTEGRATE_GATE or is NaN. ``integrate_lockstep``
    runs several integrals at once.
    """
    return integrate_lockstep(lambda x, owner: f(x), [(a, b)])[0]


# ---------------------------------------------------------------------------
# Scalar and grid maximization
# ---------------------------------------------------------------------------

def maximize_scalar(f: Callable[[float], float], domain: Interval,
                    abs_tol: float = 1e-9) -> tuple[float, float]:
    """Maximize a unimodal scalar function on the closed, finite interval ``domain``.

    Bisects on the sign of a central finite difference of f (step
    1e-7 * max(1, |x|)) until the bracket is narrower than ``abs_tol`` or
    its midpoint rounds to one of its ends (float resolution: about 1,100
    halvings from a bracket 1e308 wide). The search runs where the slope at
    one end points into the bracket and the slope at the other does not
    point out of it: positive at ``lo`` and not positive at ``hi``, or
    negative at ``hi`` and not negative at ``lo``. A slope that points
    neither way is 0 where f is flat (a throughput that underflows to 0) or
    NaN where f is -inf on both sides (bands that are not eligible), so a
    peak is bracketed from either end. Else (NaN at both ends too) a
    unimodal f peaks at an end and no search runs. Either way each end
    replaces the best point so far only if strictly better, so ties keep
    the bisection point, then ``lo``. Returns (argmax, f(argmax)).
    """
    if not abs_tol > 0.0:
        raise ValueError(f"abs_tol must be > 0, got {abs_tol}")
    lo, hi = domain.lo, domain.hi
    if hi <= lo:
        return lo, f(lo)

    def dsign(x: float) -> float:
        h = 1e-7 * max(1.0, abs(x))
        x1 = max(lo, x - h)
        x2 = min(hi, x + h)
        return f(x2) - f(x1)

    d_lo = dsign(lo)
    d_hi = dsign(hi)
    if (d_lo > 0.0 and not d_hi > 0.0) or (d_hi < 0.0 and not d_lo < 0.0):
        a, b = lo, hi
        while b - a > abs_tol and a < (m := 0.5 * (a + b)) < b:
            if dsign(m) > 0.0:
                a = m
            else:
                b = m
        best_x = 0.5 * (a + b)
        best_f = f(best_x)
        ends = (lo, hi)
    else:
        best_x, best_f = lo, f(lo)
        ends = (hi,)

    for cand in ends:
        fc = f(cand)
        if fc > best_f:
            best_x, best_f = cand, fc
    return best_x, best_f


# step_count refuses more points than this. It lies far above every axis
# the package runs (the finest tested PIP grid has 2,001 points), and one
# 64-row chunk of a PIP grid this long holds 6.4 million pairs, about
# 0.85 GB at the 132 bytes a pair measured where the block bound keeps
# every block of the chunk.
_MAX_STEPS = 100_000


def step_count(lo: float, hi: float, step: float, name: str) -> int:
    """Number of points lo, lo + step, ... up to hi (a 1e-9 step short counts as reaching it).

    Raises ValueError, naming the range and the step ``name``, where the
    count overflows a float or exceeds _MAX_STEPS (100,000), before anything
    of that size is allocated or run.
    """
    steps = (hi - lo) / step + 1e-9
    if not math.isfinite(steps):
        raise ValueError(f"the number of {name}={step} steps from {lo} to {hi} overflows a float")
    if steps >= _MAX_STEPS:  # the count floor(steps) + 1 would exceed it
        raise ValueError(f"{name}={step} from {lo} to {hi} gives more than the "
                         f"{_MAX_STEPS:,} points allowed")
    return int(math.floor(steps)) + 1


def _grid_axis(lo: float, hi: float, step: float) -> np.ndarray:
    # accumulation can overshoot hi by an ulp; keep points inside the domain
    return np.minimum(lo + step * np.arange(step_count(lo, hi, step, "step")), hi)


# The pair triangle is walked this many rows at a time: no call of the
# objective or the bound sees more than _GRID_CHUNK_ROWS * (axis size - 1)
# pairs. Each row of a chunk is cut into blocks of as many columns.
_GRID_CHUNK_ROWS = 64
# The blocks are built in groups of whole chunks, of at most this many
# blocks unless one chunk holds more (an axis of 1,001 points has 8,320
# blocks in all, one of 2,001 points 32,256): a group's arrays and block
# geometry take a few MB.
_GRID_GROUP_BLOCKS = 1 << 16
# The seed bounds every pair of a sub-grid of at most this many axis points
# (8,128 pairs, under one chunk) ...
_GRID_SEED_POINTS = 128
# ... and the exact best over its _GRID_SEED_PAIRS best-bound pairs sets the
# pruning threshold ...
_GRID_SEED_PAIRS = 64
# ... less this relative margin, which absorbs the rounding of bound and
# objective; later the best score so far, less the same margin, raises it.
_GRID_SLACK = 1e-9


def _segment_pairs(rows: np.ndarray, lo: np.ndarray,
                   hi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Index pairs (rows[k], j), lo[k] <= j <= hi[k], segment after segment."""
    counts = hi - lo + 1
    starts = np.cumsum(counts) - counts
    i = np.repeat(rows, counts)
    j = np.arange(i.size) - np.repeat(starts - lo, counts)
    return i, j


def _block_groups(n: int):
    """The blocks of the pair triangle of an n-point axis, group by group:
    (row, lo, hi) index arrays, a block being the pairs (row, j), lo <= j <= hi.

    Each row's columns row < j < n are cut into runs of _GRID_CHUNK_ROWS from
    its first, the last run maybe shorter. A group holds whole chunks of
    _GRID_CHUNK_ROWS rows, at most _GRID_GROUP_BLOCKS blocks unless one
    chunk holds more, and its blocks come in lexicographic order.
    """
    width = _GRID_CHUNK_ROWS
    rows = np.arange(n - 1)
    per_row = (n - 2 - rows) // width + 1
    per_chunk = np.add.reduceat(per_row, np.arange(0, n - 1, width)).tolist()
    first = 0
    while first < len(per_chunk):
        last, size = first + 1, per_chunk[first]
        while last < len(per_chunk) and size + per_chunk[last] <= _GRID_GROUP_BLOCKS:
            size += per_chunk[last]
            last += 1
        span = slice(first * width, last * width)
        r, c = _segment_pairs(rows[span], np.zeros_like(rows[span]), per_row[span] - 1)
        lo = r + 1 + width * c
        yield r, lo, np.minimum(lo + width - 1, n - 1)
        first = last


def _less_slack(value: float) -> float:
    # Python floats: -inf less its slack stays -inf, with no warning
    return value - _GRID_SLACK * abs(value)


class GridSearch(NamedTuple):
    """One search of ``grid_argmax_axis``: f and its optional bounds, as
    ``grid_argmax_2d`` takes them, but for ``block_bound``, which takes the
    block geometry of ``grid_argmax_axis``."""

    f: Callable
    bound: Callable | None = None
    block_bound: Callable | None = None
    refined: Callable | None = None


class _GridWalk:
    """One search of ``grid_argmax_axis``: its seed, its best pair so far and its threshold."""

    def __init__(self, search: GridSearch):
        self.search = search
        self.seeded = self.best = None
        self.threshold = -math.inf

    def seed(self, gx: np.ndarray, gy: np.ndarray, geometry) -> None:
        """Score the _GRID_SEED_PAIRS pairs (gx, gy) of largest bound, or of
        largest block bound on the one-pair blocks' ``geometry`` if given; the
        lexicographically first of them wins a tie."""
        f, bound, block_bound, _ = self.search
        if bound is None:
            return
        top = np.asarray(bound(gx, gy) if geometry is None or block_bound is None
                         else block_bound(*geometry), dtype=float)
        top = np.where(np.isnan(top), -np.inf, top)
        if top.size > _GRID_SEED_PAIRS:
            top = np.sort(np.argpartition(-top, _GRID_SEED_PAIRS)[:_GRID_SEED_PAIRS])
        else:
            top = np.arange(top.size)
        vals = f(gx[top], gy[top])
        k = int(np.argmax(vals))
        self.seeded = ((float(gx[top[k]]), float(gy[top[k]])), float(vals[k]))
        self.threshold = _less_slack(self.seeded[1])

    def walk(self, xs: np.ndarray, r: np.ndarray, lo: np.ndarray, hi: np.ndarray,
             geometry) -> None:
        """Walk the blocks (r, lo, hi), one pass for each chunk of rows that
        keeps a block, with the threshold as the earlier chunks raised it."""
        f, bound, block_bound, refined = self.search
        top = (np.full(r.size, math.nan) if block_bound is None  # NaN never prunes
               else np.asarray(block_bound(*geometry), dtype=float))
        done = 0  # blocks before this one are walked
        while True:
            kept = done + np.flatnonzero(~(top[done:] < self.threshold))
            if not kept.size:
                return
            next_chunk = (r[kept[0]] // _GRID_CHUNK_ROWS + 1) * _GRID_CHUNK_ROWS
            done = int(np.searchsorted(r, next_chunk))
            kept = kept[kept < done]
            i, j = _segment_pairs(r[kept], lo[kept], hi[kept])
            gx, gy = xs[i], xs[j]
            for level in (bound, refined):
                if level is not None and gx.size:
                    keep = ~(np.asarray(level(gx, gy), dtype=float) < self.threshold)
                    gx, gy = gx[keep], gy[keep]
            if not gx.size:
                continue
            vals = f(gx, gy)
            k = int(np.argmax(vals))
            if self.best is None or vals[k] > self.best[1]:
                self.best = ((float(gx[k]), float(gy[k])), float(vals[k]))
                self.threshold = max(self.threshold, _less_slack(self.best[1]))

    def result(self) -> tuple[tuple[float, float], float]:
        # the seed pair is pruned only if the bound undercut f beyond the slack
        if self.best is None or (self.seeded is not None and self.seeded[1] > self.best[1]):
            return self.seeded
        return self.best


def grid_argmax_axis(searches: list, domain: Interval, step: float,
                     block_geometry=None) -> list:
    """``grid_argmax_2d`` for each GridSearch of ``searches``, on one grid, walked together.

    What does not depend on the search is built once for all of them: the
    seed's sub-grid pairs, and the blocks of the pair triangle, in groups of
    whole chunks of rows (``_block_groups``). ``block_geometry(x, y_lo,
    y_hi)``, if given, takes the blocks' arrays as ``grid_argmax_2d``'s
    block bound does and returns a tuple, built once per group, that each
    search's ``block_bound`` takes (splatted); without it, ``block_bound``
    takes (x, y_lo, y_hi). With it, a seed ranks its sub-grid pairs (x, y)
    by the block bound of the one-pair blocks (x, y, y), whose geometry is
    built once too; without it, by ``bound``. Each search then walks the blocks group by group as
    ``grid_argmax_2d`` does, one pass per chunk that keeps a block, so no
    call sees more than one chunk's pairs. One entry per search: its
    ((x, y), value). What any search's objective or bounds raise ends them
    all.
    """
    if not step > 0.0:
        raise ValueError(f"step must be positive, got {step}")
    xs = _grid_axis(domain.lo, domain.hi, step)
    n = xs.size
    if n < 2:
        raise ValueError("grid axis has fewer than 2 points; no pair x < y")
    walks = [_GridWalk(search) for search in searches]
    # the seed's sub-grid: every k-th axis point, at most _GRID_SEED_POINTS
    stride = -(-(n - 1) // (_GRID_SEED_POINTS - 1))  # ceil
    sub = xs[::stride]
    i, j = np.triu_indices(sub.size, k=1)
    gx, gy = sub[i], sub[j]
    seed_geometry = None if block_geometry is None else block_geometry(gx, gy, gy)
    for walk in walks:
        walk.seed(gx, gy, seed_geometry)
    for r, lo, hi in _block_groups(n):
        geometry = (xs[r], xs[lo], xs[hi]) if block_geometry is None else block_geometry(
            xs[r], xs[lo], xs[hi])
        for walk in walks:
            walk.walk(xs, r, lo, hi, geometry)
    return [walk.result() for walk in walks]


def grid_argmax_2d(f, domain: Interval, step: float, bound=None, block_bound=None,
                   refined=None) -> tuple[tuple[float, float], float]:
    """Maximize f(x, y) over the grid pairs x < y of one axis.

    The axis runs from ``domain.lo`` to ``domain.hi`` in steps of ``step``.
    f takes two arrays of pairs and returns an array of their shape; so does
    ``bound``, an optional upper bound on f that is cheaper to evaluate,
    and ``refined``, an optional upper bound on f that lies between the two.
    ``block_bound(x, y_lo, y_hi)``, also optional, takes three arrays, one
    entry per block of pairs (x, y), y_lo <= y <= y_hi, and returns per
    block an upper bound on ``bound`` (on f if there is no ``bound``) over
    its pairs.

    The rows of the pair triangle are walked once, in order, in chunks of
    _GRID_CHUNK_ROWS rows, each row cut into blocks of as many columns, so
    memory does not grow with the number of pairs. A running threshold, the
    best value so far less a relative 1e-9, prunes in three steps: a block
    whose block bound is below it is dropped before any of its pairs is
    bounded, the refined bound is taken only on the pairs whose bound
    reaches it, and f is scored only on the pairs whose refined bound
    reaches it. Before the walk the threshold is set from a coarse
    sub-grid: the exact best of the _GRID_SEED_PAIRS best-bound pairs among
    the pairs of every k-th axis point, at most _GRID_SEED_POINTS of them;
    it then rises with the best score. A NaN bound of any level never
    prunes, and a level that is not given prunes nothing. Ties break toward
    the lexicographically smallest (x, y), so the result equals an
    exhaustive search's whenever f <= refined <= bound <= block bound
    holds to within the slack. ``grid_argmax_axis`` with one search.
    """
    return grid_argmax_axis([GridSearch(f, bound, block_bound, refined)], domain, step)[0]
