import math
import os
import subprocess
import sys
from pathlib import Path

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wpcn import numerics, schemes
from wpcn.numerics import (
    ConvergenceError,
    Interval,
    OPEN_END,
    e1_asymptotic,
    exp_integral_e1,
    exp_scaled_e1,
    grid_argmax_2d,
    integrate,
    lambert_w0,
    maximize_scalar,
)

# Oracle values computed by mpmath at 30 digits, independent of the code
# under test: E1(1), mpmath's own quadrature of the defining integrand of E1
# over [0.5, 2], and W0(1), the omega constant.
with mpmath.workdps(30):
    E1_AT_1 = float(mpmath.e1(1))
    E1_HALF_MINUS_TWO = float(mpmath.quad(lambda t: mpmath.exp(-t) / t, [0.5, 2]))
    W0_AT_1 = float(mpmath.lambertw(1).real)


class TestExpIntegral:
    def test_oracle_value_at_one(self):
        assert exp_integral_e1(1.0) == pytest.approx(E1_AT_1, rel=1e-13)

    def test_additivity_over_adjacent_intervals(self):
        assert exp_integral_e1(0.5) - exp_integral_e1(2.0) == pytest.approx(
            E1_HALF_MINUS_TWO, rel=1e-13
        )

    def test_vanishes_from_above_at_large_x(self):
        vals = exp_integral_e1(np.array([30.0, 40.0, 60.0]))
        assert np.all(vals > 0.0)
        assert vals[-1] < 1e-27

    def test_matches_quadrature_across_domain(self):
        for x in np.logspace(-3, math.log10(50.0), 40):
            ref = integrate(lambda t: np.exp(-t) / t, x, OPEN_END)
            assert abs(exp_integral_e1(x) - ref) <= 1e-10

    def test_scaled_form_consistent(self):
        x = np.array([1e-3, 0.3, 1.0, 1.5, 8.0, 30.0])
        assert exp_scaled_e1(x) == pytest.approx(np.exp(x) * exp_integral_e1(x), rel=1e-12)

    def test_scaled_form_matches_mpmath_across_the_tail_switch(self):
        # the array path switches from e^x exp1(x) to an asymptotic series
        # just above x = 600; the float path has its own series and fraction
        x = np.concatenate([
            np.logspace(-8, 4, 400), np.linspace(599.0, 601.0, 201),
            [1.0, np.nextafter(600.0, math.inf), 1e6, 1e12],
        ])
        with mpmath.workdps(40):
            ref = np.array([float(mpmath.exp(mpmath.mpf(v)) * mpmath.e1(mpmath.mpf(v)))
                            for v in x])
        vec = exp_scaled_e1(x)
        assert np.max(np.abs(vec / ref - 1.0)) <= 1e-13
        one_by_one = np.array([exp_scaled_e1(float(v)) for v in x])
        assert np.max(np.abs(one_by_one / vec - 1.0)) <= 1e-13

    def test_scaled_form_finite_for_huge_argument(self):
        big = exp_scaled_e1(1e12)
        assert 0.0 < big < 1e-11  # ~ 1/x

    @given(st.floats(min_value=1e-3, max_value=60.0), st.floats(min_value=1e-4, max_value=5.0))
    def test_strictly_decreasing(self, x, dx):
        assert exp_integral_e1(x) > exp_integral_e1(x + dx)

    @pytest.mark.parametrize("bad", [0.0, -1.0, -0.5])
    def test_domain_error(self, bad):
        with pytest.raises(ValueError):
            exp_integral_e1(bad)
        with pytest.raises(ValueError):
            exp_scaled_e1(bad)


def _exp_scaled_e1_reference(x: float) -> float:
    """The float path of exp_scaled_e1 in its earlier form, frozen as the bit reference."""
    if x <= 1.0:
        total, term, k = 0.0, x, 1
        while k <= 60:
            total += term / k
            term *= -x / (k + 1)
            if abs(term) <= 1e-18 * max(abs(total), 1.0):
                break
            k += 1
        return math.exp(x) * (-numerics.EULER_GAMMA - math.log(x) + total)
    b = x + 1.0
    c = 1.0 / numerics._TINY
    d = 1.0 / b
    h = d
    for i in range(1, numerics._E1_CF_MAX_ITER + 1):
        a = -float(i * i)
        b += 2.0
        d = a * d + b
        if d == 0.0:
            d = numerics._TINY
        c = b + a / c
        if c == 0.0:
            c = numerics._TINY
        d = 1.0 / d
        delta = c * d
        h *= delta
        if abs(delta - 1.0) < numerics._E1_CF_TOL:
            return h
    raise ConvergenceError(f"E1 continued fraction did not converge at x={x!r}")


class TestExpScaledE1Float:
    @given(st.one_of(
        st.floats(min_value=5e-324, max_value=1e6),
        st.sampled_from([1.0, math.nextafter(1.0, 2.0), 600.0, 1e-300]),
    ))
    @settings(max_examples=300)
    def test_float_entry_equals_the_scalar_result(self, x):
        # a 0-d array reaches the same series and continued fraction
        v = exp_scaled_e1(x)
        assert type(v) is float
        assert repr(v) == repr(exp_scaled_e1(np.asarray(x)))
        assert repr(exp_scaled_e1(np.float64(x))) == repr(v)

    def test_float_path_keeps_the_bits_of_its_reference_loops(self, monkeypatch):
        # the IP and PI solvers read the sign of a 1e-7 finite difference of
        # this path, so its loops may change their form but not one bit
        rng = np.random.default_rng(11)
        xs = np.concatenate([
            rng.uniform(0.0, 1.0, 30_000), 10.0 ** rng.uniform(-300.0, 0.0, 2_000),
            rng.uniform(1.0, 60.0, 30_000), 10.0 ** rng.uniform(0.0, 6.0, 2_000),
            [5e-324, 1.0, math.nextafter(1.0, 2.0), 600.0, 1e300],
        ])
        xs = xs[xs > 0.0].tolist()
        ref = np.array([_exp_scaled_e1_reference(x) for x in xs])
        got = np.array([numerics._exp_scaled_e1_float(x) for x in xs])
        assert np.array_equal(got.view(np.uint64), ref.view(np.uint64))
        # a fraction that never meets its tolerance raises on both
        monkeypatch.setattr(numerics, "_E1_CF_TOL", 0.0)
        for run in (_exp_scaled_e1_reference, numerics._exp_scaled_e1_float):
            with pytest.raises(ConvergenceError, match="x=1.5"):
                run(1.5)

    @pytest.mark.parametrize("bad,match", [
        (0.0, "x > 0"), (-0.0, "x > 0"), (-1.0, "x > 0"), (-math.inf, "x > 0"), (math.nan, "NaN"),
    ])
    def test_float_entry_rejects_what_the_array_path_rejects(self, bad, match):
        for x in (bad, np.asarray(bad)):
            with pytest.raises(ValueError, match=match):
                exp_scaled_e1(x)

    @pytest.mark.parametrize("bad,match", [(0.0, "x > 0"), (-math.inf, "x > 0"), (math.nan, "NaN")])
    def test_array_path_rejects_any_bad_entry(self, bad, match):
        # a 0-d array takes the float entry; a longer one checks every entry
        with pytest.raises(ValueError, match=match):
            exp_scaled_e1(np.array([1.0, bad]))


class TestE1Asymptotic:
    def test_direct_substitution_at_one(self):
        assert e1_asymptotic(1.0) == pytest.approx(math.exp(-1.0) * math.log(2.0), rel=1e-14)

    def test_ratio_approaches_one_toward_zero(self):
        # convergence is logarithmic: check monotone approach, not a tolerance
        gaps = [abs(e1_asymptotic(x) / exp_integral_e1(x) - 1.0)
                for x in (1e-2, 1e-4, 1e-8, 1e-12)]
        assert all(a > b for a, b in zip(gaps, gaps[1:]))

    def test_ratio_approaches_one_toward_infinity(self):
        # leading error term is 1/(2x)
        gaps = {x: abs(e1_asymptotic(x) / exp_integral_e1(x) - 1.0)
                for x in (10.0, 40.0, 160.0, 640.0)}
        vals = list(gaps.values())
        assert all(a > b for a, b in zip(vals, vals[1:]))
        assert gaps[640.0] == pytest.approx(1.0 / (2 * 640.0), rel=0.05)

    def test_domain_error(self):
        with pytest.raises(ValueError):
            e1_asymptotic(0.0)


class TestLambertW:
    def test_fixed_points(self):
        assert lambert_w0(0.0) == 0.0
        assert lambert_w0(math.e) == pytest.approx(1.0, abs=1e-15)
        assert lambert_w0(1.0) == pytest.approx(W0_AT_1, abs=1e-14)

    def test_branch_point(self):
        assert lambert_w0(-math.exp(-1.0)) == pytest.approx(-1.0, abs=1e-12)

    def test_at_and_just_above_the_rounded_branch_point(self):
        # -exp(-1.0) rounds 1.2e-17 below the true -1/e, where the principal
        # branch is still -1 to within the conditioning (~1e-8)
        xs = [-math.exp(-1.0)]
        for _ in range(6):
            xs.append(np.nextafter(xs[-1], math.inf))
        xs = np.array(xs)
        with mpmath.workdps(30):
            ref = np.array([float(mpmath.lambertw(mpmath.mpf(v)).real) for v in xs])
        for w in (lambert_w0(xs), np.array([lambert_w0(float(v)) for v in xs])):
            assert np.all(np.isfinite(w))
            assert np.all(w >= -1.0)
            assert np.max(np.abs(w - ref)) <= 1e-8

    def test_residual_on_log_grid(self):
        xs = np.concatenate([
            [-math.exp(-1.0) + 1e-9, -0.36, -0.3, -0.1, -1e-6],
            np.logspace(-9, 6, 60),
        ])
        w = lambert_w0(xs)
        resid = np.abs(w * np.exp(w) - xs)
        assert np.all(resid <= 1e-12 * np.maximum(1.0, np.abs(xs)))
        assert np.all(w >= -1.0)

    @given(st.floats(min_value=-0.36, max_value=1e6))
    @settings(max_examples=80)
    def test_residual_property(self, x):
        w = lambert_w0(x)
        assert abs(w * math.exp(w) - x) <= 1e-12 * max(1.0, abs(x))

    def test_domain_error(self):
        for x in (-0.4, np.array([-0.4])):
            with pytest.raises(ValueError, match="-1/e"):
                lambert_w0(x)
        for x in (math.nan, np.array([math.nan])):
            with pytest.raises(ValueError, match="NaN"):
                lambert_w0(x)

    @given(st.one_of(
        st.floats(min_value=-math.exp(-1.0) - 1e-15, max_value=1e300),
        st.floats(min_value=-math.exp(-1.0) - 1e-15, max_value=-0.3678794411),
        st.sampled_from([-math.exp(-1.0), -math.exp(-1.0) - 1e-15, 0.0, -0.0, 1.0]),
    ))
    @settings(max_examples=300)
    def test_float_path_matches_the_array_path(self, x):
        # bit for bit, the sign of zero and the clamp to -1 included
        w = lambert_w0(float(x))
        assert type(w) is float
        assert repr(w) == repr(float(lambert_w0(np.array([x]))[0]))

    def test_float_path_clamps_at_the_rounded_branch_point(self):
        for x in (-math.exp(-1.0), np.nextafter(-math.exp(-1.0), -1.0), -math.exp(-1.0) - 1e-15):
            assert lambert_w0(float(x)) == -1.0


# Each scipy-backed entry, as the first call that binds scipy's ufuncs; an
# expression in ``numerics`` and ``np``, with arrays as lists so repr keeps
# every digit.
FIRST_CALLS = [
    "numerics.lambert_w0(0.7)",
    "numerics.lambert_w0(np.array([-0.25, 0.0, 0.7, 3e5])).tolist()",
    "numerics.exp_scaled_e1(np.array([1e-3, 0.7, 45.0, 750.0])).tolist()",
    "numerics.exp_integral_e1(np.array([1e-3, 0.7, 45.0])).tolist()",
]
_PRELUDE = (
    "import sys\n"
    "import numpy as np\n"
    "from wpcn import numerics\n"
    "def scipy_loaded():\n"
    "    return sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.'))\n"
    "assert not scipy_loaded(), scipy_loaded()\n"
)


def run_python(script: str) -> str:
    """Stdout of ``script`` in a fresh interpreter that imports wpcn from this checkout."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(Path(__file__).resolve().parents[1] / "src"), env.get("PYTHONPATH")) if p)
    done = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return done.stdout


@pytest.mark.parametrize("expr", FIRST_CALLS)
def test_first_call_binds_scipy_special_and_matches_later_calls(expr):
    # the first call binds both ufuncs from scipy.special's extension module
    # alone: it leaves no scipy module loaded, scipy.special least of all
    out = run_python(_PRELUDE + (
        "assert type(numerics._exp1) is not np.ufunc\n"
        f"print(repr({expr}))\n"
        "assert not scipy_loaded(), scipy_loaded()\n"
        "assert type(numerics._exp1) is np.ufunc and type(numerics._lambertw) is np.ufunc\n"
    ))
    numerics._load_special()  # here the call is never the first
    assert out.strip() == repr(eval(expr, {"numerics": numerics, "np": np}))


def test_binding_first_leaves_scipy_special_whole_and_w0_its_bits():
    # a later import of scipy.special gets the same ufunc objects and its
    # _special_ufuncs attribute; W0 is lambertw(x).real bit for bit, but for
    # the clamp to -1 at the rounded branch point
    run_python(_PRELUDE + (
        "import math\n"
        "x = np.concatenate((np.linspace(-math.exp(-1.0), 1.0, 200_001),\n"
        "                    np.logspace(0.0, 300.0, 200_001)))\n"
        "w = numerics.lambert_w0(x)\n"
        "e = numerics.exp_integral_e1(np.logspace(-300.0, 2.8, 100_001))\n"
        "assert not scipy_loaded(), scipy_loaded()\n"
        "import scipy.special\n"
        "assert numerics._exp1 is scipy.special.exp1\n"
        "assert numerics._lambertw is scipy.special._special_ufuncs._lambertw\n"
        "assert scipy.special._special_ufuncs.exp1 is scipy.special.exp1\n"
        "want = np.where(x <= -math.exp(-1.0), -1.0, scipy.special.lambertw(x).real)\n"
        "assert np.array_equal(w, want) and not np.isnan(w).any()\n"
        "assert np.array_equal(e, scipy.special.exp1(np.logspace(-300.0, 2.8, 100_001)))\n"
    ))


def test_binding_after_scipy_special_reuses_its_ufuncs():
    run_python(_PRELUDE + (
        "import scipy.special\n"
        "module = sys.modules['scipy.special._special_ufuncs']\n"
        "numerics.lambert_w0(np.array([0.7]))\n"
        "assert numerics._exp1 is scipy.special.exp1\n"
        "assert numerics._lambertw is scipy.special._special_ufuncs._lambertw\n"
        "assert sys.modules['scipy.special._special_ufuncs'] is module\n"
    ))


@pytest.mark.parametrize("module", ["scipy.special._no_such_module", "scipy.special._comb"],
                         ids=["missing", "without-the-ufuncs"])
def test_fallback_binds_scipy_special_where_the_extension_is_not_found(module):
    # a scipy whose layout has no such extension, or one without the two
    # ufuncs: both come from scipy.special's public functions, to the bit
    out = run_python(_PRELUDE + (
        f"numerics._SPECIAL_UFUNCS = {module!r}\n"
        f"print(repr([{', '.join(FIRST_CALLS)}]))\n"
        "import scipy.special\n"
        "assert numerics._exp1 is scipy.special.exp1\n"
        "assert numerics._lambertw is scipy.special.lambertw\n"
    ))
    numerics._load_special()
    assert out.strip() == repr([eval(expr, {"numerics": numerics, "np": np})
                                for expr in FIRST_CALLS])


class TestIntegrate:
    def test_unit_exponential_normalization(self):
        assert integrate(lambda g: np.exp(-g), 0.0, OPEN_END) == pytest.approx(1.0, abs=1e-12)

    def test_unit_exponential_mean(self):
        assert integrate(lambda g: g * np.exp(-g), 0.0, OPEN_END) == pytest.approx(1.0, abs=1e-12)

    def test_tail_moment(self):
        # closed antiderivative (g+1)e^{-g} evaluated at 1 gives 2/e
        assert integrate(lambda g: g * np.exp(-g), 1.0, OPEN_END) == pytest.approx(
            2.0 * math.exp(-1.0), abs=1e-12
        )

    def test_empty_interval(self):
        assert integrate(np.exp, 2.0, 2.0) == 0.0

    def test_bad_bounds(self):
        with pytest.raises(ValueError):
            integrate(np.exp, 1.0, 0.0)
        for a, b in ((math.nan, 1.0), (0.0, math.nan)):
            with pytest.raises(ValueError, match="must not be NaN"):
                integrate(np.exp, a, b)

    def test_nonconvergence_reported(self):
        with pytest.raises(ConvergenceError, match="error estimate"):
            integrate(lambda t: 1.0 / t, 0.0, 1.0)

    @pytest.mark.parametrize("a,b", [(0.0, OPEN_END), (0.5, 3.0)])
    def test_vector_integrand_matches_its_components(self, a, b):
        parts = (
            lambda t: np.exp(-t),
            lambda t: t * t * np.exp(-t),
            lambda t: np.log1p(50.0 * t) * np.exp(-t),
        )
        got = integrate(lambda t: np.stack([f(t) for f in parts], axis=1), a, b)
        assert got.shape == (3,)
        for value, f in zip(got, parts):
            assert value == pytest.approx(integrate(f, a, b), rel=1e-12, abs=1e-12)

    def test_float_integrand_returns_float(self):
        # a numpy scalar integrand must not leak a numpy scalar into results
        assert type(integrate(lambda t: np.exp(-t), 0.0, 1.0)) is float
        assert type(integrate(np.exp, 2.0, 2.0)) is float

    def test_nan_error_estimate_fails_the_gate(self):
        # a node lands on the pole at 1/3: the integrand is inf there and
        # the error estimate NaN, which no comparison with the gate passes
        with np.errstate(all="ignore"), pytest.raises(ConvergenceError, match="non-finite"):
            integrate(lambda t: 1 / np.sqrt(np.abs(t - 1 / 3)), 0.0, 1.0)

    @pytest.mark.parametrize("singular", [0, 1])
    def test_one_singular_component_fails_the_gate(self, singular):
        def f(t):
            out = [np.exp(-t), np.exp(-t)]
            out[singular] = 1.0 / t
            return np.stack(out, axis=1)
        with pytest.raises(ConvergenceError, match="error estimate"):
            integrate(f, 0.0, 1.0)


def _quad_vec_pin(scalar_f, array_f, a, b):
    """``integrate``'s quadrature against scipy's quad_vec, value and error estimate.

    quad_vec calls ``scalar_f`` one node at a time; the port calls
    ``array_f`` on an interval's 21 nodes at once.
    """
    from scipy.integrate import quad_vec  # the reference only: no command loads it

    value, err = quad_vec(scalar_f, a, b, epsabs=1e-12, epsrel=1e-12, limit=400)
    got_value, got_err = numerics._quad_vec_lockstep(lambda x, owner: array_f(x), [(a, b)])[0]
    assert repr(np.asarray(got_value).tolist()) == repr(np.asarray(value).tolist())
    assert repr(float(got_err)) == repr(float(err))
    return got_value, got_err


class TestIntegrateMatchesQuadVec:
    @pytest.mark.parametrize("snr_db", np.arange(-60.0, 91.0, 3.0))
    def test_htt_integrand(self, snr_db):
        # the integrand of schemes.htt_ergodic_throughput, one frame at a
        # time for quad_vec: htt_frame gives the bits of the array path
        params = schemes.SystemParams.from_snr_db(float(snr_db))
        unit = max(1.0, params.p_d * params.gbar)

        def one(g):
            tau, rate, power = schemes.htt_frame(g, params)
            return np.array([rate, power / unit, tau]) * math.exp(-g)

        def nodes(g):
            tau, rate, power = schemes.htt_frame(g, params)
            return np.stack((rate, power / unit, tau), axis=1) * numerics.exp_neg(g)[:, None]

        value, _ = _quad_vec_pin(one, nodes, 0.0, 40.0)
        ev = schemes.htt_ergodic_throughput(params)
        got = [ev.throughput_bits, ev.ul_power, ev.tau_mean]
        assert got == (value * [1.0, unit, 1.0]).tolist()

    @pytest.mark.parametrize("seed", range(4))
    def test_oracle_bands(self, seed):
        # the integrand of schemes.quad_throughput_oracle on random bands
        rng = np.random.default_rng(seed)
        for _ in range(10):
            lo = float(rng.uniform(0.0, 5.0))
            hi = lo + float(rng.choice([rng.uniform(0.01, 10.0), 40.0]))
            gammabar = float(10.0 ** rng.uniform(-3.0, 4.0))
            _quad_vec_pin(lambda g: np.log1p(gammabar * g) / math.log(2.0) * math.exp(-g),
                          lambda g: np.log1p(gammabar * g) / math.log(2.0) * numerics.exp_neg(g),
                          lo, hi)

    def test_float_integrand(self):
        value, _ = _quad_vec_pin(lambda g: g * math.exp(-g), lambda g: g * numerics.exp_neg(g),
                                 1.0, 41.0)
        assert integrate(lambda g: g * numerics.exp_neg(g), 1.0, OPEN_END) == value

    def test_batch_size_is_quad_vecs(self, monkeypatch):
        # this integrand splits 128 intervals in one round: quad_vec's batch
        # size is pinned, as are the error estimates it leads to
        from scipy.integrate import quad_vec  # the reference only: no command loads it

        def f(g):
            return np.cos(200 * g) * np.exp(-g)

        want = quad_vec(f, 0.0, 20.0, epsabs=1e-12, epsrel=1e-12, limit=400,
                        quadrature="gk21", norm="2")
        assert want[1] < numerics._INTEGRATE_GATE
        assert repr(numerics._quad_vec_lockstep(lambda x, owner: f(x), [(0.0, 20.0)])[0]) \
            == repr(want)
        monkeypatch.setattr(numerics, "_QUAD_BATCH", 64)
        assert repr(numerics._quad_vec_lockstep(lambda x, owner: f(x), [(0.0, 20.0)])[0]) \
            != repr(want)

    def test_entries_with_equal_error_and_ends_pop_together(self):
        # on the zero-width [1, 1] every half has the ends of its parent: the
        # two halves of round 1 tie on (error, lo, hi) and are split in one
        # batch; each heap entry carries its own integral, and the vector
        # integrals are never compared
        steps = numerics._quad_vec_steps(0, 1.0, 1.0, (np.array([1.0, 2.0, 3.0]), 0.5, 0.0),
                                         np.linalg.norm)
        assert next(steps) == [(0, 1.0, 1.0)] * 2
        assert steps.send([(np.array([0.5, 1.0, 1.5]), 0.25, 2.0 ** -60)
                           for _ in range(2)]) == [(0, 1.0, 1.0)] * 4
        with pytest.raises(StopIteration) as done:
            steps.send([(np.array([0.125, 0.25, 0.5]), 0.0, 0.0) for _ in range(4)])
        # each of the two pops adds 2 * [1/8, 1/4, 1/2] - [1/2, 1, 3/2] to
        # [1, 2, 3]; the error falls to 0 and the rounding of round 1 remains
        total, error = done.value.value
        assert total.tolist() == [0.5, 1.0, 2.0] and error == 2.0 ** -59

    def test_failing_gate(self):
        _, err = _quad_vec_pin(lambda t: np.array([1.0 / t, math.exp(-t)]),
                               lambda t: np.stack((1.0 / t, numerics.exp_neg(t)), axis=1),
                               0.0, 1.0)
        assert err > numerics._INTEGRATE_GATE


class TestIntegrateLockstep:
    # integrands of different difficulty: cos(w g) e^{-g} on [0, 20] needs
    # more rounds the larger w is (w = 200 splits 128 intervals in one round)
    WS = (1.0, 50.0, 200.0, 7.0)

    @staticmethod
    def _one(w):
        return lambda g: np.cos(w * g) * numerics.exp_neg(g)

    def test_each_integral_has_its_bits_alone(self):
        ws = np.array(self.WS)
        calls = []

        def f(g, owner):
            calls.append(np.unique(owner).tolist())
            return np.cos(ws[owner] * g) * numerics.exp_neg(g)

        got = numerics.integrate_lockstep(f, [(0.0, 20.0)] * len(ws))
        assert [repr(v) for v in got] == [repr(integrate(self._one(w), 0.0, 20.0)) for w in ws]
        # one integrand call a round, on the nodes of every integral still
        # running: as many calls as the longest quadrature has rounds
        rounds = []
        for w in ws:
            rounds.append(0)
            integrate(lambda g: rounds.__setitem__(-1, rounds[-1] + 1) or self._one(w)(g),
                      0.0, 20.0)
        assert len(calls) == max(rounds) and calls[0] == [0, 1, 2, 3]
        assert [sum(k in c for c in calls) for k in range(len(ws))] == rounds

    def test_more_integrals_than_run_at_once(self, monkeypatch):
        monkeypatch.setattr(numerics, "_LOCKSTEP_INTEGRALS", 3)
        ws = np.array(self.WS * 2)
        got = numerics.integrate_lockstep(
            lambda g, owner: np.cos(ws[owner] * g) * numerics.exp_neg(g), [(0.0, 20.0)] * 8)
        assert [repr(v) for v in got] == [repr(integrate(self._one(w), 0.0, 20.0)) for w in ws]

    def test_a_failing_integral_raises_as_alone(self):
        # integral 1 raises once a round reaches past g = 15 (on [0, 20]) or
        # misses the gate (1/t on [0, 1]); beside integral 0, which
        # converges, the lockstep raises the error integrate raises on it alone
        def bad(g):
            if np.any(g > 15.0):
                raise ValueError("synthetic failure past 15")
            return 1.0 / np.maximum(g, 1e-300)

        def f(g, owner):
            out = np.exp(-g)
            out[owner == 1] = bad(g[owner == 1])
            return out

        for b, error in ((20.0, ValueError), (1.0, ConvergenceError)):
            with pytest.raises(error) as alone:
                integrate(bad, 0.0, b)
            with pytest.raises(error) as got:
                numerics.integrate_lockstep(f, [(0.0, 20.0), (0.0, b)])
            assert type(got.value) is type(alone.value) is error
            assert str(got.value) == str(alone.value)

    def test_bad_bounds_raise_before_any_call(self):
        def f(g, owner):
            raise AssertionError("called")
        for ends in ([(0.0, 1.0), (math.nan, 1.0)], [(0.0, 1.0), (2.0, 1.0)]):
            with pytest.raises(ValueError, match="bounds"):
                numerics.integrate_lockstep(f, ends)


class TestMaximizeScalar:
    def test_quadratic_vertex(self):
        x, v = maximize_scalar(lambda x: -(x - 2.0) ** 2, Interval(0.0, 10.0))
        assert x == pytest.approx(2.0, abs=1e-8)
        assert v == pytest.approx(0.0, abs=1e-15)

    def test_x_exp_minus_x(self):
        x, v = maximize_scalar(lambda x: x * math.exp(-x), Interval(0.0, 10.0))
        assert x == pytest.approx(1.0, abs=1e-7)
        assert v == pytest.approx(math.exp(-1.0), rel=1e-12)

    def test_frame_split_objective_at_unit_snr(self):
        # stationarity ln(1+x) = 1 gives x = e-1, i.e. tau = (e-1)/e;
        # cross-checked against a dense grid of the same objective
        def rate(tau):
            return (1.0 - tau) * math.log2(1.0 + tau / (1.0 - tau))
        x, _ = maximize_scalar(rate, Interval(0.0, 1.0 - 1e-9))
        expected = (math.e - 1.0) / math.e
        assert x == pytest.approx(expected, abs=1e-7)
        taus = np.arange(1e-6, 1.0, 1e-6)
        grid_best = taus[np.argmax((1.0 - taus) * np.log2(1.0 + taus / (1.0 - taus)))]
        assert abs(x - grid_best) <= 1e-5

    def test_monotone_increasing_picks_upper_end(self):
        x, _ = maximize_scalar(lambda x: x, Interval(0.0, 3.0))
        assert x == pytest.approx(3.0, abs=1e-8)

    def test_decreasing_picks_exactly_the_lower_end(self):
        assert maximize_scalar(lambda x: -x, Interval(0.5, 3.0)) == (0.5, -0.5)

    def test_valley_picks_the_higher_end(self):
        # end slopes point away from the peak, so no bisection runs; the
        # ends score 2.25 and 6.25
        assert maximize_scalar(lambda x: (x - 1.5) ** 2, Interval(0.0, 4.0)) == (4.0, 6.25)

    def test_one_point_interval_scores_its_point_once(self):
        calls = []
        assert maximize_scalar(lambda x: calls.append(x) or -x, Interval(1.5, 1.5)) == (1.5, -1.5)
        assert calls == [1.5]

    def test_constant_picks_exactly_the_lower_end(self):
        # the upper end replaces the lower one only if strictly greater
        assert maximize_scalar(lambda x: 7.0, Interval(0.25, 3.0)) == (0.25, 7.0)

    def test_a_flat_or_undefined_upper_end_still_brackets_the_peak(self):
        # x e^-x is exactly 0 past x ~ 745, and the second f is -inf past 5
        # (its upper slope is NaN): neither slope is positive at the upper end
        for f, hi in ((lambda x: x * math.exp(-x), 1e300),
                      (lambda x: -math.inf if x > 5.0 else -(x - 1.0) ** 2, 10.0)):
            x, _ = maximize_scalar(f, Interval(0.0, hi))
            assert abs(x - 1.0) < 1e-6

    def test_stops_at_float_resolution(self):
        # abs_tol below the float resolution at 2 is never met, so the
        # bisection stops where its midpoint rounds to an end: about 55
        # halvings, two scores each, with no warning
        calls = []
        x, _ = maximize_scalar(lambda x: calls.append(x) or -(x - 2.0) ** 2,
                               Interval(0.0, 10.0), 1e-300)
        assert abs(x - 2.0) < 1e-6 and len(calls) < 2 * 64

    def test_rejects_a_non_positive_tolerance(self):
        for abs_tol in (0.0, math.nan):
            with pytest.raises(ValueError, match="abs_tol"):
                maximize_scalar(lambda x: -x, Interval(0.0, 1.0), abs_tol)


class TestGridArgmax2D:
    def test_never_exceeds_exhaustive_maximum(self):
        # equals a brute-force loop over the ordered pairs i < j of the axis
        # 0.5, 0.75, ..., 3.0, tie-break included; the objectives use only
        # +, -, * and minimum, exact in scalar and array form, so the values
        # must agree bit for bit
        lo, step, n = 0.5, 0.25, 11
        axis = [lo + step * k for k in range(n)]
        for f in (lambda x, y: np.minimum(x + y, 3.0),  # ties wherever x + y >= 3
                  lambda x, y: x * (3.0 - x) * (y - x) - 0.5 * y * y):
            best = None
            for i in range(n):
                for j in range(i + 1, n):
                    v = float(f(axis[i], axis[j]))
                    if best is None or v > best[1]:  # first maximum in (i, j) order
                        best = ((axis[i], axis[j]), v)
            assert grid_argmax_2d(f, Interval(lo, 3.0), step) == best

    def test_interior_maximum(self):
        (x, y), _ = grid_argmax_2d(
            lambda x, y: -(x - 1.0) ** 2 - (y - 2.0) ** 2, Interval(0.0, 5.0), 0.1
        )
        assert x == pytest.approx(1.0, abs=1e-12)
        assert y == pytest.approx(2.0, abs=1e-12)

    def test_finer_grid_agreement(self):
        def f(x, y):
            return -(x - 1.234) ** 2 - (y - 2.345) ** 2
        _, coarse = grid_argmax_2d(f, Interval(0.0, 5.0), 0.1)
        _, fine = grid_argmax_2d(f, Interval(0.0, 5.0), 0.01)
        assert coarse >= fine - 0.1**2  # one-cell resolution bound for unit curvature

    def test_constant_objective_picks_the_first_pair(self):
        # 201 axis points: the tie spans several chunks of rows
        lo, step = 1.5, 0.0125
        for bound in (None, lambda x, y: np.ones_like(x)):
            point, v = grid_argmax_2d(lambda x, y: np.zeros_like(x), Interval(lo, 4.0), step,
                                      bound=bound)
            assert point == (lo, lo + step)
            assert v == 0.0

    def test_bound_prunes_without_changing_the_answer(self):
        # f <= bound everywhere; ties of f (x + y >= 4) keep the first pair
        def f(x, y):
            scored.append(x.size)
            return np.minimum(x + y, 4.0) - (x - 1.0) ** 2

        def bound(x, y):
            return np.minimum(x + y, 4.0) - (x - 1.0) ** 2 + 0.25 * (y - x)

        scored = []
        exhaustive = grid_argmax_2d(f, Interval(0.0, 5.0), 0.05)
        assert sum(scored) == 101 * 100 // 2
        scored.clear()
        assert grid_argmax_2d(f, Interval(0.0, 5.0), 0.05, bound=bound) == exhaustive
        assert sum(scored) < 101 * 100 // 4

    def test_nan_bound_never_prunes_its_pair(self):
        # every other bound sits far below the seed value, so only the pair
        # with a NaN bound survives the pruning and it holds the maximum
        def f(x, y):
            return -(x - 1.0) ** 2 - (y - 2.0) ** 2

        def bound(x, y):
            return np.where((np.abs(x - 1.0) < 1e-9) & (np.abs(y - 2.0) < 1e-9),
                            math.nan, -1e9)

        (x, y), v = grid_argmax_2d(f, Interval(0.0, 5.0), 0.1, bound=bound)
        assert (x, y) == (pytest.approx(1.0, abs=1e-12), pytest.approx(2.0, abs=1e-12))
        assert v == pytest.approx(0.0, abs=1e-24)

    def test_block_bound_drops_blocks_without_changing_the_answer(self):
        # 201 axis points, four chunks of rows; the block bound is the largest
        # bound over each block's pairs. The first call of the bound is the
        # seed's: the 101 * 100 / 2 pairs of every second axis point.
        def f(x, y):
            return -(x - 1.0) ** 2 - (y - 2.0) ** 2

        def bound(x, y):
            bounded.append(x.size)
            return f(x, y) + 0.01

        def block_bound(x, y_lo, y_hi):
            gap = np.maximum(np.maximum(y_lo - 2.0, 2.0 - y_hi), 0.0)
            return -(x - 1.0) ** 2 - gap ** 2 + 0.01

        bounded = []
        domain, step = Interval(0.0, 4.0), 0.02
        exhaustive = grid_argmax_2d(f, domain, step)
        full = grid_argmax_2d(f, domain, step, bound=bound)
        assert full == exhaustive
        assert bounded[0] == 101 * 100 // 2 and sum(bounded[1:]) == 201 * 200 // 2
        bounded.clear()
        pruned = grid_argmax_2d(f, domain, step, bound=bound, block_bound=block_bound)
        assert pruned == exhaustive and bounded[0] == 101 * 100 // 2
        assert 0 < sum(bounded[1:]) < 201 * 200 // 2 and max(bounded) <= 64 * 200

    def test_threshold_rises_with_the_best_score(self):
        # f peaks at x = 2.54, row 127, the last row of the second chunk and
        # off the seed's sub-grid of even rows, whose best is 0.02^2 lower.
        # Rows 126 and 127 bound at or above the seed and are bounded; once
        # row 127 is scored, row 128, the first of the third chunk, bounds
        # below the best and is dropped, though it reaches the seed
        def f(x, y):
            return -(x - 2.54) ** 2 + 0.0 * y

        def bound(x, y):
            bounded.append(x.size)
            return f(x, y)

        bounded = []
        domain, step = Interval(0.0, 4.0), 0.02
        assert grid_argmax_2d(f, domain, step, bound=bound,
                              block_bound=lambda x, y_lo, y_hi: f(x, x)) == \
            grid_argmax_2d(f, domain, step)
        assert bounded == [101 * 100 // 2, (200 - 126) + (200 - 127)]

    def test_refined_bound_sees_only_the_pairs_the_bound_keeps(self):
        # f <= refined <= bound: the walk takes the refined bound on some of
        # the pairs it bounds, and scores the seed's pairs and some of the
        # refined ones; a NaN refined bound (row x = 1) keeps its pair
        def f(x, y):
            scored.append(set(zip(x.tolist(), y.tolist())))
            return -(x - 1.0) ** 2 - (y - 2.0) ** 2

        def bound(x, y):
            bounded.append(set(zip(x.tolist(), y.tolist())))
            return -(x - 1.0) ** 2 - (y - 2.0) ** 2 + 0.5

        def refined(x, y):
            seen.append(set(zip(x.tolist(), y.tolist())))
            return np.where(np.abs(x - 1.0) < 1e-9, math.nan,
                            -(x - 1.0) ** 2 - (y - 2.0) ** 2 + 0.01)

        domain, step = Interval(0.0, 4.0), 0.02
        scored, bounded, seen = [], [], []
        exhaustive = grid_argmax_2d(f, domain, step)
        scored.clear()
        assert grid_argmax_2d(f, domain, step, bound=bound) == exhaustive
        scored_by_bound = set().union(*scored)
        scored.clear()
        bounded.clear()
        assert grid_argmax_2d(f, domain, step, bound=bound, refined=refined) == exhaustive
        walked, refined_pairs = set().union(*bounded[1:]), set().union(*seen)
        scored_pairs = set().union(*scored[1:])  # the first call scores the seed's pairs
        assert refined_pairs <= walked and scored_pairs <= refined_pairs
        assert len(scored_pairs) < len(scored_by_bound)
        nan_row = {pair for pair in refined_pairs if abs(pair[0] - 1.0) < 1e-9}
        assert nan_row and nan_row <= scored_pairs

    def test_nan_block_bound_never_drops_its_block(self):
        # the maximum sits in the last chunk, in the one block whose bound is
        # NaN; every other block bound lies far below the first chunk's best
        def f(x, y):
            return -(x - 3.5) ** 2 - (y - 3.8) ** 2

        def block_bound(x, y_lo, y_hi):
            holds = (np.abs(x - 3.5) < 1e-9) & (y_lo <= 3.8 + 1e-9) & (y_hi >= 3.8 - 1e-9)
            return np.where(holds, math.nan, -1e9)

        domain, step = Interval(0.0, 4.0), 0.02
        assert grid_argmax_2d(f, domain, step, block_bound=block_bound) == \
            grid_argmax_2d(f, domain, step)

    def test_empty_feasible_grid(self):
        # an axis of fewer than 2 points holds no pair x < y
        for domain, step in ((Interval(0.0, 0.4), 0.5), (Interval(1.0, 1.0), 0.1)):
            with pytest.raises(ValueError, match="fewer than 2"):
                grid_argmax_2d(lambda x, y: x + y, domain, step)

    def test_bad_step(self):
        for step in (0.0, -0.5, math.nan):
            with pytest.raises(ValueError, match="step"):
                grid_argmax_2d(lambda x, y: x, Interval(0.0, 1.0), step)


class TestGridArgmaxAxis:
    @staticmethod
    def _search(c, scored=None):
        # f peaks at (c, c + 1); the bounds hold above it by their margins
        def f(x, y):
            if scored is not None:
                scored.append(x.size)
            return -(x - c) ** 2 - (y - c - 1.0) ** 2

        def block_bound(x, y_lo, y_hi):
            gap = np.maximum(np.maximum(y_lo - c - 1.0, c + 1.0 - y_hi), 0.0)
            return -(x - c) ** 2 - gap ** 2 + 0.02

        return numerics.GridSearch(f, bound=lambda x, y: f(x, y) + 0.01,
                                   block_bound=block_bound,
                                   refined=lambda x, y: f(x, y) + 0.005)

    def test_each_search_equals_its_walk_alone(self):
        domain, step = Interval(0.0, 4.0), 0.01
        searches = [self._search(c) for c in (0.3, 1.7, 2.95)]
        got = numerics.grid_argmax_axis(searches, domain, step)
        assert got == [grid_argmax_2d(*s[:1], domain, step, *s[1:2], s.block_bound, s.refined)
                       for s in searches]
        assert got == [grid_argmax_2d(s.f, domain, step) for s in searches]

    def test_block_geometry_is_built_once_a_group(self, monkeypatch):
        # a block geometry that is the blocks' own arrays, built once per
        # group of blocks and once for the seed's pairs; with groups of at
        # most 450 blocks the 1,456 blocks of 401 points take four, and
        # every pair is walked as with one group
        built = []

        def geometry(x, y_lo, y_hi):
            built.append(x.size)
            return x, y_lo, y_hi

        domain, step = Interval(0.0, 4.0), 0.01
        searches = [self._search(c) for c in (0.3, 1.7, 2.95)]
        whole = numerics.grid_argmax_axis(searches, domain, step, block_geometry=geometry)
        assert built[1:] == [sum(r.size for r, _, _ in numerics._block_groups(401))]
        monkeypatch.setattr(numerics, "_GRID_GROUP_BLOCKS", 450)
        built.clear()
        assert numerics.grid_argmax_axis(searches, domain, step,
                                         block_geometry=geometry) == whole
        assert len(built) == 5 and max(built[1:]) <= 450
        assert whole == [grid_argmax_2d(s.f, domain, step) for s in searches]

    @pytest.mark.parametrize("n,group", [(2, 1 << 16), (65, 1 << 16), (130, 1 << 16),
                                         (401, 1 << 16), (401, 300)])
    def test_block_groups_cut_the_triangle_in_order(self, monkeypatch, n, group):
        # every pair i < j once, blocks of at most 64 columns in
        # lexicographic order, groups of whole chunks of 64 rows
        monkeypatch.setattr(numerics, "_GRID_GROUP_BLOCKS", group)
        groups = list(numerics._block_groups(n))
        r, lo, hi = (np.concatenate(a) for a in zip(*groups))
        i, j = numerics._segment_pairs(r, lo, hi)
        assert (i.tolist(), j.tolist()) == tuple(x.tolist() for x in np.triu_indices(n, k=1))
        assert np.all(hi - lo < 64) and np.all(lo > r)
        for g_r, _, _ in groups[1:]:
            assert g_r[0] % 64 == 0
        chunk = max(np.bincount(r // 64))
        assert all(g_r.size <= max(group, chunk) for g_r, _, _ in groups)

    def test_a_failing_search_raises_as_alone(self):
        # beside a search that answers, the lockstep raises the error that
        # grid_argmax_2d raises on the failing search alone
        domain, step = Interval(0.0, 4.0), 0.01
        good = self._search(1.7)

        def bad(x, y):
            if np.any(x > 1.5):
                raise ArithmeticError("synthetic failure past 1.5")
            return good.f(x, y)

        with pytest.raises(ArithmeticError) as alone:
            grid_argmax_2d(bad, domain, step, good.bound, good.block_bound, good.refined)
        with pytest.raises(ArithmeticError) as got:
            numerics.grid_argmax_axis([good, good._replace(f=bad)], domain, step)
        assert type(got.value) is type(alone.value) is ArithmeticError
        assert str(got.value) == str(alone.value) == "synthetic failure past 1.5"


class TestStepCount:
    def test_counts_up_to_the_maximum_and_refuses_past_it(self):
        # 0, 0.1, ..., 9999.9 is the largest axis allowed; one step more is
        # refused with the limit named, as is a count of 1e20 points. Only
        # the refusals run: nothing of that size is built
        assert numerics.step_count(0.0, 9999.9, 0.1, "step") == numerics._MAX_STEPS == 100_000
        for hi, step in ((10_000.0, 0.1), (1e-280, 1e-300)):
            with pytest.raises(ValueError, match="step_db=.*100,000 points"):
                numerics.step_count(0.0, hi, step, "step_db")
        with pytest.raises(ValueError, match="100,000"):
            grid_argmax_2d(lambda x, y: x + y, Interval(0.0, 1e6), 1e-3)


class TestConfigTypes:
    def test_interval(self):
        with pytest.raises(ValueError):
            Interval(2.0, 1.0)
        with pytest.raises(ValueError):
            Interval(math.inf, math.inf)
        # both consumers search a finite range: an open end is refused up front
        for lo, hi in ((0.0, OPEN_END), (0.0, math.nan), (math.nan, 1.0)):
            with pytest.raises(ValueError, match="finite"):
                Interval(lo, hi)
