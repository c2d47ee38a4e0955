import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wpcn.numerics import (
    ConvergenceError,
    Interval,
    OPEN_END,
    ToleranceSpec,
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
            ref = integrate(lambda t: math.exp(-t) / t, x, OPEN_END)
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
        with pytest.raises(ValueError):
            lambert_w0(-0.4)


class TestIntegrate:
    def test_unit_exponential_normalization(self):
        assert integrate(lambda g: math.exp(-g), 0.0, OPEN_END) == pytest.approx(1.0, abs=1e-12)

    def test_unit_exponential_mean(self):
        assert integrate(lambda g: g * math.exp(-g), 0.0, OPEN_END) == pytest.approx(1.0, abs=1e-12)

    def test_tail_moment(self):
        # closed antiderivative (g+1)e^{-g} evaluated at 1 gives 2/e
        assert integrate(lambda g: g * math.exp(-g), 1.0, OPEN_END) == pytest.approx(
            2.0 * math.exp(-1.0), abs=1e-12
        )

    def test_empty_interval(self):
        assert integrate(math.exp, 2.0, 2.0) == 0.0

    def test_bad_bounds(self):
        with pytest.raises(ValueError):
            integrate(math.exp, 1.0, 0.0)

    def test_nonconvergence_reported(self):
        with pytest.raises(ConvergenceError, match="error estimate"):
            integrate(lambda t: 1.0 / t, 0.0, 1.0)

    @pytest.mark.parametrize("a,b", [(0.0, OPEN_END), (0.5, 3.0)])
    def test_vector_integrand_matches_its_components(self, a, b):
        parts = (
            lambda t: math.exp(-t),
            lambda t: t * t * math.exp(-t),
            lambda t: math.log1p(50.0 * t) * math.exp(-t),
        )
        got = integrate(lambda t: np.array([f(t) for f in parts]), a, b)
        assert got.shape == (3,)
        for value, f in zip(got, parts):
            assert value == pytest.approx(integrate(f, a, b), rel=1e-12, abs=1e-12)

    def test_float_integrand_returns_float(self):
        # a numpy scalar integrand must not leak a numpy scalar into results
        assert type(integrate(lambda t: np.exp(-t), 0.0, 1.0)) is float
        assert type(integrate(math.exp, 2.0, 2.0)) is float

    @pytest.mark.parametrize("singular", [0, 1])
    def test_one_singular_component_fails_the_gate(self, singular):
        def f(t):
            out = [math.exp(-t), math.exp(-t)]
            out[singular] = 1.0 / t
            return np.array(out)
        with pytest.raises(ConvergenceError, match="error estimate"):
            integrate(f, 0.0, 1.0)


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

    def test_respects_max_iter(self):
        tol = ToleranceSpec(abs_tol=1e-15, max_iter=3)
        with pytest.warns(UserWarning):
            x, _ = maximize_scalar(lambda x: -(x - 2.0) ** 2, Interval(0.0, 10.0), tol)
        assert 0.0 <= x <= 10.0


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
        lo, step = 1.5, 0.125
        point, v = grid_argmax_2d(lambda x, y: np.zeros_like(x), Interval(lo, 4.0), step)
        assert point == (lo, lo + step)
        assert v == 0.0

    def test_empty_feasible_grid(self):
        # an axis of fewer than 2 points holds no pair x < y
        for domain, step in ((Interval(0.0, 0.4), 0.5), (Interval(1.0, 1.0), 0.1)):
            with pytest.raises(ValueError, match="fewer than 2"):
                grid_argmax_2d(lambda x, y: x + y, domain, step)
        with pytest.raises(ValueError, match="bounded"):
            grid_argmax_2d(lambda x, y: x + y, Interval(0.0, OPEN_END), 0.1)

    def test_bad_step(self):
        for step in (0.0, -0.5, math.nan):
            with pytest.raises(ValueError, match="step"):
                grid_argmax_2d(lambda x, y: x, Interval(0.0, 1.0), step)


class TestConfigTypes:
    def test_tolerance_spec(self):
        with pytest.raises(ValueError):
            ToleranceSpec(abs_tol=0.0)
        with pytest.raises(ValueError):
            ToleranceSpec(max_iter=0)

    def test_interval(self):
        with pytest.raises(ValueError):
            Interval(2.0, 1.0)
        with pytest.raises(ValueError):
            Interval(math.inf, math.inf)
        assert Interval(0.0, OPEN_END).unbounded
