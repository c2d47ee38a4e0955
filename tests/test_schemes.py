import math
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from wpcn import channel, numerics, optimize, schemes, sim
from wpcn.numerics import OPEN_END, integrate
from wpcn.schemes import BandPolicy, HTTPolicy, SystemParams

P10 = SystemParams.from_snr_db(10.0)


def _params_with_gammabar(band, gammabar):
    """Choose p_d (gbar = sigma2 = 1) so the band's expected SNR is gammabar."""
    return SystemParams(p_d=gammabar / schemes.band_uplink(*band, SystemParams(p_d=1.0))[0])


class TestSystemParams:
    def test_validation(self):
        # an infinite p_d would meet inf * 0 in band_uplink
        for name in ("p_d", "gbar", "sigma2"):
            for bad in (0.0, -1.0, math.inf, math.nan):
                fields = dict(p_d=1.0, gbar=1.0, sigma2=1.0)
                fields[name] = bad
                with pytest.raises(ValueError, match=name):
                    SystemParams(**fields)

    @pytest.mark.parametrize("kwargs,name", [
        (dict(snr_db=10.0, gbar=0.0), "gbar"),
        (dict(snr_db=10.0, gbar=math.inf), "gbar"),
        (dict(snr_db=10.0, sigma2=math.inf), "sigma2"),
        (dict(snr_db=10.0, sigma2=0.0), "sigma2"),
        (dict(snr_db=math.nan), "snr_db"),
        (dict(snr_db=math.inf), "snr_db"),
        (dict(snr_db=-math.inf), "snr_db"),
        (dict(snr_db=-4000.0), "snr_db"),  # 10^-400 underflows to 0
        (dict(snr_db=4000.0), "snr_db"),   # 10^400 overflows
        # p_d = rho sigma2 / gbar^2 leaves (0, inf) for extreme but valid constants
        (dict(snr_db=10.0, gbar=1e-200), "gbar"),   # gbar^2 underflows to 0
        (dict(snr_db=10.0, gbar=1e200), "gbar"),    # gbar^2 overflows
        (dict(snr_db=10.0, gbar=1e-160), "gbar"),   # p_d overflows
        (dict(snr_db=10.0, gbar=1e150, sigma2=1e-300), "gbar"),  # p_d underflows to 0
    ])
    def test_snr_shorthand_names_the_bad_input(self, kwargs, name):
        with pytest.raises(ValueError, match=name):
            SystemParams.from_snr_db(**kwargs)

    def test_snr_shorthand(self):
        p = SystemParams.from_snr_db(20.0, gbar=2.0, sigma2=0.5)
        assert p.dl_snr == pytest.approx(100.0, rel=1e-12)


class TestHttInstantSnr:
    def test_zero_gain(self):
        assert schemes.htt_instant_snr(0.0, P10) == 0.0

    def test_quadratic_in_gain(self):
        one = schemes.htt_instant_snr(1.0, P10)
        assert schemes.htt_instant_snr(2.0, P10) == pytest.approx(4.0 * one, rel=1e-14)

    def test_unit_substitution(self):
        p = SystemParams(p_d=1.0, gbar=1.0, sigma2=1.0)
        assert schemes.htt_instant_snr(1.0, p) == 1.0

    @pytest.mark.parametrize("g", [2.0, np.array([0.5, 2.0]), 0.0])
    def test_overflow_names_the_downlink_power(self, g):
        # p_d gbar^2 = 1.6e309 is already inf, so g = 0 meets inf * 0;
        # RuntimeWarning is an error under pytest
        with pytest.raises(ValueError, match="p_d"):
            schemes.htt_instant_snr(g, SystemParams(p_d=1e308, gbar=4.0))


def _frame_rate(gamma, tau):
    """(1 - tau) log2(1 + gamma tau/(1 - tau)), and 0 at a whole-frame harvest tau = 1."""
    t = np.where(tau == 1.0, 0.0, tau)
    return (1.0 - t) * np.log1p(gamma * t / (1.0 - t)) / schemes.LN2


class TestHttInstantRate:
    """The per-frame rate, the second output of ``htt_frame``."""

    def test_no_harvest_no_rate(self):
        # a frame with zero SNR harvests all of it and sends nothing
        g = np.array([0.0, 1e-200])
        tau, rate, power = schemes.htt_frame(g, P10)
        assert tau.tolist() == [1.0, 1.0]
        assert rate.tolist() == [0.0, 0.0] and power.tolist() == [0.0, 0.0]

    def test_vanishes_as_tau_approaches_one(self):
        # gamma = g^2 = 1e-24: the split is within 1e-11 of the whole frame
        tau, rate, _ = schemes.htt_frame(1e-12, SystemParams(p_d=1.0))
        assert 1.0 - 1e-11 < tau < 1.0
        assert 0.0 < rate < 1e-10

    def test_zero_gain(self):
        tau, rate, power = schemes.htt_frame(0.0, P10)
        assert type(rate) is float and (tau, rate, power) == (1.0, 0.0, 0.0)

    def test_domain(self):
        for g in (-0.1, np.array([0.5, -0.1])):
            with pytest.raises(ValueError, match="gain must be >= 0"):
                schemes.htt_frame(g, P10)
        g = np.linspace(0.0, 50.0, 501)
        for snr_db in (-60.0, 10.0, 90.0):
            rate = schemes.htt_frame(g, SystemParams.from_snr_db(snr_db))[1]
            assert np.all(np.isfinite(rate)) and np.all(rate >= 0.0)


class TestHttOptimalTau:
    def test_unit_snr_limit(self):
        assert schemes.htt_optimal_tau(1.0) == pytest.approx((math.e - 1.0) / math.e, abs=1e-12)

    def test_matches_grid_oracle(self):
        taus = np.arange(1e-6, 1.0, 1e-6)
        for gamma in (0.1, 1.0, 10.0, 250.0):
            rates = (1.0 - taus) * np.log2(1.0 + gamma * taus / (1.0 - taus))
            grid_tau = taus[np.argmax(rates)]
            tau = schemes.htt_optimal_tau(gamma)
            assert abs(tau - grid_tau) <= 1e-4
            assert schemes.htt_frame(1.0, SystemParams(p_d=gamma))[1] >= np.max(rates) - 1e-8

    def test_stationarity_residual(self):
        for gamma in np.logspace(-2, 4, 25):
            tau = schemes.htt_optimal_tau(gamma)
            x = tau / (1.0 - tau)
            residual = (gamma + gamma * x) / (1.0 + gamma * x) - math.log1p(gamma * x)
            assert abs(residual) <= 1e-8

    def test_beats_neighbors(self):
        for gamma in np.logspace(-2, 4, 25):
            p = SystemParams(p_d=gamma)  # gbar = sigma2 = 1, so snr(1) = gamma
            tau, best, _ = schemes.htt_frame(1.0, p)
            assert tau == schemes.htt_optimal_tau(gamma)
            for nudge in (-1e-4, 1e-4):
                other = min(max(tau + nudge, 0.0), 1.0 - 1e-12)
                assert best >= _frame_rate(gamma, other) - 1e-12

    def test_finite_where_w0_meets_its_branch_point(self):
        # (gamma - 1)/e rounds to the branch point -exp(-1.0) for tiny gamma
        tau = schemes.htt_optimal_tau(np.logspace(-40, -10, 31))
        assert np.all(np.isfinite(tau))
        assert np.all((tau >= 0.0) & (tau < 1.0))

    def test_domain(self):
        with pytest.raises(ValueError):
            schemes.htt_optimal_tau(0.0)
        with pytest.raises(ValueError):
            schemes.htt_optimal_tau(-2.0)


def _where_optimal_tau(gamma):
    """``htt_optimal_tau`` as it was written before its rare branches were
    computed on their own masks: every branch on every frame, picked by np.where."""
    arr = np.asarray(gamma, dtype=float)
    w = numerics.lambert_w0((arr - 1.0) / math.e)
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        denom = (w + 1.0) * (arr - 1.0)
        huge = (arr - 1.0 - w) / (arr - 1.0) / (w + 1.0)
        tau = np.where(np.isinf(denom), huge, (arr - 1.0 - w) / denom)
    tau = np.where(denom == 0.0, 1.0 - np.sqrt(arr / 2.0), tau)
    tau = np.where(np.abs(arr - 1.0) < 1e-9, 1.0 - 1.0 / math.e, tau)
    return np.clip(tau, 0.0, 1.0 - 1e-16)


def _where_htt_frame(g, params):
    """``htt_frame`` on an array, as it was written with ``_where_optimal_tau``."""
    gamma = schemes.htt_instant_snr(g, params)
    tau = np.ones_like(gamma)
    live = gamma > 0.0
    if live.any():
        tau[live] = _where_optimal_tau(gamma[live])
    split = np.where(live, tau, 0.0)
    rate = (1.0 - split) * np.log1p(gamma * split / (1.0 - split)) / schemes.LN2
    power = split / (1.0 - split) * params.p_d * params.gbar * g
    return tau, rate, power


# SNRs that take each rare branch of the split: an infinite (w + 1)(gamma - 1),
# W0 rounding to -1 (gamma below ~1e-32), and |gamma - 1| < 1e-9
RARE_SNRS = {
    "infinite-denom": [3e305, 1e306, 4.4e307, 1.7976931348623157e308],
    "zero-denom": [1e-33, 3.7e-40, 1e-300, 5e-324],
    "unit-snr": [1.0, 1.0 + 2e-16, 1.0 - 5e-10, 1.0 + 9.9e-10],
}
ORDINARY_SNRS = [1e-30, 0.01, 0.5, 1.0 + 2e-9, 3.0, 10.0, 1e5, 1e300]


def _branch_snrs(branch: str) -> np.ndarray:
    """The SNRs of one rare branch, or of every branch and the ordinary ones, shuffled."""
    if branch in RARE_SNRS:
        return np.array(RARE_SNRS[branch])
    mixed = [x for xs in RARE_SNRS.values() for x in xs] + ORDINARY_SNRS
    return np.random.default_rng(5).permutation(mixed)


class TestHttSplitRareBranches:
    """The split's rare branches, pinned bit for bit to the np.where form."""

    @pytest.mark.parametrize("branch", [*RARE_SNRS, "mixed"])
    def test_optimal_tau_matches_the_where_form(self, branch):
        gamma = _branch_snrs(branch)
        want = _where_optimal_tau(gamma)
        assert schemes.htt_optimal_tau(gamma).tobytes() == want.tobytes()
        assert [schemes.htt_optimal_tau(float(x)) for x in gamma] == want.tolist()
        assert schemes.htt_optimal_tau(gamma.reshape(-1, 2)).tobytes() == want.tobytes()

    @pytest.mark.parametrize("branch", [*RARE_SNRS, "mixed"])
    @pytest.mark.parametrize("with_zero_snr", [False, True], ids=["all-live", "zero-snr-frames"])
    def test_htt_frame_matches_the_where_form(self, branch, with_zero_snr):
        # gbar = sigma2 = 1, so a frame's SNR is p_d g^2: g = sqrt(gamma) at p_d = 1
        g = np.sqrt(_branch_snrs(branch))
        if with_zero_snr:
            g = np.concatenate((g, [0.0, 1e-200]))  # g^2 underflows at 1e-200
        g = np.random.default_rng(len(g)).permutation(g)
        params = SystemParams(p_d=1.0)
        got, want = schemes.htt_frame(g, params), _where_htt_frame(g, params)
        for name, x, y in zip(("tau", "rate", "power"), got, want):
            assert x.tobytes() == y.tobytes(), name


class TestHttTau:
    """The per-frame split, the first output of ``htt_frame``."""

    def test_whole_frame_harvest_where_the_snr_is_zero(self):
        # g**2 underflows to 0 at 1e-200, so that frame has no SNR either
        assert schemes.htt_instant_snr(1e-200, P10) == 0.0
        for g in (0.0, 1e-200):
            tau = schemes.htt_frame(g, P10)[0]
            assert type(tau) is float and tau == 1.0
        assert schemes.htt_frame(np.array([0.0, 1e-200]), P10)[0].tolist() == [1.0, 1.0]

    def test_optimal_split_of_the_frame_snr_elsewhere(self):
        g = np.array([1e-150, 1e-20, 1e-3, 0.3, 1.0 / math.sqrt(10.0), 1.0, 2.5, 7.0, 40.0])
        expect = schemes.htt_optimal_tau(schemes.htt_instant_snr(g, P10))
        assert np.array_equal(schemes.htt_frame(g, P10)[0], expect)
        for x, t in zip(g, expect):
            assert schemes.htt_frame(float(x), P10)[0] == t

    def test_float_in_float_out_and_shape_kept(self):
        assert type(schemes.htt_frame(1.0, P10)[0]) is float
        assert type(schemes.htt_frame(np.float64(1.0), P10)[0]) is float
        grid = np.array([[0.0, 0.5, 1.0], [2.0, 1e-200, 3.0]])
        tau = schemes.htt_frame(grid, P10)[0]
        assert tau.shape == (2, 3)
        assert tau[0, 0] == tau[1, 1] == 1.0
        assert tau[1, 2] == schemes.htt_frame(3.0, P10)[0]
        assert schemes.htt_frame(np.array([0.7]), P10)[0].shape == (1,)

    def test_domain(self):
        with pytest.raises(ValueError):
            schemes.htt_frame(-0.1, P10)


@st.composite
def _frame_case(draw):
    """(g, snr_db), snr_db in -60..90, with g aimed at each branch of the split."""
    snr_db = draw(st.floats(min_value=-60.0, max_value=90.0))
    rho = SystemParams.from_snr_db(snr_db).dl_snr  # gamma = rho g^2 at gbar = sigma2 = 1
    kind = draw(st.sampled_from(["zero", "underflow", "unit", "tiny", "any"]))
    if kind == "zero":
        g = 0.0
    elif kind == "underflow":  # g^2 rounds to 0: the whole frame harvests
        g = draw(st.floats(min_value=0.0, max_value=1e-163))
    elif kind == "unit":  # gamma within about 1e-9 of 1: the limit 1 - 1/e
        g = math.sqrt(1.0 / rho) * (1.0 + draw(st.floats(min_value=-1e-9, max_value=1e-9)))
    elif kind == "tiny":  # gamma below 1e-32: the asymptote 1 - sqrt(gamma/2)
        g = math.sqrt(10.0 ** draw(st.floats(min_value=-300.0, max_value=-32.0)) / rho)
    else:
        g = draw(st.floats(min_value=0.0, max_value=50.0))
    return g, snr_db


def _count_htt_rounds(monkeypatch):
    """Rebind the HTT quadrature and W0 to wrappers that record the nodes of
    each integrand call and each W0 call."""
    nodes, w_calls = [], []
    real_integrate, real_w0 = schemes.integrate_lockstep, schemes.lambert_w0

    def counting_integrate(f, ends):
        return real_integrate(lambda g, owner: nodes.append(len(g)) or f(g, owner), ends)

    def counting_w0(x):
        w_calls.append(x)
        return real_w0(x)

    monkeypatch.setattr(schemes, "integrate_lockstep", counting_integrate)
    monkeypatch.setattr(schemes, "lambert_w0", counting_w0)
    return nodes, w_calls


class TestHttFrame:
    @given(case=_frame_case())
    @settings(max_examples=300, deadline=None)
    def test_float_and_array_paths_agree_bitwise(self, case):
        # nine copies: numpy's vector loops run a full block and a tail
        g, snr_db = case
        params = SystemParams.from_snr_db(snr_db)
        one = schemes.htt_frame(g, params)
        many = schemes.htt_frame(np.full(9, g), params)
        for x, column in zip(one, many):
            assert type(x) is float
            assert {repr(float(c)) for c in column} == {repr(x)}

    def test_each_branch_of_the_split(self):
        p = SystemParams(p_d=1.0)  # gamma = g^2
        assert schemes.htt_frame(0.0, p) == (1.0, 0.0, 0.0)
        assert schemes.htt_frame(1e-200, p) == (1.0, 0.0, 0.0)
        assert schemes.htt_frame(1.0, p)[0] == schemes._TAU_AT_UNIT_SNR
        # 1 - sqrt(gamma/2) rounds above the clip below 1
        small = min(1.0 - math.sqrt(1e-40 / 2.0), schemes._TAU_MAX)
        assert schemes.htt_frame(1e-20, p)[0] == small
        tau, rate, power = schemes.htt_frame(3.0, p)
        assert tau == schemes.htt_optimal_tau(9.0)
        assert rate == _frame_rate(9.0, tau)
        assert power == tau / (1.0 - tau) * 3.0

    def test_rate_is_the_instant_rate_of_the_split(self):
        g = np.array([0.0, 1e-200, 1e-20, 0.3, 1.0, 7.0])
        tau, rate, _ = schemes.htt_frame(g, P10)
        assert np.array_equal(_frame_rate(schemes.htt_instant_snr(g, P10), tau), rate)

    @pytest.mark.parametrize("g", [0.6, 1.0, 3.0])
    def test_split_where_the_denominator_overflows_matches_mpmath(self, g):
        # gamma = 1e306 g^2 fits, but (W0 + 1)(gamma - 1) overflows to inf:
        # the split must still be the optimum, on both paths, with no warning
        params = SystemParams(p_d=1e306)
        with mpmath.workdps(40):
            gamma = mpmath.mpf(1e306) * mpmath.mpf(g) ** 2
            w = mpmath.lambertw((gamma - 1) / mpmath.e).real
            tau_ref = (gamma - 1 - w) / ((w + 1) * (gamma - 1))
            rate_ref = (1 - tau_ref) * mpmath.log(1 + gamma * tau_ref / (1 - tau_ref), 2)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            tau, rate, _ = schemes.htt_frame(g, params)
            many = schemes.htt_frame(np.full(9, g), params)
        assert tau == pytest.approx(float(tau_ref), rel=1e-14)
        assert rate == pytest.approx(float(rate_ref), rel=1e-14)
        for x, column in zip((tau, rate), many):
            assert {repr(float(c)) for c in column} == {repr(x)}

    @pytest.mark.parametrize("g", [-0.1, math.nan])
    def test_rejects_a_negative_or_nan_gain_on_both_paths(self, g):
        for gain in (g, np.array([0.5, g])):
            with pytest.raises(ValueError, match="gain must be >= 0"):
                schemes.htt_frame(gain, P10)

    @pytest.mark.parametrize("g", [2.0, 0.0])
    def test_frame_snr_overflow_raises_the_same_message(self, g):
        # p_d gbar^2 overflows to inf, and inf * 0 is NaN at g = 0
        params = SystemParams(p_d=1e308, gbar=4.0)
        with pytest.raises(ValueError) as one:
            schemes.htt_frame(g, params)
        with pytest.raises(ValueError) as many:
            schemes.htt_frame(np.array([g]), params)
        assert str(one.value) == str(many.value)
        assert "frame SNR" in str(one.value) and "p_d" in str(one.value)

    def test_quadrature_node_count_at_ten_db(self, monkeypatch):
        # a count gate, not a timing: the quadrature calls the integrand once
        # a round, on the 21 nodes of each interval it splits (7 calls on 273
        # nodes measured), and each call runs W0 once
        nodes, w_calls = _count_htt_rounds(monkeypatch)
        schemes.htt_ergodic_throughput(P10)
        assert 0 < len(nodes) <= 7
        assert all(n % 21 == 0 for n in nodes)
        assert 0 < sum(nodes) <= 273
        assert len(w_calls) == len(nodes)


def _htt_reference(snr_db):
    """mpmath quadrature of HTT's rate, power and mean split at gbar = sigma2 = 1.

    The split enters through tau/(1-tau) = (gamma-1-w)/(w gamma), with
    w = W0((gamma-1)/e), so 1 - tau is never formed by cancellation.
    """
    with mpmath.workdps(30):
        rho = mpmath.mpf(10) ** (mpmath.mpf(snr_db) / 10)

        def odds(g):  # gamma and tau/(1-tau) of the frame at gain g
            gamma = rho * g * g
            w = mpmath.lambertw((gamma - 1) / mpmath.e).real
            return gamma, (gamma - 1 - w) / (w * gamma)

        def rate(g):
            gamma, r = odds(g)
            return mpmath.log(1 + gamma * r, 2) / (1 + r) * mpmath.exp(-g)

        def power(g):
            return odds(g)[1] * rho * g * mpmath.exp(-g)

        def tau(g):
            r = odds(g)[1]
            return r / (1 + r) * mpmath.exp(-g)

        # split the range where gamma = 1, at the removable 0/0 of the odds
        knots = [0, 1 / mpmath.sqrt(rho), mpmath.inf]
        return tuple(float(mpmath.quad(f, knots)) for f in (rate, power, tau))


class TestHttErgodic:
    # measured relative errors: at most 2e-15 for rate and tau, 1e-12 for
    # the power at -20 dB; at most 5e-16 for all three from 20 to 90 dB
    @pytest.mark.parametrize("snr_db", [-20.0, 0.0, 10.0, 20.0, 30.0, 45.0, 60.0, 75.0, 90.0])
    def test_one_pass_matches_mpmath(self, snr_db):
        rate, power, tau = _htt_reference(snr_db)
        ev = schemes.htt_ergodic_throughput(SystemParams.from_snr_db(snr_db))
        assert ev.throughput_bits == pytest.approx(rate, rel=1e-13)
        assert ev.ul_power == pytest.approx(power, rel=1e-11)
        assert ev.tau_mean == pytest.approx(tau, rel=1e-13)
        assert ev.expected_ul_snr_gammabar == ev.ul_power

    # At low SNR the power (1.4 mW at -60 dB, 14 mW at -40 dB) is only as
    # good as quad_vec's absolute tolerance: errors of 1-2e-12 W, which are
    # 1.4e-9 relative at -60 dB, 5e-11 at -50 dB and 8.4e-11 at -40 dB. So
    # the power is held to the 1e-10 absolute error gate of ``integrate``,
    # and so is the mean split at -60 and -50 dB (1.1e-13 relative at
    # -60 dB). The rate meets 1e-13 relative throughout (at most 3.4e-15).
    @pytest.mark.parametrize("snr_db, tau_rel", [(-60.0, None), (-50.0, None), (-40.0, 1e-13)])
    def test_low_snr_meets_the_absolute_gate(self, snr_db, tau_rel):
        rate, power, tau = _htt_reference(snr_db)
        ev = schemes.htt_ergodic_throughput(SystemParams.from_snr_db(snr_db))
        assert ev.throughput_bits == pytest.approx(rate, rel=1e-13)
        assert abs(ev.ul_power - power) <= 1e-10
        if tau_rel is None:
            assert abs(ev.tau_mean - tau) <= 1e-10
        else:
            assert ev.tau_mean == pytest.approx(tau, rel=tau_rel)

    # a power of thousands of watts, which the separate integrals also met
    # the gate on; measured relative errors at most 9e-16
    @pytest.mark.parametrize("snr_db", [41.0, 42.0, 43.0, 44.0])
    def test_kilowatt_power_passes_the_gate(self, snr_db):
        rate, power, _ = _htt_reference(snr_db)
        ev = schemes.htt_ergodic_throughput(SystemParams.from_snr_db(snr_db))
        assert ev.throughput_bits == pytest.approx(rate, rel=1e-13)
        assert ev.ul_power == pytest.approx(power, rel=1e-13)

    def test_threshold_policies_have_no_mean_split(self):
        assert schemes.evaluate_policy(BandPolicy(g_u=1.0), P10).tau_mean is None

    def test_vanishing_power(self):
        tiny = schemes.htt_ergodic_throughput(SystemParams(p_d=1e-30)).throughput_bits
        assert tiny < 1e-15

    def test_quadrature_vs_monte_carlo(self):
        quad_ev = schemes.htt_ergodic_throughput(P10)
        # sigma of the per-frame rate is of order the mean here; 3 SE window
        est = sim.mc_throughput(HTTPolicy(), P10, 100_000, 11)
        assert abs(quad_ev.throughput_bits - est.mean) <= 3.0 * est.std_error

    def test_monotone_in_downlink_power(self):
        values = [
            schemes.htt_ergodic_throughput(SystemParams(p_d=pd)).throughput_bits
            for pd in (0.1, 1.0, 10.0, 100.0)
        ]
        assert all(a <= b + 1e-12 for a, b in zip(values, values[1:]))


class TestBalanceUlPower:
    def test_nothing_harvested(self):
        assert schemes.balance_ul_power(0.0, OPEN_END, P10) == 0.0

    def test_degenerate_information_set(self):
        with pytest.raises(ValueError):
            schemes.balance_ul_power(1.0, 1.0, P10)

    def test_low_harvest_high_transmit_split(self):
        expected = P10.p_d * P10.gbar * (1.0 - 2.0 / math.e) / math.exp(-1.0)
        assert schemes.balance_ul_power(1.0, OPEN_END, P10) == pytest.approx(expected, rel=1e-13)


class TestUlPowers:
    def test_ip_vanishes_at_large_threshold(self):
        assert schemes.band_uplink(0.0, 40.0, P10)[0] < 1e-14

    def test_ip_known_value(self):
        expected = P10.p_d * P10.gbar * (2.0 / math.e) / (1.0 - 1.0 / math.e)
        assert schemes.band_uplink(0.0, 1.0, P10)[0] == pytest.approx(expected, rel=1e-13)

    @pytest.mark.parametrize("g_u", [0.1, 1.0, 5.0])
    def test_ip_matches_balance(self, g_u):
        ref = schemes.balance_ul_power(*BandPolicy(g_u=g_u).band, P10)
        assert schemes.band_uplink(0.0, g_u, P10)[0] == pytest.approx(ref, rel=1e-12)

    def test_pi_zero_threshold(self):
        assert schemes.band_uplink(0.0, OPEN_END, P10)[0] == 0.0

    def test_pi_known_value(self):
        expected = P10.p_d * P10.gbar * (math.e - 2.0)
        assert schemes.band_uplink(1.0, OPEN_END, P10)[0] == pytest.approx(expected, rel=1e-13)

    @pytest.mark.parametrize("g_l", [0.1, 1.0, 5.0])
    def test_pi_matches_balance(self, g_l):
        ref = schemes.balance_ul_power(*BandPolicy(g_l).band, P10)
        assert schemes.band_uplink(g_l, OPEN_END, P10)[0] == pytest.approx(ref, rel=1e-12)

    def test_pip_reduces_to_ip(self):
        # at g_l = 0 the band form rounds exactly like the IP closed form
        scale = P10.p_d * P10.gbar
        for g_u in (0.05, 1.3, 7.0):
            ip_form = scale * (g_u + 1.0) * math.exp(-g_u) / -math.expm1(-g_u)
            assert schemes.band_uplink(0.0, g_u, P10)[0] == ip_form

    def test_pip_reduces_to_pi(self):
        want = schemes.band_uplink(0.7, OPEN_END, P10)[0]
        assert schemes.band_uplink(0.7, 40.0, P10)[0] == pytest.approx(want, rel=1e-12)

    @pytest.mark.parametrize("gl,gu", [(0.2, 1.0), (1.0, 3.0), (0.05, 9.0)])
    def test_pip_matches_balance(self, gl, gu):
        ref = schemes.balance_ul_power(*BandPolicy(gl, gu).band, P10)
        assert schemes.band_uplink(gl, gu, P10)[0] == pytest.approx(ref, rel=1e-12)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            schemes.band_uplink(0.0, 0.0, P10)
        with pytest.raises(ValueError):
            schemes.band_uplink(-0.1, OPEN_END, P10)
        with pytest.raises(ValueError):
            schemes.band_uplink(2.0, 2.0, P10)


class TestThroughputs:
    def test_ip_shrinking_information_set(self):
        assert schemes.ip_throughput(1e-9, P10) < 1e-6

    def test_ip_vanishing_power_limit(self):
        assert schemes.ip_throughput(39.0, P10) < 1e-12

    def test_pi_zero_threshold_is_zero(self):
        assert schemes.pi_throughput(0.0, P10) == 0.0

    def test_pi_large_threshold(self):
        assert schemes.pi_throughput(35.0, P10) < 1e-10

    @pytest.mark.parametrize("scheme,thresholds", [
        ("ip", (0.7,)), ("ip", (3.0,)),
        ("pi", (0.4,)), ("pi", (2.5,)),
        ("pip", (0.3, 1.8)), ("pip", (1.0, 6.0)),
    ])
    def test_matches_quadrature(self, scheme, thresholds):
        fn = {"ip": schemes.ip_throughput, "pi": schemes.pi_throughput,
              "pip": schemes.pip_throughput}[scheme]
        band = BandPolicy(**dict(zip(optimize.THRESHOLDS[scheme], thresholds))).band
        pu = schemes.balance_ul_power(*band, P10)
        assert fn(*thresholds, P10) == pytest.approx(
            schemes.quad_throughput_oracle(*band, pu, P10), abs=1e-8
        )

    def test_randomized_oracle_equivalence(self):
        rng = np.random.default_rng(8)
        for _ in range(10):
            gammabar = 10.0 ** rng.uniform(-3, 4)
            g_u = rng.uniform(0.05, 10.0)
            g_l = rng.uniform(0.0, 7.0)
            g_hi = g_l + rng.uniform(0.1, 5.0)
            cases = [
                ("ip", (g_u,), schemes.ip_throughput, BandPolicy(g_u=g_u)),
                ("pi", (max(g_l, 0.05),), schemes.pi_throughput, BandPolicy(max(g_l, 0.05))),
                ("pip", (g_l, g_hi), schemes.pip_throughput, BandPolicy(g_l, g_hi)),
            ]
            for scheme, thr, fn, policy in cases:
                params = _params_with_gammabar(policy.band, gammabar)
                pu = schemes.balance_ul_power(*policy.band, params)
                assert abs(fn(*thr, params)
                           - schemes.quad_throughput_oracle(*policy.band, pu, params)) <= 1e-8

    def test_oracle_degenerate_cases(self):
        assert schemes.quad_throughput_oracle(1.0, 1.0, 5.0, P10) == 0.0
        assert schemes.quad_throughput_oracle(0.0, OPEN_END, 0.0, P10) == 0.0

    def test_oracle_rejects_a_negative_power(self):
        with pytest.raises(ValueError, match="ul_power must be >= 0"):
            schemes.quad_throughput_oracle(0.0, 1.0, -1.0, P10)


class TestNarrowBands:
    @given(snr_db=st.floats(min_value=-60.0, max_value=90.0),
           g_l=st.floats(min_value=0.0, max_value=10.0),
           width=st.floats(min_value=-16.0, max_value=-9.0))
    @settings(max_examples=200)
    def test_throughput_never_negative(self, snr_db, g_l, width):
        # the two rate masses cancel on a band this narrow
        g_u = g_l + 10.0 ** width * max(1.0, g_l)
        assume(g_l < g_u)
        params = SystemParams.from_snr_db(snr_db)
        assume(schemes.band_uplink(g_l, g_u, params)[2])
        assert schemes.band_throughput(g_l, g_u, params) >= 0.0
        pair = schemes.band_throughput(np.array([g_l, 0.0]), np.array([g_u, 1.0]), params)
        assert np.all(pair >= 0.0)


class TestThroughputBound:
    @given(snr_db=st.floats(min_value=-60.0, max_value=90.0),
           g_l=st.floats(min_value=0.0, max_value=10.0),
           g_u=st.floats(min_value=0.0, max_value=10.0))
    @settings(max_examples=200)
    def test_bounds_the_closed_form(self, snr_db, g_l, g_u):
        # Jensen's inequality; the 1e-12 covers the closed form's own
        # cancellation on bands a few ulps wide (up to ~2e-14 bits seen)
        assume(g_l < g_u)
        params = SystemParams.from_snr_db(snr_db)
        assume(schemes.band_uplink(g_l, g_u, params)[2])  # else band_throughput raises
        assert schemes.band_throughput_bound(g_l, g_u, params) >= \
            schemes.band_throughput(g_l, g_u, params) - 1e-12

    def test_open_band_and_shape(self):
        g = np.array([0.0, 0.5, 2.0, 6.0])
        bound = schemes.band_throughput_bound(g, OPEN_END, P10)
        assert bound.shape == (4,) and bound[0] == 0.0  # g_l = 0: no harvest, no power
        assert np.all(bound[1:] > schemes.pi_throughput(g[1:], P10))
        assert type(schemes.band_throughput_bound(0.5, 2.0, P10)) is float

    def test_finite_where_the_power_overflows(self):
        # g_l past ~709: e^{g_l} overflows; the bound takes its logarithm in
        # log space, with the harvested mass H rounded to 1, and stays tiny,
        # as the band is
        g_l = np.array([650.0, 708.0, 720.0, 800.0])
        assert list(schemes.band_uplink(g_l, OPEN_END, P10)[2]) == [True, False, False, False]
        bound = schemes.band_throughput_bound(g_l, OPEN_END, P10)
        assert np.all(np.isfinite(bound)) and np.all(bound >= 0.0) and np.all(bound < 1e-270)
        with pytest.raises(schemes.UplinkOverflowError, match="p_d"):
            schemes.pi_throughput(g_l, P10)
        assert schemes.pi_throughput(g_l[:1], P10)[0] <= bound[0]

    def test_overflow_fallback_stays_above_the_jensen_bound(self):
        # gammabar = p_d gbar^2 H/(sigma2 P) overflows here; the fallback
        # keeps the harvested mass H in log space and must stay above the
        # bound P log2(1 + gammabar m/P) evaluated in 30 digits, and below
        # the looser form with H = 1 (404.8335 against 404.8872 bits)
        params = SystemParams(p_d=1e300, gbar=1e5, sigma2=1.0)
        assert not schemes.band_uplink(0.0, 0.5, params)[2]
        with mpmath.workdps(30):
            prob = 1 - mpmath.exp(-0.5)
            mass = 1 - 1.5 * mpmath.exp(-0.5)
            snr = mpmath.mpf(1e300) * mpmath.mpf(1e5) ** 2
            gammabar = snr * (1 - mass) / prob
            jensen = prob * mpmath.log(1 + gammabar * mass / prob, 2)
            harvest_one = prob * mpmath.log(1 + snr / prob * mass / prob, 2)
        bound = schemes.band_throughput_bound(0.0, 0.5, params)
        assert bound >= float(jensen)
        assert bound < float(harvest_one) * (1.0 - 1e-5)

    def test_power_that_fits_while_power_times_gbar_overflows(self):
        # the uplink power fits a float here but power * gbar does not: the
        # band is not eligible, and no numpy overflow warning escapes
        params = SystemParams(p_d=4.592836491614691e303, gbar=7.760618635341894)
        gl, gu = np.array([3.5]), np.array([3.55])
        assert math.isfinite(schemes.band_uplink(3.5, 3.55, params)[0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert not schemes.band_uplink(gl, gu, params)[2][0]
            assert math.isfinite(schemes.band_throughput_bound(gl, gu, params)[0])
            for args in ((3.5, 3.55), (gl, gu)):
                with pytest.raises(schemes.UplinkOverflowError):
                    schemes.band_throughput(*args, params)


class TestThroughputBlockBound:
    @given(snr_db=st.floats(min_value=-60.0, max_value=90.0),
           gain_cap=st.floats(min_value=1e-12, max_value=1e3),
           points=st.floats(min_value=1.0, max_value=1e3, exclude_min=True),
           row=st.floats(min_value=0.0, max_value=1.0),
           start=st.floats(min_value=0.0, max_value=1.0),
           width=st.floats(min_value=0.0, max_value=1.0))
    # row 738 of 836: the band probability is subnormal there, so the bound
    # must round its product with P in the order the pair bound does
    @example(snr_db=-58.195651145076305, gain_cap=835.2813063547396,
             points=835.06996098296, row=738.5 / 835, start=0.0, width=1.0)
    # row 705 of 1001: e^{g_l} overflows on the bands past g_u ~ 709, which
    # are not eligible, and H rounds to 1 on the block
    @example(snr_db=90.0, gain_cap=1000.0, points=1000.0, row=0.705, start=0.0,
             width=0.1)
    @settings(max_examples=300, deadline=None)
    def test_bounds_every_pair_bound_of_its_block(self, snr_db, gain_cap, points, row,
                                                  start, width):
        # the axis of solve_pip's grid; the block bound needs only g_l and
        # the block's first and last g_u
        params = SystemParams.from_snr_db(snr_db)
        xs = numerics._grid_axis(0.0, gain_cap, gain_cap / points)
        i = min(int(row * (xs.size - 1)), xs.size - 2)
        lo = i + 1 + int(start * (xs.size - 2 - i))
        hi = lo + int(width * (xs.size - 1 - lo))
        pairs = schemes.band_throughput_bound(np.full(hi + 1 - lo, xs[i]), xs[lo:hi + 1], params)
        bound = schemes.band_block_bound(*schemes.band_block_geometry(xs[i], xs[lo], xs[hi]),
                                         params)
        assert bound.shape == () and bound >= 0.0
        assert not np.any(pairs > bound)

    def test_is_the_pair_bound_on_a_single_band(self):
        # g_lo = g_hi: H, P and m are the band's own, and the two agree to the
        # padding; at p_d = 1e300 the band overflows and both take the log form
        overflowing = SystemParams(p_d=1e300, gbar=1e5, sigma2=1.0)
        assert not schemes.band_uplink(0.0, 0.5, overflowing)[2]
        for params in (P10, overflowing):
            pair = schemes.band_throughput_bound(0.0, 0.5, params)
            assert pair <= schemes.band_block_bound(*schemes.band_block_geometry(0.0, 0.5, 0.5),
                                                    params) <= pair * (1.0 + 1e-10)

    def test_log_floor_holds_a_subnormal_pair_bound(self, monkeypatch):
        # at p_d = 1.6334e-320 the pair bounds are subnormal, and the block's
        # logarithm, taken below e^-700, would round under its own pair bound
        # at g_lo (1.734e-321 against 1.744e-321): the floor keeps it above
        params = SystemParams(p_d=1.6334e-320, gbar=0.048579910966136425,
                              sigma2=0.04756593213725163)
        g_l, g_lo, g_hi = 1.5099950816107066, 1.9887582600351668, 1.9903282733239605
        pairs = schemes.band_throughput_bound(g_l, np.linspace(g_lo, g_hi, 9), params)
        geometry = schemes.band_block_geometry(g_l, g_lo, g_hi)
        assert pairs[0] > 0.0 and not np.any(pairs > schemes.band_block_bound(*geometry, params))
        monkeypatch.setattr(schemes, "_LOG_FLOOR", 1e300)
        assert schemes.band_block_bound(*geometry, params) < pairs[0]

    def test_harvested_mass_tightens_blocks_far_along_a_row(self):
        # on a block four units past a low g_l little gain mass is harvested
        # outside the bands; against the same form with H = 1
        g_l = np.array([0.0, 1.0])
        bound = schemes.band_block_bound(*schemes.band_block_geometry(g_l, g_l + 4.0, 10.0),
                                         P10)
        span = 10.0 - g_l
        prob = np.exp(-g_l) * -np.expm1(-span)
        mean = g_l + 1.0 - span * np.exp(-span) / -np.expm1(-span)
        loose = prob * np.log2(1.0 + P10.dl_snr * mean / prob)
        assert np.all(bound < 0.75 * loose)

    def test_shape_and_underflow(self):
        g_l = np.array([0.0, 1.0, 9.0, 800.0])
        bound = schemes.band_block_bound(*schemes.band_block_geometry(g_l, g_l + 1.0, 1000.0),
                                         P10)
        assert bound.shape == (4,) and np.all(np.diff(bound) < 0.0)
        assert bound[-1] == 0.0  # e^{-800} underflows: so does every band of the row


def _float_range_params(p_d_exp, gbar_exp, sigma2_exp):
    try:
        return SystemParams(p_d=10.0 ** p_d_exp, gbar=10.0 ** gbar_exp, sigma2=10.0 ** sigma2_exp)
    except ValueError:  # a power of ten that under- or overflows
        return None


# the exponents of the FOUND configuration p_d = 2.11e-72, gbar = 1.008e-128,
# sigma2 = 1.39e-257, whose gammabar rounds to 0 in band_uplink (1.50e-67 in
# 50 digits): the closed form is 0 there, and no band is refined
SUBNORMAL_GAMMABAR = (math.log10(2.11e-72), math.log10(1.008e-128), math.log10(1.39e-257))


class TestThroughputRefinedBound:
    @given(exps=st.one_of(
               st.tuples(st.floats(min_value=-300.0, max_value=308.0),
                         st.floats(min_value=-150.0, max_value=150.0),
                         st.floats(min_value=-300.0, max_value=300.0)),
               st.floats(min_value=-60.0, max_value=90.0).map(lambda db: (db / 10.0, 0.0, 0.0))),
           step_exp=st.floats(min_value=-3.0, max_value=0.0),
           points=st.integers(min_value=2, max_value=1001),
           row=st.floats(min_value=0.0, max_value=1.0))
    @example(exps=SUBNORMAL_GAMMABAR, step_exp=-3.0, points=75, row=0.0)
    @example(exps=(-6.0, 0.0, 0.0), step_exp=-3.0, points=1001, row=0.0)  # -60 dB
    @example(exps=(9.0, 0.0, 0.0), step_exp=0.0, points=1001, row=0.705)  # past g_l ~ 709
    @settings(max_examples=200, deadline=None)
    def test_lies_between_the_closed_form_and_the_pair_bound(self, exps, step_exp, points, row):
        # a row of a solve_pip grid of step 1e-3 or more: the closed form's
        # two rate masses cancel as 1/width^2 on narrower bands, by more
        # than the pad. Where gammabar is tiny the closed form, the refined
        # and the pair bound all but meet, and only the pad keeps the
        # refined bound above the closed form (it fails with the pad at 0);
        # it stays below the pair bound but for the pad and far finer
        # rounding. Bands that are not eligible are not refined.
        params = _float_range_params(*exps)
        assume(params is not None)
        xs = numerics._grid_axis(0.0, 10.0 ** step_exp * (points - 1), 10.0 ** step_exp)
        i = min(int(row * (xs.size - 1)), xs.size - 2)
        gl, gu = np.full(xs.size - 1 - i, xs[i]), xs[i + 1:]
        eligible = schemes.band_uplink(gl, gu, params)[2]
        refined = schemes.band_throughput_refined_bound(gl, gu, params)
        assert np.all(refined[~eligible] == math.inf)
        gl, gu, refined = gl[eligible], gu[eligible], refined[eligible]
        assert not np.any(refined < schemes.band_throughput(gl, gu, params))
        pair = schemes.band_throughput_bound(gl, gu, params)
        finite = np.isfinite(refined)
        assert not np.any(refined[finite] > pair[finite] * (1.0 + 2.0 * schemes._REFINED_PAD))

    def test_tighter_than_the_pair_bound_where_it_matters(self):
        # near the 10 dB optimum the four pieces bound well under the one
        gl, gu = np.array([0.5, 0.5, 1.0]), np.array([1.0, 3.0, 4.0])
        refined = schemes.band_throughput_refined_bound(gl, gu, P10)
        pair = schemes.band_throughput_bound(gl, gu, P10)
        exact = schemes.band_throughput(gl, gu, P10)
        assert np.all(exact <= refined) and np.all(refined - exact < 0.25 * (pair - exact))

    def test_not_refined_where_not_eligible_or_below_the_floor(self):
        # e^{g_l} overflows past ~709: not eligible. A band a few ulps wide
        # has empty pieces, and a vanishing gammabar a sum below the floor
        assert schemes.band_throughput_refined_bound(710.0, 711.0, P10) == math.inf
        g = 2.0
        assert schemes.band_throughput_refined_bound(g, math.nextafter(g, 3.0), P10) == math.inf
        assert schemes.band_throughput_refined_bound(0.5, 1.0, SystemParams(p_d=1e-300)) == \
            math.inf
        out = schemes.band_throughput_refined_bound(np.array([0.5]), np.array([1.0]), P10)
        assert out.shape == (1,) and type(schemes.band_throughput_refined_bound(
            0.5, 1.0, P10)) is float


def _band_case():
    """(g_l, g_u, snr_db): IP, PI and PIP bands, bands past the overflow of
    e^{g_l} and bands a few ulps wide."""
    edge = st.floats(min_value=1e-9, max_value=1e3)
    snr = st.floats(min_value=-60.0, max_value=90.0)
    ulps = st.integers(min_value=1, max_value=4)

    def widen(g, k):
        for _ in range(k):
            g = math.nextafter(g, math.inf)
        return g

    return st.one_of(
        st.tuples(st.just(0.0), edge, snr),
        st.tuples(edge, st.just(OPEN_END), snr),
        st.tuples(edge, edge, snr).map(lambda c: (min(c[:2]), max(c[:2]), c[2])),
        st.tuples(st.floats(min_value=600.0, max_value=800.0),
                  st.sampled_from([1.0, 30.0, OPEN_END]), snr).map(
            lambda c: (c[0], c[0] + c[1], c[2])),
        st.tuples(edge, ulps, snr).map(lambda c: (c[0], widen(c[0], c[1]), c[2])),
    )


def _outcome(fn, *args):
    try:
        return fn(*args)
    except ValueError as exc:
        return type(exc), str(exc)


class TestBandFloatPath:
    @given(case=_band_case(), p_d_exp=st.one_of(st.none(), st.floats(min_value=290.0,
                                                                    max_value=308.0)),
           # (gbar, sigma2): gammabar = power gbar / sigma2 rounds alike on both paths
           units=st.one_of(st.just((1.0, 1.0)),
                           st.tuples(st.floats(min_value=1e-3, max_value=1e3),
                                     st.floats(min_value=1e-9, max_value=1e3))))
    # math.expm1 differs from np.expm1 by an ulp at -0.2802438592617129, and
    # the two masses cancel to -1.8e-15 on the second band
    @example(case=(0.0, 0.2802438592617129, 10.0), p_d_exp=None, units=(1.0, 1.0))
    @example(case=(0.0, 1e-12 / 1.5, -60.0), p_d_exp=None, units=(1.0, 1.0))
    # gammabar fits a float and gammabar g_u does not (ineligible)
    @example(case=(0.0, 1.5, 0.0), p_d_exp=300.0, units=(1.0, 5e-9))
    # bands both paths reject: g_l < 0, g_u == g_l, g_u < g_l, NaN on each side
    @example(case=(-1e-300, 1.0, 10.0), p_d_exp=None, units=(1.0, 1.0))
    @example(case=(1.0, 1.0, 10.0), p_d_exp=None, units=(1.0, 1.0))
    @example(case=(2.0, 1.0, 10.0), p_d_exp=None, units=(1.0, 1.0))
    @example(case=(math.nan, 1.0, 10.0), p_d_exp=None, units=(1.0, 1.0))
    @example(case=(0.0, math.nan, 10.0), p_d_exp=None, units=(1.0, 1.0))
    # either side of g_l = 709, where the float path starts to guard e^{g_l} - 1
    # against overflow: it fits up to ~709.78 (eligible at -60 dB) and not at 710
    @example(case=(708.9, 709.9, -60.0), p_d_exp=None, units=(1.0, 1.0))
    @example(case=(709.0, OPEN_END, -60.0), p_d_exp=None, units=(1.0, 1.0))
    @example(case=(709.78, 739.78, -60.0), p_d_exp=None, units=(1.0, 1.0))
    @example(case=(710.0, OPEN_END, -60.0), p_d_exp=None, units=(1.0, 1.0))
    # past ~709.78 e^{g_l} - 1 overflows: the guard must start below it
    @example(case=(709.9, OPEN_END, -60.0), p_d_exp=None, units=(1.0, 1.0))
    @settings(max_examples=500, deadline=None)
    def test_equals_the_array_path_bit_for_bit(self, case, p_d_exp, units):
        # 0-d arrays take the array path; the results and errors must agree,
        # the overflow of the uplink SNR (UplinkOverflowError) included
        g_l, g_u, snr_db = case
        gbar, sigma2 = units
        params = (SystemParams.from_snr_db(snr_db, gbar=gbar, sigma2=sigma2) if p_d_exp is None
                  else SystemParams(p_d=10.0 ** p_d_exp, gbar=gbar, sigma2=sigma2))
        ref = _outcome(schemes.band_throughput, np.asarray(g_l), np.asarray(g_u), params)
        for one in (_outcome(schemes.band_throughput, g_l, g_u, params),
                    _outcome(schemes.band_throughput, np.float64(g_l), np.float64(g_u), params)):
            if isinstance(ref, tuple):
                assert one == ref
            else:
                assert type(one) is float and repr(one) == repr(ref)
        # so do band_uplink's power, gammabar and eligibility (a bool where
        # the array path gives an np.bool_)
        ref = _outcome(schemes.band_uplink, np.asarray(g_l), np.asarray(g_u), params)
        if len(ref) == 3:  # (power, gammabar, eligible), not (error type, message)
            ref = (*ref[:2], bool(ref[2]))
        for one in (_outcome(schemes.band_uplink, g_l, g_u, params),
                    _outcome(schemes.band_uplink, np.float64(g_l), np.float64(g_u), params)):
            assert repr(one) == repr(ref)

    def test_overflow_at_the_upper_edge_only(self):
        # gammabar = 1.44e308 fits a float, gammabar g_u does not
        params = SystemParams(p_d=1e300, sigma2=5e-9)
        _, gammabar, eligible = schemes.band_uplink(0.0, 1.5, params)
        assert math.isfinite(gammabar) and not eligible
        for g_l, g_u in ((0.0, 1.5), (np.asarray(0.0), np.asarray(1.5))):
            with pytest.raises(schemes.UplinkOverflowError, match="p_d"):
                schemes.band_throughput(g_l, g_u, params)

    @pytest.mark.parametrize("g_l,g_u", [
        (-1e-300, 1.0), (1.0, 1.0), (2.0, 1.0), (math.nan, 1.0), (0.0, math.nan), (0.0, 0.0),
    ])
    def test_rejects_what_the_array_path_rejects(self, g_l, g_u):
        with pytest.raises(ValueError) as array_error:
            schemes.band_throughput(np.asarray(g_l), np.asarray(g_u), P10)
        with pytest.raises(ValueError) as float_error:
            schemes.band_throughput(g_l, g_u, P10)
        assert float_error.value.args == array_error.value.args


class TestReductionIdentities:
    @pytest.mark.parametrize("g_u", [0.3, 1.0, 2.7, 8.0])
    def test_pip_to_ip(self, g_u):
        assert schemes.pip_throughput(0.0, g_u, P10) == schemes.ip_throughput(g_u, P10)

    @pytest.mark.parametrize("g_l", [0.2, 1.0, 3.5])
    def test_pip_to_pi(self, g_l):
        want = schemes.pi_throughput(g_l, P10)
        assert abs(schemes.pip_throughput(g_l, 40.0, P10) - want) <= 1e-6
        assert schemes.pip_throughput(g_l, math.inf, P10) == want


class TestInvariants:
    def test_energy_balance(self):
        rng = np.random.default_rng(31)
        for _ in range(20):
            policy = [
                BandPolicy(g_u=rng.uniform(0.1, 9.0)),
                BandPolicy(rng.uniform(0.1, 9.0)),
                BandPolicy(*np.sort(rng.uniform(0.05, 9.0, size=2))),
            ][rng.integers(0, 3)]
            lo, hi = policy.band
            pu = schemes.band_uplink(lo, hi, P10)[0]
            consumed = pu * channel.interval_prob(lo, hi)
            harvested = P10.p_d * P10.gbar * (channel.interval_gain_mean(0.0, lo)
                                              + channel.interval_gain_mean(hi, OPEN_END))
            assert consumed == pytest.approx(harvested, rel=1e-12, abs=1e-12)

    def test_units_only_ratio_enters(self):
        scaled = SystemParams(p_d=P10.p_d * 37.0, gbar=P10.gbar, sigma2=P10.sigma2 * 37.0)
        for fn, thr in [(schemes.ip_throughput, (1.3,)),
                        (schemes.pi_throughput, (0.8,)),
                        (schemes.pip_throughput, (0.4, 2.0))]:
            assert fn(*thr, scaled) == pytest.approx(fn(*thr, P10), rel=1e-12)


class TestAsymptotics:
    def test_ip_relative_error_shrinks_with_power(self):
        # the limit form drops an O(1) constant, so the relative gap decays
        # like 1/log(power): check the decay, not an aggressive tolerance
        g_u = 2.0
        gaps = []
        for rho_db in (20.0, 60.0, 100.0):
            p = SystemParams.from_snr_db(rho_db)
            exact = schemes.ip_throughput(g_u, p)
            asym = schemes.band_asymptotic_throughput(0.0, g_u, p)
            gaps.append(abs(asym - exact) / exact)
        assert gaps[0] > gaps[1] > gaps[2]
        assert gaps[-1] < 0.05

    def test_pi_relative_error_shrinks_with_power(self):
        g_l = 1.0
        gaps = []
        for rho_db in (20.0, 60.0, 100.0):
            p = SystemParams.from_snr_db(rho_db)
            exact = schemes.pi_throughput(g_l, p)
            asym = schemes.band_asymptotic_throughput(g_l, OPEN_END, p)
            gaps.append(abs(asym - exact) / exact)
        assert gaps[0] > gaps[1] > gaps[2]
        assert gaps[-1] < 0.05

    @pytest.mark.parametrize("gbar", [1.0, 4.0])
    @pytest.mark.parametrize("exact,band", [
        (lambda p: schemes.ip_throughput(1.6, p), (0.0, 1.6)),
        (lambda p: schemes.pi_throughput(0.7, p), (0.7, OPEN_END)),
        (lambda p: schemes.pip_throughput(0.3, 2.0, p), (0.3, 2.0)),
    ], ids=["ip", "pi", "pip"])
    def test_gap_tends_to_the_log_gain_integral(self, exact, band, gbar):
        # log2(1 + gammabar g) - log2(gammabar) -> log2(g), whatever gbar is
        p = SystemParams(p_d=1e12, gbar=gbar)
        gap = exact(p) - schemes.band_asymptotic_throughput(*band, p)
        limit = integrate(lambda g: np.log2(g) * np.exp(-g), *band)
        assert gap == pytest.approx(limit, abs=1e-6)

    def test_ip_concavity_on_grid(self):
        p = SystemParams(p_d=1e6)
        g = np.arange(0.05, 10.0, 1e-2)
        vals = schemes.band_asymptotic_throughput(0.0, g, p)
        second = vals[2:] - 2.0 * vals[1:-1] + vals[:-2]
        assert np.all(second <= 1e-9)

    def test_pi_log_concavity_on_grid(self):
        p = SystemParams(p_d=1e6)
        g = np.arange(0.05, 10.0, 1e-2)
        first_factor = schemes.band_asymptotic_throughput(g, OPEN_END, p) * np.exp(g)
        assert np.all(first_factor > 0.0)
        logf = np.log(first_factor)
        second = logf[2:] - 2.0 * logf[1:-1] + logf[:-2]
        assert np.all(second <= 1e-9)

    def test_float_in_float_out(self):
        assert type(schemes.band_asymptotic_throughput(0.5, 2.0, P10)) is float
        assert schemes.band_asymptotic_throughput(0.5, np.array([2.0, 3.0]), P10).shape == (2,)

    def test_domain(self):
        # zero uplink power (g_l = 0 with g_u = inf), an empty band, a bad bound
        for band in ((0.0, OPEN_END), (0.0, 0.0), (2.0, 2.0), (2.0, 1.0), (-0.1, 1.0),
                     (math.nan, 1.0), (0.0, 800.0)):
            with pytest.raises(ValueError):
                schemes.band_asymptotic_throughput(*band, P10)


class TestPolicies:
    def test_validation(self):
        # one check, 0 <= g_l < g_u, with one message; NaN fails it
        for g_l, g_u in ((0.0, 0.0), (-1.0, OPEN_END), (2.0, 1.0), (1.0, 1.0),
                         (OPEN_END, OPEN_END), (math.nan, 1.0), (0.5, math.nan)):
            with pytest.raises(ValueError, match="band policy requires 0 <= g_l < g_u"):
                BandPolicy(g_l, g_u)

    def test_partitions_cover(self):
        for policy, band in ((BandPolicy(g_u=1.0), (0.0, 1.0)), (BandPolicy(0.0), (0.0, OPEN_END)),
                             (BandPolicy(2.0), (2.0, OPEN_END)), (BandPolicy(0.5, 3.0), (0.5, 3.0)),
                             (BandPolicy(), (0.0, OPEN_END))):
            assert policy.band == band
            lo, hi = band
            total = sum(channel.interval_prob(a, b)
                        for a, b in ((0.0, lo), (lo, hi), (hi, OPEN_END)))
            assert total == pytest.approx(1.0, abs=1e-14)

    def test_evaluate_policy_consistency(self):
        ev = schemes.evaluate_policy(BandPolicy(g_u=1.5), P10)
        assert ev.throughput_bits == pytest.approx(schemes.ip_throughput(1.5, P10), rel=1e-14)
        assert ev.ul_power == pytest.approx(schemes.band_uplink(0.0, 1.5, P10)[0], rel=1e-14)
        assert ev.expected_ul_snr_gammabar == pytest.approx(
            ev.ul_power * P10.gbar / P10.sigma2, rel=1e-14
        )
