import math

import mpmath
import numpy as np
import pytest

from wpcn import channel, schemes, sim
from wpcn.numerics import OPEN_END, integrate
from wpcn.schemes import (
    HTTPolicy,
    IPPolicy,
    PIPolicy,
    PIPPolicy,
    SystemParams,
)

P10 = SystemParams.from_snr_db(10.0)


def _params_with_gammabar(band, gammabar):
    """Choose p_d (gbar = sigma2 = 1) so the band's expected SNR is gammabar."""
    return SystemParams(p_d=gammabar / schemes.band_ul_power(*band, SystemParams(p_d=1.0)))


class TestSystemParams:
    def test_validation(self):
        # an infinite p_d would meet inf * 0 in band_ul_power
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


class TestHttInstantRate:
    def test_no_harvest_no_rate(self):
        assert schemes.htt_instant_rate(1.0, 0.0, P10) == 0.0

    def test_vanishes_as_tau_approaches_one(self):
        assert schemes.htt_instant_rate(1.0, 1.0 - 1e-12, P10) < 1e-10
        assert schemes.htt_instant_rate(1.0, 1.0, P10) == 0.0

    def test_zero_gain(self):
        assert schemes.htt_instant_rate(0.0, 0.5, P10) == 0.0

    def test_domain(self):
        with pytest.raises(ValueError):
            schemes.htt_instant_rate(1.0, -0.1, P10)
        with pytest.raises(ValueError):
            schemes.htt_instant_rate(1.0, 1.1, P10)


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
            assert schemes.htt_instant_rate(1.0, tau, SystemParams(p_d=gamma)) >= np.max(rates) - 1e-8

    def test_stationarity_residual(self):
        for gamma in np.logspace(-2, 4, 25):
            tau = schemes.htt_optimal_tau(gamma)
            x = tau / (1.0 - tau)
            residual = (gamma + gamma * x) / (1.0 + gamma * x) - math.log1p(gamma * x)
            assert abs(residual) <= 1e-8

    def test_beats_neighbors(self):
        for gamma in np.logspace(-2, 4, 25):
            p = SystemParams(p_d=gamma)  # gbar = sigma2 = 1, so snr(1) = gamma
            tau = schemes.htt_optimal_tau(gamma)
            best = schemes.htt_instant_rate(1.0, tau, p)
            for nudge in (-1e-4, 1e-4):
                other = min(max(tau + nudge, 0.0), 1.0 - 1e-12)
                assert best >= schemes.htt_instant_rate(1.0, other, p) - 1e-12

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


class TestHttTau:
    def test_whole_frame_harvest_where_the_snr_is_zero(self):
        # g**2 underflows to 0 at 1e-200, so that frame has no SNR either
        assert schemes.htt_instant_snr(1e-200, P10) == 0.0
        for g in (0.0, 1e-200):
            tau = schemes.htt_tau(g, P10)
            assert type(tau) is float and tau == 1.0
        assert schemes.htt_tau(np.array([0.0, 1e-200]), P10).tolist() == [1.0, 1.0]

    def test_optimal_split_of_the_frame_snr_elsewhere(self):
        g = np.array([1e-150, 1e-20, 1e-3, 0.3, 1.0 / math.sqrt(10.0), 1.0, 2.5, 7.0, 40.0])
        expect = schemes.htt_optimal_tau(schemes.htt_instant_snr(g, P10))
        assert np.array_equal(schemes.htt_tau(g, P10), expect)
        for x, t in zip(g, expect):
            assert schemes.htt_tau(float(x), P10) == t

    def test_float_in_float_out_and_shape_kept(self):
        assert type(schemes.htt_tau(1.0, P10)) is float
        assert type(schemes.htt_tau(np.float64(1.0), P10)) is float
        grid = np.array([[0.0, 0.5, 1.0], [2.0, 1e-200, 3.0]])
        tau = schemes.htt_tau(grid, P10)
        assert tau.shape == (2, 3)
        assert tau[0, 0] == tau[1, 1] == 1.0
        assert tau[1, 2] == schemes.htt_tau(3.0, P10)
        assert schemes.htt_tau(np.array([0.7]), P10).shape == (1,)

    def test_domain(self):
        with pytest.raises(ValueError):
            schemes.htt_tau(-0.1, P10)


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
    # the power at -20 dB; at most 5e-16 for all three at 60 and 90 dB
    @pytest.mark.parametrize("snr_db", [-20.0, 0.0, 10.0, 30.0, 60.0, 90.0])
    def test_one_pass_matches_mpmath(self, snr_db):
        rate, power, tau = _htt_reference(snr_db)
        ev = schemes.htt_ergodic_throughput(SystemParams.from_snr_db(snr_db))
        assert ev.throughput_bits == pytest.approx(rate, rel=1e-13)
        assert ev.ul_power == pytest.approx(power, rel=1e-11)
        assert ev.tau_mean == pytest.approx(tau, rel=1e-13)
        assert ev.expected_ul_snr_gammabar == ev.ul_power

    # a power of thousands of watts, which the separate integrals also met
    # the gate on; measured relative errors at most 9e-16
    @pytest.mark.parametrize("snr_db", [41.0, 42.0, 43.0, 44.0])
    def test_kilowatt_power_passes_the_gate(self, snr_db):
        rate, power, _ = _htt_reference(snr_db)
        ev = schemes.htt_ergodic_throughput(SystemParams.from_snr_db(snr_db))
        assert ev.throughput_bits == pytest.approx(rate, rel=1e-13)
        assert ev.ul_power == pytest.approx(power, rel=1e-13)

    def test_threshold_policies_have_no_mean_split(self):
        assert schemes.evaluate_policy(IPPolicy(1.0), P10).tau_mean is None

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
        assert schemes.band_ul_power(0.0, 40.0, P10) < 1e-14

    def test_ip_known_value(self):
        expected = P10.p_d * P10.gbar * (2.0 / math.e) / (1.0 - 1.0 / math.e)
        assert schemes.band_ul_power(0.0, 1.0, P10) == pytest.approx(expected, rel=1e-13)

    @pytest.mark.parametrize("g_u", [0.1, 1.0, 5.0])
    def test_ip_matches_balance(self, g_u):
        ref = schemes.balance_ul_power(*IPPolicy(g_u).band, P10)
        assert schemes.band_ul_power(0.0, g_u, P10) == pytest.approx(ref, rel=1e-12)

    def test_pi_zero_threshold(self):
        assert schemes.band_ul_power(0.0, OPEN_END, P10) == 0.0

    def test_pi_known_value(self):
        expected = P10.p_d * P10.gbar * (math.e - 2.0)
        assert schemes.band_ul_power(1.0, OPEN_END, P10) == pytest.approx(expected, rel=1e-13)

    @pytest.mark.parametrize("g_l", [0.1, 1.0, 5.0])
    def test_pi_matches_balance(self, g_l):
        ref = schemes.balance_ul_power(*PIPolicy(g_l).band, P10)
        assert schemes.band_ul_power(g_l, OPEN_END, P10) == pytest.approx(ref, rel=1e-12)

    def test_pip_reduces_to_ip(self):
        # at g_l = 0 the band form rounds exactly like the IP closed form
        scale = P10.p_d * P10.gbar
        for g_u in (0.05, 1.3, 7.0):
            ip_form = scale * (g_u + 1.0) * math.exp(-g_u) / -math.expm1(-g_u)
            assert schemes.band_ul_power(0.0, g_u, P10) == ip_form

    def test_pip_reduces_to_pi(self):
        want = schemes.band_ul_power(0.7, OPEN_END, P10)
        assert schemes.band_ul_power(0.7, 40.0, P10) == pytest.approx(want, rel=1e-12)

    @pytest.mark.parametrize("gl,gu", [(0.2, 1.0), (1.0, 3.0), (0.05, 9.0)])
    def test_pip_matches_balance(self, gl, gu):
        ref = schemes.balance_ul_power(*PIPPolicy(gl, gu).band, P10)
        assert schemes.band_ul_power(gl, gu, P10) == pytest.approx(ref, rel=1e-12)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            schemes.band_ul_power(0.0, 0.0, P10)
        with pytest.raises(ValueError):
            schemes.band_ul_power(-0.1, OPEN_END, P10)
        with pytest.raises(ValueError):
            schemes.band_ul_power(2.0, 2.0, P10)


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
        band = {"ip": IPPolicy, "pi": PIPolicy, "pip": PIPPolicy}[scheme](*thresholds).band
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
                ("ip", (g_u,), schemes.ip_throughput, IPPolicy(g_u)),
                ("pi", (max(g_l, 0.05),), schemes.pi_throughput, PIPolicy(max(g_l, 0.05))),
                ("pip", (g_l, g_hi), schemes.pip_throughput, PIPPolicy(g_l, g_hi)),
            ]
            for scheme, thr, fn, policy in cases:
                params = _params_with_gammabar(policy.band, gammabar)
                pu = schemes.balance_ul_power(*policy.band, params)
                assert abs(fn(*thr, params)
                           - schemes.quad_throughput_oracle(*policy.band, pu, params)) <= 1e-8

    def test_oracle_degenerate_cases(self):
        assert schemes.quad_throughput_oracle(1.0, 1.0, 5.0, P10) == 0.0
        assert schemes.quad_throughput_oracle(0.0, OPEN_END, 0.0, P10) == 0.0


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
                IPPolicy(rng.uniform(0.1, 9.0)),
                PIPolicy(rng.uniform(0.1, 9.0)),
                PIPPolicy(*np.sort(rng.uniform(0.05, 9.0, size=2))),
            ][rng.integers(0, 3)]
            lo, hi = policy.band
            pu = schemes.band_ul_power(lo, hi, P10)
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
        limit = integrate(lambda g: math.log2(g) * math.exp(-g), *band)
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
        with pytest.raises(ValueError):
            IPPolicy(0.0)
        with pytest.raises(ValueError):
            PIPolicy(-1.0)
        with pytest.raises(ValueError):
            PIPPolicy(2.0, 1.0)

    def test_partitions_cover(self):
        for policy, band in ((IPPolicy(1.0), (0.0, 1.0)), (PIPolicy(0.0), (0.0, OPEN_END)),
                             (PIPolicy(2.0), (2.0, OPEN_END)), (PIPPolicy(0.5, 3.0), (0.5, 3.0))):
            assert policy.band == band
            lo, hi = band
            total = sum(channel.interval_prob(a, b)
                        for a, b in ((0.0, lo), (lo, hi), (hi, OPEN_END)))
            assert total == pytest.approx(1.0, abs=1e-14)

    def test_evaluate_policy_consistency(self):
        ev = schemes.evaluate_policy(IPPolicy(1.5), P10)
        assert ev.throughput_bits == pytest.approx(schemes.ip_throughput(1.5, P10), rel=1e-14)
        assert ev.ul_power == pytest.approx(schemes.band_ul_power(0.0, 1.5, P10), rel=1e-14)
        assert ev.expected_ul_snr_gammabar == pytest.approx(
            ev.ul_power * P10.gbar / P10.sigma2, rel=1e-14
        )
