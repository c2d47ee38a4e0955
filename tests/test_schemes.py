import math

import numpy as np
import pytest

from wpcn import channel, schemes, sim
from wpcn.numerics import Interval, OPEN_END
from wpcn.schemes import (
    HTTPolicy,
    IPPolicy,
    PIPolicy,
    PIPPolicy,
    Partition,
    SystemParams,
)

P10 = SystemParams.from_snr_db(10.0)


def _unit_ratio(scheme, *thresholds):
    """Uplink power at p_d = gbar = 1 (the pure threshold-dependent factor)."""
    one = SystemParams(p_d=1.0)
    if scheme == "ip":
        return schemes.ip_ul_power(*thresholds, one)
    if scheme == "pi":
        return schemes.pi_ul_power(*thresholds, one)
    return schemes.pip_ul_power(*thresholds, one)


def _params_with_gammabar(scheme, thresholds, gammabar):
    """Choose p_d (gbar = sigma2 = 1) so the scheme's expected SNR is gammabar."""
    return SystemParams(p_d=gammabar / _unit_ratio(scheme, *thresholds))


class TestSystemParams:
    def test_validation(self):
        # an infinite p_d would meet inf * 0 in band_ul_power
        for name in ("p_d", "gbar", "sigma2"):
            for bad in (0.0, -1.0, math.inf, math.nan):
                fields = dict(p_d=1.0, gbar=1.0, sigma2=1.0)
                fields[name] = bad
                with pytest.raises(ValueError, match=name):
                    SystemParams(**fields)

    def test_snr_shorthand(self):
        p = SystemParams.from_snr_db(20.0, gbar=2.0, sigma2=0.5)
        assert p.dl_snr == pytest.approx(100.0, rel=1e-12)


class TestPartition:
    def test_two_interval(self):
        part = Partition(wit=(Interval(0.0, 1.5),), wpt=(Interval(1.5, OPEN_END),))
        assert part.wit_prob() == pytest.approx(-math.expm1(-1.5), rel=1e-14)

    def test_rejects_overlap(self):
        with pytest.raises(ValueError):
            Partition(wit=(Interval(0.0, 2.0),), wpt=(Interval(1.0, OPEN_END),))

    def test_rejects_gap(self):
        with pytest.raises(ValueError):
            Partition(wit=(Interval(0.0, 1.0),), wpt=(Interval(2.0, OPEN_END),))

    def test_rejects_bounded_union(self):
        with pytest.raises(ValueError):
            Partition(wit=(Interval(0.0, 1.0),), wpt=(Interval(1.0, 2.0),))

    def test_rejects_nonzero_start(self):
        with pytest.raises(ValueError):
            Partition(wit=(Interval(0.5, OPEN_END),), wpt=())

    def test_three_interval(self):
        part = Partition(
            wit=(Interval(0.5, 2.0),),
            wpt=(Interval(0.0, 0.5), Interval(2.0, OPEN_END)),
        )
        wpt_prob = sum(channel.interval_prob(iv.lo, iv.hi) for iv in part.wpt)
        assert part.wit_prob() + wpt_prob == pytest.approx(1.0)


class TestHttInstantSnr:
    def test_zero_gain(self):
        assert schemes.htt_instant_snr(0.0, P10) == 0.0

    def test_quadratic_in_gain(self):
        one = schemes.htt_instant_snr(1.0, P10)
        assert schemes.htt_instant_snr(2.0, P10) == pytest.approx(4.0 * one, rel=1e-14)

    def test_unit_substitution(self):
        p = SystemParams(p_d=1.0, gbar=1.0, sigma2=1.0)
        assert schemes.htt_instant_snr(1.0, p) == 1.0


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


class TestHttErgodic:
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
        part = Partition(wit=(Interval(0.0, OPEN_END),), wpt=())
        assert schemes.balance_ul_power(part, P10) == 0.0

    def test_degenerate_information_set(self):
        part = Partition(wit=(), wpt=(Interval(0.0, OPEN_END),))
        with pytest.raises(ValueError):
            schemes.balance_ul_power(part, P10)

    def test_low_harvest_high_transmit_split(self):
        part = Partition(wit=(Interval(1.0, OPEN_END),), wpt=(Interval(0.0, 1.0),))
        expected = P10.p_d * P10.gbar * (1.0 - 2.0 / math.e) / math.exp(-1.0)
        assert schemes.balance_ul_power(part, P10) == pytest.approx(expected, rel=1e-13)


class TestUlPowers:
    def test_ip_vanishes_at_large_threshold(self):
        assert schemes.ip_ul_power(40.0, P10) < 1e-14

    def test_ip_known_value(self):
        expected = P10.p_d * P10.gbar * (2.0 / math.e) / (1.0 - 1.0 / math.e)
        assert schemes.ip_ul_power(1.0, P10) == pytest.approx(expected, rel=1e-13)

    @pytest.mark.parametrize("g_u", [0.1, 1.0, 5.0])
    def test_ip_matches_balance(self, g_u):
        part = schemes.policy_partition(IPPolicy(g_u))
        ref = schemes.balance_ul_power(part, P10)
        assert schemes.ip_ul_power(g_u, P10) == pytest.approx(ref, rel=1e-12)

    def test_pi_zero_threshold(self):
        assert schemes.pi_ul_power(0.0, P10) == 0.0

    def test_pi_known_value(self):
        expected = P10.p_d * P10.gbar * (math.e - 2.0)
        assert schemes.pi_ul_power(1.0, P10) == pytest.approx(expected, rel=1e-13)

    @pytest.mark.parametrize("g_l", [0.1, 1.0, 5.0])
    def test_pi_matches_balance(self, g_l):
        part = schemes.policy_partition(PIPolicy(g_l))
        ref = schemes.balance_ul_power(part, P10)
        assert schemes.pi_ul_power(g_l, P10) == pytest.approx(ref, rel=1e-12)

    def test_pip_reduces_to_ip(self):
        assert schemes.pip_ul_power(0.0, 1.3, P10) == schemes.ip_ul_power(1.3, P10)

    def test_pip_reduces_to_pi(self):
        want = schemes.pi_ul_power(0.7, P10)
        assert schemes.pip_ul_power(0.7, 40.0, P10) == pytest.approx(want, rel=1e-12)
        assert schemes.pip_ul_power(0.7, math.inf, P10) == want

    @pytest.mark.parametrize("gl,gu", [(0.2, 1.0), (1.0, 3.0), (0.05, 9.0)])
    def test_pip_matches_balance(self, gl, gu):
        part = schemes.policy_partition(PIPPolicy(gl, gu))
        ref = schemes.balance_ul_power(part, P10)
        assert schemes.pip_ul_power(gl, gu, P10) == pytest.approx(ref, rel=1e-12)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            schemes.ip_ul_power(0.0, P10)
        with pytest.raises(ValueError):
            schemes.pi_ul_power(-0.1, P10)
        with pytest.raises(ValueError):
            schemes.pip_ul_power(2.0, 2.0, P10)


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
        policy = {"ip": IPPolicy, "pi": PIPolicy, "pip": PIPPolicy}[scheme](*thresholds)
        part = schemes.policy_partition(policy)
        pu = schemes.balance_ul_power(part, P10)
        assert fn(*thresholds, P10) == pytest.approx(
            schemes.quad_throughput_oracle(part, pu, P10), abs=1e-8
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
                params = _params_with_gammabar(scheme, thr, gammabar)
                part = schemes.policy_partition(policy)
                pu = schemes.balance_ul_power(part, params)
                assert abs(fn(*thr, params)
                           - schemes.quad_throughput_oracle(part, pu, params)) <= 1e-8

    def test_oracle_degenerate_cases(self):
        part = Partition(wit=(), wpt=(Interval(0.0, OPEN_END),))
        assert schemes.quad_throughput_oracle(part, 5.0, P10) == 0.0
        full = Partition(wit=(Interval(0.0, OPEN_END),), wpt=())
        assert schemes.quad_throughput_oracle(full, 0.0, P10) == 0.0


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
        from wpcn import channel
        for _ in range(20):
            policy = [
                IPPolicy(rng.uniform(0.1, 9.0)),
                PIPolicy(rng.uniform(0.1, 9.0)),
                PIPPolicy(*np.sort(rng.uniform(0.05, 9.0, size=2))),
            ][rng.integers(0, 3)]
            part = schemes.policy_partition(policy)
            pu = schemes.balance_ul_power(part, P10)
            consumed = pu * part.wit_prob()
            harvested = P10.p_d * P10.gbar * part.wpt_gain_mean()
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
            asym = schemes.ip_asymptotic_throughput(g_u, p)
            gaps.append(abs(asym - exact) / exact)
        assert gaps[0] > gaps[1] > gaps[2]
        assert gaps[-1] < 0.05

    def test_pi_relative_error_shrinks_with_power(self):
        g_l = 1.0
        gaps = []
        for rho_db in (20.0, 60.0, 100.0):
            p = SystemParams.from_snr_db(rho_db)
            exact = schemes.pi_throughput(g_l, p)
            asym = schemes.pi_asymptotic_throughput(g_l, p)
            gaps.append(abs(asym - exact) / exact)
        assert gaps[0] > gaps[1] > gaps[2]
        assert gaps[-1] < 0.05

    def test_ip_concavity_on_grid(self):
        p = SystemParams(p_d=1e6)
        g = np.arange(0.05, 10.0, 1e-2)
        vals = schemes.ip_asymptotic_throughput(g, p)
        second = vals[2:] - 2.0 * vals[1:-1] + vals[:-2]
        assert np.all(second <= 1e-9)

    def test_pi_log_concavity_on_grid(self):
        p = SystemParams(p_d=1e6)
        g = np.arange(0.05, 10.0, 1e-2)
        first_factor = schemes.pi_asymptotic_throughput(g, p) * np.exp(g)
        assert np.all(first_factor > 0.0)
        logf = np.log(first_factor)
        second = logf[2:] - 2.0 * logf[1:-1] + logf[:-2]
        assert np.all(second <= 1e-9)

    def test_domain(self):
        with pytest.raises(ValueError):
            schemes.ip_asymptotic_throughput(0.0, P10)
        with pytest.raises(ValueError):
            schemes.pi_asymptotic_throughput(0.0, P10)


class TestPolicies:
    def test_validation(self):
        with pytest.raises(ValueError):
            IPPolicy(0.0)
        with pytest.raises(ValueError):
            PIPolicy(-1.0)
        with pytest.raises(ValueError):
            PIPPolicy(2.0, 1.0)
        with pytest.raises(ValueError):
            schemes.policy_partition(HTTPolicy())

    def test_partitions_cover(self):
        for policy, band in ((IPPolicy(1.0), (0.0, 1.0)), (PIPolicy(0.0), (0.0, OPEN_END)),
                             (PIPolicy(2.0), (2.0, OPEN_END)), (PIPPolicy(0.5, 3.0), (0.5, 3.0))):
            assert policy.band == band
            part = schemes.policy_partition(policy)
            assert part.wit == (Interval(*band),)
            total = part.wit_prob() + sum(
                channel.interval_prob(iv.lo, iv.hi) for iv in part.wpt
            )
            assert total == pytest.approx(1.0, abs=1e-14)

    def test_evaluate_policy_consistency(self):
        ev = schemes.evaluate_policy(IPPolicy(1.5), P10)
        assert ev.throughput_bits == pytest.approx(schemes.ip_throughput(1.5, P10), rel=1e-14)
        assert ev.ul_power == pytest.approx(schemes.ip_ul_power(1.5, P10), rel=1e-14)
        assert ev.expected_ul_snr_gammabar == pytest.approx(
            ev.ul_power * P10.gbar / P10.sigma2, rel=1e-14
        )
