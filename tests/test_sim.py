import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wpcn import channel, schemes, sim
from wpcn.schemes import HTTPolicy, IPPolicy, PIPolicy, PIPPolicy, SystemParams

P10 = SystemParams.from_snr_db(10.0)


def loop_ledger(policy, params, n, seed, causal, initial_energy):
    """Frame-by-frame reference ledger: the loop the running sum replaced.

    Returns the trace columns (mode, harvested, consumed, stored, rate) and
    the number of demoted frames.
    """
    g = channel.sample(n, seed).values
    harvest_full = params.p_d * params.gbar * g
    pu = schemes.evaluate_policy(policy, params).ul_power
    lo, hi = policy.band
    wit = (g >= lo) & (g < hi)
    mode = np.where(wit, 0, 1).astype(np.int8)
    harvested = np.where(wit, 0.0, harvest_full)
    consumed = np.where(wit, pu, 0.0)
    rate = np.where(wit, np.log1p(pu * params.gbar / params.sigma2 * g) / schemes.LN2, 0.0)
    stored = np.empty(n)
    level, skipped = float(initial_energy), 0
    for i in range(n):
        if causal and mode[i] == 0 and level < consumed[i]:
            mode[i], harvested[i], consumed[i], rate[i] = 1, harvest_full[i], 0.0, 0.0
            skipped += 1
        level = level + harvested[i] - consumed[i]
        stored[i] = level
    return (mode, harvested, consumed, stored, rate), skipped


class TestMcThroughput:
    def test_within_three_se_of_closed_form(self):
        cases = [
            (IPPolicy(1.6), schemes.ip_throughput(1.6, P10)),
            (PIPolicy(1.0), schemes.pi_throughput(1.0, P10)),
            (PIPPolicy(0.3, 2.0), schemes.pip_throughput(0.3, 2.0, P10)),
        ]
        for policy, closed in cases:
            est = sim.mc_throughput(policy, P10, 100_000, seed=2025)
            assert abs(est.mean - closed) <= 3.0 * est.std_error

    def test_degenerate_information_set(self):
        est = sim.mc_throughput(IPPolicy(1e-12), P10, 10_000, seed=1)
        assert est.mean == 0.0

    def test_determinism(self):
        a = sim.mc_throughput(PIPolicy(0.8), P10, 50_000, seed=3)
        b = sim.mc_throughput(PIPolicy(0.8), P10, 50_000, seed=3)
        assert a == b

    def test_needs_two_samples(self):
        with pytest.raises(ValueError):
            sim.mc_throughput(PIPolicy(0.8), P10, 1, seed=3)


# lengths on and across the edges of the ledger's summing windows
WINDOW_LENGTHS = (1, sim._LEDGER_BLOCK - 1, sim._LEDGER_BLOCK, sim._LEDGER_BLOCK + 1, 10_000)


class TestTraceLedger:
    @given(st.integers(min_value=0, max_value=2**32), st.integers(min_value=2, max_value=400),
           st.booleans())
    @settings(max_examples=25, deadline=None)
    def test_conservation_bitwise(self, seed, n, causal):
        trace, _ = sim.run_policy_trace(PIPPolicy(0.3, 2.0), P10, n, seed,
                                        causal=causal, initial_energy=1.5)
        net = trace.harvested - trace.consumed
        assert trace.stored[0] == 1.5 + net[0]
        assert np.array_equal(trace.stored[1:], trace.stored[:-1] + net[1:])

    @pytest.mark.parametrize("policy", [
        IPPolicy(1.6), IPPolicy(0.05), PIPolicy(0.5), PIPPolicy(0.3, 2.0), PIPPolicy(2.0, 2.5),
    ], ids=repr)
    @pytest.mark.parametrize("causal", [False, True])
    @pytest.mark.parametrize("initial_energy", [0.0, 1.5, 50.0])
    @given(seed=st.integers(min_value=0, max_value=2**32))
    @settings(max_examples=4, deadline=None)
    def test_matches_the_frame_by_frame_loop(self, policy, causal, initial_energy, seed):
        for n in WINDOW_LENGTHS:
            trace, summary = sim.run_policy_trace(policy, P10, n, seed, causal=causal,
                                                  initial_energy=initial_energy)
            columns, skipped = loop_ledger(policy, P10, n, seed, causal, initial_energy)
            got = (trace.mode, trace.harvested, trace.consumed, trace.stored, trace.rate)
            for name, a, b in zip(("mode", "harvested", "consumed", "stored", "rate"),
                                  got, columns):
                assert a.tobytes() == b.tobytes(), (name, n)
            assert summary.skipped_wit_frames == skipped
            assert summary.min_stored == float(np.min(columns[3]))

    def test_demotions_after_the_first_window(self):
        # the comparison above restarts the sum past a window edge only if
        # a demotion lands there: pin that these draws make some
        trace, summary = sim.run_policy_trace(IPPolicy(0.05), P10, 10_000, seed=1,
                                              causal=True)
        columns, skipped = loop_ledger(IPPolicy(0.05), P10, 10_000, 1, True, 0.0)
        wit = trace.gain < 0.05
        late = np.flatnonzero(wit & (trace.mode == 1))
        assert late[-1] >= sim._LEDGER_BLOCK
        assert summary.skipped_wit_frames == skipped
        assert trace.stored.tobytes() == columns[3].tobytes()

    def test_mode_threshold_consistency(self):
        g_l, g_u = 0.4, 1.9
        trace, _ = sim.run_policy_trace(PIPPolicy(g_l, g_u), P10, 5000, seed=8)
        wit = trace.mode == 0
        expect = (trace.gain >= g_l) & (trace.gain < g_u)
        assert np.array_equal(wit, expect)
        trace_ip, _ = sim.run_policy_trace(IPPolicy(g_u), P10, 5000, seed=8)
        assert np.array_equal(trace_ip.mode == 0, trace_ip.gain < g_u)
        trace_pi, _ = sim.run_policy_trace(PIPolicy(g_l), P10, 5000, seed=8)
        assert np.array_equal(trace_pi.mode == 0, trace_pi.gain >= g_l)

    def test_wit_and_wpt_frame_shape(self):
        trace, _ = sim.run_policy_trace(IPPolicy(1.0), P10, 2000, seed=2)
        wit = trace.mode == 0
        assert np.all(trace.harvested[wit] == 0.0)
        assert np.all(trace.consumed[~wit] == 0.0)
        assert np.all(trace.rate[~wit] == 0.0)
        assert np.all(trace.rate[wit] > 0.0)

    def test_zero_drift_noncausal(self):
        trace, summary = sim.run_policy_trace(PIPPolicy(0.3, 2.0), P10, 1_000_000, seed=9)
        net = trace.harvested - trace.consumed
        se = float(np.std(net, ddof=1)) / math.sqrt(len(net))
        assert abs(summary.mean_harvested - summary.mean_consumed) <= 3.0 * se


class TestHttTrace:
    def test_storage_identically_constant(self):
        trace, summary = sim.run_policy_trace(HTTPolicy(), P10, 4000, seed=4,
                                              initial_energy=2.0)
        assert np.all(trace.stored == 2.0)
        assert np.array_equal(trace.harvested, trace.consumed)
        assert summary.skipped_wit_frames == 0
        assert np.all(trace.mode == 2)
        assert np.all((trace.tau > 0.0) & (trace.tau <= 1.0))

    def test_negative_zero_charge_sums_to_positive_zero(self):
        # the ledger adds each frame's net 0.0 to the charge, and
        # -0.0 + 0.0 is +0.0: stored and min_stored print as 0, not -0
        trace, summary = sim.run_policy_trace(HTTPolicy(), P10, 100, seed=4,
                                              causal=True, initial_energy=-0.0)
        assert np.all(trace.stored == 0.0) and not np.any(np.signbit(trace.stored))
        assert math.copysign(1.0, summary.min_stored) == 1.0


class TestCausalMode:
    def test_first_broke_wit_frame_is_demoted(self):
        # seed 3's first draw is ~0.12 < g_u, a transmit frame, with an
        # empty ledger: it must flip to harvesting
        policy = IPPolicy(0.5)
        trace, summary = sim.run_policy_trace(policy, P10, 200, seed=3,
                                              causal=True, initial_energy=0.0)
        assert trace.gain[0] < 0.5
        assert trace.mode[0] == 1  # WPT after demotion
        assert summary.skipped_wit_frames >= 1

    def test_ledger_never_negative(self):
        _, summary = sim.run_policy_trace(PIPPolicy(0.3, 2.0), P10, 20_000, seed=6,
                                          causal=True, initial_energy=0.0)
        assert summary.min_stored >= 0.0

    def test_rate_dominated_by_noncausal(self):
        _, free = sim.run_policy_trace(PIPPolicy(0.3, 2.0), P10, 50_000, seed=6)
        _, capped = sim.run_policy_trace(PIPPolicy(0.3, 2.0), P10, 50_000, seed=6,
                                         causal=True, initial_energy=0.0)
        assert capped.mean_rate_bits <= free.mean_rate_bits
        assert capped.skipped_wit_frames > 0

    def test_noncausal_counts_no_skips(self):
        _, summary = sim.run_policy_trace(PIPolicy(0.7), P10, 1000, seed=6)
        assert summary.skipped_wit_frames == 0


class TestConvergence:
    def test_noncausal_gap_within_three_se(self):
        report = sim.trace_throughput_convergence(PIPPolicy(0.3, 2.0), P10, 100_000, seed=12)
        gap = abs(report.noncausal_mean - report.closed_form_bits)
        assert gap <= 3.0 * report.noncausal_std_error

    def test_causal_upper_bounded_by_closed_form(self):
        report = sim.trace_throughput_convergence(PIPPolicy(0.3, 2.0), P10, 100_000, seed=12)
        assert report.causal_mean <= report.closed_form_bits + 3.0 * report.noncausal_std_error

    def test_degenerate_policy_gives_zero_rate(self):
        # no draw lands in [0, 1e-12): every frame harvests, rate stays 0
        report = sim.trace_throughput_convergence(IPPolicy(1e-12), P10, 10_000, seed=12)
        assert report.noncausal_mean == 0.0
        assert report.causal_mean == 0.0

    def test_needs_enough_frames(self):
        with pytest.raises(ValueError):
            sim.trace_throughput_convergence(PIPolicy(0.8), P10, 100, seed=12)


class TestTraceMatchesMc:
    def test_same_draws_same_mean(self):
        # the trace and the MC estimator share the sampler, so the
        # non-causal mean rate must agree exactly
        policy = PIPolicy(0.9)
        _, summary = sim.run_policy_trace(policy, P10, 30_000, seed=21)
        est = sim.mc_throughput(policy, P10, 30_000, seed=21)
        assert summary.mean_rate_bits == est.mean


class TestValidation:
    def test_bad_frames(self):
        with pytest.raises(ValueError):
            sim.run_policy_trace(PIPolicy(0.8), P10, 0, seed=1)

    def test_bad_initial_energy(self):
        with pytest.raises(ValueError):
            sim.run_policy_trace(PIPolicy(0.8), P10, 10, seed=1, initial_energy=-1.0)

    @pytest.mark.parametrize("energy", [math.nan, math.inf])
    def test_non_finite_initial_energy(self, energy):
        # a NaN charge would never demote a frame, voiding the causal ledger
        with pytest.raises(ValueError, match="initial_energy"):
            sim.run_policy_trace(IPPolicy(1.0), P10, 10, seed=1, causal=True,
                                 initial_energy=energy)

    @pytest.mark.parametrize("policy", [HTTPolicy(), IPPolicy(1.0), PIPPolicy(0.3, 2.0)])
    def test_overflowing_harvest_names_the_downlink_power(self, policy):
        # p_d gbar g overflows for g > 1.8; RuntimeWarning is an error under pytest
        with pytest.raises(ValueError, match="p_d"):
            sim.run_policy_trace(policy, SystemParams(p_d=1e308), 1000, seed=1)
