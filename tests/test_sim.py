import dataclasses
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from wpcn import channel, numerics, optimize, schemes, sim
from wpcn.schemes import BandPolicy, HTTPolicy, SystemParams

P10 = SystemParams.from_snr_db(10.0)


def param_id(value) -> str:
    """A parameter's test id: its repr, but a policy names its scheme.

    A policy reads as the scheme's tag in capitals, ``Policy`` and the
    edges that the scheme searches (``optimize.thresholds``): ``HTTPolicy()``
    for HTT, and the IP band [0, 1.6) as ``IP``, ``Policy`` and ``(g_u=1.6)``.
    """
    if isinstance(value, HTTPolicy):
        scheme = "htt"
    elif isinstance(value, BandPolicy):
        scheme = "ip" if value.g_l == 0.0 else "pi" if value.g_u == math.inf else "pip"
    else:
        return repr(value)
    edges = ", ".join(f"{name}={x!r}" for name, x in
                      zip(("g_l", "g_u"), optimize.thresholds(scheme, value)) if x is not None)
    return f"{scheme.upper()}Policy({edges})"


def loop_ledger(policy, params, n, seed, causal, initial_energy):
    """Whole-array, frame-by-frame reference trace: what the blocks and the running sum replaced.

    The gains come from the whole-array sampler, every per-frame quantity
    from one whole-array expression and the ledger from a loop. Returns a
    ``sim.FrameTrace`` and the number of demoted frames.
    """
    g = -np.log1p(-channel.uniform01(seed, n))
    harvest_full = params.p_d * params.gbar * g
    if isinstance(policy, HTTPolicy):
        tau, rate, _ = schemes.htt_frame(g, params)
        mode = np.full(n, 2, dtype=np.int8)
        harvested = tau * harvest_full
        consumed = harvested.copy()
    else:
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
        level = level + (harvested[i] - consumed[i])
        stored[i] = level
    trace = sim.FrameTrace(gain=g, mode=mode, harvested=harvested,
                           consumed=consumed, stored=stored, rate=rate)
    return trace, skipped


def assert_same_trace(trace, ref, label):
    for field in dataclasses.fields(ref):
        got, want = getattr(trace, field.name), getattr(ref, field.name)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), (field.name, label)


class TestMcThroughput:
    def test_within_three_se_of_closed_form(self):
        cases = [
            (BandPolicy(g_u=1.6), schemes.ip_throughput(1.6, P10)),
            (BandPolicy(1.0), schemes.pi_throughput(1.0, P10)),
            (BandPolicy(0.3, 2.0), schemes.pip_throughput(0.3, 2.0, P10)),
        ]
        for policy, closed in cases:
            est = sim.mc_throughput(policy, P10, 100_000, seed=2025)
            assert abs(est.mean - closed) <= 3.0 * est.std_error

    def test_degenerate_information_set(self):
        est = sim.mc_throughput(BandPolicy(g_u=1e-12), P10, 10_000, seed=1)
        assert est.mean == 0.0

    def test_determinism(self):
        a = sim.mc_throughput(BandPolicy(0.8), P10, 50_000, seed=3)
        b = sim.mc_throughput(BandPolicy(0.8), P10, 50_000, seed=3)
        assert a == b

    def test_needs_two_samples(self):
        with pytest.raises(ValueError):
            sim.mc_throughput(BandPolicy(0.8), P10, 1, seed=3)

    @pytest.mark.parametrize("policy", [BandPolicy(g_u=1.6), HTTPolicy()], ids=param_id)
    @pytest.mark.parametrize("n", [2, 62_504, 123_457])
    def test_streamed_estimate_is_the_column_estimate(self, policy, n):
        rates = sim.run_policy_trace(policy, P10, n, seed=4)[0].rate
        expect = sim.McEstimate(mean=float(np.mean(rates)),
                                std_error=float(np.std(rates, ddof=1) / math.sqrt(n)))
        assert repr(sim.mc_throughput(policy, P10, n, seed=4)) == repr(expect)

    @pytest.mark.parametrize("policy", [BandPolicy(g_u=1.6), HTTPolicy()], ids=param_id)
    def test_traced_peak_of_a_million_draws(self, policy):
        # the rate column (7.6 MiB), which its squared deviations overwrite:
        # 8.1 MiB in all, and a second full-length array would add 7.6
        n = 1_000_000
        assert traced_peak(lambda: sim.mc_throughput(policy, P10, n, seed=1)) <= 10 * 2**20


# lengths on and across the edges of the ledger's summing windows
WINDOW_LENGTHS = (1, sim._LEDGER_BLOCK - 1, sim._LEDGER_BLOCK, sim._LEDGER_BLOCK + 1, 10_000)


class TestTraceLedger:
    @given(st.integers(min_value=0, max_value=2**32), st.integers(min_value=2, max_value=400),
           st.booleans())
    @settings(max_examples=25, deadline=None)
    def test_conservation_bitwise(self, seed, n, causal):
        trace, _ = sim.run_policy_trace(BandPolicy(0.3, 2.0), P10, n, seed,
                                        causal=causal, initial_energy=1.5)
        net = trace.harvested - trace.consumed
        assert trace.stored[0] == 1.5 + net[0]
        assert np.array_equal(trace.stored[1:], trace.stored[:-1] + net[1:])

    @pytest.mark.parametrize("policy", [
        BandPolicy(g_u=1.6), BandPolicy(g_u=0.05), BandPolicy(0.5), BandPolicy(0.3, 2.0), BandPolicy(2.0, 2.5),
    ], ids=param_id)
    @pytest.mark.parametrize("causal", [False, True])
    @pytest.mark.parametrize("initial_energy", [0.0, 1.5, 50.0])
    @given(seed=st.integers(min_value=0, max_value=2**32))
    @settings(max_examples=4, deadline=None)
    def test_matches_the_frame_by_frame_loop(self, policy, causal, initial_energy, seed):
        for n in WINDOW_LENGTHS:
            trace, summary = sim.run_policy_trace(policy, P10, n, seed, causal=causal,
                                                  initial_energy=initial_energy)
            ref, skipped = loop_ledger(policy, P10, n, seed, causal, initial_energy)
            assert_same_trace(trace, ref, n)
            assert summary.skipped_wit_frames == skipped
            assert summary.min_stored == float(np.min(ref.stored))

    @given(policy=st.sampled_from([BandPolicy(g_u=1.6), BandPolicy(g_u=4.0), BandPolicy(0.05),
                                   BandPolicy(0.02, 5.0), BandPolicy(0.3, 2.0)]),
           snr_db=st.sampled_from([-10.0, 10.0, 30.0]),
           n=st.integers(min_value=1, max_value=10_000),
           seed=st.integers(min_value=0, max_value=2**32),
           initial_energy=st.sampled_from([-0.0, 0.0, 5e-324, 1e-3]),
           causal=st.booleans())
    @example(policy=BandPolicy(g_u=1.6), snr_db=10.0, n=10_000, seed=1, initial_energy=-0.0,
             causal=True)
    @settings(max_examples=30, deadline=None)
    def test_window_schedule_keeps_the_sequential_bits(self, policy, snr_db, n, seed,
                                                        initial_energy, causal):
        # short windows after each demotion, doubling back to _LEDGER_BLOCK:
        # every level is still stored[k-1] + (harvested[k] - consumed[k]),
        # here summed frame by frame in Python floats
        params = SystemParams.from_snr_db(snr_db)
        trace, summary = sim.run_policy_trace(policy, params, n, seed, causal=causal,
                                              initial_energy=initial_energy)
        lo, hi = policy.band
        pu, gammabar, _ = schemes.band_uplink(lo, hi, params)
        pd_gbar = params.p_d * params.gbar
        level, skipped = initial_energy, 0
        want = {name: [] for name in ("stored", "mode", "harvested", "consumed", "rate")}
        for g in channel.sample(n, seed).values.tolist():
            mode, harvested, consumed, rate = 1, pd_gbar * g, 0.0, 0.0
            if lo <= g < hi:
                if causal and level < pu:
                    skipped += 1
                else:
                    mode, harvested, consumed = 0, 0.0, pu
                    rate = float(np.log1p(gammabar * g)) / schemes.LN2
            level = level + (harvested - consumed)
            for name, value in zip(want, (level, mode, harvested, consumed, rate)):
                want[name].append(value)
        for name, values in want.items():
            assert repr(getattr(trace, name).tolist()) == repr(values), name
        assert summary.skipped_wit_frames == skipped
        if causal and (policy, n, seed) == (BandPolicy(g_u=1.6), 10_000, 1):
            assert skipped > 200  # the example's demotions are dense

    def test_demotions_after_the_first_window(self):
        # the comparison above restarts the sum past a window edge only if
        # a demotion lands there: pin that these draws make some
        trace, summary = sim.run_policy_trace(BandPolicy(g_u=0.05), P10, 10_000, seed=1,
                                              causal=True)
        ref, skipped = loop_ledger(BandPolicy(g_u=0.05), P10, 10_000, 1, True, 0.0)
        wit = trace.gain < 0.05
        late = np.flatnonzero(wit & (trace.mode == 1))
        assert late[-1] >= sim._LEDGER_BLOCK
        assert summary.skipped_wit_frames == skipped
        assert trace.stored.tobytes() == ref.stored.tobytes()

    def test_mode_threshold_consistency(self):
        g_l, g_u = 0.4, 1.9
        trace, _ = sim.run_policy_trace(BandPolicy(g_l, g_u), P10, 5000, seed=8)
        wit = trace.mode == 0
        expect = (trace.gain >= g_l) & (trace.gain < g_u)
        assert np.array_equal(wit, expect)
        trace_ip, _ = sim.run_policy_trace(BandPolicy(g_u=g_u), P10, 5000, seed=8)
        assert np.array_equal(trace_ip.mode == 0, trace_ip.gain < g_u)
        trace_pi, _ = sim.run_policy_trace(BandPolicy(g_l), P10, 5000, seed=8)
        assert np.array_equal(trace_pi.mode == 0, trace_pi.gain >= g_l)

    def test_wit_and_wpt_frame_shape(self):
        trace, _ = sim.run_policy_trace(BandPolicy(g_u=1.0), P10, 2000, seed=2)
        wit = trace.mode == 0
        assert np.all(trace.harvested[wit] == 0.0)
        assert np.all(trace.consumed[~wit] == 0.0)
        assert np.all(trace.rate[~wit] == 0.0)
        assert np.all(trace.rate[wit] > 0.0)

    def test_zero_drift_noncausal(self):
        trace, summary = sim.run_policy_trace(BandPolicy(0.3, 2.0), P10, 1_000_000, seed=9)
        net = trace.harvested - trace.consumed
        se = float(np.std(net, ddof=1)) / math.sqrt(len(net))
        assert abs(summary.mean_harvested - summary.mean_consumed) <= 3.0 * se


# lengths on and across the edges of the blocks of per-frame quantities
BLOCK_LENGTHS = (sim._FRAME_BLOCK - 1, sim._FRAME_BLOCK, sim._FRAME_BLOCK + 1,
                 2 * sim._FRAME_BLOCK + 5)


class TestFrameBlocks:
    @pytest.mark.parametrize("policy", [
        BandPolicy(g_u=1.6), BandPolicy(0.5), BandPolicy(0.3, 2.0), HTTPolicy(),
    ], ids=param_id)
    @pytest.mark.parametrize("causal", [False, True])
    def test_blocks_match_the_whole_array_trace(self, policy, causal):
        for n in BLOCK_LENGTHS:
            trace, summary = sim.run_policy_trace(policy, P10, n, seed=11, causal=causal,
                                                  initial_energy=1.5)
            ref, skipped = loop_ledger(policy, P10, n, 11, causal, 1.5)
            assert_same_trace(trace, ref, n)
            expect = sim.TraceSummary(
                n_frames=n, mean_rate_bits=float(np.mean(ref.rate)),
                mean_harvested=float(np.mean(ref.harvested)),
                mean_consumed=float(np.mean(ref.consumed)),
                min_stored=float(np.min(ref.stored)), skipped_wit_frames=skipped)
            assert repr(summary) == repr(expect), n
            if causal and not isinstance(policy, HTTPolicy):
                assert skipped > 0

    @pytest.mark.parametrize("policy,limit_mib", [(HTTPolicy(), 48.0), (BandPolicy(g_u=1.6), 44.0)],
                             ids=param_id)
    def test_traced_peak_of_a_million_frame_trace(self, policy, limit_mib):
        # a count gate on bytes, not time: the six columns take 39.1 MiB
        # and one block adds under 1 MiB (39.7 MiB HTT, 39.6 MiB IP);
        # whole-array temporaries peaked at 78.2 and 63.1 MiB
        assert traced_peak(lambda: sim.run_policy_trace(policy, P10, 1_000_000, seed=1,
                                                        causal=True)) <= limit_mib * 2**20

    @pytest.mark.parametrize("n", [1_000_000, 4_000_000])
    @pytest.mark.parametrize("policy,limit_mib", [(HTTPolicy(), 1.5), (BandPolicy(g_u=1.6), 1.0)],
                             ids=param_id)
    def test_traced_peak_of_a_streamed_trace(self, policy, limit_mib, n):
        # a count gate on bytes, not time: a streamed trace holds one block
        # whatever the length (0.58 MiB HTT, 0.47 MiB IP at 1e6 and 4e6
        # frames); one column of 1e6 frames takes 7.6 MiB
        assert traced_peak(lambda: sim.run_policy_trace(
            policy, P10, n, seed=1, causal=True, on_block=lambda start, block: None,
        )) <= limit_mib * 2**20


def traced_peak(run) -> int:
    numerics._load_special()  # the objects of scipy's ufunc module are not the trace's
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def leaf_sizes(n: int) -> list[int]:
    """The leaves of numpy's pairwise-summation tree over n frames, left to right."""
    if n <= sim._FRAME_BLOCK:
        return [n]
    half = n // 2 - (n // 2) % 8
    return leaf_sizes(half) + leaf_sizes(n - half)


# lengths whose leaves of the summing tree end on and across _FRAME_BLOCK:
# the two leaf sizes of 1e6 frames (7,808 and 7,816 for blocks of 8,192),
# one block and one frame more, and 16 blocks and 7 frames, whose last
# leaves split below a block (fifteen of 8,192, then 4,096 and 4,103)
LEAF_EDGES = (*sorted(set(leaf_sizes(1_000_000))), sim._FRAME_BLOCK, sim._FRAME_BLOCK + 1,
              16 * sim._FRAME_BLOCK + 7)


class TestStreamedTrace:
    @pytest.mark.parametrize("policy", [
        BandPolicy(g_u=1.6), BandPolicy(0.5), BandPolicy(0.3, 2.0), HTTPolicy(),
    ], ids=param_id)
    @pytest.mark.parametrize("causal", [False, True])
    @given(n=st.integers(min_value=1, max_value=300_000))
    @example(n=LEAF_EDGES[0])
    @example(n=LEAF_EDGES[1])
    @example(n=LEAF_EDGES[2])
    @example(n=LEAF_EDGES[3])
    @example(n=LEAF_EDGES[4])
    @settings(max_examples=6, deadline=None)
    def test_summary_matches_the_whole_columns(self, policy, causal, n):
        blocks = []
        _, summary = sim.run_policy_trace(
            policy, P10, n, seed=5, causal=causal, initial_energy=1.5,
            on_block=lambda start, block: blocks.append((start, len(block.gain))))
        starts, sizes = zip(*blocks)
        assert max(sizes) <= sim._FRAME_BLOCK and sum(sizes) == n
        assert list(sizes) == leaf_sizes(n)
        assert list(starts) == [sum(sizes[:k]) for k in range(len(sizes))]
        trace, whole = sim.run_policy_trace(policy, P10, n, seed=5, causal=causal,
                                            initial_energy=1.5)
        expect = sim.TraceSummary(
            n_frames=n, mean_rate_bits=float(np.mean(trace.rate)),
            mean_harvested=float(np.mean(trace.harvested)),
            mean_consumed=float(np.mean(trace.consumed)),
            min_stored=float(np.min(trace.stored)),
            skipped_wit_frames=whole.skipped_wit_frames)
        assert repr(summary) == repr(expect) == repr(whole)

    def test_overflowing_leaves_are_summed_again_scaled(self):
        # at p_d = 1e306 each frame fits, but the sum of every 5,000-frame
        # leaf of harvested and consumed overflows: each leaf is summed
        # again over its entries scaled by 2^-15, with no warning
        n, scale = 20_000, 2.0 ** -15
        assert leaf_sizes(n) == [5000] * 4 and scale == 2.0 ** -n.bit_length()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            trace, summary = sim.run_policy_trace(BandPolicy(0.5), SystemParams(p_d=1e306), n,
                                                  seed=1)
        for column, mean in ((trace.harvested, summary.mean_harvested),
                             (trace.consumed, summary.mean_consumed)):
            with np.errstate(over="ignore"):
                assert all(np.isinf(np.sum(column[k:k + 5000])) for k in range(0, n, 5000))
            assert mean == np.sum(column * scale) / n / scale
        assert (summary.mean_harvested, summary.mean_consumed) == (
            9.239143607232386e+304, 8.881634286211654e+304)


class TestHttTrace:
    def test_storage_identically_constant(self):
        trace, summary = sim.run_policy_trace(HTTPolicy(), P10, 4000, seed=4,
                                              initial_energy=2.0)
        assert np.all(trace.stored == 2.0)
        assert np.array_equal(trace.harvested, trace.consumed)
        assert summary.skipped_wit_frames == 0
        assert np.all(trace.mode == 2)
        tau = schemes.htt_frame(trace.gain, P10)[0]
        assert np.all((tau > 0.0) & (tau <= 1.0))

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
        policy = BandPolicy(g_u=0.5)
        trace, summary = sim.run_policy_trace(policy, P10, 200, seed=3,
                                              causal=True, initial_energy=0.0)
        assert trace.gain[0] < 0.5
        assert trace.mode[0] == 1  # WPT after demotion
        assert summary.skipped_wit_frames >= 1

    def test_ledger_never_negative(self):
        _, summary = sim.run_policy_trace(BandPolicy(0.3, 2.0), P10, 20_000, seed=6,
                                          causal=True, initial_energy=0.0)
        assert summary.min_stored >= 0.0

    def test_rate_dominated_by_noncausal(self):
        _, free = sim.run_policy_trace(BandPolicy(0.3, 2.0), P10, 50_000, seed=6)
        _, capped = sim.run_policy_trace(BandPolicy(0.3, 2.0), P10, 50_000, seed=6,
                                         causal=True, initial_energy=0.0)
        assert capped.mean_rate_bits <= free.mean_rate_bits
        assert capped.skipped_wit_frames > 0

    def test_noncausal_counts_no_skips(self):
        _, summary = sim.run_policy_trace(BandPolicy(0.7), P10, 1000, seed=6)
        assert summary.skipped_wit_frames == 0

    def test_degenerate_policy_gives_zero_rate(self):
        # no draw lands in [0, 1e-12): every frame harvests, rate stays 0
        for causal in (False, True):
            _, summary = sim.run_policy_trace(BandPolicy(g_u=1e-12), P10, 10_000, seed=12,
                                              causal=causal)
            assert summary.mean_rate_bits == 0.0


class TestTraceMatchesMc:
    def test_same_draws_same_mean(self):
        # the trace and the MC estimator share the sampler, so the
        # non-causal mean rate must agree exactly
        policy = BandPolicy(0.9)
        _, summary = sim.run_policy_trace(policy, P10, 30_000, seed=21)
        est = sim.mc_throughput(policy, P10, 30_000, seed=21)
        assert summary.mean_rate_bits == est.mean


class TestValidation:
    def test_bad_frames(self):
        with pytest.raises(ValueError):
            sim.run_policy_trace(BandPolicy(0.8), P10, 0, seed=1)

    def test_bad_initial_energy(self):
        with pytest.raises(ValueError):
            sim.run_policy_trace(BandPolicy(0.8), P10, 10, seed=1, initial_energy=-1.0)

    @pytest.mark.parametrize("energy", [math.nan, math.inf])
    def test_non_finite_initial_energy(self, energy):
        # a NaN charge would never demote a frame, voiding the causal ledger
        with pytest.raises(ValueError, match="initial_energy"):
            sim.run_policy_trace(BandPolicy(g_u=1.0), P10, 10, seed=1, causal=True,
                                 initial_energy=energy)

    @pytest.mark.parametrize("policy", [HTTPolicy(), BandPolicy(g_u=1.0), BandPolicy(0.3, 2.0)])
    def test_overflowing_harvest_names_the_downlink_power(self, policy):
        # p_d gbar g overflows for g > 1.8; RuntimeWarning is an error under pytest
        with pytest.raises(ValueError, match="p_d"):
            sim.run_policy_trace(policy, SystemParams(p_d=1e308), 1000, seed=1)

    @pytest.mark.parametrize("policy", [BandPolicy(g_u=1.0), BandPolicy(0.8), BandPolicy(0.3, 2.0)])
    def test_overflowing_uplink_snr_raises(self, policy):
        # every harvest fits a float, but gammabar g on the band does not
        with pytest.raises(schemes.UplinkOverflowError, match="p_d"):
            sim.run_policy_trace(policy, SystemParams(p_d=1e300, sigma2=1e-10), 1000, seed=1)


class TestTraceWork:
    def test_threshold_traces_evaluate_no_closed_form(self, monkeypatch):
        # a trace needs the band's uplink power, not the closed-form
        # throughput and its E1
        calls, real = [], schemes.exp_scaled_e1
        monkeypatch.setattr(schemes, "exp_scaled_e1", lambda x: calls.append(x) or real(x))
        for policy in (BandPolicy(g_u=1.0), BandPolicy(0.8), BandPolicy(0.3, 2.0)):
            sim.run_policy_trace(policy, P10, 1000, seed=1)
        assert calls == []

    @pytest.mark.parametrize("policy,params,n,walks", [
        (BandPolicy(g_u=1.6), P10, 100_000, 1),
        (BandPolicy(g_u=2.516), SystemParams(p_d=1e306), 1000, 2),
        (HTTPolicy(), SystemParams(p_d=1e305), 10_000, 1),
    ], ids=["bound-fits", "bound-overflows", "htt-nets-zero"])
    def test_a_dry_run_only_where_the_level_bound_overflows(self, monkeypatch, policy, params,
                                                           n, walks):
        # initial energy + n_frames * max(largest harvest, uplink energy) bounds
        # every level; the ledger runs twice only where twice that overflows,
        # and an HTT level never moves
        draws, real = [], channel.sample
        monkeypatch.setattr(channel, "sample",
                            lambda k, seed, start=0: draws.append(k) or real(k, seed, start))
        sim.run_policy_trace(policy, params, n, seed=3, causal=True)
        assert sum(draws) == walks * n

    def test_ledger_resums_few_frames_and_htt_runs_none(self, monkeypatch):
        # a count gate, not a time bound: after a demotion the ledger sums a
        # short window, not a whole one of _LEDGER_BLOCK frames again; the
        # benchmark's causal IP trace summed 2,522,287 frames (its 543
        # demotions each re-summing a 4,096-frame window), 1,056,010 now.
        # HTT frames net to 0, so their blocks run no ledger window
        summed, real = [], np.cumsum
        monkeypatch.setattr(np, "cumsum", lambda a, *args, **kwargs: (
            summed.append(np.size(a)) or real(a, *args, **kwargs)))
        _, summary = sim.run_policy_trace(BandPolicy(g_u=1.6), P10, 1_000_000, seed=1,
                                          causal=True, on_block=lambda start, block: None)
        assert summary.skipped_wit_frames == 543
        assert sum(summed) <= 1_100_000
        summed.clear()
        trace, _ = sim.run_policy_trace(HTTPolicy(), P10, 20_000, seed=1, causal=True)
        assert summed == [] and np.all(trace.stored == 0.0)

    def test_uplink_snr_overflowing_outside_the_band_leaves_rate_0(self):
        # gammabar g fits up to g_u = 1 but overflows on the draws above
        # about 3.1: those frames harvest at rate 0, with no NaN and no
        # overflow warning (which this suite raises as an error)
        params = SystemParams(p_d=1e306, sigma2=0.02)
        trace, _ = sim.run_policy_trace(BandPolicy(g_u=1.0), params, 1000, seed=1)
        _, gammabar, _ = schemes.band_uplink(0.0, 1.0, params)
        wit = trace.gain < 1.0
        assert float(np.max(trace.gain)) * gammabar == math.inf
        assert trace.rate[~wit].tolist() == [0.0] * int(np.sum(~wit))
        assert trace.rate[wit].tolist() == [
            float(np.log1p(gammabar * g)) / schemes.LN2 for g in trace.gain[wit].tolist()]

    def test_overflowing_level_is_refused_before_the_first_block(self):
        blocks = []
        with pytest.raises(ValueError, match="stored energy overflows the float range"):
            sim.run_policy_trace(BandPolicy(g_u=2.516), SystemParams(p_d=1e306), 100_000,
                                 seed=3, on_block=lambda start, block: blocks.append(start))
        assert blocks == []
