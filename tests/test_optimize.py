import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from wpcn import numerics, optimize, schemes
from wpcn.optimize import SolveConfig, solve_htt, solve_ip, solve_pi, solve_pip, sweep
from wpcn.schemes import SystemParams

FAST = SolveConfig(grid_step=0.1)


class TestSolveConfig:
    def test_defaults_match_search_conventions(self):
        cfg = SolveConfig()
        assert cfg.gain_cap == 10.0
        assert cfg.grid_step == 0.01

    def test_validation(self):
        with pytest.raises(ValueError):
            SolveConfig(gain_cap=0.0)
        with pytest.raises(ValueError):
            SolveConfig(grid_step=11.0)
        for cap in (math.inf, math.nan):
            with pytest.raises(ValueError):
                SolveConfig(gain_cap=cap)


class TestTwoIntervalSolvers:
    def test_against_exhaustive_fine_grid(self):
        # contract: 1e-3 agreement in threshold, 1e-6 in throughput
        rng = np.random.default_rng(17)
        for _ in range(20):
            params = SystemParams.from_snr_db(rng.uniform(0.0, 30.0))
            for solver, vec_obj, lo in (
                (solve_ip, lambda g: schemes.ip_throughput(g, params), 1e-4),
                (solve_pi, lambda g: schemes.pi_throughput(g, params), 0.0),
            ):
                res = solver(params, FAST)
                grid = np.arange(lo, 10.0 + 1e-12, 1e-4)
                vals = vec_obj(grid)
                k = int(np.argmax(vals))
                thr = res.policy.g_u if res.scheme == "ip" else res.policy.g_l
                assert abs(thr - grid[k]) <= 1e-3
                assert abs(res.throughput_bits - vals[k]) <= 1e-6

    def test_local_optimality(self):
        params = SystemParams.from_snr_db(12.0)
        res = solve_ip(params, FAST)
        g = res.policy.g_u
        for nudge in (-FAST.grid_step, FAST.grid_step):
            other = min(max(g + nudge, 1e-6), FAST.gain_cap)
            assert res.throughput_bits >= schemes.ip_throughput(other, params) - 1e-12

    def test_low_snr_ordering(self):
        params = SystemParams.from_snr_db(0.0)
        assert solve_pi(params, FAST).throughput_bits >= solve_ip(params, FAST).throughput_bits

    def test_boundary_flagged(self):
        cfg = SolveConfig(gain_cap=1.0, grid_step=0.01)
        res = solve_pi(SystemParams.from_snr_db(0.0), cfg)
        assert res.at_boundary
        # the unconstrained optimum sits inside the default cap
        assert not solve_pi(SystemParams.from_snr_db(0.0), SolveConfig()).at_boundary

    def test_determinism(self):
        params = SystemParams.from_snr_db(7.0)
        a = solve_ip(params, FAST)
        b = solve_ip(params, FAST)
        assert a == b

    def test_high_power_optimum_approaches_asymptotic_maximizer(self):
        # the exact argmax drifts toward the limit objective's argmax as the
        # downlink power grows (O(1/log) rate, so check decay plus a bound)
        grid = np.arange(1e-4, 10.0, 1e-4)
        gaps = []
        for rho_db in (20.0, 60.0, 100.0):
            params = SystemParams.from_snr_db(rho_db)
            exact = solve_ip(params, FAST).policy.g_u
            asym_best = grid[np.argmax(schemes.band_asymptotic_throughput(0.0, grid, params))]
            gaps.append(abs(exact - asym_best))
        assert gaps[0] > gaps[1] > gaps[2]
        assert gaps[-1] < 0.1

    def test_quadrature_objective_agrees_with_closed_form(self):
        # the quadrature oracle is the ground truth: it scores the
        # closed-form optimum the same, and finds nothing better 1e-3 away
        params = SystemParams.from_snr_db(10.0)
        res = solve_ip(params, FAST)

        def oracle(g_u):
            pu = schemes.balance_ul_power(0.0, g_u, params)
            return schemes.quad_throughput_oracle(0.0, g_u, pu, params)

        best = oracle(res.policy.g_u)
        assert res.throughput_bits == pytest.approx(best, abs=1e-7)
        for g_u in (res.policy.g_u - 1e-3, res.policy.g_u + 1e-3):
            assert oracle(g_u) <= best + 1e-9


class TestPipSolver:
    def test_contains_two_interval_reductions(self):
        params = SystemParams.from_snr_db(10.0)
        pip = solve_pip(params, FAST)
        eps = 0.01  # one 0.1-cell of this objective varies by ~2e-3 here
        assert pip.throughput_bits >= solve_ip(params, FAST).throughput_bits - eps
        assert pip.throughput_bits >= solve_pi(params, FAST).throughput_bits - eps

    def test_finer_grid_agreement(self):
        params = SystemParams.from_snr_db(10.0)
        coarse = solve_pip(params, SolveConfig(grid_step=0.1))
        fine = solve_pip(params, SolveConfig(grid_step=0.01))
        assert fine.throughput_bits >= coarse.throughput_bits - 1e-12
        assert coarse.throughput_bits >= fine.throughput_bits - 0.01

    def test_high_snr_harvests_from_lower_interval(self):
        res = solve_pip(SystemParams.from_snr_db(30.0), SolveConfig(grid_step=0.01))
        assert res.policy.g_l > 0.0

    def test_feasibility(self):
        res = solve_pip(SystemParams.from_snr_db(5.0), FAST)
        assert 0.0 <= res.policy.g_l < res.policy.g_u <= FAST.gain_cap

    def test_determinism(self):
        params = SystemParams.from_snr_db(8.0)
        assert solve_pip(params, FAST) == solve_pip(params, FAST)

    def test_smallest_grid(self):
        # SolveConfig forces grid_step < gain_cap, so the axis {0, 0.04}
        # still holds the one pair (0, 0.04)
        params = SystemParams.from_snr_db(5.0)
        res = solve_pip(params, SolveConfig(gain_cap=0.05, grid_step=0.04))
        assert (res.policy.g_l, res.policy.g_u) == (0.0, 0.04)
        assert res.throughput_bits == schemes.pip_throughput(0.0, 0.04, params)
        assert res.at_boundary


def _exhaustive_pip(params, cfg):
    """Brute-force reference: score every grid pair at once, first maximum wins."""
    xs = numerics._grid_axis(0.0, cfg.gain_cap, cfg.grid_step)
    rows, cols = np.triu_indices(xs.size, k=1)
    vals = schemes.pip_throughput(xs[rows], xs[cols], params)
    k = int(np.argmax(vals))
    return float(xs[rows[k]]), float(xs[cols[k]]), float(vals[k])


def _record_sizes(monkeypatch, name):
    """Rebind schemes.<name> to a wrapper that records the pairs of each call."""
    sizes = []
    real = getattr(schemes, name)

    def counting(gl, gu, params):
        sizes.append(int(np.size(gl)))
        return real(gl, gu, params)

    monkeypatch.setattr(schemes, name, counting)
    return sizes


def _count_solves(monkeypatch):
    """Count sweep's per-axis solves (``_AXIS_SOLVERS``) and one-point solves
    (``_SOLVERS``) of PIP and HTT: {(kind, tag): calls}."""
    calls = {}
    for kind, table in (("axis", optimize._AXIS_SOLVERS), ("point", optimize._SOLVERS)):
        for tag in ("htt", "pip"):
            calls[kind, tag] = 0

            def counting(*args, real=table[tag], key=(kind, tag)):
                calls[key] += 1
                return real(*args)

            monkeypatch.setitem(table, tag, counting)
    return calls


class TestPrunedPipSearch:
    @given(snr_db=st.floats(min_value=-60.0, max_value=90.0),
           log_gbar=st.floats(min_value=-3.0, max_value=3.0),
           log_sigma2=st.floats(min_value=-3.0, max_value=3.0),
           log_cap=st.floats(min_value=-2.0, max_value=2.0),
           points=st.integers(min_value=2, max_value=400))
    @example(snr_db=10.0, log_gbar=0.0, log_sigma2=0.0, log_cap=1.0, points=200)
    @settings(max_examples=40, deadline=None)
    def test_equals_exhaustive_search_bit_for_bit(self, snr_db, log_gbar, log_sigma2, log_cap,
                                                  points):
        # gbar and sigma2 in 1e-3..1e3 and caps in 0.01..100, at grid steps
        # of 1e-3 or more and at most about 400 axis points; the tiny-cap
        # regime, where the closed form is rounding noise, is left out
        gain_cap = 10.0 ** log_cap
        params = SystemParams.from_snr_db(snr_db, 10.0 ** log_gbar, 10.0 ** log_sigma2)
        cfg = SolveConfig(gain_cap=gain_cap, grid_step=max(1e-3, gain_cap / points))
        res = solve_pip(params, cfg)
        assert (res.policy.g_l, res.policy.g_u, res.throughput_bits) == \
            _exhaustive_pip(params, cfg)

    def test_scores_at_most_a_fifth_of_a_percent_of_the_pairs(self, monkeypatch):
        # the default grid at 10 dB holds 1001 * 1000 / 2 = 500,500 pairs; the
        # refined bound takes the pairs whose Jensen bound reaches the
        # threshold (5,075 measured), and the closed form scores the seed's
        # 64 and those whose refined bound reaches it (673 in all)
        scored = _record_sizes(monkeypatch, "pip_throughput")
        refined = _record_sizes(monkeypatch, "band_throughput_refined_bound")
        solve_pip(SystemParams.from_snr_db(10.0))
        assert 0 < sum(scored) <= 0.002 * 500_500
        assert 0 < sum(refined) <= 0.015 * 500_500

    def test_bounds_at_most_thirty_percent_of_the_pairs(self, monkeypatch):
        # the block bound drops the runs of g_u in a row that cannot win
        # before any of their pairs is bounded
        bounded = _record_sizes(monkeypatch, "band_throughput_bound")
        solve_pip(SystemParams.from_snr_db(10.0))
        assert 0 < sum(bounded) <= 0.30 * 500_500

    def test_blocks_and_seed_bound_eight_and_score_one_and_a_half_percent(self, monkeypatch):
        # the block bound drops the blocks of a row that cannot win, and the
        # coarse seed starts the threshold near the best pair (23,043 pairs
        # bounded and 5,139 scored of the 500,500)
        scored = _record_sizes(monkeypatch, "pip_throughput")
        bounded = _record_sizes(monkeypatch, "band_throughput_bound")
        solve_pip(SystemParams.from_snr_db(10.0))
        assert 0 < sum(bounded) <= 0.08 * 500_500
        assert 0 < sum(scored) <= 0.015 * 500_500

    def test_no_call_sees_more_than_one_chunk(self, monkeypatch):
        # 2001 axis points, 2,001,000 pairs: each call of the objective or
        # the bound gets at most one chunk of rows of the pair triangle
        cfg = SolveConfig(grid_step=0.005)
        chunk = numerics._GRID_CHUNK_ROWS * 2000
        scored = _record_sizes(monkeypatch, "pip_throughput")
        bounded = _record_sizes(monkeypatch, "band_throughput_bound")
        refined = _record_sizes(monkeypatch, "band_throughput_refined_bound")
        solve_pip(SystemParams.from_snr_db(10.0), cfg)
        assert 0 < sum(bounded) <= 0.05 * 2_001_000
        assert max(scored) <= chunk and max(bounded) <= chunk and max(refined) <= chunk

    def test_headline_sweep_scores_at_most_15k_pairs(self, monkeypatch):
        # the 16 PIP grids of 0-30 dB in steps of 2 dB: 12,194 pairs scored
        # (1,024 of them the seeds'), 73,042 before the refined bound, which
        # takes 72,018 pairs
        scored = _record_sizes(monkeypatch, "pip_throughput")
        refined = _record_sizes(monkeypatch, "band_throughput_refined_bound")
        for k in range(16):
            solve_pip(SystemParams.from_snr_db(2.0 * k))
        assert 0 < sum(scored) <= 15_000
        assert 0 < sum(refined) <= 80_000


class TestAxisSolves:
    # sweep solves PIP and HTT once per axis; solve_pip and solve_htt are the
    # same code on a one-point axis
    HEADLINE = [SystemParams.from_snr_db(2.0 * k) for k in range(16)]

    def test_every_point_has_its_bits_alone(self):
        axis = [SystemParams.from_snr_db(db) for db in (-60.0, -7.0, 10.0, 33.0, 90.0)]
        for tag, solver in (("pip", solve_pip), ("htt", solve_htt)):
            assert optimize._AXIS_SOLVERS[tag](axis, FAST) == [solver(p, FAST) for p in axis]

    def test_headline_builds_the_block_geometry_once(self, monkeypatch):
        # the 8,320 blocks of the 0.01 grid and the seed's 7,875 coarse pairs,
        # once for the 16 points
        built = _record_sizes(monkeypatch, "band_block_geometry")
        sweep(0.0, 30.0, 2.0, schemes_to_run=("pip",))
        assert built == [7_875, 8_320]

    def test_headline_htt_makes_one_integrand_call_a_round(self, monkeypatch):
        # 10 calls, one a round of the longest of the 16 quadratures, on 5,166
        # nodes in all, one W0 call each
        nodes, w_calls = [], []
        real_integrate, real_w0 = schemes.integrate_lockstep, schemes.lambert_w0

        def counting_integrate(f, ends):
            return real_integrate(lambda g, owner: nodes.append(len(g)) or f(g, owner), ends)

        def counting_w0(x):
            w_calls.append(x)
            return real_w0(x)

        monkeypatch.setattr(schemes, "integrate_lockstep", counting_integrate)
        monkeypatch.setattr(schemes, "lambert_w0", counting_w0)
        sweep(0.0, 30.0, 2.0, schemes_to_run=("htt",))
        assert len(nodes) == 10 and len(w_calls) == 10
        assert all(n % 21 == 0 for n in nodes) and sum(nodes) == 5_166

    def test_htt_failures_stay_isolated_in_the_lockstep(self):
        # 1950 dB integrates, 2505 dB misses the quadrature gate and at 3060
        # dB the frame SNR overflows: each row is what solve_htt gives alone
        curve = sweep(1950.0, 3060.0, 555.0, schemes_to_run=("htt",))
        finite, gate, overflow = curve.points
        assert finite.error is None and finite.throughput_bits == 635.8839621980358
        assert finite.tau_mean == solve_htt(SystemParams.from_snr_db(1950.0)).tau_mean
        for point in (gate, overflow):
            with pytest.raises(ValueError if point is overflow else numerics.ConvergenceError) \
                    as alone:
                solve_htt(SystemParams.from_snr_db(point.snr_db))
            assert point.error == str(alone.value) and math.isnan(point.throughput_bits)
        assert gate.error.endswith("error estimate 1.56e-10 exceeds 1e-10")
        assert overflow.error == ("frame SNR p_d gbar^2 g^2 / sigma2 overflows at "
                                  "p_d=1e+306, gbar=1.0, sigma2=1.0")

    def test_an_error_of_the_shared_grid_flags_every_point(self):
        # a grid of more than 100,000 points is refused once for the axis,
        # and each PIP point carries the refusal, as each solve raised it
        # alone; IP beside it answers
        curve = sweep(0.0, 2.0, 2.0, schemes_to_run=("ip", "pip"),
                      cfg=SolveConfig(gain_cap=1e6, grid_step=1e-3))
        with pytest.raises(ValueError, match="100,000") as alone:
            solve_pip(SystemParams.from_snr_db(0.0), SolveConfig(gain_cap=1e6, grid_step=1e-3))
        assert [p.error for p in curve.by_scheme("pip")] == [str(alone.value)] * 2
        assert all(p.error is None for p in curve.by_scheme("ip"))

    def test_headline_solves_pip_and_htt_once_per_axis(self, monkeypatch):
        # no point of the headline fails, so no point is solved alone: a
        # fallback that fired silently would double the work
        calls = _count_solves(monkeypatch)
        sweep(0.0, 30.0, 2.0)
        assert calls == {("axis", "htt"): 1, ("axis", "pip"): 1,
                         ("point", "htt"): 0, ("point", "pip"): 0}

    @pytest.mark.parametrize("tag,start,stop,step,cfg", [
        ("pip", 3065.0, 3075.0, 10.0, FAST),  # an overflowing band might win at 3075 dB
        ("htt", 1950.0, 2505.0, 555.0, None),  # 2505 dB misses the quadrature gate
    ])
    def test_a_failing_point_costs_one_solve_per_point(self, monkeypatch, tag, start, stop,
                                                       step, cfg):
        # the per-axis solve raises, then each point is solved alone once;
        # the first point answers as alone, the second carries its own error
        calls = _count_solves(monkeypatch)
        answered, failed = sweep(start, stop, step, schemes_to_run=(tag,), cfg=cfg).points
        assert calls[("axis", tag)] == 1 and calls[("point", tag)] == 2
        solver = {"htt": solve_htt, "pip": solve_pip}[tag]
        assert answered == optimize._sweep_point(start, solver(
            SystemParams.from_snr_db(start), cfg))
        with pytest.raises(optimize.POINT_ERRORS) as alone:
            solver(SystemParams.from_snr_db(stop), cfg)
        assert failed.error == str(alone.value) and math.isnan(failed.throughput_bits)

    @pytest.mark.parametrize("tag,snr_db,cfg", [
        ("pip", 3075.0, FAST),  # an overflowing band might win
        ("htt", 2505.0, None),  # misses the quadrature gate
    ])
    def test_a_failing_one_point_axis_is_solved_once(self, monkeypatch, tag, snr_db, cfg):
        # a one-point axis goes to the one-point solve at once: the per-axis
        # solve of one point is the same solve, and would fail the same way
        calls = _count_solves(monkeypatch)
        (failed,) = sweep(snr_db, snr_db, 1.0, schemes_to_run=(tag,), cfg=cfg).points
        assert calls[("axis", tag)] == 0 and calls[("point", tag)] == 1
        solver = {"htt": solve_htt, "pip": solve_pip}[tag]
        with pytest.raises(optimize.POINT_ERRORS) as alone:
            solver(SystemParams.from_snr_db(snr_db), cfg)
        assert failed.error == str(alone.value) and math.isnan(failed.throughput_bits)

    def test_pip_failure_stays_isolated(self):
        # at p_d = 1e308 an overflowing band might win (see
        # test_overflow_fails_only_where_it_might_win); the 10 dB point beside
        # it answers as alone
        axis = [SystemParams(p_d=1e308), SystemParams.from_snr_db(10.0)]
        failed, answered = optimize._solve_axis("pip", axis, FAST)
        assert isinstance(failed, schemes.UplinkOverflowError)
        assert answered == solve_pip(axis[1], FAST)


class TestScoreOnce:
    @pytest.mark.parametrize("solver,name", [(solve_ip, "ip_throughput"),
                                             (solve_pi, "pi_throughput")])
    def test_no_threshold_is_scored_twice(self, monkeypatch, solver, name):
        # maximize_scalar scores its ends after their slopes, and the
        # brackets share ends: each float is scored once per solve
        scored = []
        real = getattr(schemes, name)

        def recording(x, params):
            if np.ndim(x) == 0:
                scored.append(x)
            return real(x, params)

        monkeypatch.setattr(schemes, name, recording)
        solver(SystemParams.from_snr_db(10.0))
        assert scored and len(set(scored)) == len(scored)


class TestTinyGrid:
    def test_throughput_never_negative_on_a_band_a_few_ulps_wide(self):
        # the closed form cancelled to -2.56e-15 bits on this band
        res = solve_pip(SystemParams.from_snr_db(-60.0),
                        SolveConfig(gain_cap=1e-12, grid_step=1e-12 / 1.5))
        assert res.throughput_bits >= 0.0


class TestWideSearches:
    @given(gain_cap=st.floats(min_value=1e-12, max_value=1e3),
           points=st.floats(min_value=1.0, max_value=1e3, exclude_min=True))
    @settings(max_examples=30, deadline=None)
    def test_threshold_solvers_answer(self, gain_cap, points):
        # a band whose power overflows (g_l past ~709) is not eligible and
        # does not fail the solve; the optimum near 1 is found
        cfg = SolveConfig(gain_cap=gain_cap, grid_step=gain_cap / points)
        params = SystemParams.from_snr_db(10.0)
        for solver in (solve_ip, solve_pi, solve_pip):
            res = solver(params, cfg)
            assert math.isfinite(res.throughput_bits) and math.isfinite(res.ul_power)

    def test_wide_cap_keeps_the_narrow_optimum(self):
        params = SystemParams.from_snr_db(10.0)
        wide = SolveConfig(gain_cap=1000.0, grid_step=1.0)
        for solver in (solve_ip, solve_pi):
            assert solver(params, wide).throughput_bits == \
                pytest.approx(solver(params, FAST).throughput_bits, abs=1e-9)

    @pytest.mark.parametrize("solver", [solve_ip, solve_pi])
    def test_every_legal_gain_cap_finds_the_optimum(self, solver):
        # past g ~ 745 the IP throughput underflows to exactly 0 and the PI
        # bands are not eligible (both scores -inf), so the upper end slope of
        # a wide bracket is 0 or NaN; the bracket is still searched. From cap
        # 1e5 up, IP answered 2.4e-6 bits at the floor g_u = 1e-6 before, and
        # PI at cap 1e5 5.2e-215 bits at g_l = 500
        for snr_db in (0.0, 10.0, 30.0):
            params = SystemParams.from_snr_db(snr_db)
            want = solver(params, SolveConfig(gain_cap=1e4))
            for cap in (1e5, 3e5, 1e6, 1e9, 1e300):
                got = solver(params, SolveConfig(gain_cap=cap))
                assert got.policy.band == pytest.approx(want.policy.band, abs=1e-7)
                assert got.throughput_bits == pytest.approx(want.throughput_bits, rel=1e-12)

    def test_overflow_fails_only_where_it_might_win(self):
        # at p_d = 1e308 every IP band past g_u ~ 0.8 overflows, and such a
        # band could carry more than the few eligible ones (so could the PIP
        # bands next to them); PI overflows only past g_l ~ 1.1, whose bands
        # carry too little to win
        params = SystemParams(p_d=1e308)
        for solver in (solve_ip, solve_pip):
            with pytest.raises(schemes.UplinkOverflowError, match="p_d"):
                solver(params, FAST)
        res = solve_pi(params, FAST)
        assert res.policy.g_l < 1.0 and math.isfinite(res.throughput_bits)

    def test_overflowing_bands_bounded_with_their_harvested_mass(self):
        # the IP and PIP bands that overflow here are bounded below the best
        # eligible value (about 988 against 1008 bits) once their bound keeps
        # the gain mass harvested outside the band, so the solves answer; the
        # coarse PI scan finds no eligible threshold but g_l = 0, so PI
        # searches the eligible thresholds, below g_l ~ 0.01, alone and answers
        params = SystemParams(p_d=2.156272299568374e306, gbar=3.631698349604619,
                              sigma2=14.421922606466026)
        cfg = SolveConfig(gain_cap=772.7775264106529, grid_step=6.613863075986156)
        for solver in (solve_ip, solve_pip):
            res = solver(params, cfg)
            assert math.isfinite(res.throughput_bits) and res.throughput_bits > 1008.0
        res = solve_pi(params, cfg)
        assert res.throughput_bits >= 995.932705105403 - 1e-9 and res.policy.g_l < 0.01

    def test_ip_searches_the_eligible_thresholds_above_an_overflowing_floor(self):
        # the IP bands [0, g_u) below g_u ~ 7.28 overflow here (too little
        # transmit probability for the energy harvested above them); the
        # part above is searched alone, and its best, at its edge, is still
        # reached by the bound of the overflowing bands: the solve refuses
        params = SystemParams(p_d=1.5806057385095376e302, gbar=637.7021164254427,
                              sigma2=0.014894430778214274)
        cap = 233.59526414915243
        edge, top = optimize._eligible_part(lambda x: (0.0, x), 1e-6, cap, params)
        assert 7.27 < edge < 7.28 and top == cap
        assert not schemes.band_uplink(0.0, math.nextafter(edge, 0.0), params)[2]
        with pytest.raises(schemes.UplinkOverflowError, match="p_d"):
            solve_ip(params, SolveConfig(gain_cap=cap))


class TestHttSolver:
    def test_matches_quadrature_of_per_frame_maxima(self):
        params = SystemParams.from_snr_db(10.0)
        res = solve_htt(params)
        ref = schemes.htt_ergodic_throughput(params).throughput_bits
        assert res.throughput_bits == pytest.approx(ref, abs=1e-8)
        assert 0.0 < res.tau_mean < 1.0

    def test_tiny_power(self):
        res = solve_htt(SystemParams(p_d=1e-30))
        assert res.throughput_bits < 1e-15

    @pytest.mark.parametrize("snr_db", [-20.0, 10.0])
    def test_reads_the_mean_split_of_the_evaluation(self, snr_db):
        params = SystemParams.from_snr_db(snr_db)
        assert solve_htt(params).tau_mean == schemes.htt_ergodic_throughput(params).tau_mean


class TestSweep:
    def test_shape_and_ordering(self):
        curve = sweep(0.0, 4.0, 2.0, schemes_to_run=("ip", "pi"), cfg=FAST)
        assert len(curve.points) == 6
        keys = [(p.snr_db, p.scheme) for p in curve.points]
        assert keys == sorted(keys)

    def test_non_decreasing_in_snr(self):
        curve = sweep(0.0, 20.0, 5.0, schemes_to_run=("htt", "ip", "pi"), cfg=FAST)
        for tag in ("htt", "ip", "pi"):
            vals = [p.throughput_bits for p in curve.by_scheme(tag)]
            assert all(a <= b + 1e-9 for a, b in zip(vals, vals[1:]))

    def test_policy_fields_by_scheme(self):
        curve = sweep(10.0, 10.0, 2.0, cfg=FAST)
        by = {p.scheme: p for p in curve.points}
        assert by["htt"].tau_mean is not None and by["htt"].g_l is None
        assert by["ip"].g_u is not None and by["ip"].g_l is None
        assert by["pi"].g_l is not None and by["pi"].g_u is None
        assert by["pip"].g_l is not None and by["pip"].g_u is not None

    def test_solver_failure_flags_point_and_continues(self, monkeypatch):
        def boom(params, cfg):
            raise ValueError("synthetic failure")
        monkeypatch.setitem(optimize._SOLVERS, "ip", boom)
        curve = sweep(0.0, 2.0, 2.0, schemes_to_run=("ip", "pi"), cfg=FAST)
        failed = [p for p in curve.points if p.error is not None]
        assert len(failed) == 2 and all(p.scheme == "ip" for p in failed)
        assert all(math.isnan(p.throughput_bits) for p in failed)
        assert all(p.error is None for p in curve.points if p.scheme == "pi")

    def test_throughput_depends_only_on_snr_axis(self):
        # at fixed p_d*gbar^2/sigma2 the expected uplink SNR is the same for
        # every scheme, so throughputs must match across physical constants
        base = sweep(10.0, 12.0, 2.0, cfg=FAST)
        other = sweep(10.0, 12.0, 2.0, cfg=FAST, gbar=3.0, sigma2=0.2)
        for a, b in zip(base.points, other.points):
            assert b.throughput_bits == pytest.approx(a.throughput_bits, rel=1e-9)
            assert (a.g_l is None) == (b.g_l is None)

    def test_rejects_unknown_scheme(self):
        with pytest.raises(ValueError):
            sweep(0.0, 2.0, 2.0, schemes_to_run=("ip", "wat"), cfg=FAST)

    def test_rejects_bad_step(self):
        # NaN fails every comparison, so it must fail the sign check too
        # rather than reach the int conversion of the point count
        for step in (0.0, math.nan):
            with pytest.raises(ValueError, match="step_db"):
                sweep(0.0, 2.0, step, cfg=FAST)

    @pytest.mark.parametrize("start,stop,name", [
        (0.0, math.inf, "stop_db"), (-math.inf, 0.0, "start_db"),
        (math.nan, 0.0, "start_db"), (0.0, math.nan, "stop_db"),
    ])
    def test_rejects_non_finite_bounds(self, start, stop, name):
        with pytest.raises(ValueError, match=f"{name} must be finite"):
            sweep(start, stop, 2.0, schemes_to_run=("ip",), cfg=FAST)

    def test_rejects_an_snr_beyond_float_range(self):
        # 10^(3100/10) overflows a float
        with pytest.raises(ValueError, match="snr_db"):
            sweep(3100.0, 3100.0, 1.0, schemes_to_run=("ip",), cfg=FAST)

    def test_rejects_backwards_range(self):
        with pytest.raises(ValueError, match="stop_db"):
            sweep(0.0, -4.0, 2.0, cfg=FAST)
        assert len(sweep(2.0, 2.0, 2.0, schemes_to_run=("ip",), cfg=FAST).points) == 1
