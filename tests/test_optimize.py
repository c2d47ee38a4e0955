import math

import numpy as np
import pytest

from wpcn import optimize, schemes
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
                thr = getattr(res.policy, "g_u", None) or res.policy.g_l
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
        other = sweep(10.0, 12.0, 2.0, cfg=FAST,
                      params_template=SystemParams(p_d=1.0, gbar=3.0, sigma2=0.2))
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
