"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines and timings.
"""
import math
import time

import numpy as np

from wpcn import optimize, schemes, sim
from wpcn.numerics import (
    OPEN_END,
    e1_asymptotic,
    exp_integral_e1,
    integrate,
    lambert_w0,
)
from wpcn.optimize import SolveConfig
from wpcn.schemes import (
    HTTPolicy,
    IPPolicy,
    PIPolicy,
    PIPPolicy,
    SystemParams,
)

MC_SEED = 2025
LN2 = math.log(2.0)


def _report(num: int, name: str, ok: bool, elapsed: float, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    print(f"[acceptance] criterion {num} ({name}): {status} ({elapsed:.1f}s){detail}")


def _params_with_gammabar(band, gammabar):
    return SystemParams(p_d=gammabar / schemes.band_ul_power(*band, SystemParams(p_d=1.0)))


def test_criterion_1_oracle_equivalence():
    t0 = time.perf_counter()
    rng = np.random.default_rng(101)
    evaluators = {
        "ip": (schemes.ip_throughput, IPPolicy),
        "pi": (schemes.pi_throughput, PIPolicy),
        "pip": (schemes.pip_throughput, PIPPolicy),
    }
    worst = 0.0
    for scheme, (throughput_fn, policy_cls) in evaluators.items():
        for _ in range(50):
            gammabar = 10.0 ** rng.uniform(-3.0, 4.0)
            if scheme == "pip":
                g_l = rng.uniform(0.0, 8.0)
                thresholds = (g_l, g_l + rng.uniform(0.1, 10.0 - g_l))
            else:
                thresholds = (rng.uniform(0.05, 10.0),)
            band = policy_cls(*thresholds).band
            params = _params_with_gammabar(band, gammabar)
            closed = throughput_fn(*thresholds, params)
            pu = schemes.balance_ul_power(*band, params)
            worst = max(worst, abs(closed - schemes.quad_throughput_oracle(*band, pu, params)))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-8 and elapsed < 5.0
    _report(1, "closed forms vs quadrature", ok, elapsed, f" worst |delta|={worst:.2e}")
    assert worst <= 1e-8
    assert elapsed < 5.0


def _random_band(rng) -> tuple[float, float]:
    """A transmit band [g_l, g_u) with g_l = 0 or g_u = OPEN_END a third of the time each."""
    g_l, g_u = map(float, np.sort(rng.uniform(0.2, 5.0, size=2)))
    kind = int(rng.integers(0, 3))
    return (0.0 if kind == 0 else g_l, OPEN_END if kind == 1 else g_u)


def test_criterion_2_energy_balance():
    t0 = time.perf_counter()
    rng = np.random.default_rng(202)
    params = SystemParams(p_d=2.0, gbar=1.3)
    worst = 0.0
    for _ in range(50):
        g_l, g_u = _random_band(rng)
        pu = schemes.band_ul_power(g_l, g_u, params)
        consumed = pu * integrate(lambda g: math.exp(-g), g_l, g_u)
        harvested = params.p_d * params.gbar * sum(
            integrate(lambda g: g * math.exp(-g), lo, hi)
            for lo, hi in ((0.0, g_l), (g_u, OPEN_END)) if lo < hi
        )
        worst = max(worst, abs(consumed - harvested))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-10 and elapsed < 5.0
    _report(2, "uplink power balances energy", ok, elapsed, f" worst |delta|={worst:.2e}")
    assert worst <= 1e-10
    assert elapsed < 5.0


def test_criterion_3_frame_split_closed_form():
    t0 = time.perf_counter()
    taus = np.arange(1e-6, 1.0, 1e-6)
    x = taus / (1.0 - taus)
    worst_tau, worst_rate, worst_resid = 0.0, 0.0, 0.0
    for gamma in np.logspace(-2.0, 4.0, 40):
        rates = (1.0 - taus) * np.log1p(gamma * x) / LN2
        k = int(np.argmax(rates))
        tau = schemes.htt_optimal_tau(float(gamma))
        rate = (1.0 - tau) * math.log1p(gamma * tau / (1.0 - tau)) / LN2
        worst_tau = max(worst_tau, abs(tau - taus[k]))
        worst_rate = max(worst_rate, rates[k] - rate)
        xt = tau / (1.0 - tau)
        resid = (gamma + gamma * xt) / (1.0 + gamma * xt) - math.log1p(gamma * xt)
        worst_resid = max(worst_resid, abs(resid))
    elapsed = time.perf_counter() - t0
    ok = worst_tau <= 1e-4 and worst_rate <= 1e-8 and worst_resid <= 1e-8 and elapsed < 10.0
    _report(3, "optimal split vs 1e-6 grid", ok, elapsed,
            f" |dtau|={worst_tau:.2e} |drate|={worst_rate:.2e} resid={worst_resid:.2e}")
    assert worst_tau <= 1e-4
    assert worst_rate <= 1e-8
    assert worst_resid <= 1e-8
    assert elapsed < 10.0


def test_criterion_4_monte_carlo_reproduction():
    t0 = time.perf_counter()
    cfg = SolveConfig(grid_step=0.01)
    failures = []
    for snr_db in (0.0, 10.0, 20.0, 30.0):
        params = SystemParams.from_snr_db(snr_db)
        for tag in ("htt", "ip", "pi", "pip"):
            res = optimize._SOLVERS[tag](params, cfg)
            est = sim.mc_throughput(res.policy, params, 100_000, MC_SEED)
            ref = res.throughput_bits
            z = abs(est.mean - ref) / est.std_error if est.std_error > 0 else 0.0
            if z > 3.0:
                failures.append((snr_db, tag, z))
    elapsed = time.perf_counter() - t0
    ok = not failures and elapsed < 30.0
    _report(4, "1e5-draw Monte Carlo vs analysis", ok, elapsed,
            f" outliers={failures}" if failures else "")
    assert not failures
    assert elapsed < 30.0


def _grid_snap(value: float, step: float, cap: float) -> float:
    snapped = round(value / step) * step
    return min(max(snapped, step), cap)


def test_criterion_5_snr_sweep_orderings():
    t0 = time.perf_counter()
    cfg = SolveConfig(grid_step=0.01, gain_cap=10.0)
    curve = optimize.sweep(0.0, 30.0, 2.0, cfg=cfg)
    htt = {p.snr_db: p for p in curve.by_scheme("htt")}
    ip = {p.snr_db: p for p in curve.by_scheme("ip")}
    pi = {p.snr_db: p for p in curve.by_scheme("pi")}
    pip = {p.snr_db: p for p in curve.by_scheme("pip")}
    snrs = sorted(htt)
    problems = []

    for snr in snrs[-2:]:
        if ip[snr].throughput_bits < htt[snr].throughput_bits:
            problems.append(f"ip<htt at {snr}dB")
    for snr in snrs[:2]:
        if pi[snr].throughput_bits < htt[snr].throughput_bits:
            problems.append(f"pi<htt at {snr}dB")

    for snr in snrs:
        params = SystemParams.from_snr_db(snr)
        # grid-resolution bound: snap the continuous two-interval optima onto
        # the PIP grid; the grid contains those snapped points, so the only
        # allowed shortfall is what snapping itself costs
        gu = _grid_snap(ip[snr].g_u, cfg.grid_step, cfg.gain_cap)
        eps_ip = max(ip[snr].throughput_bits - schemes.pip_throughput(0.0, gu, params), 0.0)
        gl = min(round(pi[snr].g_l / cfg.grid_step) * cfg.grid_step,
                 cfg.gain_cap - cfg.grid_step)
        eps_pi = max(pi[snr].throughput_bits
                     - schemes.pip_throughput(gl, cfg.gain_cap, params), 0.0)
        bound = max(eps_ip, eps_pi) + 1e-12
        target = max(ip[snr].throughput_bits, pi[snr].throughput_bits) - bound
        if pip[snr].throughput_bits < target:
            problems.append(f"pip below containment bound at {snr}dB")

    elapsed = time.perf_counter() - t0
    ok = not problems and elapsed < 120.0
    _report(5, "sweep qualitative orderings", ok, elapsed,
            f" problems={problems}" if problems else "")
    assert not problems
    assert elapsed < 120.0


def test_criterion_6_reduction_identities():
    t0 = time.perf_counter()
    rng = np.random.default_rng(606)
    params = SystemParams(p_d=5.0)
    worst_ip, worst_pi = 0.0, 0.0
    for _ in range(20):
        g_u = rng.uniform(0.05, 10.0)
        worst_ip = max(worst_ip, abs(schemes.pip_throughput(0.0, g_u, params)
                                     - schemes.ip_throughput(g_u, params)))
        g_l = rng.uniform(0.0, 10.0)
        worst_pi = max(worst_pi, abs(schemes.pip_throughput(g_l, 40.0, params)
                                     - schemes.pi_throughput(g_l, params)))
    elapsed = time.perf_counter() - t0
    ok = worst_ip <= 1e-12 and worst_pi <= 1e-6 and elapsed < 1.0
    _report(6, "three-interval reductions", ok, elapsed,
            f" |ip|={worst_ip:.2e} |pi|={worst_pi:.2e}")
    assert worst_ip <= 1e-12
    assert worst_pi <= 1e-6
    assert elapsed < 1.0


def test_criterion_7_asymptotic_shape():
    t0 = time.perf_counter()
    params = SystemParams(p_d=1e6)  # deep in the high-power regime
    g = np.arange(0.05, 10.0 + 1e-12, 1e-3)
    ip_vals = schemes.band_asymptotic_throughput(0.0, g, params)
    ip_second = ip_vals[2:] - 2.0 * ip_vals[1:-1] + ip_vals[:-2]
    pi_first_factor = schemes.band_asymptotic_throughput(g, OPEN_END, params) * np.exp(g)
    log_pi = np.log(pi_first_factor)
    pi_second = log_pi[2:] - 2.0 * log_pi[1:-1] + log_pi[:-2]
    elapsed = time.perf_counter() - t0
    ip_max = float(np.max(ip_second))
    pi_max = float(np.max(pi_second))
    ok = ip_max <= 1e-9 and pi_max <= 1e-9 and elapsed < 5.0
    _report(7, "high-power concavity", ok, elapsed,
            f" max d2(ip)={ip_max:.2e} max d2(log pi factor)={pi_max:.2e}")
    assert ip_max <= 1e-9
    assert pi_max <= 1e-9
    assert elapsed < 5.0


def test_criterion_8_special_functions():
    t0 = time.perf_counter()
    worst_e1 = 0.0
    e1_xs = np.logspace(-3.0, math.log10(50.0), 60)
    for x in e1_xs:
        ref = integrate(lambda t: math.exp(-t) / t, float(x), OPEN_END)
        worst_e1 = max(worst_e1, abs(exp_integral_e1(float(x)) - ref))

    xs = np.concatenate([
        np.linspace(-math.exp(-1.0) + 1e-9, -0.01, 50),
        [0.0],
        np.logspace(-9.0, 6.0, 80),
    ])
    w = lambert_w0(xs)
    resid = np.abs(w * np.exp(w) - xs) / np.maximum(1.0, np.abs(xs))
    worst_w = float(np.max(resid))

    bracketed = all(
        0.5 * math.exp(-x) * math.log1p(2.0 / x) < exp_integral_e1(x) < e1_asymptotic(x)
        for x in map(float, e1_xs)
    )
    ratios = {x: e1_asymptotic(x) / exp_integral_e1(x) for x in (1e-3, 30.0)}
    predicted = {
        1e-3: (np.euler_gamma - 1e-3 * math.log(1e3)) / exp_integral_e1(1e-3),
        30.0: 1.0 / (2 * 30.0) - 7.0 / (6 * 30.0 ** 2),
    }
    term_err = {x: abs((ratios[x] - 1.0) / predicted[x] - 1.0) for x in ratios}
    terms_ok = term_err[1e-3] <= 1e-3 and term_err[30.0] <= 0.02

    elapsed = time.perf_counter() - t0
    ok = worst_e1 <= 1e-10 and worst_w <= 1e-12 and bracketed and terms_ok and elapsed < 5.0
    detail = (f" |E1-quad|={worst_e1:.2e} W-resid={worst_w:.2e}"
              f" ratio(1e-3)={ratios[1e-3]:.4f} ratio(30)={ratios[30.0]:.4f}"
              f" predicted gap(1e-3)={predicted[1e-3]:.4f} gap(30)={predicted[30.0]:.4f}")
    _report(8, "special functions", ok, elapsed, detail)
    assert worst_e1 <= 1e-10
    assert worst_w <= 1e-12
    # e1_asymptotic is the upper bound of A&S 5.1.20, so it must bracket E1
    # together with the lower companion (1/2) e^{-x} ln(1 + 2/x).  It meets E1
    # only in the limits, and the clause checks the size of the gap there:
    # (gamma - x ln(1/x)) / E1(x) as x -> 0 (9.0% at 1e-3) and
    # 1/(2x) - 7/(6x^2) as x -> infinity (1.5% at 30).
    assert bracketed, "e1_asymptotic and its lower companion do not bracket E1"
    assert terms_ok, (
        f"limit-form gap off its error term: ratio(1e-3)={ratios[1e-3]:.6f}"
        f" (predicted {1.0 + predicted[1e-3]:.6f}), ratio(30)={ratios[30.0]:.6f}"
        f" (predicted {1.0 + predicted[30.0]:.6f})"
    )
    assert elapsed < 5.0


def test_criterion_9_simulation():
    t0 = time.perf_counter()
    params = SystemParams.from_snr_db(10.0)
    policy = PIPPolicy(0.3, 2.0)
    closed = schemes.pip_throughput(0.3, 2.0, params)

    _, free = sim.run_policy_trace(policy, params, 100_000, seed=MC_SEED)
    est = sim.mc_throughput(policy, params, 100_000, seed=MC_SEED)
    gap_ok = abs(free.mean_rate_bits - closed) <= 3.0 * est.std_error

    trace_htt, _ = sim.run_policy_trace(HTTPolicy(), params, 10_000, seed=MC_SEED,
                                        initial_energy=1.0)
    htt_ok = bool(np.all(trace_htt.stored == 1.0))

    _, capped = sim.run_policy_trace(policy, params, 100_000, seed=MC_SEED,
                                     causal=True, initial_energy=0.0)
    causal_ok = capped.mean_rate_bits <= free.mean_rate_bits + 3.0 * est.std_error

    elapsed = time.perf_counter() - t0
    ok = gap_ok and htt_ok and causal_ok and elapsed < 30.0
    _report(9, "trace simulation", ok, elapsed,
            f" noncausal_gap={abs(free.mean_rate_bits - closed):.2e}"
            f" (3se={3 * est.std_error:.2e}) causal<=free:{causal_ok}")
    assert gap_ok
    assert htt_ok
    assert causal_ok
    assert elapsed < 30.0
