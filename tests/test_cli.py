import contextlib
import hashlib
import json
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from wpcn import cli, numerics, optimize, schemes, sim
from wpcn.schemes import BandPolicy, HTTPolicy, SystemParams


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_fresh(script: str, cwd):
    """Run ``script`` in a fresh interpreter that imports this checkout's package; must exit 0."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(Path(__file__).resolve().parents[1] / "src"), env.get("PYTHONPATH")) if p)
    done = subprocess.run([sys.executable, "-c", script], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return done


def traced_main(*argv):
    """Exit code and tracemalloc peak (bytes) of one command."""
    tracemalloc.start()
    try:
        code = cli.main(list(argv))
        return code, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def run_json(capsys, *argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 0, err
    return json.loads(out)


class TestEvaluate:
    def test_pi_zero_threshold_zero_throughput(self, capsys):
        row = run_json(capsys, "evaluate", "--scheme", "pi", "--g-l", "0", "--snr-db", "10")
        assert row["throughput_bits"] == 0.0
        assert row["ul_power_w"] == 0.0

    def test_pip_reduces_to_ip(self, capsys):
        a = run_json(capsys, "evaluate", "--scheme", "pip", "--g-l", "0", "--g-u", "1.3",
                     "--snr-db", "10")
        b = run_json(capsys, "evaluate", "--scheme", "ip", "--g-u", "1.3", "--snr-db", "10")
        assert a["throughput_bits"] == b["throughput_bits"]
        assert a["ul_power_w"] == b["ul_power_w"]

    def test_verify_delta_small(self, capsys):
        # the quadrature oracle over each threshold scheme's band
        for thresholds in (("ip", "--g-u", "1.7"), ("pi", "--g-l", "0.6"),
                           ("pip", "--g-l", "0.3", "--g-u", "2")):
            row = run_json(capsys, "evaluate", "--scheme", *thresholds,
                           "--snr-db", "10", "--verify")
            assert abs(row["verify_delta_bits"]) <= 1e-8

    def test_htt_evaluate(self, capsys):
        row = run_json(capsys, "evaluate", "--scheme", "htt", "--snr-db", "10")
        ref = schemes.htt_ergodic_throughput(SystemParams.from_snr_db(10.0))
        assert row["throughput_bits"] == pytest.approx(ref.throughput_bits, rel=1e-12)

    def test_htt_verify_is_the_monte_carlo_delta(self, capsys):
        row = run_json(capsys, "evaluate", "--scheme", "htt", "--snr-db", "10", "--verify",
                       "--samples", "1000", "--seed", "3")
        mc = sim.mc_throughput(HTTPolicy(), SystemParams.from_snr_db(10.0), 1000, 3)
        assert row["verify_delta_bits"] == row["throughput_bits"] - mc.mean
        assert row["verify_delta_bits"] == 0.00291202199960483

    @pytest.mark.parametrize("error", [numerics.ConvergenceError, ArithmeticError])
    def test_numerical_failure_exits_2(self, capsys, monkeypatch, error):
        def fail(params):
            raise error("synthetic failure")
        monkeypatch.setattr(schemes, "htt_ergodic_throughput", fail)
        code, out, err = run_cli(capsys, "evaluate", "--scheme", "htt", "--snr-db", "10")
        assert (code, out, err) == (2, "", "numerical failure: synthetic failure\n")

    def test_invalid_threshold_is_one_usage_error(self, capsys):
        # every scheme's threshold goes through BandPolicy's one check
        for flags in (("ip", "--g-u", "0"), ("pi", "--g-l", "inf"), ("pi", "--g-l", "nan"),
                      ("pip", "--g-l", "2", "--g-u", "1")):
            code, out, err = run_cli(capsys, "evaluate", "--scheme", *flags, "--snr-db", "10")
            assert (code, out) == (1, "")
            assert err.startswith("error: band policy requires 0 <= g_l < g_u, got g_l=")

    def test_explicit_physical_constants(self, capsys):
        row = run_json(capsys, "evaluate", "--scheme", "ip", "--g-u", "1.0",
                       "--p-d", "4.0", "--gbar", "2.0", "--sigma2", "0.5")
        params = SystemParams(p_d=4.0, gbar=2.0, sigma2=0.5)
        assert row["throughput_bits"] == pytest.approx(
            schemes.ip_throughput(1.0, params), rel=1e-12
        )

    @pytest.mark.parametrize("argv", [
        ("evaluate", "--scheme", "ip", "--snr-db", "10"),                      # missing g_u
        ("evaluate", "--scheme", "ip", "--g-l", "1", "--snr-db", "10"),        # wrong arity
        ("evaluate", "--scheme", "pip", "--g-l", "1", "--snr-db", "10"),       # missing g_u
        ("evaluate", "--scheme", "pip", "--g-l", "2", "--g-u", "1", "--snr-db", "10"),
        ("evaluate", "--scheme", "htt", "--g-u", "1", "--snr-db", "10"),
        ("evaluate", "--scheme", "ip", "--g-u", "1"),                          # no params
        ("evaluate", "--scheme", "ip", "--g-u", "1", "--snr-db", "1", "--p-d", "2"),
        ("evaluate", "--scheme", "nope", "--snr-db", "1"),
    ])
    def test_usage_errors(self, capsys, argv):
        code, _, err = run_cli(capsys, *argv)
        assert code == 1
        assert err.strip()

    @pytest.mark.parametrize("argv", [
        ("evaluate", "--scheme", "htt", "--p-d", "1e308"),
        ("simulate", "--scheme", "htt", "--p-d", "1e308", "--samples", "1000", "--seed", "1"),
        ("simulate", "--scheme", "ip", "--g-u", "1", "--p-d", "1e308", "--samples", "1000"),
        ("evaluate", "--scheme", "ip", "--g-u", "1", "--p-d", "1e308"),
        ("optimize", "--scheme", "ip", "--p-d", "1e308"),
    ])
    def test_overflowing_downlink_power_is_a_usage_error(self, capsys, argv):
        # the frame SNR, harvest or uplink power overflows: named, with no
        # RuntimeWarning
        code, out, err = run_cli(capsys, *argv)
        assert code == 1
        assert out == ""
        assert "p_d" in err and "tau" not in err

    def test_infinite_downlink_power_is_a_usage_error(self, capsys):
        # RuntimeWarning is an error under pytest, so this also checks that
        # no inf * 0 is computed on the way to the message
        code, out, err = run_cli(capsys, "evaluate", "--scheme", "ip", "--g-u", "1",
                                 "--p-d", "inf")
        assert code == 1
        assert out == ""
        assert "p_d" in err


@pytest.mark.parametrize("argv,name", [
    (("evaluate", "--scheme", "ip", "--g-u", "1", "--snr-db", "10", "--gbar", "0"), "gbar"),
    (("evaluate", "--scheme", "ip", "--g-u", "1", "--snr-db", "10", "--gbar", "inf"), "gbar"),
    (("evaluate", "--scheme", "ip", "--g-u", "1", "--snr-db", "10", "--sigma2", "inf"),
     "sigma2"),
    (("evaluate", "--scheme", "ip", "--g-u", "1", "--snr-db", "nan"), "snr_db"),
    (("evaluate", "--scheme", "ip", "--g-u", "1", "--snr-db", "inf"), "snr_db"),
    (("evaluate", "--scheme", "ip", "--g-u", "1", "--snr-db", "-4000"), "snr_db"),
    (("evaluate", "--scheme", "ip", "--g-u", "1", "--snr-db", "4000"), "snr_db"),
    (("optimize", "--scheme", "ip", "--snr-db", "4000"), "snr_db"),
    (("sweep", "--start", "3100", "--stop", "3100", "--schemes", "ip"), "snr_db"),
    (("sweep", "--start", "0", "--stop", "inf", "--schemes", "ip"), "stop_db"),
    (("sweep", "--start=-inf", "--stop", "0", "--schemes", "ip"), "start_db"),
    (("evaluate", "--scheme", "ip", "--g-u", "1", "--snr-db", "10", "--gbar", "1e-200"), "gbar"),
    (("evaluate", "--scheme", "ip", "--g-u", "1", "--snr-db", "10", "--gbar", "1e200"), "gbar"),
    (("evaluate", "--scheme", "ip", "--g-u", "1", "--snr-db", "10", "--gbar", "1e-160"), "gbar"),
    (("evaluate", "--scheme", "ip", "--g-u", "1", "--snr-db", "10", "--gbar", "1e150",
      "--sigma2", "1e-300"), "gbar"),
    (("evaluate", "--scheme", "htt", "--p-d", "1", "--gbar", "1e200"), "gbar"),
    (("simulate", "--scheme", "htt", "--p-d", "1", "--gbar", "1e200", "--samples", "10"), "gbar"),
    (("sweep", "--start", "0", "--stop", "30", "--gbar", "0"), "gbar"),
    (("sweep", "--start", "0", "--stop", "30", "--sigma2", "nan"), "sigma2"),
    # the step count (stop - start) / step overflows a float
    (("sweep", "--start", "0", "--stop", "1e300", "--step", "1e-300"), "step_db"),
    (("optimize", "--scheme", "pip", "--snr-db", "10", "--gain-cap", "1e300",
      "--grid-step", "1e-10"), "step"),
    # finite counts past the 100,000 points allowed: a sweep of 1e20 points,
    # and a PIP axis of 1e9 points, both refused before they run
    (("sweep", "--start", "0", "--stop", "1e-280", "--step", "1e-300"), "step_db"),
    (("optimize", "--scheme", "pip", "--snr-db", "10", "--gain-cap", "1e6",
      "--grid-step", "1e-3"), "step"),
])
def test_bad_snr_input_is_a_usage_error_naming_it(capsys, argv, name):
    code, out, err = run_cli(capsys, *argv)
    assert code == 1
    assert out == ""
    assert name in err


class TestOptimize:
    def test_pip_on_the_smallest_grid(self, capsys):
        row = run_json(capsys, "optimize", "--scheme", "pip", "--snr-db", "5",
                       "--gain-cap", "0.05", "--grid-step", "0.04")
        assert (row["g_l"], row["g_u"], row["at_boundary"]) == (0.0, 0.04, True)

    def test_all_prints_four_ordered_rows(self, capsys):
        code, out, _ = run_cli(capsys, "optimize", "--scheme", "all", "--snr-db", "10",
                               "--grid-step", "0.1")
        assert code == 0
        rows = [json.loads(line) for line in out.strip().splitlines()]
        assert [r["scheme"] for r in rows] == ["htt", "ip", "pi", "pip"]
        by = {r["scheme"]: r for r in rows}
        eps = 0.01
        assert by["pip"]["throughput_bits"] >= by["ip"]["throughput_bits"] - eps
        assert by["pip"]["throughput_bits"] >= by["pi"]["throughput_bits"] - eps

    def test_deterministic(self, capsys):
        _, out1, _ = run_cli(capsys, "optimize", "--scheme", "ip", "--snr-db", "10",
                             "--grid-step", "0.1")
        _, out2, _ = run_cli(capsys, "optimize", "--scheme", "ip", "--snr-db", "10",
                             "--grid-step", "0.1")
        assert out1 == out2

    @pytest.mark.parametrize("scheme", ["ip", "pi", "pip"])
    def test_wide_search_past_the_power_overflow(self, capsys, scheme):
        # the grid reaches g = 1000, where e^g overflows; those bands are not
        # eligible and the optimum near 1 is still reported
        row = run_json(capsys, "optimize", "--scheme", scheme, "--snr-db", "10",
                       "--gain-cap", "1000", "--grid-step", "1")
        assert 1.0 < row["throughput_bits"] < 2.0
        assert not row["at_boundary"]

    def test_pi_searches_the_eligible_thresholds_below_the_first_scan_step(self, capsys):
        # every coarse-scan point but g_l = 0 overflows at this cap; the
        # eligible thresholds, below g_l ~ 0.01, are searched alone, and
        # --gain-cap 1.0 finds 995.932705105403 bits at g_l = 0.00291
        code, out, err = run_cli(capsys, "optimize", "--scheme", "pi",
                                 "--p-d", "2.156272299568374e306", "--gbar", "3.631698349604619",
                                 "--sigma2", "14.421922606466026",
                                 "--gain-cap", "772.7775264106529")
        assert code == 0 and err == ""
        row = json.loads(out)
        assert all(math.isfinite(row[key]) for key in ("g_l", "ul_power_w", "throughput_bits"))
        assert row["throughput_bits"] >= 995.932705105403 - 1e-9
        assert 0.0 < row["g_l"] < 0.01

    @pytest.mark.parametrize("scheme, bits", [("ip", 1.6120812862896), ("pi", 1.4058064552361)])
    def test_the_widest_gain_cap_finds_the_optimum(self, capsys, scheme, bits):
        # the throughput underflows, or the band is not eligible, over most
        # of the searched range; the bisection stops at float resolution
        # after about 1,000 halvings, with no warning
        code, out, err = run_cli(capsys, "optimize", "--scheme", scheme, "--snr-db", "10",
                                 "--gain-cap", "1e300")
        assert code == 0 and err == ""
        assert json.loads(out)["throughput_bits"] == pytest.approx(bits, rel=1e-12)

    def test_high_snr_ip_beats_htt(self, capsys):
        code, out, _ = run_cli(capsys, "optimize", "--scheme", "all", "--snr-db", "30",
                               "--grid-step", "0.1")
        assert code == 0
        by = {json.loads(l)["scheme"]: json.loads(l) for l in out.strip().splitlines()}
        assert by["ip"]["throughput_bits"] >= by["htt"]["throughput_bits"]


# sha256 of the stdout of `wpcn sweep --start 0 --stop 30 --step 2`, and of
# the reprs of its 64 SweepPoints, one a line: a float's repr round-trips, so
# the second pins every threshold, split, power and throughput bit for bit,
# where the CSV's .12g cells could hide a moved bit
HEADLINE_CSV_SHA256 = "1c6b0c7d9ee79322a8c41f10b6bc5422b80b533eb7bbec0885bc13df0d2e2111"
HEADLINE_POINTS_SHA256 = "f116e85c932b36a8bb82a94573ed53c79bb4c7228824962002f7a1bd104fa987"
# sha256 of the stdout of `wpcn sweep --start -60 --stop 90 --step 3
# --grid-step 0.05`: the whole SNR axis, far past the headline's 0-30 dB
AXIS_FULL_CSV_SHA256 = "58a43d2830bf02ba31485ce1ed3384e14a56f2eb616a7d0098d288a6f53631cf"


class TestSweep:
    def test_headline_curve_is_pinned_bit_for_bit(self, capsys, monkeypatch):
        curves, sweep = [], optimize.sweep

        def keep(*args, **kwargs):
            curves.append(sweep(*args, **kwargs))
            return curves[-1]

        monkeypatch.setattr(optimize, "sweep", keep)
        code, out, err = run_cli(capsys, "sweep", "--start", "0", "--stop", "30", "--step", "2")
        assert code == 0, err
        assert hashlib.sha256(out.encode()).hexdigest() == HEADLINE_CSV_SHA256
        (curve,) = curves
        assert len(curve.points) == 64
        reprs = "\n".join(map(repr, curve.points)).encode()
        assert hashlib.sha256(reprs).hexdigest() == HEADLINE_POINTS_SHA256

    def test_full_axis_curve_is_pinned(self, capsys):
        code, out, err = run_cli(capsys, "sweep", "--start", "-60", "--stop", "90", "--step", "3",
                                 "--grid-step", "0.05")
        assert code == 0, err
        assert hashlib.sha256(out.encode()).hexdigest() == AXIS_FULL_CSV_SHA256

    def test_csv_shape_header_and_roundtrip(self, capsys, tmp_path):
        out_path = tmp_path / "curve.csv"
        code, _, err = run_cli(capsys, "sweep", "--start", "0", "--stop", "30", "--step", "2",
                               "--grid-step", "0.25", "--output", str(out_path))
        assert code == 0, err
        lines = out_path.read_text().strip().splitlines()
        assert lines[0] == "snr_db,scheme,g_l,g_u,tau_mean,ul_power_w,throughput_bits"
        assert len(lines) == 1 + 16 * 4
        # numeric fields round-trip at the printed 12-significant-digit precision
        for line in lines[1:]:
            fields = dict(zip(lines[0].split(","), line.split(",")))
            for key in ("snr_db", "ul_power_w", "throughput_bits"):
                assert f"{float(fields[key]):.12g}" == fields[key]
            assert fields["scheme"] in ("htt", "ip", "pi", "pip")

    def test_byte_identical_reruns(self, capsys, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for path in (a, b):
            code, _, _ = run_cli(capsys, "sweep", "--start", "0", "--stop", "4", "--step", "2",
                                 "--schemes", "ip,pi", "--grid-step", "0.25",
                                 "--output", str(path))
            assert code == 0
        assert a.read_bytes() == b.read_bytes()

    @staticmethod
    def _assert_reference_rows(capsys, argv, keep, n_rows):
        """The sweep prints the header and the ``n_rows`` rows ``keep`` selects of the reference."""
        code, out, err = run_cli(capsys, "sweep", *argv)
        assert code == 0, err
        reference = (Path(__file__).resolve().parents[1] / "bench" / "reference"
                     / "sweep.csv").read_text().splitlines()
        header, rows = reference[0], reference[1:]
        wanted = [r for r in rows if keep(r.split(","))]
        assert len(wanted) == n_rows
        assert out.splitlines() == [header] + wanted

    def test_rows_match_the_reference_curve(self, capsys):
        # at 0 dB the PIP grid's E1 arguments reach ~2e3, past the switch to
        # the asymptotic tail of exp_scaled_e1
        self._assert_reference_rows(capsys, ("--start", "0", "--stop", "24", "--step", "8"),
                                    lambda cells: cells[0] in ("0", "8", "16", "24"), 16)

    def test_htt_rows_match_the_headline_curve(self, capsys):
        self._assert_reference_rows(
            capsys, ("--start", "0", "--stop", "30", "--step", "2", "--schemes", "htt"),
            lambda cells: cells[1] == "htt", 16)

    def test_ip_and_pi_rows_match_the_headline_curve(self, capsys):
        # every IP/PI threshold of the curve, as the scalar solver finds it
        self._assert_reference_rows(
            capsys, ("--start", "0", "--stop", "30", "--step", "2", "--schemes", "ip,pi"),
            lambda cells: cells[1] in ("ip", "pi"), 32)

    def test_json_mirrors_csv_fields(self, capsys, tmp_path):
        out_path = tmp_path / "curve.json"
        code, _, _ = run_cli(capsys, "sweep", "--start", "0", "--stop", "2", "--step", "2",
                             "--schemes", "ip", "--grid-step", "0.25",
                             "--format", "json", "--output", str(out_path))
        assert code == 0
        rows = json.loads(out_path.read_text())
        assert len(rows) == 2
        assert set(rows[0]) == {"snr_db", "scheme", "g_l", "g_u", "tau_mean",
                                "ul_power_w", "throughput_bits"}
        assert rows[0]["g_l"] is None and rows[0]["g_u"] is not None

    def test_stdout_when_no_output(self, capsys):
        code, out, _ = run_cli(capsys, "sweep", "--start", "0", "--stop", "0", "--step", "2",
                               "--schemes", "pi", "--grid-step", "0.25")
        assert code == 0
        assert out.splitlines()[0].startswith("snr_db,")

    def test_partial_failure_exit_code(self, capsys, monkeypatch):
        def boom(params, cfg):
            raise ValueError("synthetic failure")
        monkeypatch.setitem(optimize._SOLVERS, "ip", boom)
        code, out, err = run_cli(capsys, "sweep", "--start", "0", "--stop", "0", "--step", "2",
                                 "--schemes", "ip,pi", "--grid-step", "0.25")
        assert code == 2
        assert "failed" in err
        # the failing row is present and blank-valued, the healthy row intact
        lines = out.strip().splitlines()
        assert len(lines) == 3

    def test_bad_point_snr_fails_before_any_solve(self, capsys, monkeypatch):
        # 10^309 overflows a float at 3090 dB: the sweep refuses it up front
        calls = []

        def counted(params, cfg):
            calls.append(params)
            return solve_ip(params, cfg)
        solve_ip = optimize._SOLVERS["ip"]
        monkeypatch.setitem(optimize._SOLVERS, "ip", counted)
        code, out, err = run_cli(capsys, "sweep", "--start", "0", "--stop", "4000",
                                 "--step", "10", "--schemes", "ip")
        assert (code, out, calls) == (1, "", [])
        assert err == ("error: 10^(snr_db/10) at snr_db=3090.0 "
                       "must be positive and finite\n")

    def test_rejects_point_params(self, capsys):
        code, _, err = run_cli(capsys, "sweep", "--start", "0", "--stop", "2", "--step", "2",
                               "--snr-db", "10")
        assert code == 1

    def test_backwards_range_is_a_usage_error(self, capsys):
        code, out, err = run_cli(capsys, "sweep", "--start", "0", "--stop", "-4", "--step", "2")
        assert code == 1
        assert out == ""
        assert "stop_db" in err

    def test_nan_step_is_a_usage_error(self, capsys):
        code, out, err = run_cli(capsys, "sweep", "--start", "0", "--stop", "0",
                                 "--step", "nan")
        assert code == 1
        assert out == ""
        assert "step_db" in err

    def test_infinite_gain_cap_is_a_usage_error(self, capsys):
        code, out, err = run_cli(capsys, "sweep", "--start", "0", "--stop", "0",
                                 "--gain-cap", "inf")
        assert code == 1
        assert out == ""
        assert "gain_cap" in err


# `simulate --samples 70000 --snr-db 10 --causal --seed 3 --dump-frames F`: the
# summary line and the sha256 of the dump, pinned before the trace and the dump
# were computed in blocks; 70,000 frames span two blocks
PINNED_SIMULATE = [
    (("ip", "--g-u", "1.6"),
     '{"scheme": "ip", "g_l": null, "g_u": 1.6, "causal": true, "n_frames": 70000, '
     '"mean_rate_bits": 1.6000689192607593, "mean_harvested_j": 5.221033044689971, '
     '"mean_consumed_j": 5.21621249944904, "min_stored_j": 0.0035795598004213502, '
     '"skipped_wit_frames": 599}',
     "0f610067f2f7022d6e5ff4e2cc48b57a830bffb7770691916cc111ab27b0dcdb"),
    (("htt",),
     '{"scheme": "htt", "g_l": null, "g_u": null, "causal": true, "n_frames": 70000, '
     '"mean_rate_bits": 1.4781829707925283, "mean_harvested_j": 3.6795613110762124, '
     '"mean_consumed_j": 3.6795613110762124, "min_stored_j": 0.0, "skipped_wit_frames": 0}',
     "1624dcbc3c83306ab7a50bcdf6a6646eb0b322bd90a0305b07e1fb08a0b43c52"),
    (("pip", "--g-l", "0.3", "--g-u", "2.0"),
     '{"scheme": "pip", "g_l": 0.3, "g_u": 2.0, "causal": true, "n_frames": 70000, '
     '"mean_rate_bits": 1.6922185531692646, "mean_harvested_j": 4.409707209813412, '
     '"mean_consumed_j": 4.4035241053056176, "min_stored_j": 0.0037922681567730265, '
     '"skipped_wit_frames": 393}',
     "fb26c117ef7eb18bec1049cc3eaa76e508ff6705f25350f1cbc75207081be884"),
]

# `simulate --snr-db 10 --samples 1000000 --causal`: the summary line, pinned
# with leaves of 65,536 frames; 1e6 frames are 128 leaves of 8,192 or less
PINNED_MILLION = [
    (("ip", "--g-u", "1.6", "--seed", "3"),
     '{"scheme": "ip", "g_l": null, "g_u": 1.6, "causal": true, "n_frames": 1000000, '
     '"mean_rate_bits": 1.6100965284079662, "mean_harvested_j": 5.255230092127116, '
     '"mean_consumed_j": 5.244768009504115, "min_stored_j": 0.0035795598004213502, '
     '"skipped_wit_frames": 781}'),
    (("htt", "--seed", "6"),
     '{"scheme": "htt", "g_l": null, "g_u": null, "causal": true, "n_frames": 1000000, '
     '"mean_rate_bits": 1.4877942239185338, "mean_harvested_j": 3.6982005449026283, '
     '"mean_consumed_j": 3.6982005449026283, "min_stored_j": 0.0, "skipped_wit_frames": 0}'),
]


class TestSimulate:
    def test_htt_constant_storage(self, capsys, tmp_path):
        dump = tmp_path / "frames.csv"
        row = run_json(capsys, "simulate", "--scheme", "htt", "--snr-db", "10",
                       "--samples", "2000", "--seed", "4", "--initial-energy", "1.0",
                       "--dump-frames", str(dump))
        assert row["min_stored_j"] == 1.0
        lines = dump.read_text().strip().splitlines()
        assert lines[0] == "index,gain,mode,harvested_j,consumed_j,stored_j,rate_bits"
        assert len(lines) == 2001
        stored = {line.split(",")[5] for line in lines[1:]}
        assert stored == {"1"}

    def test_pip_noncausal_matches_closed_form(self, capsys):
        row = run_json(capsys, "simulate", "--scheme", "pip", "--g-l", "0.3", "--g-u", "2.0",
                       "--snr-db", "10", "--samples", "100000", "--seed", "2025")
        params = SystemParams.from_snr_db(10.0)
        closed = schemes.pip_throughput(0.3, 2.0, params)
        est = sim.mc_throughput(BandPolicy(0.3, 2.0), params, 100_000, 2025)
        assert abs(row["mean_rate_bits"] - closed) <= 3.0 * est.std_error

    def test_causal_counts_skips_and_stays_below(self, capsys):
        free = run_json(capsys, "simulate", "--scheme", "pip", "--g-l", "0.3", "--g-u", "2.0",
                        "--snr-db", "0", "--samples", "20000", "--seed", "6")
        capped = run_json(capsys, "simulate", "--scheme", "pip", "--g-l", "0.3", "--g-u", "2.0",
                          "--snr-db", "0", "--samples", "20000", "--seed", "6", "--causal")
        assert capped["skipped_wit_frames"] > 0
        assert capped["mean_rate_bits"] <= free["mean_rate_bits"]
        assert capped["min_stored_j"] >= 0.0

    def test_optimize_first(self, capsys):
        row = run_json(capsys, "simulate", "--scheme", "ip", "--optimize-first",
                       "--snr-db", "10", "--grid-step", "0.1", "--samples", "5000")
        assert row["g_u"] is not None
        assert row["mean_rate_bits"] > 0.0

    def test_optimize_first_rejects_thresholds(self, capsys):
        code, _, _ = run_cli(capsys, "simulate", "--scheme", "ip", "--optimize-first",
                             "--g-u", "1.0", "--snr-db", "10")
        assert code == 1

    def test_dump_frames_writes_the_trace_columns(self, capsys, tmp_path):
        dump = tmp_path / "frames.csv"
        run_json(capsys, "simulate", "--scheme", "ip", "--g-u", "1.0", "--snr-db", "10",
                 "--samples", "500", "--seed", "2", "--dump-frames", str(dump))
        trace, _ = sim.run_policy_trace(BandPolicy(g_u=1.0), SystemParams.from_snr_db(10.0), 500, 2)
        rows = [line.split(",") for line in dump.read_text().splitlines()[1:]]
        assert [row[0] for row in rows] == [str(i) for i in range(500)]
        modes = [row[2] for row in rows]
        assert modes == ["WIT" if g < 1.0 else "WPT" for g in trace.gain]
        assert {"WIT", "WPT"} == set(modes)
        columns = (trace.gain, trace.harvested, trace.consumed, trace.stored, trace.rate)
        expect = [[cli._fmt(float(x)) for x in col] for col in columns]
        assert [[row[k] for row in rows] for k in (1, 3, 4, 5, 6)] == expect

    @given(st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True))
    @example(-0.0)
    @example(5e-324)
    def test_frame_format_is_the_sweep_format(self, x):
        # the frame dump formats a row with "%.12g", the sweep cells with _fmt
        assert "%.12g" % x == cli._fmt(x)

    def test_causal_dump_matches_per_cell_formatting(self, capsys, tmp_path):
        # the causal trace demotes frames and stores fractional energy; each
        # line is the old join of _fmt over the cells
        dump = tmp_path / "frames.csv"
        run_json(capsys, "simulate", "--scheme", "pip", "--g-l", "0.3", "--g-u", "2.0",
                 "--snr-db", "0", "--samples", "3000", "--seed", "6", "--causal",
                 "--dump-frames", str(dump))
        trace, summary = sim.run_policy_trace(BandPolicy(0.3, 2.0), SystemParams.from_snr_db(0.0),
                                              3000, 6, causal=True)
        assert summary.skipped_wit_frames > 0
        columns = (trace.gain, trace.harvested, trace.consumed, trace.stored, trace.rate)
        cells = [[cli._fmt(x) for x in col.tolist()] for col in columns]
        modes = [sim.MODE_NAMES[code] for code in trace.mode.tolist()]
        expect = ["index,gain,mode,harvested_j,consumed_j,stored_j,rate_bits"] + [
            ",".join([str(i), cells[0][i], modes[i]] + [col[i] for col in cells[1:]])
            for i in range(3000)
        ]
        assert dump.read_text() == "\n".join(expect) + "\n"

    @pytest.mark.parametrize("flags,stdout,digest", PINNED_SIMULATE, ids=["ip", "htt", "pip"])
    def test_stdout_and_dump_bytes_are_pinned(self, capsys, tmp_path, flags, stdout, digest):
        dump = tmp_path / "frames.csv"
        code, out, err = run_cli(capsys, "simulate", "--scheme", *flags, "--samples", "70000",
                                 "--snr-db", "10", "--causal", "--seed", "3",
                                 "--dump-frames", str(dump))
        assert code == 0, err
        assert out == stdout + "\n"
        assert hashlib.sha256(dump.read_bytes()).hexdigest() == digest

    @pytest.mark.parametrize("flags,stdout", PINNED_MILLION, ids=["ip", "htt"])
    def test_stdout_across_many_leaves_is_pinned(self, capsys, flags, stdout):
        code, out, err = run_cli(capsys, "simulate", "--scheme", *flags, "--snr-db", "10",
                                 "--samples", "1000000", "--causal")
        assert code == 0, err
        assert out == stdout + "\n"

    def test_dump_holds_one_block_of_rows_at_a_time(self, capsys, tmp_path):
        # a count gate on bytes, not time: the command streams the trace and
        # holds one block of rows (1.02 MiB measured); the Python floats of
        # all 300k frames take about 48 MiB
        code, peak = traced_main("simulate", "--scheme", "ip", "--g-u", "1.6", "--snr-db", "10",
                                 "--samples", "300000", "--seed", "1", "--causal",
                                 "--dump-frames", str(tmp_path / "frames.csv"))
        assert code == 0
        assert peak <= 2.5 * 2**20

    @pytest.mark.parametrize("lengths", [(1,), (1023, 1), (1025, 3000), (8192, 2049)],
                             ids=["one-frame", "1023+1", "1025+3000", "8192+2049"])
    def test_dump_chunks_write_the_per_row_bytes(self, tmp_path, lengths):
        # the writer formats 1,024 rows at a time; its bytes are those of
        # one _FRAME_ROW % row per frame, on blocks that end mid-chunk and
        # on cells that print -0 or in exponent form
        rng = np.random.default_rng(len(lengths) + sum(lengths))
        cells = np.array([-0.0, 0.0, 5e-324, 1.2e-300, 3.4e-7, 2.0 / 3.0, 1.6, 12345678.9,
                          6.02e23, 1.7e300])
        blocks, start = [], 0
        for n in lengths:
            block = sim.FrameTrace(rng.choice(cells, n), rng.integers(0, 3, n).astype(np.int8),
                                   *(rng.choice(cells, n) for _ in range(4)))
            block.gain[0], block.harvested[0], block.stored[0] = 1.2e-300, -0.0, 1.7e300
            blocks.append((start, block))
            start += n
        dump = tmp_path / "frames.csv"
        with contextlib.ExitStack() as files:
            write = cli._frame_writer(str(dump), files)
            for start, block in blocks:
                write(start, block)
        expect = "index,gain,mode,harvested_j,consumed_j,stored_j,rate_bits\n" + "".join(
            cli._FRAME_ROW % row
            for start, block in blocks
            for row in zip(range(start, start + len(block.gain)), block.gain.tolist(),
                           (sim.MODE_NAMES[code] for code in block.mode.tolist()),
                           block.harvested.tolist(), block.consumed.tolist(),
                           block.stored.tolist(), block.rate.tolist()))
        text = dump.read_text()
        assert "-0," in text and "e-300" in text and "e+300" in text
        assert text == expect

    def test_summary_alone_holds_no_column(self, capsys):
        # without a dump the trace goes to no sink: 0.52 MiB measured, where
        # one float column of the 1e6 frames takes 7.6 MiB
        code, peak = traced_main("simulate", "--scheme", "ip", "--g-u", "1.6", "--snr-db", "10",
                                 "--samples", "1000000", "--seed", "1", "--causal")
        assert code == 0
        assert peak <= 1 * 2**20

    @pytest.mark.parametrize("flags,message", [
        (("ip", "--g-u", "1.0", "--p-d", "1e308"),
         "error: full-frame harvest p_d gbar g overflows at p_d=1e+308"),
        (("htt", "--p-d", "1e308"),
         "error: full-frame harvest p_d gbar g overflows at p_d=1e+308"),
        (("ip", "--g-u", "1.0", "--p-d", "1e300", "--sigma2", "1e-10"),
         "error: expected uplink SNR power gbar / sigma2 overflows on this band at "
         "p_d=1e+300, gbar=1.0, sigma2=1e-10"),
        (("htt", "--p-d", "1e300", "--sigma2", "1e-10"),
         "error: frame SNR p_d gbar^2 g^2 / sigma2 overflows at "
         "p_d=1e+300, gbar=1.0, sigma2=1e-10"),
    ], ids=["ip-harvest", "htt-harvest", "ip-uplink-snr", "htt-frame-snr"])
    def test_failing_dump_leaves_no_file(self, capsys, tmp_path, flags, message):
        # every check runs before the first block reaches the dump, in the
        # order and with the messages of the whole-column trace
        dump = tmp_path / "frames.csv"
        code, out, err = run_cli(capsys, "simulate", "--scheme", *flags, "--samples", "1000",
                                 "--dump-frames", str(dump))
        assert (code, out, err) == (1, "", message + "\n")
        assert not dump.exists()

    def test_overflowing_means_of_fitting_frames_are_finite(self, capsys):
        # each frame harvests at most 3.7e307, but the 200k-frame sum overflows;
        # RuntimeWarning is an error under pytest
        row = run_json(capsys, "simulate", "--scheme", "htt", "--p-d", "1e306",
                       "--samples", "200000", "--seed", "1")
        trace, _ = sim.run_policy_trace(HTTPolicy(), SystemParams(p_d=1e306), 200_000, 1)
        with np.errstate(over="ignore"):
            assert np.all(np.isfinite(trace.harvested)) and np.isinf(np.sum(trace.harvested))
        scale = 2.0 ** -(200_000).bit_length()
        want = math.fsum(trace.harvested * scale) / 200_000 / scale
        for key in ("mean_harvested_j", "mean_consumed_j"):
            assert math.isfinite(row[key]) and row[key] == pytest.approx(want, rel=1e-15, abs=0.0)

    @pytest.mark.parametrize("dump", [False, True], ids=["summary", "dump"])
    @pytest.mark.parametrize("causal", [False, True], ids=["noncausal", "causal"])
    def test_overflowing_ledger_level_is_refused(self, capsys, tmp_path, dump, causal):
        # every frame fits, but the 1e5-frame level leaves the float range
        # (-inf without causality, +inf with it): refused before the first
        # block, with no RuntimeWarning (an error under pytest) and no file
        path = tmp_path / "frames.csv"
        code, out, err = run_cli(capsys, "simulate", "--scheme", "ip", "--g-u", "2.516",
                                 "--p-d", "1e306", "--samples", "100000", "--seed", "3",
                                 *(("--causal",) if causal else ()),
                                 *(("--dump-frames", str(path)) if dump else ()))
        assert (code, out, err) == (
            1, "", "error: stored energy overflows the float range at p_d=1e+306\n")
        assert not path.exists()

    @pytest.mark.parametrize("causal,stdout,digest", [
        (False,
         '{"scheme": "ip", "g_l": null, "g_u": 2.516, "causal": false, "n_frames": 1000, '
         '"mean_rate_bits": 925.552212080849, "mean_harvested_j": 3.0982016294592678e+305, '
         '"mean_consumed_j": 2.8210855069352968e+305, "min_stored_j": -2.4755976846805794e+307, '
         '"skipped_wit_frames": 0}',
         "c7cf227446d59bce495ebbe2cf6cb57f5232a7ce2da64ce4f8c526c582775bfc"),
        (True,
         '{"scheme": "ip", "g_l": null, "g_u": 2.516, "causal": true, "n_frames": 1000, '
         '"mean_rate_bits": 902.2348113732958, "mean_harvested_j": 3.286285449809938e+305, '
         '"mean_consumed_j": 2.7500176354571897e+305, "min_stored_j": 3.074791555940497e+304, '
         '"skipped_wit_frames": 23}',
         "f5d789c2856b41997b2fdd210646115e3fa68134e9f328a739802454b74d2b84"),
    ], ids=["noncausal", "causal"])
    def test_fitting_ledger_level_past_its_bound_is_unchanged(self, capsys, tmp_path, causal,
                                                               stdout, digest):
        # 1000 frames times the largest harvest overflows, so a dry run
        # decides; the level fits, and stdout and dump keep their bytes
        dump = tmp_path / "frames.csv"
        code, out, err = run_cli(capsys, "simulate", "--scheme", "ip", "--g-u", "2.516",
                                 "--p-d", "1e306", "--samples", "1000", "--seed", "3",
                                 *(("--causal",) if causal else ()), "--dump-frames", str(dump))
        assert (code, out, err) == (0, stdout + "\n", "")
        assert hashlib.sha256(dump.read_bytes()).hexdigest() == digest

    @pytest.mark.parametrize("energy", ["nan", "inf"])
    def test_non_finite_initial_energy_is_a_usage_error(self, capsys, energy):
        code, out, err = run_cli(capsys, "simulate", "--scheme", "ip", "--g-u", "1.0",
                                 "--snr-db", "10", "--samples", "100", "--causal",
                                 "--initial-energy", energy)
        assert code == 1
        assert out == ""
        assert "initial_energy" in err

    def test_seed_determinism(self, capsys):
        a = run_json(capsys, "simulate", "--scheme", "pi", "--g-l", "0.8",
                     "--snr-db", "10", "--samples", "5000", "--seed", "11")
        b = run_json(capsys, "simulate", "--scheme", "pi", "--g-l", "0.8",
                     "--snr-db", "10", "--samples", "5000", "--seed", "11")
        assert a == b


# Each subcommand takes only the flags it reads; sweep sets p_d per point.
@pytest.mark.parametrize("argv,flag", [
    (("evaluate", "--scheme", "ip", "--g-u", "1", "--snr-db", "10"), ("--gain-cap", "-3")),
    (("evaluate", "--scheme", "ip", "--g-u", "1", "--snr-db", "10"), ("--grid-step", "0.1")),
    (("optimize", "--scheme", "ip", "--snr-db", "10"), ("--seed", "x")),
    (("optimize", "--scheme", "ip", "--snr-db", "10"), ("--samples", "10")),
    (("sweep", "--start", "0", "--stop", "0", "--schemes", "ip"), ("--seed", "1")),
    (("sweep", "--start", "0", "--stop", "0", "--schemes", "ip"), ("--samples", "10")),
    (("sweep", "--start", "0", "--stop", "0", "--schemes", "ip"), ("--p-d", "2")),
    (("sweep", "--start", "0", "--stop", "0", "--schemes", "ip"), ("--snr-db", "10")),
])
def test_unread_flag_is_a_usage_error(capsys, argv, flag):
    code, out, err = run_cli(capsys, *argv, *flag)
    assert code == 1
    assert out == ""
    assert "unrecognized arguments" in err and flag[0] in err


class TestConfigFile:
    def test_config_supplies_defaults(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"snr-db": 10, "scheme": "ip", "g-u": 1.5}))
        row = run_json(capsys, "evaluate", "--config", str(cfg))
        assert row["scheme"] == "ip"
        assert row["g_u"] == 1.5

    def test_flags_override_config(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"snr_db": 10, "scheme": "ip", "g_u": 1.5}))
        row = run_json(capsys, "evaluate", "--config", str(cfg), "--g-u", "2.5")
        assert row["g_u"] == 2.5

    def test_boolean_keys(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"snr-db": 0, "scheme": "pi", "g-l": 0.8,
                                   "samples": 5000, "causal": True}))
        row = run_json(capsys, "simulate", "--config", str(cfg))
        assert row["causal"] is True

    def test_key_naming_an_unread_flag_is_a_usage_error(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"snr_db": 10, "scheme": "ip", "seed": 3}))
        code, out, err = run_cli(capsys, "optimize", "--config", str(cfg))
        assert code == 1
        assert out == ""
        assert "--seed" in err

    def test_inline_path(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"snr_db": 10, "scheme": "ip", "g_u": 1.5}))
        spaced = run_json(capsys, "evaluate", "--config", str(cfg), "--g-u", "2.5")
        inline = run_json(capsys, "evaluate", f"--config={cfg}", "--g-u", "2.5")
        assert inline == spaced

    def test_missing_inline_config_file(self, capsys):
        code, out, err = run_cli(capsys, "evaluate", "--scheme", "ip", "--g-u", "1.6",
                                 "--snr-db", "10", "--config=/nonexistent.json")
        assert code == 1
        assert out == ""
        assert "nonexistent" in err

    def test_missing_config_file(self, capsys):
        code, _, err = run_cli(capsys, "evaluate", "--scheme", "pi", "--g-l", "1",
                               "--snr-db", "0", "--config", "/nonexistent.json")
        assert code == 1
        assert err.strip()

    @pytest.mark.parametrize("argv,config,message", [
        (("evaluate", "--config"), None, "--config needs a path"),
        (("evaluate", "--config", "{path}"), [10, "ip"], "config file must hold a JSON object"),
        (("--config", "{path}"), {"snr_db": 10}, "missing command"),
    ])
    def test_config_usage_errors(self, capsys, tmp_path, argv, config, message):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(config))
        code, out, err = run_cli(capsys, *(a.format(path=path) for a in argv))
        assert (code, out, err) == (1, "", f"error: {message}\n")


def test_no_command_loads_scipy_integrate(tmp_path):
    # scipy.integrate costs about a quarter second and 26 MB to import;
    # numerics.integrate has its own quadrature, so even the commands that
    # integrate (sweep, optimize and evaluate --verify) leave it unloaded
    script = (
        "import sys\n"
        "import wpcn.cli\n"
        "assert 'scipy.integrate' not in sys.modules, 'import'\n"
        "point = ['--snr-db', '10', '--samples', '1000']\n"
        "for argv in (['simulate', '--scheme', 'ip', '--g-u', '1.6'] + point,\n"
        "             ['sweep', '--start', '0', '--stop', '4', '--grid-step', '0.05'],\n"
        "             ['optimize', '--scheme', 'htt', '--snr-db', '10'],\n"
        "             ['evaluate', '--scheme', 'ip', '--g-u', '1.6', '--verify'] + point,\n"
        "             ['evaluate', '--scheme', 'htt', '--verify'] + point):\n"
        "    assert wpcn.cli.main(argv) == 0, argv\n"
        "    assert 'scipy.integrate' not in sys.modules, argv\n"
    )
    run_fresh(script, tmp_path)


def test_importing_the_cli_loads_no_module_beyond_its_own(tmp_path):
    # every command pays for importing wpcn.cli (bench's setup_s); past
    # numpy, argparse and json it loads the package and a few small stdlib
    # modules, so a new import there shows up here first
    script = (
        "import sys\n"
        "import argparse, json, numpy\n"
        "before = set(sys.modules)\n"
        "import wpcn.cli\n"
        "new = sorted(m for m in set(sys.modules) - before\n"
        "             if m != 'wpcn' and not m.startswith('wpcn.'))\n"
        "print(' '.join(new))\n"
    )
    done = run_fresh(script, tmp_path)
    assert set(done.stdout.split()) <= {"__future__", "copy", "dataclasses", "heapq", "_heapq"}


_SCIPY_PROBES = (
    "import sys\n"
    "import numpy as np\n"
    "from wpcn import numerics\n"
    "def scipy_loaded():\n"
    "    return sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.'))\n"
    "def bound():\n"
    "    return [type(f) is np.ufunc for f in (numerics._exp1, numerics._lambertw)]\n"
    "import wpcn.cli\n"
    "assert not scipy_loaded(), ('import', scipy_loaded())\n"
)


def test_threshold_commands_load_no_scipy_and_htt_loads_scipy_special(tmp_path):
    # importing the package loads numpy only; the first call of the array E1
    # or of W0 binds scipy's ufuncs from their extension module alone, which
    # leaves no scipy module in sys.modules: neither scipy nor the
    # scipy.special package (24 MB and 0.3 s of imports) is loaded
    threshold = _SCIPY_PROBES + (
        "try:\n"
        "    wpcn.cli.main(['--help'])\n"
        "except SystemExit as done:\n"
        "    assert done.code == 0, done.code\n"
        "assert not scipy_loaded(), ('--help', scipy_loaded())\n"
        "point = ['--snr-db', '10']\n"
        "bands = {'ip': ['--g-u', '1.6'], 'pi': ['--g-l', '0.5'],\n"
        "         'pip': ['--g-l', '0.3', '--g-u', '2.0']}\n"
        "for scheme, band in bands.items():\n"
        "    for command in (['evaluate'], ['simulate', '--samples', '1000', '--causal']):\n"
        "        argv = command + ['--scheme', scheme] + band + point\n"
        "        assert wpcn.cli.main(argv) == 0, argv\n"
        "        assert not scipy_loaded(), (argv, scipy_loaded())\n"
        "        assert bound() == [False, False], (argv, bound())\n"
    )
    binding = [  # each in a fresh process, so that each binds
        ["simulate", "--scheme", "htt", "--samples", "1000", "--snr-db", "10"],
        ["optimize", "--snr-db", "10"],
        ["sweep", "--start", "0", "--stop", "4", "--grid-step", "0.05"],
    ]
    scripts = [threshold] + [_SCIPY_PROBES + (
        "assert bound() == [False, False], bound()\n"
        f"assert wpcn.cli.main({argv!r}) == 0\n"
        "assert not scipy_loaded(), scipy_loaded()\n"
        "assert bound() == [True, True], bound()\n"
    ) for argv in binding]
    for script in scripts:
        run_fresh(script, tmp_path)
