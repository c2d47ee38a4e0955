import json
from pathlib import Path

import pytest

from wpcn import cli, optimize, schemes, sim
from wpcn.schemes import IPPolicy, PIPPolicy, SystemParams


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


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
    ])
    def test_overflowing_downlink_power_is_a_usage_error(self, capsys, argv):
        # the frame SNR or harvest overflows: named, with no RuntimeWarning
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

    def test_high_snr_ip_beats_htt(self, capsys):
        code, out, _ = run_cli(capsys, "optimize", "--scheme", "all", "--snr-db", "30",
                               "--grid-step", "0.1")
        assert code == 0
        by = {json.loads(l)["scheme"]: json.loads(l) for l in out.strip().splitlines()}
        assert by["ip"]["throughput_bits"] >= by["htt"]["throughput_bits"]


class TestSweep:
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
    def _assert_reference_rows(capsys, argv, keep):
        """The sweep prints the header and the rows ``keep`` selects of the reference."""
        code, out, err = run_cli(capsys, "sweep", *argv)
        assert code == 0, err
        reference = (Path(__file__).resolve().parents[1] / "bench" / "reference"
                     / "sweep.csv").read_text().splitlines()
        header, rows = reference[0], reference[1:]
        wanted = [r for r in rows if keep(r.split(","))]
        assert len(wanted) == 16
        assert out.splitlines() == [header] + wanted

    def test_rows_match_the_reference_curve(self, capsys):
        # at 0 dB the PIP grid's E1 arguments reach ~2e3, past the switch to
        # the asymptotic tail of exp_scaled_e1
        self._assert_reference_rows(capsys, ("--start", "0", "--stop", "24", "--step", "8"),
                                    lambda cells: cells[0] in ("0", "8", "16", "24"))

    def test_htt_rows_match_the_headline_curve(self, capsys):
        self._assert_reference_rows(
            capsys, ("--start", "0", "--stop", "30", "--step", "2", "--schemes", "htt"),
            lambda cells: cells[1] == "htt")

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
        est = sim.mc_throughput(PIPPolicy(0.3, 2.0), params, 100_000, 2025)
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
        trace, _ = sim.run_policy_trace(IPPolicy(1.0), SystemParams.from_snr_db(10.0), 500, 2)
        rows = [line.split(",") for line in dump.read_text().splitlines()[1:]]
        assert [row[0] for row in rows] == [str(i) for i in range(500)]
        modes = [row[2] for row in rows]
        assert modes == ["WIT" if g < 1.0 else "WPT" for g in trace.gain]
        assert {"WIT", "WPT"} == set(modes)
        columns = (trace.gain, trace.harvested, trace.consumed, trace.stored, trace.rate)
        expect = [[cli._fmt(float(x)) for x in col] for col in columns]
        assert [[row[k] for row in rows] for k in (1, 3, 4, 5, 6)] == expect

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
