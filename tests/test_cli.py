import json
from pathlib import Path

import pytest

from wpcn import cli, optimize, schemes, sim
from wpcn.schemes import PIPPolicy, SystemParams


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
        row = run_json(capsys, "evaluate", "--scheme", "ip", "--g-u", "1.7",
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


class TestOptimize:
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

    def test_rows_match_the_reference_curve(self, capsys):
        # at 0 dB the PIP grid's E1 arguments reach ~2e3, past the switch to
        # the asymptotic tail of exp_scaled_e1
        code, out, err = run_cli(capsys, "sweep", "--start", "0", "--stop", "24", "--step", "8")
        assert code == 0, err
        reference = (Path(__file__).resolve().parents[1] / "bench" / "reference"
                     / "sweep.csv").read_text().splitlines()
        header, rows = reference[0], reference[1:]
        wanted = [r for r in rows if r.split(",")[0] in ("0", "8", "16", "24")]
        assert len(wanted) == 16
        assert out.splitlines() == [header] + wanted

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

    def test_seed_determinism(self, capsys):
        a = run_json(capsys, "simulate", "--scheme", "pi", "--g-l", "0.8",
                     "--snr-db", "10", "--samples", "5000", "--seed", "11")
        b = run_json(capsys, "simulate", "--scheme", "pi", "--g-l", "0.8",
                     "--snr-db", "10", "--samples", "5000", "--seed", "11")
        assert a == b


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

    def test_missing_config_file(self, capsys):
        code, _, err = run_cli(capsys, "evaluate", "--scheme", "pi", "--g-l", "1",
                               "--snr-db", "0", "--config", "/nonexistent.json")
        assert code == 1
        assert err.strip()
