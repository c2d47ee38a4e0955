"""Tests of the benchmark's own parts: spans, wrapping, output checks, contract."""
from __future__ import annotations

import json
import math
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
for path in (BENCH, ROOT / "src"):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from spans import Span, Tracer, covered_seconds, span_stats  # noqa: E402


# ---------------------------------------------------------------------------
# Self-time arithmetic
# ---------------------------------------------------------------------------

def test_self_time_subtracts_direct_children_only():
    recorded = [
        Span("root", 0.0, 10.0, -1, False),
        Span("a", 1.0, 4.0, 0, False),
        Span("leaf", 2.0, 3.0, 1, True),
        Span("b", 5.0, 6.0, 0, False),
        Span("a", 7.0, 9.0, 0, False),
    ]
    stats = span_stats(recorded)
    assert stats["root"]["self_s"] == pytest.approx(10.0 - 3.0 - 1.0 - 2.0)
    assert stats["a"]["calls"] == 2
    assert stats["a"]["total_s"] == pytest.approx(5.0)
    assert stats["a"]["self_s"] == pytest.approx(5.0 - 1.0)
    assert stats["leaf"]["self_s"] == pytest.approx(1.0)
    assert stats["leaf"]["failures"] == 1 and stats["root"]["failures"] == 0
    # self times partition the covered time exactly
    assert sum(s["self_s"] for s in stats.values()) == pytest.approx(10.0)
    assert covered_seconds(recorded) == pytest.approx(10.0)


def test_traced_call_nests_spans_and_counts_points():
    from wpcn import optimize
    from wpcn.schemes import SystemParams

    with Tracer() as tracer:
        optimize.solve_ip(SystemParams.from_snr_db(10.0))
    names = [s.name for s in tracer.spans]
    root = names.index("optimize.solve_ip")
    assert tracer.spans[root].parent == -1
    children = {s.name for s in tracer.spans if s.parent == root}
    assert {"schemes.ip_throughput", "numerics.maximize_scalar"} <= children
    stats = span_stats(tracer.spans)
    assert stats["optimize.solve_ip"]["self_s"] <= stats["optimize.solve_ip"]["total_s"]
    assert tracer.tallies["schemes.ip_throughput"]["points"] >= stats["schemes.ip_throughput"]["calls"]
    metrics = spans.layer_metrics(tracer, wall_s=stats["optimize.solve_ip"]["total_s"])
    assert set(metrics) == {name for name, _unit in spans.PER_LAYER}
    assert metrics["trace.covered_share"] == pytest.approx(1.0)


# ---------------------------------------------------------------------------
# Wrapping and restoring
# ---------------------------------------------------------------------------

def _references():
    """Every (holder, key, value) in wpcn modules and their module-level dicts."""
    refs = []
    for module in spans._wpcn_modules():
        for key, value in vars(module).items():
            refs.append((module.__name__, key, value))
            if isinstance(value, dict) and key != "__builtins__":
                refs.extend((f"{module.__name__}.{key}", k, v) for k, v in value.items())
    return refs


def test_wrapping_rebinds_every_copy_and_restores_them():
    import wpcn
    from wpcn import cli, numerics, optimize, schemes

    originals = {t.name: getattr(sys.modules[f"wpcn.{t.module}"], t.attr)
                 for t in spans.TARGETS}
    before = _references()
    with Tracer():
        # the named copies taken through ``from .numerics import ...``
        for holder, attr, name in [
            (schemes, "exp_scaled_e1", "numerics.exp_scaled_e1"),
            (schemes, "lambert_w0", "numerics.lambert_w0"),
            (schemes, "integrate", "numerics.integrate"),
            (optimize, "integrate", "numerics.integrate"),
            (optimize, "maximize_scalar", "numerics.maximize_scalar"),
            (optimize, "grid_argmax_2d", "numerics.grid_argmax_2d"),
            (numerics, "exp_scaled_e1", "numerics.exp_scaled_e1"),
            (wpcn, "sample", "channel.sample"),
        ]:
            wrapped = getattr(holder, attr)
            assert wrapped is not originals[name]
            assert wrapped.__wrapped__ is originals[name]
        # both dispatch tables
        for tag in ("htt", "ip", "pi", "pip"):
            assert optimize._SOLVERS[tag].__wrapped__ is originals[f"optimize.solve_{tag}"]
        assert cli._COMMANDS["sweep"].__wrapped__ is originals["cli.cmd_sweep"]
        assert cli._COMMANDS["simulate"].__wrapped__ is originals["cli.cmd_simulate"]
        # no reference to an original is left anywhere
        left = [(h, k) for h, k, v in _references()
                if any(v is fn for fn in originals.values())]
        assert left == []
    after = _references()
    assert [(h, k) for h, k, _ in before] == [(h, k) for h, k, _ in after]
    assert all(v1 is v2 for (_, _, v1), (_, _, v2) in zip(before, after))


def test_restore_runs_when_the_traced_code_raises():
    from wpcn import schemes

    original = schemes.exp_scaled_e1
    with pytest.raises(ValueError):
        with Tracer() as tracer:
            schemes.exp_scaled_e1(-1.0)
    assert schemes.exp_scaled_e1 is original
    assert span_stats(tracer.spans)["numerics.exp_scaled_e1"]["failures"] == 1


# ---------------------------------------------------------------------------
# Output checks reject corrupted outputs
# ---------------------------------------------------------------------------

def _replace_cell(text: str, row: int, col: int, value: str) -> str:
    lines = text.splitlines()
    cells = lines[row].split(",")
    cells[col] = value
    lines[row] = ",".join(cells)
    return "\n".join(lines) + "\n"


def test_sweep_check_counts_each_differing_row():
    reference = workloads.SWEEP_REFERENCE.read_text()
    import hashlib
    assert hashlib.sha256(reference.encode()).hexdigest() == workloads.SWEEP_SHA256
    clean = workloads.check_reference_curve(reference, set(), reference)
    assert (clean.attempted, clean.failed, clean.wrong) == (64, 0, 0)

    corrupted = _replace_cell(reference, 5, 6, "0.1")
    outcome = workloads.check_reference_curve(corrupted, set(), reference)
    assert (outcome.failed, outcome.wrong) == (1, 1)

    # a row the sweep flagged is a failed op, not a wrong answer
    flagged = workloads.check_reference_curve(reference, {(0.0, "htt")}, reference)
    assert (flagged.failed, flagged.wrong) == (1, 0)

    missing = workloads.check_reference_curve(None, set(), reference)
    assert (missing.failed, missing.wrong) == (64, 0)


@pytest.fixture(scope="module")
def small_axis(tmp_path_factory):
    from wpcn import cli

    path = tmp_path_factory.mktemp("axis") / "curve.csv"
    argv = ["sweep", "--start", "-30", "--stop", "10", "--step", "40", "--grid-step", "0.05",
            "--output", str(path)]
    assert cli.main(argv) == 0
    return path.read_text()


def _row_index(text: str, snr: str, scheme: str) -> int:
    return next(i for i, line in enumerate(text.splitlines())
                if line.startswith(f"{snr},{scheme},"))


def test_axis_check_accepts_the_program_output(small_axis):
    outcome = workloads.check_axis_curve(small_axis, set(), 8, 0.05)
    assert (outcome.failed, outcome.wrong) == (0, 0), outcome.notes


@pytest.mark.parametrize("scheme,col,value", [
    ("ip", 6, "factor:1.000001"),       # throughput off the oracle
    ("pi", 5, "factor:1.001"),          # ul_power off the energy balance
    ("htt", 6, "factor:1.000001"),      # HTT off its rate integral
    ("htt", 6, "nan"),
])
def test_axis_check_rejects_a_corrupted_row(small_axis, scheme, col, value):
    i = _row_index(small_axis, "10", scheme)
    old = float(small_axis.splitlines()[i].split(",")[col])
    new = f"{old * float(value.split(':')[1]):.12g}" if value.startswith("factor") else value
    outcome = workloads.check_axis_curve(_replace_cell(small_axis, i, col, new), set(), 8, 0.05)
    assert (outcome.failed, outcome.wrong) == (1, 1), outcome.notes


def test_axis_check_rejects_a_pip_row_below_its_reductions(small_axis):
    # A consistent but poor PIP row: its power and throughput match its own
    # thresholds, so only the containment bound can reject it.
    lo, hi = 0.5, 1.0
    power = workloads.balance_power(10.0, lo, hi)
    tp = workloads.band_rate_integral(lo, hi, power)
    i = _row_index(small_axis, "10", "pip")
    text = small_axis
    for col, value in ((2, lo), (3, hi), (5, power), (6, tp)):
        text = _replace_cell(text, i, col, f"{value:.12g}")
    outcome = workloads.check_axis_curve(text, set(), 8, 0.05)
    assert (outcome.failed, outcome.wrong) == (1, 1)
    assert "containment" in outcome.notes[0]


def test_axis_check_counts_missing_and_flagged_rows(small_axis):
    lines = small_axis.splitlines()
    text = "\n".join(lines[:-1]) + "\n"
    outcome = workloads.check_axis_curve(text, {(-30.0, "htt")}, 8, 0.05)
    assert (outcome.failed, outcome.wrong) == (2, 1)


def test_ledger_summary_check_rejects_bad_rows():
    good = {"n_frames": 100, "min_stored_j": 0.0, "skipped_wit_frames": 3}
    assert workloads.check_ledger_summary(good, 100, 40) == []
    assert workloads.check_ledger_summary({**good, "min_stored_j": -1e-9}, 100, 40)
    assert workloads.check_ledger_summary({**good, "skipped_wit_frames": 41}, 100, 40)
    assert workloads.check_ledger_summary({**good, "n_frames": 99}, 100, 40)


@pytest.fixture(scope="module")
def small_dump(tmp_path_factory):
    from wpcn import cli

    path = tmp_path_factory.mktemp("ledger") / "frames.csv"
    argv = ["simulate", "--scheme", "ip", "--g-u", "1.6", "--snr-db", "10", "--samples", "2000",
            "--causal", "--seed", "3", "--dump-frames", str(path)]
    assert cli.main(argv) == 0
    return path.read_text()


def test_frame_dump_check_accepts_the_program_output(small_dump):
    assert workloads.check_frame_dump(small_dump, 2000) == []


def test_frame_dump_check_rejects_a_broken_ledger(small_dump):
    old = float(small_dump.splitlines()[500].split(",")[5])
    broken = _replace_cell(small_dump, 500, 5, f"{old * 1.000001 + 1e-9:.12g}")
    assert workloads.check_frame_dump(broken, 2000)
    short = "\n".join(small_dump.splitlines()[:-1]) + "\n"
    assert workloads.check_frame_dump(short, 2000)
    assert workloads.check_frame_dump(None, 2000)


def test_transmit_frames_counts_the_band():
    from wpcn import channel

    g = channel.sample(1000, 5).values
    assert workloads.transmit_frames(1000, 5, (0.5, math.inf)) == int((g >= 0.5).sum())


# ---------------------------------------------------------------------------
# Contract
# ---------------------------------------------------------------------------

def test_benchmark_json_matches_the_code():
    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert sorted((m["name"], m["unit"]) for m in config["end_to_end"]) == sorted(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in config["per_layer"]] == list(spans.PER_LAYER)
    assert all(w["name"] in workloads.WORKLOADS for w in config["workloads"])
    assert config["paths"] == [BENCH.name]


def test_harness_error_exits_without_a_result(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    code = run.main(["--workload", "sweep", "--seed", "1", "--seconds", "1", "--trace", "0"])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert "harness error" in captured.err
