"""Command-line front end: evaluate, optimize, sweep, simulate.

Output is machine readable: JSON objects (one per line for multi-row
results) on stdout, or CSV/JSON files for sweeps. Exit codes: 0 success,
1 usage error, 2 numerical failure.
"""
from __future__ import annotations

import argparse
import json
import sys

from . import optimize, schemes, sim
from .numerics import ConvergenceError
from .optimize import SCHEME_TAGS, SolveConfig
from .schemes import HTTPolicy, IPPolicy, PIPolicy, PIPPolicy, SystemParams

SWEEP_COLUMNS = ("snr_db", "scheme", "g_l", "g_u", "tau_mean", "ul_power_w", "throughput_bits")


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _fmt(x) -> str:
    if x is None:
        return ""
    return f"{x:.12g}"


def _add_common(p: _Parser, *, point: bool = True, sampling: bool = False,
                search: bool = False) -> None:
    """Add the flags a subcommand reads: always the link constants and --config;
    with ``point`` --p-d/--snr-db, with ``sampling`` --seed/--samples and with
    ``search`` --gain-cap/--grid-step."""
    if point:
        p.add_argument("--p-d", type=float, help="downlink transmit power (W)")
    p.add_argument("--gbar", type=float, default=1.0, help="average channel power gain")
    p.add_argument("--sigma2", type=float, default=1.0, help="noise variance (W)")
    if point:
        p.add_argument("--snr-db", type=float,
                       help="shorthand: set p_d so that p_d*gbar^2/sigma2 equals this SNR")
    if sampling:
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--samples", type=int, default=100_000)
    if search:
        p.add_argument("--gain-cap", type=float, default=10.0)
        p.add_argument("--grid-step", type=float, default=0.01)
    p.add_argument("--config", help="JSON file whose keys mirror the flag names")


def build_parser() -> _Parser:
    parser = _Parser(prog="wpcn", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_eval = sub.add_parser("evaluate", help="closed-form evaluation of one policy")
    _add_common(p_eval, sampling=True)
    p_eval.add_argument("--scheme", required=True, choices=SCHEME_TAGS)
    p_eval.add_argument("--g-l", type=float)
    p_eval.add_argument("--g-u", type=float)
    p_eval.add_argument("--verify", action="store_true",
                        help="also report the quadrature-oracle cross-check delta")

    p_opt = sub.add_parser("optimize", help="solve for the best thresholds")
    _add_common(p_opt, search=True)
    p_opt.add_argument("--scheme", default="all", choices=SCHEME_TAGS + ("all",))

    p_sweep = sub.add_parser("sweep", help="optimize all schemes across an SNR range")
    _add_common(p_sweep, point=False, search=True)
    p_sweep.add_argument("--start", type=float, required=True, help="first SNR (dB)")
    p_sweep.add_argument("--stop", type=float, required=True, help="last SNR (dB)")
    p_sweep.add_argument("--step", type=float, default=2.0, help="SNR step (dB)")
    p_sweep.add_argument("--schemes", default="all",
                         help="comma-separated subset of htt,ip,pi,pip or 'all'")
    p_sweep.add_argument("--format", choices=("csv", "json"), default="csv")
    p_sweep.add_argument("--output", "-o", help="output path (default: stdout)")

    p_sim = sub.add_parser("simulate", help="frame-level energy-ledger simulation")
    _add_common(p_sim, sampling=True, search=True)
    p_sim.add_argument("--scheme", required=True, choices=SCHEME_TAGS)
    p_sim.add_argument("--g-l", type=float)
    p_sim.add_argument("--g-u", type=float)
    p_sim.add_argument("--optimize-first", action="store_true",
                       help="solve for the scheme's best thresholds, then simulate")
    p_sim.add_argument("--causal", action="store_true",
                       help="skip transmit frames the stored energy cannot cover")
    p_sim.add_argument("--initial-energy", type=float, default=0.0)
    p_sim.add_argument("--dump-frames", help="write the per-frame ledger to this CSV path")
    return parser


def _apply_config(argv: list[str]) -> list[str]:
    """Splice config-file entries in as flags (explicit flags win).

    The path is the token after ``--config`` or follows ``--config=``.
    """
    i = next((k for k, tok in enumerate(argv) if tok.split("=", 1)[0] == "--config"), None)
    if i is None:
        return argv
    _, inline, path = argv[i].partition("=")
    if not inline:
        if i + 1 >= len(argv):
            raise _UsageError("--config needs a path")
        path = argv[i + 1]
    with open(path) as fh:
        entries = json.load(fh)
    if not isinstance(entries, dict):
        raise _UsageError("config file must hold a JSON object")
    extra: list[str] = []
    for key, value in entries.items():
        flag = "--" + str(key).replace("_", "-")
        if isinstance(value, bool):
            if value:
                extra.append(flag)
        else:
            extra.extend([flag, str(value)])
    # command first, then config defaults, then the explicit flags
    rest = argv[:i] + argv[i + (1 if inline else 2):]
    if not rest:
        raise _UsageError("missing command")
    return [rest[0]] + extra + rest[1:]


def _params(args) -> SystemParams:
    if args.snr_db is not None and args.p_d is not None:
        raise _UsageError("give either --snr-db or --p-d, not both")
    if args.snr_db is not None:
        return SystemParams.from_snr_db(args.snr_db, gbar=args.gbar, sigma2=args.sigma2)
    if args.p_d is None:
        raise _UsageError("one of --p-d or --snr-db is required")
    return SystemParams(p_d=args.p_d, gbar=args.gbar, sigma2=args.sigma2)


# scheme tag -> (policy class, the threshold flags it takes, in argument order)
_POLICIES = {
    "htt": (HTTPolicy, ()),
    "ip": (IPPolicy, ("g_u",)),
    "pi": (PIPolicy, ("g_l",)),
    "pip": (PIPPolicy, ("g_l", "g_u")),
}


def _policy(args):
    cls, names = _POLICIES[args.scheme]
    given = tuple(n for n in ("g_l", "g_u") if getattr(args, n) is not None)
    if given != names:
        wants = " and ".join("--" + n.replace("_", "-") for n in names) or "no thresholds"
        raise _UsageError(f"scheme {args.scheme} takes {wants}")
    return cls(*(getattr(args, n) for n in names))


def _cfg(args) -> SolveConfig:
    return SolveConfig(gain_cap=args.gain_cap, grid_step=args.grid_step)


def _emit(obj) -> None:
    print(json.dumps(obj))


def cmd_evaluate(args) -> int:
    params = _params(args)
    policy = _policy(args)
    ev = schemes.evaluate_policy(policy, params)
    row = {
        "scheme": args.scheme,
        "g_l": args.g_l,
        "g_u": args.g_u,
        "throughput_bits": ev.throughput_bits,
        "ul_power_w": ev.ul_power,
        "gammabar": ev.expected_ul_snr_gammabar,
    }
    if args.verify:
        if isinstance(policy, HTTPolicy):
            mc = sim.mc_throughput(policy, params, args.samples, args.seed)
            row["verify_delta_bits"] = ev.throughput_bits - mc.mean
        else:
            oracle = schemes.quad_throughput_oracle(*policy.band, ev.ul_power, params)
            row["verify_delta_bits"] = ev.throughput_bits - oracle
    _emit(row)
    return 0


def _result_row(res):
    policy = res.policy
    return {
        "scheme": res.scheme,
        "g_l": getattr(policy, "g_l", None),
        "g_u": getattr(policy, "g_u", None),
        "tau_mean": res.tau_mean,
        "ul_power_w": res.ul_power,
        "throughput_bits": res.throughput_bits,
        "at_boundary": res.at_boundary,
    }


def cmd_optimize(args) -> int:
    params = _params(args)
    cfg = _cfg(args)
    tags = SCHEME_TAGS if args.scheme == "all" else (args.scheme,)
    for tag in tags:
        _emit(_result_row(optimize._SOLVERS[tag](params, cfg)))
    return 0


def _curve_rows(curve) -> list[dict]:
    rows = []
    for p in curve.points:
        rows.append({
            "snr_db": p.snr_db, "scheme": p.scheme, "g_l": p.g_l, "g_u": p.g_u,
            "tau_mean": p.tau_mean, "ul_power_w": p.ul_power,
            "throughput_bits": p.throughput_bits,
        })
    return rows


def render_curve_csv(curve) -> str:
    lines = [",".join(SWEEP_COLUMNS)]
    for row in _curve_rows(curve):
        lines.append(",".join(
            row["scheme"] if col == "scheme" else _fmt(row[col])
            for col in SWEEP_COLUMNS
        ))
    return "\n".join(lines) + "\n"


def render_curve_json(curve) -> str:
    return json.dumps(_curve_rows(curve), indent=2) + "\n"


def cmd_sweep(args) -> int:
    cfg = _cfg(args)
    tags = SCHEME_TAGS if args.schemes == "all" else tuple(args.schemes.split(","))
    template = SystemParams(p_d=1.0, gbar=args.gbar, sigma2=args.sigma2)
    curve = optimize.sweep(args.start, args.stop, args.step,
                           schemes_to_run=tags, params_template=template, cfg=cfg)
    text = render_curve_csv(curve) if args.format == "csv" else render_curve_json(curve)
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    failures = [p for p in curve.points if p.error is not None]
    for p in failures:
        print(f"sweep point snr_db={p.snr_db} scheme={p.scheme} failed: {p.error}",
              file=sys.stderr)
    return 2 if failures else 0


def _dump_frames(path: str, trace) -> None:
    gain, harvested, consumed, stored, rate = (
        map(_fmt, col.tolist())
        for col in (trace.gain, trace.harvested, trace.consumed, trace.stored, trace.rate)
    )
    modes = (sim.MODE_NAMES[code] for code in trace.mode.tolist())
    rows = zip(gain, modes, harvested, consumed, stored, rate)
    with open(path, "w") as fh:
        fh.write("index,gain,mode,harvested_j,consumed_j,stored_j,rate_bits\n")
        fh.writelines(f"{i},{','.join(row)}\n" for i, row in enumerate(rows))


def cmd_simulate(args) -> int:
    params = _params(args)
    if args.optimize_first:
        if args.g_l is not None or args.g_u is not None:
            raise _UsageError("--optimize-first replaces explicit thresholds")
        res = optimize._SOLVERS[args.scheme](params, _cfg(args))
        policy = res.policy
    else:
        policy = _policy(args)
    trace, summary = sim.run_policy_trace(
        policy, params, n_frames=args.samples, seed=args.seed,
        causal=args.causal, initial_energy=args.initial_energy,
    )
    row = {
        "scheme": args.scheme,
        "g_l": getattr(policy, "g_l", None),
        "g_u": getattr(policy, "g_u", None),
        "causal": args.causal,
        "n_frames": summary.n_frames,
        "mean_rate_bits": summary.mean_rate_bits,
        "mean_harvested_j": summary.mean_harvested,
        "mean_consumed_j": summary.mean_consumed,
        "min_stored_j": summary.min_stored,
        "skipped_wit_frames": summary.skipped_wit_frames,
    }
    if args.dump_frames:
        _dump_frames(args.dump_frames, trace)
    _emit(row)
    return 0


_COMMANDS = {
    "evaluate": cmd_evaluate,
    "optimize": cmd_optimize,
    "sweep": cmd_sweep,
    "simulate": cmd_simulate,
}


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    try:
        argv = _apply_config(argv)
        args = parser.parse_args(argv)
        return _COMMANDS[args.command](args)
    except (_UsageError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ConvergenceError, ArithmeticError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
