"""Outside-in span tracer for the wpcn modules.

The tracer wraps public functions of ``wpcn`` from outside the package. Each
wrapper records one span (name, start, end, parent, raised) per call, keeps
the spans in memory, and tallies a few per-call counts (points evaluated,
draws, frames) at the same boundary. A wrapped function is rebound wherever
the package holds a reference to it: in its own module, in every module that
took a copy through ``from .numerics import ...``, and in module-level
dispatch tables such as ``optimize._SOLVERS`` and ``cli._COMMANDS``.
``restore`` puts every original back.

Self time is a span's duration minus the time its direct child spans cover;
see ``span_stats``.
"""
from __future__ import annotations

import functools
import importlib
import inspect
import statistics
import sys
import time
import warnings
from collections import Counter, defaultdict
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np


class Span(NamedTuple):
    name: str
    start: float
    end: float
    parent: int   # index of the enclosing span in the span list, -1 at top level
    raised: bool


# A hook calls the wrapped function itself, so it can see the arguments and
# the result and add to the per-name tally: hook(fn, args, kwargs, tally).
Hook = Callable[[Callable, tuple, dict, Counter], object]


def _count_points(fn, args, kwargs, tally):
    tally["points"] += int(np.size(args[0]))
    return fn(*args, **kwargs)


def _count_draws(fn, args, kwargs, tally):
    batch = fn(*args, **kwargs)
    tally["draws"] += int(batch.count)
    return batch


def _count_frames(fn, args, kwargs, tally):
    trace, summary = out = fn(*args, **kwargs)
    tally["frames"] += int(summary.n_frames)
    tally["demoted_frames"] += int(summary.skipped_wit_frames)
    return out


_GOLDEN_WARNING = "golden-section search exhausted"


def _count_golden_warnings(fn, args, kwargs, tally):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        out = fn(*args, **kwargs)
    tally["golden_fallbacks"] += sum(_GOLDEN_WARNING in str(w.message) for w in caught)
    return out


def _count_grid_points(fn, args, kwargs, tally):
    # The constraint sees every grid point built; the objective sees only the
    # points that survive it.
    bound = inspect.signature(fn).bind(*args, **kwargs)
    f = bound.arguments["f"]
    constraint = bound.arguments.get("constraint")

    def scored(x, y):
        tally["points_scored"] += int(np.size(x))
        return f(x, y)

    bound.arguments["f"] = scored
    if constraint is not None:
        def built(x, y):
            tally["points_built"] += int(np.size(x))
            return constraint(x, y)
        bound.arguments["constraint"] = built
    out = fn(*bound.args, **bound.kwargs)
    if constraint is None:
        tally["points_built"] = tally["points_scored"]
    return out


@dataclass(frozen=True)
class Target:
    module: str                  # submodule of wpcn
    attr: str
    hook: Hook | None = None

    @property
    def name(self) -> str:
        return f"{self.module}.{self.attr}"


TARGETS = (
    Target("numerics", "exp_scaled_e1", _count_points),
    Target("numerics", "lambert_w0", _count_points),
    Target("numerics", "integrate"),
    Target("numerics", "maximize_scalar", _count_golden_warnings),
    Target("numerics", "grid_argmax_2d", _count_grid_points),
    Target("channel", "sample", _count_draws),
    Target("schemes", "ip_throughput", _count_points),
    Target("schemes", "pi_throughput", _count_points),
    Target("schemes", "pip_throughput", _count_points),
    Target("schemes", "htt_ergodic_throughput"),
    Target("optimize", "solve_htt"),
    Target("optimize", "solve_ip"),
    Target("optimize", "solve_pi"),
    Target("optimize", "solve_pip"),
    Target("sim", "run_policy_trace", _count_frames),
    Target("sim", "mc_throughput"),
    Target("cli", "cmd_sweep"),
    Target("cli", "cmd_simulate"),
    Target("cli", "render_curve_csv"),
)


def _wpcn_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "wpcn" or name.startswith("wpcn."))]


class Tracer:
    """Context manager that wraps ``targets`` and restores them on exit."""

    def __init__(self, targets=TARGETS):
        self.targets = targets
        self.spans: list[Span] = []
        self.tallies: dict[str, Counter] = defaultdict(Counter)
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn, hook: Hook | None):
        spans, stack, tally, clock = self.spans, self._stack, self.tallies[name], time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            raised = True
            start = clock()
            try:
                out = fn(*args, **kwargs) if hook is None else hook(fn, args, kwargs, tally)
                raised = False
                return out
            finally:
                end = clock()
                stack.pop()
                spans[index] = Span(name, start, end, parent, raised)

        return wrapper

    def install(self) -> "Tracer":
        modules = _wpcn_modules()
        for target in self.targets:
            original = getattr(importlib.import_module(f"wpcn.{target.module}"), target.attr)
            wrapper = self._wrap(target.name, original, target.hook)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patches.append((module, key, original))
                        setattr(module, key, wrapper)
                    elif isinstance(value, dict):
                        for entry, fn in list(value.items()):
                            if fn is original:
                                self._patches.append((value, entry, original))
                                value[entry] = wrapper
        return self

    def restore(self) -> None:
        while self._patches:
            holder, key, original = self._patches.pop()
            if isinstance(holder, dict):
                holder[key] = original
            else:
                setattr(holder, key, original)

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.restore()


def span_stats(spans: list[Span]) -> dict[str, dict[str, float]]:
    """Per-name calls, total time, self time and raised count.

    Self time is each span's duration minus the durations of its direct
    children, summed per name.
    """
    child_time = [0.0] * len(spans)
    for span in spans:
        if span.parent >= 0:
            child_time[span.parent] += span.end - span.start
    stats: dict[str, dict[str, float]] = defaultdict(
        lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0, "failures": 0})
    for span, children in zip(spans, child_time):
        entry = stats[span.name]
        duration = span.end - span.start
        entry["calls"] += 1
        entry["total_s"] += duration
        entry["self_s"] += duration - children
        entry["failures"] += int(span.raised)
    return dict(stats)


def covered_seconds(spans: list[Span]) -> float:
    """Wall time inside any span: the summed duration of top-level spans."""
    return sum(s.end - s.start for s in spans if s.parent < 0)


# Per-layer metrics reported by a traced run: (name, unit). The source of each
# is "<target>.<field>", with fields from span_stats, the target's tally, or
# the derived useful_ratio.
PER_LAYER = (
    ("numerics.exp_scaled_e1.calls", "count"),
    ("numerics.exp_scaled_e1.points", "count"),
    ("numerics.exp_scaled_e1.self_s", "s"),
    ("numerics.lambert_w0.calls", "count"),
    ("numerics.lambert_w0.points", "count"),
    ("numerics.lambert_w0.self_s", "s"),
    ("numerics.integrate.calls", "count"),
    ("numerics.integrate.self_s", "s"),
    ("numerics.integrate.failures", "count"),
    ("numerics.maximize_scalar.calls", "count"),
    ("numerics.maximize_scalar.self_s", "s"),
    ("numerics.maximize_scalar.golden_fallbacks", "count"),
    ("numerics.grid_argmax_2d.calls", "count"),
    ("numerics.grid_argmax_2d.self_s", "s"),
    ("numerics.grid_argmax_2d.points_built", "count"),
    ("numerics.grid_argmax_2d.points_scored", "count"),
    ("numerics.grid_argmax_2d.useful_ratio", "ratio"),
    ("channel.sample.calls", "count"),
    ("channel.sample.draws", "count"),
    ("channel.sample.self_s", "s"),
    ("schemes.ip_throughput.calls", "count"),
    ("schemes.ip_throughput.points", "count"),
    ("schemes.ip_throughput.self_s", "s"),
    ("schemes.pi_throughput.calls", "count"),
    ("schemes.pi_throughput.points", "count"),
    ("schemes.pi_throughput.self_s", "s"),
    ("schemes.pip_throughput.calls", "count"),
    ("schemes.pip_throughput.points", "count"),
    ("schemes.pip_throughput.self_s", "s"),
    ("schemes.htt_ergodic_throughput.calls", "count"),
    ("schemes.htt_ergodic_throughput.self_s", "s"),
    ("optimize.solve_htt.calls", "count"),
    ("optimize.solve_htt.total_s", "s"),
    ("optimize.solve_htt.failures", "count"),
    ("optimize.solve_ip.calls", "count"),
    ("optimize.solve_ip.total_s", "s"),
    ("optimize.solve_ip.failures", "count"),
    ("optimize.solve_pi.calls", "count"),
    ("optimize.solve_pi.total_s", "s"),
    ("optimize.solve_pi.failures", "count"),
    ("optimize.solve_pip.calls", "count"),
    ("optimize.solve_pip.total_s", "s"),
    ("optimize.solve_pip.failures", "count"),
    ("sim.run_policy_trace.calls", "count"),
    ("sim.run_policy_trace.frames", "count"),
    ("sim.run_policy_trace.self_s", "s"),
    ("sim.run_policy_trace.demoted_frames", "count"),
    ("sim.mc_throughput.calls", "count"),
    ("sim.mc_throughput.self_s", "s"),
    ("cli.cmd_simulate.self_s", "s"),
    ("cli.cmd_sweep.self_s", "s"),
    ("cli.render_curve_csv.self_s", "s"),
    ("trace.wall_s", "s"),
    ("trace.covered_share", "ratio"),
)


def layer_metrics(tracer: Tracer, wall_s: float) -> dict[str, float]:
    """Every PER_LAYER metric for one traced repetition that took ``wall_s``."""
    stats = span_stats(tracer.spans)
    out = {"trace.wall_s": wall_s,
           "trace.covered_share": covered_seconds(tracer.spans) / wall_s}
    for metric, _unit in PER_LAYER:
        if metric in out:
            continue
        target, field = metric.rsplit(".", 1)
        tally = tracer.tallies.get(target, Counter())
        if field == "useful_ratio":
            built = tally["points_built"]
            out[metric] = tally["points_scored"] / built if built else 0.0
        elif field in tally:
            out[metric] = tally[field]
        else:
            out[metric] = stats.get(target, {}).get(field, 0)
    return out


def median_metrics(reps: list[dict[str, float]]) -> dict[str, float]:
    """Metric-wise median over repetitions (counts repeat exactly)."""
    return {k: statistics.median(r[k] for r in reps) for k in reps[0]}

