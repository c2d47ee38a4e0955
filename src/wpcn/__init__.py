"""Ergodic uplink throughput of a wireless-powered link under Rayleigh fading.

Library layout:

* ``numerics``  -- E1 / Lambert-W special functions, quadrature, maximizers
* ``channel``   -- unit-mean exponential gain model and seeded sampling
* ``schemes``   -- closed-form throughput/power evaluators for all policies
* ``optimize``  -- threshold solvers and the SNR sweep
* ``sim``       -- Monte-Carlo estimates and frame-level ledger traces
* ``cli``       -- the ``wpcn`` command-line front end
"""
from .channel import GainSampleBatch, sample
from .numerics import ConvergenceError, Interval, OPEN_END
from .optimize import SolveConfig, SolveResult, ThroughputCurve, sweep
from .schemes import BandPolicy, HTTPolicy, Policy, SchemeEvaluation, SystemParams
from .sim import FrameTrace, TraceSummary, mc_throughput, run_policy_trace

__all__ = [
    "BandPolicy",
    "ConvergenceError",
    "FrameTrace",
    "GainSampleBatch",
    "HTTPolicy",
    "Interval",
    "OPEN_END",
    "Policy",
    "SchemeEvaluation",
    "SolveConfig",
    "SolveResult",
    "SystemParams",
    "ThroughputCurve",
    "TraceSummary",
    "mc_throughput",
    "run_policy_trace",
    "sample",
    "sweep",
]

__version__ = "0.1.0"
