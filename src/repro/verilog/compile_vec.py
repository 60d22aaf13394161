"""Retired vector backend: the names that remain only refuse to compile.

Testbenches run on the trace and step-wise tiers (:mod:`repro.sim.testbench`).
Nothing in the package imports this module; the two functions keep their
names so external callers that wrap them still import, and every call raises.
"""

from __future__ import annotations

from repro.verilog.analysis import AnalysisError

_RETIRED = "the vector backend was removed; use the trace or step-wise tier"


def compile_vec_kernel(*_args, **_kwargs):
    """Always raises :class:`AnalysisError`."""
    raise AnalysisError(_RETIRED)


def compile_vec_trace(*_args, **_kwargs):
    """Always raises :class:`AnalysisError`."""
    raise AnalysisError(_RETIRED)
