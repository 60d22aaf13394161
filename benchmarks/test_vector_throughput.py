"""Benchmark: vectorized simulation backend vs the scalar trace kernels.

``test_vector_deep_verify_speedup`` is recorded into ``BENCH_toolchain.json``
by ``python benchmarks/run_benchmarks.py``: one structurally distinct
candidate against the golden ALU over a deep (4096-point) combinational
stimulus program.  The scalar trace kernel loops over points in Python; the
vector kernel evaluates every point as a NumPy lane in one call.

The regression guard lives in the assertion: CI fails if the vector backend
falls below 3x the scalar trace path.  The two sides are timed in
interleaved blocks of rounds, so a change of host speed hits both.
"""

from __future__ import annotations

import random
import statistics
import time

from conftest import run_once

from repro.problems.registry import build_default_registry
from repro.sim.testbench import FunctionalPoint, Testbench, run_testbench
from repro.toolchain.compiler import ChiselCompiler
from repro.verilog.parser import parse_verilog

POINTS = 4096
ROUNDS = 10
BLOCKS = 3
MIN_DEEP_VERIFY_SPEEDUP = 3.0

REGISTRY = build_default_registry()
PROBLEM = REGISTRY.by_id("alu_w8")
COMPILER = ChiselCompiler(top="TopModule")

_rng = random.Random(0)
TESTBENCH = Testbench(
    points=[
        FunctionalPoint(
            {port.verilog_name: _rng.getrandbits(port.width) for port in PROBLEM.inputs}
        )
        for _ in range(POINTS)
    ],
    reset_cycles=0,
)


def _module(source: str):
    result = COMPILER.compile(source)
    assert result.success
    return parse_verilog(result.verilog)[-1]


def _candidate(index: int) -> str:
    """A structurally distinct candidate: its own kernel, not the golden's."""
    source = PROBLEM.golden_chisel
    brace = source.rfind("}")
    padding = f"  val pad{index} = Wire(UInt(4.W))\n  pad{index} := {index % 16}.U\n"
    return source[:brace] + padding + source[brace:]


def _round_times(round_fn) -> list[float]:
    times = []
    for _ in range(ROUNDS):
        start = time.perf_counter()
        round_fn()
        times.append(time.perf_counter() - start)
    return times


def test_vector_deep_verify_speedup(benchmark):
    candidate = _module(_candidate(0))
    golden = _module(PROBLEM.golden_chisel)
    for backend in ("trace", "vector"):  # warm both kernel caches
        assert run_testbench(candidate, golden, TESTBENCH, backend=backend).passed

    def run_trace():
        run_testbench(candidate, golden, TESTBENCH, backend="trace")

    def run_vector():
        run_testbench(candidate, golden, TESTBENCH, backend="vector")

    run_once(benchmark, lambda: statistics.median(_round_times(run_vector)))
    trace_times, vector_times = [], []
    for _ in range(BLOCKS):
        trace_times += _round_times(run_trace)
        vector_times += _round_times(run_vector)
    trace_elapsed = statistics.median(trace_times)
    vector_elapsed = statistics.median(vector_times)
    speedup = trace_elapsed / vector_elapsed
    assert speedup >= MIN_DEEP_VERIFY_SPEEDUP, (
        f"vector deep-verify speedup {speedup:.1f}x below {MIN_DEEP_VERIFY_SPEEDUP}x "
        f"(trace {trace_elapsed * 1000:.1f} ms, vector {vector_elapsed * 1000:.1f} ms)"
    )
