"""Benchmark: batched verification engine vs the step-wise/full-recompile path.

The verify step is the hottest loop in every sweep, repair iteration and
served job: compile the candidate, then drive a stimulus program against the
golden reference.  Three regimes are recorded into ``BENCH_toolchain.json`` by
``python benchmarks/run_benchmarks.py``, each verifying one candidate against
the golden ALU over a deep (8192-point) stimulus program:

* ``test_verify_cold_stepwise_full_recompile`` — the baseline: every cache
  cleared each round, candidate and reference recompiled from scratch, the
  testbench driven point by point;
* ``test_verify_cold_candidate_trace`` — the engine on a *new* candidate: the
  golden/testbench side is warm (the steady state of any running sweep), the
  unseen candidate pays parse→elaborate→passes→emit→kernel→trace compilation,
  and the schedule runs as one trace call.  Asserted ≥3x the baseline;
* ``test_verify_warm_iteration`` — iteration k+1 of a repair loop: the
  revision differs only cosmetically, so the frontend re-runs, emits the
  same Verilog and hits the Verilog-parse and kernel caches.  Asserted ≥5x
  the baseline.

``test_verify_trace_vs_stepwise`` isolates the testbench backends with a warm
compiler on both sides (trace asserted ≥2x step-wise).

``test_verify_first_fresh_program`` records, without a threshold, the first
verify of a fresh 4096-point stimulus program with every compile cache warm:
a new ``Testbench`` each round, so each round plans, digests and compares a
program it has not seen (the all-miss path of deep verification).

The regression guard lives in the assertions: CI fails if the engine loses
its edge over the seed path.
"""

from __future__ import annotations

import os
import random
import statistics
import time

import pytest

from conftest import run_once

from repro.caching import clear_registered_caches
from repro.problems.registry import build_default_registry
from repro.sim.testbench import FunctionalPoint, Testbench
from repro.toolchain.compiler import ChiselCompiler
from repro.toolchain.simulator import Simulator
from repro.verilog.compile_sim import clear_kernel_cache

POINTS = 8192
FRESH_POINTS = 4096
ROUNDS = 10
MIN_COLD_SPEEDUP = 3.0
MIN_WARM_SPEEDUP = 5.0
MIN_TRACE_SPEEDUP = 2.0

REGISTRY = build_default_registry()
PROBLEM = REGISTRY.by_id("alu_w8")
SIMULATOR = Simulator(top="TopModule")

_rng = random.Random(0)


def _testbench(points: int) -> Testbench:
    return Testbench(
        points=[
            FunctionalPoint(
                {port.verilog_name: _rng.getrandbits(port.width) for port in PROBLEM.inputs}
            )
            for _ in range(points)
        ],
        reset_cycles=0,
    )


TESTBENCH = _testbench(POINTS)

_timings: dict[str, float] = {}


def _candidate(index: int) -> str:
    """A structurally distinct candidate: forces a full candidate-side compile."""
    source = PROBLEM.golden_chisel
    brace = source.rfind("}")
    padding = f"  val pad{index} = Wire(UInt(4.W))\n  pad{index} := {index % 16}.U\n"
    return source[:brace] + padding + source[brace:]


def _revision(index: int) -> str:
    """Iteration k+1 of a repair loop: a cosmetically revised candidate."""
    return f"// attempt {index}: reviewer feedback applied\n" + PROBLEM.golden_chisel


def _verify(compiler: ChiselCompiler, source: str, backend: str) -> None:
    golden = compiler.compile(PROBLEM.golden_chisel)
    candidate = compiler.compile(source)
    os.environ["REPRO_TB_BACKEND"] = backend
    try:
        outcome = SIMULATOR.simulate(candidate.verilog, golden.verilog, TESTBENCH)
    finally:
        del os.environ["REPRO_TB_BACKEND"]
    assert outcome.success, outcome.error


def _median_rounds(round_fn) -> float:
    times = []
    for index in range(ROUNDS):
        start = time.perf_counter()
        round_fn(index)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def _run_baseline() -> float:
    compiler = ChiselCompiler(top="TopModule", cached=False)

    def round_fn(index: int) -> None:
        clear_registered_caches()
        clear_kernel_cache()
        _verify(compiler, _candidate(1000 + index), "stepwise")

    return _median_rounds(round_fn)


def _baseline() -> float:
    if "baseline" not in _timings:
        _timings["baseline"] = _run_baseline()
    return _timings["baseline"]


@pytest.mark.cache_mutating
def test_verify_cold_stepwise_full_recompile(benchmark):
    _timings["baseline"] = run_once(benchmark, _run_baseline)


@pytest.mark.cache_mutating
def test_verify_cold_candidate_trace(benchmark):
    compiler = ChiselCompiler(top="TopModule")
    clear_registered_caches()
    clear_kernel_cache()
    _verify(compiler, _candidate(2000), "auto")  # steady state: golden side warm

    def run() -> float:
        return _median_rounds(lambda index: _verify(compiler, _candidate(index), "auto"))

    elapsed = run_once(benchmark, run)
    speedup = _baseline() / elapsed
    assert speedup >= MIN_COLD_SPEEDUP, (
        f"cold-candidate verify speedup {speedup:.1f}x below {MIN_COLD_SPEEDUP}x "
        f"(baseline {_baseline() * 1000:.1f} ms, engine {elapsed * 1000:.1f} ms)"
    )


def test_verify_warm_iteration(benchmark):
    compiler = ChiselCompiler(top="TopModule")
    _verify(compiler, _revision(0), "auto")  # iteration k fills the downstream caches

    def run() -> float:
        return _median_rounds(lambda index: _verify(compiler, _revision(1 + index), "auto"))

    elapsed = run_once(benchmark, run)
    speedup = _baseline() / elapsed
    assert speedup >= MIN_WARM_SPEEDUP, (
        f"warm iteration-k+1 verify speedup {speedup:.1f}x below {MIN_WARM_SPEEDUP}x "
        f"(baseline {_baseline() * 1000:.1f} ms, engine {elapsed * 1000:.1f} ms)"
    )


def test_verify_trace_vs_stepwise(benchmark):
    compiler = ChiselCompiler(top="TopModule")
    _verify(compiler, _candidate(3000), "auto")

    def stepwise() -> float:
        return _median_rounds(lambda index: _verify(compiler, _candidate(3000), "stepwise"))

    def trace() -> float:
        return _median_rounds(lambda index: _verify(compiler, _candidate(3000), "trace"))

    stepwise_elapsed = stepwise()
    trace_elapsed = run_once(benchmark, trace)
    speedup = stepwise_elapsed / trace_elapsed
    assert speedup >= MIN_TRACE_SPEEDUP, (
        f"trace backend speedup {speedup:.1f}x below {MIN_TRACE_SPEEDUP}x "
        f"(step-wise {stepwise_elapsed * 1000:.1f} ms, trace {trace_elapsed * 1000:.1f} ms)"
    )


def test_verify_first_fresh_program(benchmark):
    """First verify of a fresh program, timed per round; recorded, not gated
    (a ratio from one run is too noisy to gate on)."""
    compiler = ChiselCompiler(top="TopModule")
    golden = compiler.compile(PROBLEM.golden_chisel).verilog
    candidate = compiler.compile(_candidate(4000)).verilog
    SIMULATOR.simulate(candidate, golden, _testbench(FRESH_POINTS))  # warm every cache

    def fresh_program():
        return (candidate, golden, _testbench(FRESH_POINTS)), {}

    outcome = benchmark.pedantic(
        SIMULATOR.simulate, setup=fresh_program, rounds=ROUNDS, iterations=1
    )
    assert outcome.success, outcome.error
