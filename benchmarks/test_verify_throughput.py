"""Benchmark: batched verification engine vs the step-wise/full-recompile path.

The verify step is the hottest loop in every sweep, repair iteration and
served job: compile the candidate, then drive a stimulus program against the
golden reference.  Three regimes are recorded into ``BENCH_toolchain.json`` by
``python benchmarks/run_benchmarks.py``, each verifying one candidate against
the golden ALU over a deep (8192-point) stimulus program:

* ``test_verify_cold_stepwise_full_recompile`` — the baseline: every cache
  cleared each round, candidate and reference recompiled from scratch, the
  testbench driven point by point through both modules' compiled kernels
  (``tests/sim_tiers.py``'s ``KernelDevice``, a test-side replay of the
  kernel's ``comb``/``steps``; the library's own step-wise tier is the
  slower interpreter, which would loosen every gate);
* ``test_verify_cold_candidate_trace`` — the engine on a *new* candidate: the
  golden/testbench side is warm (the steady state of any running sweep), the
  unseen candidate pays parse→elaborate→passes→emit→kernel→trace compilation,
  and the schedule runs as one trace call.  Asserted ≥3x the baseline;
* ``test_verify_warm_iteration`` — iteration k+1 of a repair loop: the
  revision differs only in its leading comment, so the compiler lexes it
  and, once a comment of that length has been seen, answers from its token
  tier without parsing; the Verilog-parse and kernel caches hit.  Asserted
  ≥5x the baseline.

``test_verify_trace_vs_stepwise`` isolates trace from that point-by-point
kernel drive with a warm compiler on both sides (trace asserted ≥2x).

Each gate times ``ROUNDS`` interleaved pairs, one baseline round and one
engine round each, and asserts the median of the per-pair ratios, so a slow
stretch on a shared host lands on both sides of a pair instead of on one
side of the comparison.  A baseline round clears every cache and restores
the warm state afterwards, so the engine round next to it still runs in its
steady state.  The timings recorded into ``BENCH_toolchain.json`` are the
engine's own rounds, timed before the pairs.

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
import sys
import time

import pytest

from conftest import run_once

from repro.caching import (
    clear_registered_caches,
    restore_registered_caches,
    snapshot_registered_caches,
)
from repro.problems.registry import build_default_registry
from repro.sim.testbench import FunctionalPoint, Testbench, run_testbench
from repro.toolchain.compiler import ChiselCompiler
from repro.toolchain.simulator import Simulator, parse_verilog_cached
from repro.verilog.compile_sim import clear_kernel_cache

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "tests"))
from sim_tiers import KernelDevice, sim_backend  # noqa: E402

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
    """Verify through the simulator with ``REPRO_SIM_BACKEND=backend``."""
    golden = compiler.compile(PROBLEM.golden_chisel)
    candidate = compiler.compile(source)
    with sim_backend(backend):
        outcome = SIMULATOR.simulate(candidate.verilog, golden.verilog, TESTBENCH)
    assert outcome.success, outcome.error


def _verify_stepwise(compiler: ChiselCompiler, source: str) -> None:
    """The baseline verify: both modules' compiled kernels driven point by point."""
    golden = compiler.compile(PROBLEM.golden_chisel)
    candidate = compiler.compile(source)
    dut, reference = (KernelDevice(_top(result.verilog)) for result in (candidate, golden))
    report = run_testbench(dut, reference, TESTBENCH)
    assert report.passed, report.render()


def _top(verilog: str):
    return next(module for module in parse_verilog_cached(verilog) if module.name == "TopModule")


def _timed(round_fn, index: int) -> float:
    start = time.perf_counter()
    round_fn(index)
    return time.perf_counter() - start


def _median_rounds(round_fn) -> float:
    return statistics.median(_timed(round_fn, index) for index in range(ROUNDS))


_COLD_COMPILER = ChiselCompiler(top="TopModule", cached=False)


def _baseline_round(index: int) -> None:
    clear_registered_caches()
    clear_kernel_cache()
    _verify_stepwise(_COLD_COMPILER, _candidate(1000 + index))


def _isolated_baseline(index: int) -> float:
    """One timed baseline round that leaves the warm caches as it found them."""
    warm = snapshot_registered_caches()
    try:
        return _timed(_baseline_round, index)
    finally:
        restore_registered_caches(warm)


def _paired_speedup(baseline_round, engine_round) -> tuple[float, list[float]]:
    """Median and list of the per-pair baseline/engine time ratios."""
    ratios = [
        baseline_round(index) / _timed(engine_round, index) for index in range(ROUNDS)
    ]
    return statistics.median(ratios), ratios


def _describe(ratios: list[float]) -> str:
    return f"{ROUNDS} interleaved pairs: " + ", ".join(f"{ratio:.1f}x" for ratio in ratios)


@pytest.mark.cache_mutating
def test_verify_cold_stepwise_full_recompile(benchmark):
    run_once(benchmark, lambda: _median_rounds(_baseline_round))


@pytest.mark.cache_mutating
def test_verify_cold_candidate_trace(benchmark):
    compiler = ChiselCompiler(top="TopModule")
    clear_registered_caches()
    clear_kernel_cache()
    _verify(compiler, _candidate(2000), "auto")  # steady state: golden side warm

    run_once(
        benchmark,
        lambda: _median_rounds(lambda index: _verify(compiler, _candidate(index), "auto")),
    )
    speedup, ratios = _paired_speedup(
        _isolated_baseline, lambda index: _verify(compiler, _candidate(100 + index), "auto")
    )
    assert speedup >= MIN_COLD_SPEEDUP, (
        f"median cold-candidate verify speedup {speedup:.1f}x below "
        f"{MIN_COLD_SPEEDUP}x over {_describe(ratios)}"
    )


@pytest.mark.cache_mutating
def test_verify_warm_iteration(benchmark):
    compiler = ChiselCompiler(top="TopModule")
    _verify(compiler, _revision(0), "auto")  # iteration k fills the downstream caches

    run_once(
        benchmark,
        lambda: _median_rounds(lambda index: _verify(compiler, _revision(1 + index), "auto")),
    )
    speedup, ratios = _paired_speedup(
        _isolated_baseline, lambda index: _verify(compiler, _revision(100 + index), "auto")
    )
    assert speedup >= MIN_WARM_SPEEDUP, (
        f"median warm iteration-k+1 verify speedup {speedup:.1f}x below "
        f"{MIN_WARM_SPEEDUP}x over {_describe(ratios)}"
    )


def test_verify_trace_vs_stepwise(benchmark):
    compiler = ChiselCompiler(top="TopModule")
    _verify(compiler, _candidate(3000), "auto")

    def stepwise(_index: int) -> None:
        _verify_stepwise(compiler, _candidate(3000))

    def trace(_index: int) -> None:
        _verify(compiler, _candidate(3000), "trace")

    run_once(benchmark, lambda: _median_rounds(trace))
    speedup, ratios = _paired_speedup(lambda index: _timed(stepwise, index), trace)
    assert speedup >= MIN_TRACE_SPEEDUP, (
        f"median trace backend speedup {speedup:.1f}x below {MIN_TRACE_SPEEDUP}x "
        f"over {_describe(ratios)}"
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
