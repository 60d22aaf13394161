"""Benchmark: trace-kernel codegen and trace-kernel runs.

Every verdict compiles the candidate's kernel
(:func:`~repro.verilog.compile_sim.compile_kernel`) and its trace for the
testbench (:func:`~repro.verilog.compile_sim.compile_trace`), then runs the
trace.  A re-rolled run of the trace inlines the module's comb and step
passes on locals: that makes runs faster and codegen dearer, so both are
recorded, with the registered caches and the kernel caches cleared before
every round:

* ``codegen``: ``compile_kernel`` plus ``compile_trace`` for every registry
  golden on its own testbench;
* ``runs``: the trace kernel of every registry golden run once on a
  4096-point program chained from the problem's own seeded programs (the
  ``deep-verify`` shape); the kernels are compiled outside the timing.

Records the rounds into ``BENCH_toolchain.json`` via ``python
benchmarks/run_benchmarks.py`` and asserts no speed: it is a ledger entry.
"""

from __future__ import annotations

import os
import sys

import pytest

from repro.caching import clear_registered_caches
from repro.problems.registry import build_default_registry
from repro.sim.testbench import _trace_plan
from repro.toolchain.compiler import ChiselCompiler
from repro.verilog.compile_sim import clear_kernel_cache, compile_kernel, compile_trace
from repro.verilog.parser import parse_verilog

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "tests"))
from test_trace_equivalence import chained_program  # noqa: E402


def _cold() -> None:
    clear_registered_caches()
    clear_kernel_cache()


@pytest.fixture(scope="module")
def goldens():
    """``(problem, module, observed outputs)`` for every registry golden."""
    compiler = ChiselCompiler(top="TopModule")
    goldens = []
    for problem in build_default_registry():
        module = parse_verilog(compiler.compile(problem.golden_chisel).verilog)[-1]
        goldens.append((problem, module, tuple(port.name for port in module.outputs())))
    return goldens


@pytest.mark.cache_mutating
def test_trace_codegen_throughput(benchmark, goldens):
    cases = [
        (module, _trace_plan(problem.build_testbench(), observed)[0])
        for problem, module, observed in goldens
    ]

    def codegen() -> None:
        for module, schedule in cases:
            compile_trace(module, schedule, compile_kernel(module))

    benchmark.pedantic(codegen, setup=_cold, rounds=5, iterations=1)


@pytest.mark.cache_mutating
def test_trace_run_throughput(benchmark, goldens):
    runs = []
    for problem, module, observed in goldens:
        schedule, stimulus = _trace_plan(chained_program(problem), observed)
        runs.append((compile_trace(module, schedule).run, stimulus))

    def run_all() -> None:
        for run, stimulus in runs:
            run(stimulus)

    benchmark.pedantic(run_all, setup=_cold, rounds=5, iterations=1)
