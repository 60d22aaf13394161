"""Benchmark: raw toolchain throughput (compile + simulate one benchmark case).

Not a paper table, but the number that determines how long the paper-scale
sweeps take; useful for tracking performance regressions in the substrate.
``python benchmarks/run_benchmarks.py`` runs this file and writes the
pytest-benchmark JSON to ``BENCH_toolchain.json`` so the perf trajectory is
recorded PR over PR.

Three variants are tracked:

* ``test_compile_and_simulate_alu`` — the production path: compiled simulation
  kernels plus the compile/parse/kernel caches (steady-state, caches warm);
* ``test_compile_and_simulate_alu_interpreter`` — the same workload forced
  onto the tree-walking interpreter backend, to keep the compiled-vs-
  interpreter gap visible;
* ``test_simulate_alu_cold_compile`` — cache-defeating variant that pays the
  Chisel compile on every round.
"""

import pytest

from repro.problems.registry import build_default_registry
from repro.toolchain.compiler import ChiselCompiler
from repro.toolchain.simulator import Simulator

REGISTRY = build_default_registry()
COMPILER = ChiselCompiler(top="TopModule")
SIMULATOR = Simulator(top="TopModule")


def _compile_and_simulate():
    problem = REGISTRY.by_id("alu_w8")
    compiled = COMPILER.compile(problem.golden_chisel)
    outcome = SIMULATOR.simulate(compiled.verilog, compiled.verilog, problem.build_testbench())
    assert outcome.success


def test_compile_and_simulate_alu(benchmark):
    benchmark(_compile_and_simulate)


def test_compile_and_simulate_alu_interpreter(benchmark, monkeypatch):
    monkeypatch.setenv("REPRO_SIM_BACKEND", "interpreter")
    benchmark(_compile_and_simulate)


@pytest.mark.cache_mutating
def test_simulate_alu_cold_compile(benchmark):
    from repro.caching import clear_registered_caches
    from repro.verilog.compile_sim import clear_kernel_cache

    cold_compiler = ChiselCompiler(top="TopModule", cached=False)
    problem = REGISTRY.by_id("alu_w8")

    def run():
        # The uncached compiler pays the full frontend; clear the shared
        # Verilog-parse and kernel caches so the backend is cold too.
        clear_registered_caches()
        clear_kernel_cache()
        compiled = cold_compiler.compile(problem.golden_chisel)
        outcome = SIMULATOR.simulate(
            compiled.verilog, compiled.verilog, problem.build_testbench()
        )
        assert outcome.success

    benchmark(run)
