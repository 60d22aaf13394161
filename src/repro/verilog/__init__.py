"""Verilog backend and frontend: emitter, parser, AST and simulator.

The emitter turns a lowered, width-inferred FIRRTL circuit into synthesizable
Verilog-2001; the parser and cycle-based simulator then execute that Verilog
(and the hand-written reference modules shipped with the benchmark problems)
so the testbench can compare DUT and reference outputs per functional point,
exactly as the paper's simulation step does.

Simulation runs on two engines: compiled kernels (modules translated once to
native Python closures, cached by content hash — see
:mod:`repro.verilog.compile_sim`), which the testbench's trace tier runs, and
the tree-walking interpreter :class:`Simulation`, which is the step-wise tier,
the fallback and the differential-test oracle.
"""

from repro.verilog.compile_sim import (
    compile_kernel,
    clear_kernel_cache,
    get_kernel,
    kernel_cache_stats,
)
from repro.verilog.emitter import emit_verilog
from repro.verilog.parser import parse_verilog
from repro.verilog.simulator import Simulation, SimulationError

__all__ = [
    "emit_verilog",
    "parse_verilog",
    "Simulation",
    "SimulationError",
    "compile_kernel",
    "clear_kernel_cache",
    "get_kernel",
    "kernel_cache_stats",
]
