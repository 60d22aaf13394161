"""Trace kernels sample exactly what the step-wise interpreter reads.

A trace kernel re-rolls each stable run of its schedule into one loop on
locals: the state list is unpacked once, each iteration takes its stimulus
from one slice, and the module's comb and step passes run inline
(``KernelTemplate.comb_body`` / ``step_bodies``).  Unrolled points call the
``comb``/``step`` closures.  These cases compare the flat samples of
``TraceKernel.run`` with ``repro.fuzz.differential._stepwise_samples`` (an
interpreter replay of the same testbench):

* every registry golden and compilable functional mutant on its problem's
  testbench;
* the same designs of every ninth problem on a 4096-point program chained
  from the problem's own seeded programs (the ``deep-verify`` shape);
* a memory design under a schedule of many runs of mixed shapes, with
  multi-cycle points inside re-rolled loops.
"""

from __future__ import annotations

import dataclasses
import random

import pytest

from repro.fuzz.differential import _stepwise_samples
from repro.problems.registry import build_default_registry
from repro.sim.testbench import FunctionalPoint, Testbench, _trace_plan
from repro.toolchain.compiler import ChiselCompiler
from repro.verilog.compile_sim import compile_trace
from repro.verilog.parser import parse_verilog

REGISTRY = build_default_registry()
COMPILER = ChiselCompiler(top="TopModule")
CHAINED_POINTS = 4096


def _designs(problem):
    """The problem's golden and compilable functional mutants, parsed."""
    sources = [problem.golden_chisel] + [
        fault.apply(problem.golden_chisel)
        for fault in problem.functional_faults
        if fault.applies_to(problem.golden_chisel)
    ]
    modules = []
    for source in sources:
        result = COMPILER.compile(source)
        if result.success:
            modules.append(parse_verilog(result.verilog)[-1])
    return modules


def chained_program(problem) -> Testbench:
    """A ``CHAINED_POINTS``-long program: the problem's seeded programs, chained."""
    first = None
    points: list[FunctionalPoint] = []
    seed = 0
    while len(points) < CHAINED_POINTS:
        testbench = problem.testbench_builder(random.Random(seed))
        seed += 1
        first = first or testbench
        points.extend(testbench.points)
    return dataclasses.replace(first, points=points[:CHAINED_POINTS])


def assert_trace_matches_interpreter(module, testbench: Testbench) -> None:
    observed = tuple(port.name for port in module.outputs())
    schedule, stimulus = _trace_plan(testbench, observed)
    samples = compile_trace(module, schedule).run(stimulus)
    assert samples == _stepwise_samples(module, testbench, observed)


@pytest.mark.parametrize("problem", REGISTRY, ids=lambda problem: problem.problem_id)
def test_registry_designs_on_their_own_testbench(problem):
    testbench = problem.build_testbench()
    modules = _designs(problem)
    assert modules
    for module in modules:
        assert_trace_matches_interpreter(module, testbench)


@pytest.mark.parametrize("problem", list(REGISTRY)[::9], ids=lambda problem: problem.problem_id)
def test_registry_designs_on_a_chained_program(problem):
    testbench = chained_program(problem)
    assert len(testbench.points) == CHAINED_POINTS
    for module in _designs(problem):
        assert_trace_matches_interpreter(module, testbench)


MEMORY = """
module regfile(input clock, input reset, input wen, input [2:0] waddr,
               input [7:0] wdata, input [2:0] raddr, output [7:0] rdata,
               output [7:0] last);
  reg [7:0] mem [0:7];
  reg [7:0] held;
  always @(posedge clock) begin
    if (wen) mem[waddr] <= wdata;
    held <= mem[raddr] ^ wdata;
  end
  assign rdata = mem[raddr];
  assign last = held;
endmodule
"""


def test_a_memory_design_under_many_runs():
    module = parse_verilog(MEMORY)[0]
    rng = random.Random(5)
    shapes = [
        (("wen", "waddr", "wdata"), 1, True),
        (("raddr",), 0, True),
        (("wen", "waddr", "wdata", "raddr"), 2, True),
        (("waddr", "wdata"), 1, False),
        ((), 3, True),
    ]
    points: list[FunctionalPoint] = []
    widths = {"wen": 1, "waddr": 3, "wdata": 8, "raddr": 3}
    for _ in range(40):
        names, cycles, check = rng.choice(shapes)
        for _ in range(rng.randint(1, 9)):
            inputs = {name: rng.getrandbits(widths[name]) for name in names}
            points.append(FunctionalPoint(inputs, clock_cycles=cycles, check=check))
    testbench = Testbench(points=points, reset_cycles=2)
    schedule, stimulus = _trace_plan(testbench, ("rdata", "last"))
    assert len(schedule.runs) > 10
    source = compile_trace(module, schedule).source
    assert "zip(*[iter(stim[" in source and "for _ in range(" in source
    assert_trace_matches_interpreter(module, testbench)
