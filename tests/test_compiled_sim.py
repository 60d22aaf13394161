"""Compiled simulation kernels: differential tests and unit coverage.

The compiled kernels the trace tier runs must be bit-identical to the
tree-walking interpreter, which stays the semantic oracle.  The heavyweight
test here sweeps the *full* problem registry: every golden design is driven
point by point on the interpreter and on its kernel (replayed step-wise by
``sim_tiers.KernelReplay``) and every declared signal (outputs and internal
nets) is compared.
"""

from __future__ import annotations

import sys
import threading

import pytest

from repro.caching import cache_stats
from repro.problems.registry import build_default_registry
from repro.sim.testbench import DeviceUnderTest, FunctionalPoint, Testbench, run_testbench
from repro.toolchain.compiler import ChiselCompiler
from repro.verilog.analysis import CombLoopError, ModuleAnalysis, module_fingerprint
from repro.verilog.compile_sim import (
    clear_kernel_cache,
    compile_kernel,
    get_kernel,
    kernel_cache_stats,
)
from repro.verilog.parser import parse_verilog
from repro.verilog.simulator import Simulation, SimulationError
from sim_tiers import KernelReplay

REGISTRY = build_default_registry()
COMPILER = ChiselCompiler(top="TopModule")


def _replay(module) -> KernelReplay:
    kernel = get_kernel(module)
    assert kernel is not None, f"module {module.name} is outside the compiled subset"
    return KernelReplay(kernel)


def _differential_run(module, testbench) -> None:
    """Drive the interpreter and the kernel through the testbench; compare every signal."""
    interp = Simulation(module)
    compiled = _replay(module)
    names = list(interp.signals)
    for sim in (interp, compiled):
        if module.port_named(testbench.reset) and testbench.reset_cycles > 0:
            sim.poke(testbench.reset, 1, settle=False)
            sim.step(testbench.clock, testbench.reset_cycles)
            sim.poke(testbench.reset, 0, settle=False)
    for index, point in enumerate(testbench.points):
        interp.poke_many(point.inputs)
        compiled.poke_many(point.inputs)
        if point.clock_cycles:
            interp.step(testbench.clock, point.clock_cycles)
            compiled.step(testbench.clock, point.clock_cycles)
        for name in names:
            expected = interp.peek(name)
            actual = compiled.peek(name)
            assert actual == expected, (
                f"point {index}, signal {name}: interpreter={expected} "
                f"compiled={actual} (inputs {point.inputs})"
            )


class TestDifferentialRegistry:
    def test_every_golden_design_matches_interpreter(self):
        """Compiled kernels are bit-identical on every functional point of
        every golden design in the 216-case registry."""
        for problem in REGISTRY:
            result = COMPILER.compile(problem.golden_chisel)
            assert result.success, problem.problem_id
            module = parse_verilog(result.verilog)[-1]
            _differential_run(module, problem.build_testbench())

    def test_every_golden_design_uses_compiled_backend(self):
        """No golden design should need the interpreter fallback."""
        fallbacks = []
        for problem in REGISTRY:
            result = COMPILER.compile(problem.golden_chisel)
            module = parse_verilog(result.verilog)[-1]
            if get_kernel(module) is None:
                fallbacks.append(problem.problem_id)
        assert fallbacks == []


HANDWRITTEN = {
    "case_and_blocking": """
module m(input [1:0] sel, input [3:0] a, input [3:0] b, output reg [4:0] y);
  reg [4:0] t;
  always @(*) begin
    t = a + b;
    case (sel)
      2'd0: y = t;
      2'd1: y = t + 1;
      default: y = {t[0], a};
    endcase
  end
endmodule
""",
    "partial_writes": """
module m(input [3:0] lo, input [3:0] hi, input [2:0] i, input b, output reg [7:0] y, output reg [7:0] z);
  always @(*) begin
    y[3:0] = lo;
    y[7:4] = hi;
    z = 8'h0;
    z[i] = b;
  end
endmodule
""",
    "signed_arith": """
module m(input signed [7:0] a, input signed [7:0] b, output signed [7:0] s, output signed [7:0] d, output signed [7:0] r, output signed [7:0] sr, output lt);
  assign s = a + b;
  assign d = a / b;
  assign r = a % b;
  assign sr = a >>> 3;
  assign lt = a < b;
endmodule
""",
    "reduction_concat": """
module m(input [7:0] a, output [2:0] red, output [15:0] cat);
  assign red = {&a, ^a, |a};
  assign cat = {a[3:0], 2'b10, ~a[7:6], {2{a[1:0]}}, 4'ha};
endmodule
""",
}


class TestDifferentialHandwritten:
    @pytest.mark.parametrize("name", sorted(HANDWRITTEN))
    def test_handwritten_idioms(self, name):
        import random

        module = parse_verilog(HANDWRITTEN[name])[0]
        interp = Simulation(module)
        compiled = _replay(module)
        inputs = [p for p in module.inputs()]
        rng = random.Random(name)
        for _ in range(100):
            stimuli = {p.name: rng.randrange(1 << p.width) for p in inputs}
            interp.poke_many(stimuli)
            compiled.poke_many(stimuli)
            for signal in interp.signals:
                assert interp.peek(signal) == compiled.peek(signal), (name, signal, stimuli)


class TestCombCycleDetection:
    def test_two_node_cycle_is_detected(self):
        module = parse_verilog(
            "module m(input a, output x, y);\n"
            "  assign x = y | a;\n"
            "  assign y = x & a;\n"
            "endmodule\n"
        )[0]
        with pytest.raises(CombLoopError):
            ModuleAnalysis(module).schedule()
        assert get_kernel(module) is None

    def test_self_read_is_detected(self):
        module = parse_verilog(
            "module m(input a, output x);\n  assign x = x ^ a;\nendmodule\n"
        )[0]
        with pytest.raises(CombLoopError):
            compile_kernel(module)

    def test_multiple_full_drivers_are_rejected(self):
        module = parse_verilog(
            "module m(input a, b, output y);\n"
            "  assign y = a;\n"
            "  assign y = b;\n"
            "endmodule\n"
        )[0]
        with pytest.raises(CombLoopError):
            compile_kernel(module)

    def test_interpreter_runs_what_the_compiler_rejects(self):
        module = parse_verilog(
            "module m(input a, output x, y);\n"
            "  assign x = y | a;\n"
            "  assign y = x & a;\n"
            "endmodule\n"
        )[0]
        assert get_kernel(module) is None
        sim = Simulation(module)
        # The cycle is value-stable at zero, so the bounded interpreter settles.
        sim.poke("a", 0)
        assert sim.peek("x") == 0

    def test_forced_compile_of_a_module_outside_the_subset_raises(self):
        module = parse_verilog(
            "module m(input a, output x);\n  assign x = x ^ a;\nendmodule\n"
        )[0]
        with pytest.raises(CombLoopError):
            compile_kernel(module)
        assert get_kernel(module) is None

    def test_oscillating_loop_still_raises_in_the_interpreter(self):
        module = parse_verilog(
            "module m(input a, output x);\n  assign x = ~x;\nendmodule\n"
        )[0]
        with pytest.raises(SimulationError):
            Simulation(module)  # non-convergence


class TestKernelCache:
    @pytest.mark.cache_mutating
    def test_identical_sources_share_one_kernel(self):
        clear_kernel_cache()
        source = "module m(input [3:0] a, output [3:0] y);\n  assign y = ~a;\nendmodule\n"
        first = get_kernel(parse_verilog(source)[0])
        second = get_kernel(parse_verilog(source)[0])
        assert first is second
        stats = kernel_cache_stats()
        assert stats["hits"] == 1 and stats["misses"] == 1

    def test_fingerprint_is_structural(self):
        a = parse_verilog("module m(input x, output y);\n  assign y = x;\nendmodule\n")[0]
        b = parse_verilog("module m(input x, output y);\n  assign y = x;\nendmodule\n")[0]
        c = parse_verilog("module m(input x, output y);\n  assign y = ~x;\nendmodule\n")[0]
        assert module_fingerprint(a) == module_fingerprint(b)
        assert module_fingerprint(a) != module_fingerprint(c)

    @pytest.mark.cache_mutating
    def test_unsupported_modules_are_negatively_cached(self):
        clear_kernel_cache()
        source = "module m(input a, output x);\n  assign x = x ^ a;\nendmodule\n"
        assert get_kernel(parse_verilog(source)[0]) is None
        assert get_kernel(parse_verilog(source)[0]) is None
        stats = kernel_cache_stats()
        assert stats["fallbacks"] == 1 and stats["hits"] == 1


class TestDeferredSettle:
    def test_poke_with_deferred_settle_batches(self):
        module = parse_verilog(
            "module m(input [3:0] a, input [3:0] b, output [4:0] y);\n"
            "  assign y = a + b;\n"
            "endmodule\n"
        )[0]
        sim = Simulation(module)
        sim.poke("a", 3, settle=False)
        sim.poke("b", 4, settle=False)
        assert sim._needs_settle
        assert sim.peek("y") == 7  # read settles lazily
        assert not sim._needs_settle

    def test_deferred_settle_before_clock_edge(self):
        module = parse_verilog(
            "module m(input clock, input [3:0] d, output reg [3:0] q);\n"
            "  wire [3:0] n;\n"
            "  assign n = d + 1;\n"
            "  always @(posedge clock) q <= n;\n"
            "endmodule\n"
        )[0]
        for sim in (Simulation(module), _replay(module)):
            sim.poke("d", 6, settle=False)
            sim.step("clock")  # must settle n = 7 before the edge
            assert sim.peek("q") == 7, type(sim).__name__


class _EagerLatchModel(DeviceUnderTest):
    """Reference model of ``if (en) q = d`` with eager (seed) settle semantics."""

    def __init__(self):
        self.q = 0

    def drive(self, inputs):
        if inputs.get("en"):
            self.q = inputs.get("d", 0)

    def tick(self, clock, cycles):
        pass

    def reset_pulse(self, reset, clock, cycles):
        pass

    def read(self, name):
        return self.q

    def output_names(self):
        return ["q"]


class TestLatchSettleParity:
    """Deferred settles must not skip settles that latchy designs observe.

    An unchecked functional point triggers no reads; its stimulus must still
    be applied (settled) before the next point overwrites it, or a latch-like
    DUT diverges from the seed harness's eager-settle semantics.
    """

    LATCH = (
        "module m(input en, input [3:0] d, output reg [3:0] q);\n"
        "  always @(*) begin\n"
        "    if (en) q = d;\n"
        "  end\n"
        "endmodule\n"
    )

    @pytest.mark.parametrize("backend", ["auto", "interpreter"])
    def test_unchecked_point_stimulus_is_latched(self, backend, monkeypatch):
        monkeypatch.setenv("REPRO_SIM_BACKEND", backend)
        module = parse_verilog(self.LATCH)[0]
        testbench = Testbench(
            points=[
                FunctionalPoint(inputs={"en": 1, "d": 5}, check=False),
                FunctionalPoint(inputs={"en": 0, "d": 0}),
            ],
            observed_outputs=["q"],
        )
        report = run_testbench(module, _EagerLatchModel(), testbench)
        assert report.passed, report.render()


class TestCompilerCache:
    def test_compile_results_are_memoized(self):
        compiler = ChiselCompiler(top="TopModule")
        source = "// memoized once\n" + REGISTRY.by_id("alu_w8").golden_chisel
        before = cache_stats()["chisel_compile"]
        first = compiler.compile(source)
        second = ChiselCompiler(top="TopModule").compile(source)
        after = cache_stats()["chisel_compile"]
        assert first is second  # one process-wide cache, shared by instances
        assert after["hits"] - before["hits"] == 1
        assert after["misses"] - before["misses"] == 1

    def test_cache_can_be_disabled(self):
        compiler = ChiselCompiler(top="TopModule", cached=False)
        source = REGISTRY.by_id("alu_w8").golden_chisel
        assert compiler.compile(source) is not compiler.compile(source)

    def test_shared_cache_stays_consistent_across_threads(self):
        """Compilers on several threads share the one cache: every result is
        the uncached one and no lookup is lost from the counters."""
        golden = REGISTRY.by_id("alu_w8").golden_chisel
        sources = [f"// thread variant {index}\n" + golden for index in range(6)]
        expected = {
            source: ChiselCompiler(top="TopModule", cached=False).compile(source).verilog
            for source in sources
        }
        seen = []

        def worker() -> None:
            compiler = ChiselCompiler(top="TopModule")
            for source in sources * 3:
                seen.append((source, compiler.compile(source).verilog))

        before = cache_stats()["chisel_compile"]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker) for _ in range(6)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        after = cache_stats()["chisel_compile"]
        lookups = sum(after[k] - before[k] for k in ("hits", "misses"))
        assert len(seen) == lookups == 6 * len(sources) * 3
        assert all(verilog == expected[source] for source, verilog in seen)
