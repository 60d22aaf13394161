"""Batched verification engine: trace-backend differential suite and
incremental-compile coverage.

The trace backend must produce bit-identical :class:`SimulationReport`s to the
step-wise oracle — same mismatch ordering, same unchecked-point flush
semantics — for every golden design and for injected-fault mutants.  The
compile cache must replay identical results (including failures), and
diagnostics must carry the compiled candidate's own source coordinates: the
token tier answers a comment-only revision and nothing that moves a token.
"""

from __future__ import annotations

import pytest

from repro.caching import cache_stats, clear_registered_caches
from repro.problems.mutations import applicable_syntax_faults
from repro.problems.registry import build_default_registry
from repro.sim.testbench import FunctionalPoint, Testbench, run_testbench
from repro.toolchain.compiler import ChiselCompiler
from repro.verilog.compile_sim import (
    clear_kernel_cache,
    get_trace_kernel,
    kernel_cache_stats,
)
from repro.verilog.parser import parse_verilog
from repro.verilog.simulator import SimulationError
from sim_tiers import run_on

REGISTRY = build_default_registry()
COMPILER = ChiselCompiler(top="TopModule")


def _golden_module(problem):
    result = COMPILER.compile(problem.golden_chisel)
    assert result.success, problem.problem_id
    return parse_verilog(result.verilog)[-1]


class TestTraceDifferentialGoldens:
    def test_every_golden_design_matches_stepwise(self):
        """Trace and step-wise reports are equal on all 216 golden designs."""
        for problem in REGISTRY:
            module = _golden_module(problem)
            testbench = problem.build_testbench()
            stepwise = run_on("interpreter", module, module, testbench)
            trace = run_on("trace", module, module, testbench)
            assert stepwise == trace, problem.problem_id
            assert trace.passed, problem.problem_id

    def test_every_golden_design_is_trace_eligible(self):
        """No golden pairing should need the step-wise fallback."""
        fallbacks = []
        for problem in REGISTRY:
            module = _golden_module(problem)
            testbench = problem.build_testbench()
            observed = tuple(port.name for port in module.outputs())
            from repro.sim.testbench import _trace_plan

            schedule, _ = _trace_plan(testbench, observed)
            if get_trace_kernel(module, schedule) is None:
                fallbacks.append(problem.problem_id)
        assert fallbacks == []


class TestTraceDifferentialMutants:
    def test_behavior_breaking_mutants_match_stepwise(self):
        """Functional-fault mutants produce identical mismatch reports.

        This is the path that matters for ReChisel: a faulty candidate against
        the golden reference, with real mismatches, truncation at
        ``max_mismatches`` and identical mismatch ordering.
        """
        compared = failing = 0
        for problem in REGISTRY:
            golden = _golden_module(problem)
            testbench = problem.build_testbench()
            for fault in problem.functional_faults:
                if not fault.applies_to(problem.golden_chisel):
                    continue
                result = COMPILER.compile(fault.apply(problem.golden_chisel))
                if not result.success:
                    continue
                mutant = parse_verilog(result.verilog)[-1]
                stepwise = run_on("interpreter", mutant, golden, testbench)
                trace = run_on("trace", mutant, golden, testbench)
                assert stepwise == trace, (problem.problem_id, fault.fault_id)
                compared += 1
                failing += 0 if stepwise.passed else 1
        assert compared >= 200
        assert failing >= 150  # the suite must actually exercise mismatch paths

    def test_compile_breaking_mutants_replay_identically(self):
        """Syntax-fault mutants fail compilation the same through warm caches.

        The compile cache memoizes failures too; a second compiler instance
        hitting it must render byte-identical feedback.
        """
        checked = 0
        for problem in list(REGISTRY)[::9]:  # stride: one per family bucket
            for fault in applicable_syntax_faults(problem.golden_chisel, problem)[:3]:
                source = fault.apply(problem.golden_chisel, problem)
                cold = ChiselCompiler(top="TopModule", cached=False).compile(source)
                ChiselCompiler(top="TopModule").compile(source)  # fills the shared cache
                warm = ChiselCompiler(top="TopModule").compile(source)
                assert cold.success == warm.success
                assert cold.stage == warm.stage
                assert cold.render_feedback() == warm.render_feedback()
                checked += 1
        assert checked >= 30


LATCH = """
module m(input en, input [3:0] d, output reg [3:0] q);
  always @(*) begin
    if (en) q = d;
  end
endmodule
"""

PASSTHROUGH = """
module m(input en, input [3:0] d, output [3:0] q);
  assign q = d;
endmodule
"""


class TestTraceSemantics:
    def test_unchecked_point_flush_semantics(self):
        """Unchecked stimuli must settle before the next point (latch parity)."""
        latch = parse_verilog(LATCH)[0]
        testbench = Testbench(
            points=[
                FunctionalPoint(inputs={"en": 1, "d": 5}, check=False),
                FunctionalPoint(inputs={"en": 0, "d": 0}),
            ],
            observed_outputs=["q"],
            reset_cycles=0,
        )
        stepwise = run_on("interpreter", latch, latch, testbench)
        trace = run_on("trace", latch, latch, testbench)
        assert stepwise == trace
        assert trace.passed

    def test_mismatch_cap_and_ordering(self):
        dut = parse_verilog("module m(input [3:0] d, output [3:0] q);\n  assign q = d + 1;\nendmodule\n")[0]
        ref = parse_verilog("module m(input [3:0] d, output [3:0] q);\n  assign q = d;\nendmodule\n")[0]
        testbench = Testbench(
            points=[FunctionalPoint(inputs={"d": value}) for value in range(16)],
            observed_outputs=["q"],
            reset_cycles=0,
            max_mismatches=5,
        )
        stepwise = run_on("interpreter", dut, ref, testbench)
        trace = run_on("trace", dut, ref, testbench)
        assert stepwise == trace
        assert trace.failed_points == 16 and len(trace.mismatches) == 5
        assert [m.point_index for m in trace.mismatches] == list(range(5))

    def test_trace_falls_back_for_interpreter_modules(self):
        """A combinational cycle keeps the step-wise/interpreter path."""
        loop = parse_verilog(
            "module m(input a, output x, y);\n"
            "  assign x = y | a;\n  assign y = x & a;\nendmodule\n"
        )[0]
        testbench = Testbench(points=[FunctionalPoint(inputs={"a": 0})], reset_cycles=0)
        report = run_on("auto", loop, loop, testbench)
        assert report.passed  # value-stable cycle settles in the interpreter

    def test_trace_falls_back_on_port_mismatch_error(self):
        """Port mismatches must reproduce the step-wise error report exactly."""
        dut = parse_verilog("module m(input a, output x);\n  assign x = a;\nendmodule\n")[0]
        ref = parse_verilog("module m(input a, input b, output x);\n  assign x = a & b;\nendmodule\n")[0]
        testbench = Testbench(
            points=[FunctionalPoint(inputs={"a": 1, "b": 1})], reset_cycles=0
        )
        stepwise = run_on("interpreter", dut, ref, testbench)
        trace = run_on("auto", dut, ref, testbench)
        assert stepwise == trace
        assert trace.runtime_error is not None and "no port named 'b'" in trace.runtime_error

    def test_backend_env_override(self, monkeypatch):
        module = parse_verilog(PASSTHROUGH)[0]
        testbench = Testbench(
            points=[FunctionalPoint(inputs={"en": 0, "d": 3})],
            observed_outputs=["q"],
            reset_cycles=0,
        )
        monkeypatch.setenv("REPRO_SIM_BACKEND", "interpreter")
        before = kernel_cache_stats()
        assert run_testbench(module, module, testbench).passed
        after = kernel_cache_stats()
        assert after["trace_hits"] == before["trace_hits"]
        assert after["trace_misses"] == before["trace_misses"]

    def test_behavioural_reference_falls_back_to_stepwise(self):
        """A non-VModule device can never trace; auto must go step-wise."""
        from repro.sim.reference import BehavioralDevice

        module = parse_verilog(PASSTHROUGH)[0]
        reference = BehavioralDevice(
            {"q": 4}, lambda inputs, state: {"q": inputs.get("d", 0)}
        )
        testbench = Testbench(
            points=[FunctionalPoint(inputs={"en": 0, "d": 9})],
            observed_outputs=["q"],
            reset_cycles=0,
        )
        before = kernel_cache_stats()
        report = run_testbench(module, reference, testbench)
        after = kernel_cache_stats()
        assert report.passed
        assert after["trace_hits"] == before["trace_hits"]
        assert after["trace_misses"] == before["trace_misses"]

    def test_env_forced_trace_raises_for_behavioural_reference(self, monkeypatch):
        """REPRO_SIM_BACKEND=trace must fail loudly, not silently degrade."""
        from repro.sim.reference import BehavioralDevice

        module = parse_verilog(PASSTHROUGH)[0]
        reference = BehavioralDevice(
            {"q": 4}, lambda inputs, state: {"q": inputs.get("d", 0)}
        )
        testbench = Testbench(
            points=[FunctionalPoint(inputs={"en": 0, "d": 9})],
            observed_outputs=["q"],
            reset_cycles=0,
        )
        monkeypatch.setenv("REPRO_SIM_BACKEND", "trace")
        with pytest.raises(SimulationError, match="behavioural references"):
            run_testbench(module, reference, testbench)

    def test_env_forced_trace_raises_for_interpreter_only_module(self, monkeypatch):
        """Combinational-cycle modules are interpreter-only: strict trace raises."""
        loop = parse_verilog(
            "module m(input a, output x, y);\n"
            "  assign x = y | a;\n  assign y = x & a;\nendmodule\n"
        )[0]
        testbench = Testbench(points=[FunctionalPoint(inputs={"a": 0})], reset_cycles=0)
        monkeypatch.setenv("REPRO_SIM_BACKEND", "trace")
        with pytest.raises(SimulationError, match="not trace-eligible"):
            run_testbench(loop, loop, testbench)
        # auto keeps the documented prefer-trace fallback.
        assert run_on("auto", loop, loop, testbench).passed

    def test_env_forced_trace_runs_eligible_pairings(self, monkeypatch):
        module = parse_verilog(PASSTHROUGH)[0]
        testbench = Testbench(
            points=[FunctionalPoint(inputs={"en": 0, "d": 3})],
            observed_outputs=["q"],
            reset_cycles=0,
        )
        monkeypatch.setenv("REPRO_SIM_BACKEND", "trace")
        report = run_testbench(module, module, testbench)
        assert report == run_on("interpreter", module, module, testbench)

    def test_consecutive_empty_points_do_not_break_codegen(self):
        """Runs of points that compile to no code must not emit empty loops."""
        module = parse_verilog(PASSTHROUGH)[0]
        testbench = Testbench(
            points=[
                FunctionalPoint(inputs={"en": 0, "d": 7}),
                FunctionalPoint(inputs={}, check=False),
                FunctionalPoint(inputs={}, check=False),
                FunctionalPoint(inputs={"en": 0, "d": 3}),
            ],
            observed_outputs=["q"],
            reset_cycles=0,
        )
        stepwise = run_on("interpreter", module, module, testbench)
        trace = run_on("trace", module, module, testbench)
        assert stepwise == trace
        assert trace.checked_points == 2

    def test_huge_clock_cycle_counts_fall_back(self):
        """Unrollable-but-enormous schedules must fall back, not allocate."""
        module = parse_verilog(
            "module m(input clock, input [3:0] d, output reg [3:0] q);\n"
            "  always @(posedge clock) q <= d;\nendmodule\n"
        )[0]
        testbench = Testbench(
            points=[FunctionalPoint(inputs={"d": 9}, clock_cycles=70_000)],
            observed_outputs=["q"],
            reset_cycles=0,
        )
        stepwise = run_on("interpreter", module, module, testbench)
        trace = run_on("auto", module, module, testbench)
        assert stepwise == trace
        assert trace.passed

    @pytest.mark.parametrize("value", ["warp", "compiled", "stepwise"])
    def test_unknown_backend_raises(self, monkeypatch, value):
        """Values of the deleted compiled mode and tier knob fail by the row's rule."""
        module = parse_verilog(PASSTHROUGH)[0]
        testbench = Testbench(points=[], reset_cycles=0)
        monkeypatch.setenv("REPRO_SIM_BACKEND", value)
        rule = f"REPRO_SIM_BACKEND must be one of auto, trace, interpreter, got '{value}'"
        with pytest.raises(SimulationError, match=rule):
            run_testbench(module, module, testbench)

    @pytest.mark.cache_mutating
    def test_trace_kernels_are_cached_per_module_and_shape(self):
        clear_kernel_cache()
        module = parse_verilog(PASSTHROUGH)[0]
        testbench = Testbench(
            points=[FunctionalPoint(inputs={"en": 0, "d": value}) for value in range(4)],
            observed_outputs=["q"],
            reset_cycles=0,
        )
        first = run_on("trace", module, module, testbench)
        second = run_on("trace", module, module, testbench)
        assert first == second
        stats = kernel_cache_stats()
        # dut and reference share the module: one compile, three cache hits.
        assert stats["trace_misses"] == 1 and stats["trace_hits"] == 3
        clear_kernel_cache()
        assert kernel_cache_stats()["trace_size"] == 0


class TestIncrementalCompile:
    def test_cosmetic_revision_emits_identical_verilog(self):
        source = REGISTRY.by_id("alu_w8").golden_chisel
        compiler = ChiselCompiler(top="TopModule", cached=False)
        first = compiler.compile(source)
        second = compiler.compile("// revised attempt k+1\n\n" + source)
        assert first.success and second.success
        assert first.verilog == second.verilog

    def test_elaboration_failures_replay(self):
        source = REGISTRY.by_id("alu_w8").golden_chisel.replace(" := ", " == ", 1)
        cold = ChiselCompiler(top="TopModule", cached=False).compile(source)
        ChiselCompiler(top="TopModule").compile(source)  # fills the shared cache
        warm = ChiselCompiler(top="TopModule").compile(source)
        assert not cold.success and not warm.success
        assert cold.render_feedback() == warm.render_feedback()

    def test_diagnostics_carry_the_candidates_own_coordinates(self):
        """A revision that only shifts lines reports its own line, not the
        coordinates of the earlier candidate it resembles."""
        source = REGISTRY.by_id("alu_w8").golden_chisel.replace(" := ", " == ", 1)
        first = ChiselCompiler(top="TopModule", cached=False).compile(source)
        revised = ChiselCompiler(top="TopModule", cached=False).compile(
            "// revision 2\n" + source
        )
        assert "Main.scala:14:23" in first.render_feedback()
        assert revised.render_feedback() == first.render_feedback().replace(
            "Main.scala:14:23", "Main.scala:15:23"
        )


def _tier_lookups() -> dict[str, int]:
    stats = cache_stats()
    return {
        f"{name}.{counter}": stats.get(name, {}).get(counter, 0)
        for name in ("chisel_compile", "chisel_tokens")
        for counter in ("hits", "misses")
    }


def _lookups_during(action) -> dict[str, int]:
    """Change of each compile-tier counter while ``action`` runs."""
    before = _tier_lookups()
    action()
    after = _tier_lookups()
    return {key: after[key] - before[key] for key in after}


_FAILING = REGISTRY.by_id("alu_w8").golden_chisel.replace(" := ", " == ", 1)


class TestTokenTier:
    """``chisel_tokens``: one result per token stream, whatever the comments say."""

    @pytest.mark.parametrize(
        "first, second",
        [
            ("// token tier revision 1\n", "// token tier revision 2\n"),
            ("/* token tier revision 1 */\n", "/* token tier revision 2 */\n"),
            ("/* token tier\n revision 1 */\n", "/* token tier\n revision 2 */\n"),
        ],
    )
    def test_comment_only_revision_hits_the_token_tier(self, first, second):
        compiler = ChiselCompiler(top="TopModule")
        results = []
        lookups = [
            _lookups_during(lambda: results.append(compiler.compile(prefix + _FAILING)))
            for prefix in (first, second)
        ]
        assert lookups == [
            {
                "chisel_compile.hits": 0,
                "chisel_compile.misses": 1,
                "chisel_tokens.hits": hits,
                "chisel_tokens.misses": 1 - hits,
            }
            for hits in (0, 1)
        ]
        assert results[1] is results[0]
        uncached = ChiselCompiler(top="TopModule", cached=False).compile(second + _FAILING)
        assert results[1].render_feedback() == uncached.render_feedback()

    @pytest.mark.parametrize(
        "first, second",
        [
            ("// token tier shift\n", "// token tier shift\n\n"),
            ("/* token tier\n shift */", "/* token tier shift\n */"),
            ("/* token tier shift */ ", "/* token tier shift */  "),
            ("import tokenTier /*\n*/", "import tokenTier   \n  "),
        ],
    )
    def test_revision_that_moves_tokens_misses(self, first, second):
        compiler = ChiselCompiler(top="TopModule")
        compiler.compile(first + _FAILING)
        results = []
        lookups = _lookups_during(lambda: results.append(compiler.compile(second + _FAILING)))
        assert lookups["chisel_tokens.misses"] == 1 and lookups["chisel_tokens.hits"] == 0
        uncached = ChiselCompiler(top="TopModule", cached=False).compile(second + _FAILING)
        assert results[0].render_feedback() == uncached.render_feedback()

    def test_lex_failure_never_reaches_the_token_tier(self):
        compiler = ChiselCompiler(top="TopModule")
        bad = "// token tier lex failure\n" + _FAILING.replace(" == ", " == # ", 1)
        results = []
        lookups = _lookups_during(lambda: results.extend(compiler.compile(bad) for _ in range(2)))
        assert lookups == {
            "chisel_compile.hits": 1,
            "chisel_compile.misses": 1,
            "chisel_tokens.hits": 0,
            "chisel_tokens.misses": 0,
        }
        assert results[0] is results[1]
        assert results[0].diagnostics[0].code == "LEX"

    def test_uncached_compiler_bypasses_both_tiers(self):
        compiler = ChiselCompiler(top="TopModule", cached=False)
        source = "// token tier bypass\n" + _FAILING
        results = []
        lookups = _lookups_during(lambda: results.extend(compiler.compile(source) for _ in range(2)))
        assert set(lookups.values()) == {0}
        assert results[0] is not results[1]
        assert results[0].render_feedback() == results[1].render_feedback()


class TestCacheRegistry:
    def test_registry_covers_every_stage(self):
        COMPILER.compile(REGISTRY.by_id("alu_w8").golden_chisel)
        stats = cache_stats()
        for name in (
            "chisel_compile",
            "chisel_tokens",
            "verilog_parse",
            "sim_kernel",
            "sim_trace",
        ):
            assert name in stats, name
            counters = stats[name]
            assert set(counters) == {"hits", "misses", "size", "instances"}

    @pytest.mark.cache_mutating
    def test_clear_registered_caches_resets_counters(self):
        compiler = ChiselCompiler(top="TopModule")
        source = REGISTRY.by_id("alu_w8").golden_chisel
        compiler.compile(source)
        compiler.compile(source)
        assert cache_stats()["chisel_compile"]["hits"] >= 1
        clear_registered_caches()
        stats = cache_stats()
        for counters in stats.values():
            assert counters["hits"] == 0 and counters["misses"] == 0 and counters["size"] == 0

    def test_snapshot_surfaces_cache_stats(self):
        from repro.service import GenerationService

        snapshot = GenerationService().snapshot()
        assert "sim_trace" in snapshot.caches
        assert "toolchain caches" in snapshot.render()
