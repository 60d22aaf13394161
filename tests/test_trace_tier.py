"""The trace tier against the step-wise oracle: edge cases, strictness, caches.

The trace backend must produce bit-identical :class:`SimulationReport`s to
the step-wise oracle: same mismatch ordering, same ``max_mismatches``
capping, same unchecked-point flush and input carry-over semantics.  The
golden and mutant differentials live in ``tests/test_verify_engine.py``;
this file adds the pure-interpreter oracle on a stride of the registry and
the small designs that pin each semantic corner.
"""

from __future__ import annotations

import os
import subprocess
import sys

import pytest

from repro import settings
from repro.caching import cache_stats
from repro.problems.registry import build_default_registry
from repro.sim.reference import BehavioralDevice
from repro.sim import testbench as tb
from repro.sim.testbench import (
    FunctionalPoint,
    Testbench,
    run_testbench,
    run_testbenches,
)
from repro.toolchain.compiler import ChiselCompiler
from repro.verilog.compile_sim import clear_kernel_cache, get_kernel
from repro.verilog.parser import parse_verilog
from repro.verilog.simulator import SimulationError
from sim_tiers import run_on

REGISTRY = {problem.problem_id: problem for problem in build_default_registry()}
COMPILER = ChiselCompiler(top="TopModule")

#: Every ninth problem: one per family bucket.
STRIDE = list(REGISTRY)[::9]


def _golden_module(problem):
    result = COMPILER.compile(problem.golden_chisel)
    assert result.success, problem.problem_id
    return parse_verilog(result.verilog)[-1]


@pytest.mark.parametrize("problem_id", STRIDE)
def test_interpreter_oracle_agrees_with_trace(problem_id):
    """Trace matches the step-wise run on the pure interpreter."""
    problem = REGISTRY[problem_id]
    module = _golden_module(problem)
    testbench = problem.build_testbench()
    trace = run_on("trace", module, module, testbench)
    interp = run_on("interpreter", module, module, testbench)
    assert interp == trace
    assert trace.passed


@pytest.mark.parametrize("problem_id", STRIDE)
def test_interpreter_oracle_agrees_with_trace_on_mutants(problem_id):
    """Failing reports too: a mutant's mismatches, as the trace kernels see
    them, equal what the pure interpreter reads point by point."""
    problem = REGISTRY[problem_id]
    golden = _golden_module(problem)
    testbench = problem.build_testbench()
    mutants = []
    for fault in problem.functional_faults:
        if fault.applies_to(problem.golden_chisel):
            result = COMPILER.compile(fault.apply(problem.golden_chisel))
            if result.success:
                mutants.append(parse_verilog(result.verilog)[-1])
    assert mutants
    traced = [run_on("trace", mutant, golden, testbench) for mutant in mutants]
    interp = [run_on("interpreter", mutant, golden, testbench) for mutant in mutants]
    assert interp == traced


PASSTHROUGH = """
module m(input en, input [3:0] d, output [3:0] q);
  assign q = d;
endmodule
"""

WIDE = """
module m(input [70:0] d, output [70:0] q);
  assign q = d;
endmodule
"""

LOOP = (
    "module m(input a, output x, y);\n"
    "  assign x = y | a;\n  assign y = x & a;\nendmodule\n"
)


def _tb(values, **kwargs):
    points = [FunctionalPoint(inputs={"en": 0, "d": v}) for v in values]
    return Testbench(points=points, observed_outputs=["q"], reset_cycles=0, **kwargs)


def _behavioural_passthrough() -> BehavioralDevice:
    return BehavioralDevice({"q": 4}, lambda inputs, state: {"q": inputs.get("d", 0)})


class TestTraceEdgeCases:
    def test_single_point(self):
        module = parse_verilog(PASSTHROUGH)[0]
        testbench = _tb([9])
        stepwise = run_on("interpreter", module, module, testbench)
        trace = run_on("trace", module, module, testbench)
        assert stepwise == trace and trace.checked_points == 1

    def test_empty_testbench(self):
        module = parse_verilog(PASSTHROUGH)[0]
        testbench = Testbench(points=[], observed_outputs=["q"], reset_cycles=0)
        stepwise = run_on("interpreter", module, module, testbench)
        trace = run_on("trace", module, module, testbench)
        assert stepwise == trace and trace.total_points == 0

    def test_unchecked_points_and_input_carryover(self):
        """Unchecked stimuli settle; later points inherit undriven inputs."""
        module = parse_verilog(PASSTHROUGH)[0]
        testbench = Testbench(
            points=[
                FunctionalPoint(inputs={"en": 0, "d": 7}),
                FunctionalPoint(inputs={}, check=False),
                FunctionalPoint(inputs={"en": 1}),  # d carries over as 7
                FunctionalPoint(inputs={"d": 3}),
            ],
            observed_outputs=["q"],
            reset_cycles=0,
        )
        stepwise = run_on("interpreter", module, module, testbench)
        trace = run_on("trace", module, module, testbench)
        assert stepwise == trace
        assert trace.checked_points == 3

    def test_carried_over_inputs_reach_the_dut(self):
        """Every mismatch reports the carried-over (or never-driven 0) input."""
        header = "module m(input en, input [3:0] d, output [3:0] q);\n"
        dut = parse_verilog(header + "  assign q = en ? d : 4'd15;\nendmodule\n")[0]
        ref = parse_verilog(header + "  assign q = 4'd14;\nendmodule\n")[0]
        testbench = Testbench(
            points=[
                FunctionalPoint(inputs={}),  # en and d never driven: both 0
                FunctionalPoint(inputs={"d": 5}),
                FunctionalPoint(inputs={"en": 1}),  # d carries over as 5
                FunctionalPoint(inputs={}, check=False),
                FunctionalPoint(inputs={"d": 9}),  # en carries over as 1
                FunctionalPoint(inputs={"en": 0, "d": 2}),
            ],
            observed_outputs=["q"],
            reset_cycles=0,
        )
        stepwise = run_on("interpreter", dut, ref, testbench)
        trace = run_on("trace", dut, ref, testbench)
        assert stepwise == trace
        assert [m.actual for m in trace.mismatches] == [15, 15, 5, 9, 15]

    def test_predicates_are_zero_or_one(self):
        """Comparisons, reductions and logical ops yield 0 or 1."""
        header = "module m(input [3:0] a, input [3:0] b, output [7:0] q);\n"
        dut = parse_verilog(
            header
            + "  assign q = {a < b, a == b, !a, &a, |b, ^b, a != 0 && b != 0, a >= b || b == 3};\n"
            + "endmodule\n"
        )[0]
        ref = parse_verilog(header + "  assign q = 8'd0;\nendmodule\n")[0]
        testbench = Testbench(
            points=[
                FunctionalPoint(inputs={"a": a, "b": b}) for a in range(16) for b in range(16)
            ],
            observed_outputs=["q"],
            reset_cycles=0,
            max_mismatches=256,
        )
        stepwise = run_on("interpreter", dut, ref, testbench)
        trace = run_on("trace", dut, ref, testbench)
        assert stepwise == trace
        assert [trace.mismatches[i].actual for i in (0, 255)] == [0b01100001, 0b01011011]

    def test_wide_signals_run_on_the_trace_tier(self):
        """Python ints are unbounded: a 71-bit pairing needs no fallback."""
        dut = parse_verilog(WIDE.replace("q = d", "q = d + 71'd1"))[0]
        ref = parse_verilog(WIDE)[0]
        testbench = Testbench(
            points=[FunctionalPoint(inputs={"d": (1 << 70) | value}) for value in range(3)],
            observed_outputs=["q"],
            reset_cycles=0,
        )
        stepwise = run_on("interpreter", dut, ref, testbench)
        trace = run_on("trace", dut, ref, testbench)
        assert stepwise == trace
        assert trace.mismatches[0].actual == (1 << 70) | 1


class TestTraceStrictness:
    def test_env_forced_trace_runs_wide_pairings(self, monkeypatch):
        module = parse_verilog(WIDE)[0]
        testbench = Testbench(
            points=[FunctionalPoint(inputs={"d": (1 << 70) | 5})],
            observed_outputs=["q"],
            reset_cycles=0,
        )
        monkeypatch.setenv("REPRO_SIM_BACKEND", "trace")
        report = run_testbench(module, module, testbench)
        assert report == run_on("interpreter", module, module, testbench)
        assert report.passed

    def test_strictness_propagates_through_run_testbenches(self, monkeypatch):
        """Batched jobs under REPRO_SIM_BACKEND=trace keep strict semantics."""
        module = parse_verilog(PASSTHROUGH)[0]
        monkeypatch.setenv("REPRO_SIM_BACKEND", "trace")
        with pytest.raises(SimulationError, match="behavioural references"):
            run_testbenches([(module, _behavioural_passthrough(), _tb([9]))])


class TestRetiredVectorBackend:
    def test_vector_environment_value_is_rejected(self, monkeypatch):
        """The settings table refuses the value; the simulator surfaces that
        message as the :class:`SimulationError` its callers handle."""
        module = parse_verilog(PASSTHROUGH)[0]
        monkeypatch.setenv("REPRO_SIM_BACKEND", "vector")
        message = "REPRO_SIM_BACKEND must be one of auto, trace, interpreter, got 'vector'"
        with pytest.raises(settings.SettingError, match=message):
            settings.read("REPRO_SIM_BACKEND")
        with pytest.raises(SimulationError, match=message):
            run_testbench(module, module, _tb([1]))
        with pytest.raises(SimulationError, match=message):
            run_testbenches([(module, module, _tb([1]))])

    def test_compile_vec_names_only_raise(self):
        from repro.verilog import compile_vec
        from repro.verilog.analysis import AnalysisError

        module = parse_verilog(PASSTHROUGH)[0]
        with pytest.raises(AnalysisError):
            compile_vec.compile_vec_kernel(module)
        with pytest.raises(AnalysisError):
            compile_vec.compile_vec_trace(module, None)


class TestRetiredTierKnob:
    @pytest.mark.parametrize("sim_backend", ["auto", "trace", "interpreter"])
    @pytest.mark.parametrize(
        "name", ["REPRO_TB_BACKEND", "REPRO_SIM_HEALTH_THRESHOLD", "REPRO_SIM_MAX_LANES"]
    )
    def test_leftover_tier_knob_fails_by_name(self, monkeypatch, sim_backend, name):
        """A deleted simulator knob fails every plan, not just the trace one."""
        module = parse_verilog(PASSTHROUGH)[0]
        monkeypatch.setenv("REPRO_SIM_BACKEND", sim_backend)
        monkeypatch.setenv(name, "3")
        monkeypatch.setattr(tb, "_leftovers_checked", False)  # a fresh process
        with pytest.raises(settings.SettingError, match=f"{name} must be unset"):
            run_testbench(module, module, _tb([1]))


class TestTraceCaches:
    @pytest.mark.cache_mutating
    def test_cache_registry_and_snapshot_cover_kernel_caches(self):
        module = parse_verilog(PASSTHROUGH)[0]
        run_on("trace", module, module, _tb([1]))
        stats = cache_stats()
        assert "sim_trace" in stats and "sim_kernel" in stats
        assert not any(name.startswith("sim_vec") for name in stats)
        loop = parse_verilog(LOOP)[0]
        loop_tb = Testbench(points=[FunctionalPoint(inputs={"a": 0})], reset_cycles=0)
        run_on("auto", loop, loop, loop_tb)
        before = cache_stats()["sim_kernel"]
        run_on("auto", loop, loop, loop_tb)  # negatively cached: no rebuild
        after = cache_stats()["sim_kernel"]
        assert after["misses"] == before["misses"] and after["hits"] == before["hits"] + 1
        assert get_kernel(loop) is None

        from repro.service import GenerationService

        snapshot = GenerationService().snapshot()
        assert "sim_trace" in snapshot.caches and "sim_kernel" in snapshot.caches
        clear_kernel_cache()
        cleared = cache_stats()
        for name in ("sim_kernel", "sim_trace"):
            assert (cleared[name]["hits"], cleared[name]["misses"], cleared[name]["size"]) == (0, 0, 0)


def test_toolchain_imports_leave_numpy_out():
    """The sweep runner and the service import no NumPy."""
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    script = (
        "import sys\n"
        "import repro.experiments.runner, repro.service\n"
        "print('numpy' in sys.modules)\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=env, check=True
    )
    assert out.stdout.strip() == "False"
