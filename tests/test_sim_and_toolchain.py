"""Tests for the testbench harness and the toolchain facades."""

import pytest

from repro.problems.families.combinational import adder, mux2
from repro.problems.families.sequential import counter
from repro.sim.reference import BehavioralDevice
from repro.sim.testbench import FunctionalPoint, Testbench, run_testbench
from repro.toolchain.compiler import ChiselCompiler
from repro.toolchain.simulator import Simulator
from repro.verilog.parser import VerilogParseError, parse_verilog

COMPILER = ChiselCompiler(top="TopModule")
SIMULATOR = Simulator(top="TopModule")


def golden_verilog(problem):
    result = COMPILER.compile(problem.golden_chisel)
    assert result.success, result.render_feedback()
    return result.verilog


class TestTestbenchHarness:
    def test_identical_modules_pass(self):
        problem = mux2(8, "verilogeval_s2r")
        verilog = golden_verilog(problem)
        report = run_testbench(
            parse_verilog(verilog)[0], parse_verilog(verilog)[0], problem.build_testbench()
        )
        assert report.passed
        assert report.checked_points > 0

    def test_mismatching_dut_reports_failures(self):
        problem = mux2(8, "verilogeval_s2r")
        fault = problem.functional_faults[0]
        broken = COMPILER.compile(fault.apply(problem.golden_chisel)).verilog
        report = run_testbench(
            parse_verilog(broken)[0],
            parse_verilog(golden_verilog(problem))[0],
            problem.build_testbench(),
        )
        assert not report.passed
        assert report.failed_points > 0
        mismatch = report.mismatches[0]
        assert mismatch.signal == "io_out"
        assert "expected" in mismatch.render()

    def test_missing_port_is_a_runtime_error(self):
        problem = mux2(8, "verilogeval_s2r")
        wrong_io = """
        module TopModule(input [7:0] io_x, output [7:0] io_out);
          assign io_out = io_x;
        endmodule
        """
        report = run_testbench(
            parse_verilog(wrong_io)[0],
            parse_verilog(golden_verilog(problem))[0],
            problem.build_testbench(),
        )
        assert not report.passed
        assert report.runtime_error is not None

    def test_behavioral_reference_matches_golden_counter(self):
        problem = counter(4, "hdlbits")
        verilog = golden_verilog(problem)

        def step(inputs, state):
            if inputs.get("io_en", 0):
                state["count"] = (state.get("count", 0) + 1) % 16

        reference = BehavioralDevice(
            output_widths={"io_count": 4},
            combinational=lambda inputs, state: {"io_count": state.get("count", 0)},
            sequential=step,
            reset_state=lambda: {"count": 0},
        )
        report = run_testbench(parse_verilog(verilog)[0], reference, problem.build_testbench(seed=5))
        assert report.passed, report.render()

    def test_behavioral_reference_matches_golden_adder(self):
        problem = adder(8, "verilogeval_s2r")
        verilog = golden_verilog(problem)
        reference = BehavioralDevice(
            output_widths={"io_sum": 8, "io_cout": 1},
            combinational=lambda inputs, state: {
                "io_sum": inputs["io_a"] + inputs["io_b"] + inputs["io_cin"],
                "io_cout": (inputs["io_a"] + inputs["io_b"] + inputs["io_cin"]) >> 8,
            },
        )
        report = run_testbench(parse_verilog(verilog)[0], reference, problem.build_testbench(seed=3))
        assert report.passed, report.render()

    def test_unchecked_points_are_not_compared(self):
        testbench = Testbench(points=[FunctionalPoint({"io_a": 1}, check=False)], reset_cycles=0)
        problem = mux2(8, "verilogeval_s2r")
        verilog = golden_verilog(problem)
        report = run_testbench(parse_verilog(verilog)[0], parse_verilog(verilog)[0], testbench)
        assert report.checked_points == 0


class TestCompilerFacade:
    def test_successful_compile_produces_verilog(self):
        problem = mux2(4, "verilogeval_s2r")
        result = COMPILER.compile(problem.golden_chisel)
        assert result.success
        assert "module TopModule" in result.verilog
        assert result.stage == "ok"

    def test_parse_failure_reports_parse_stage(self):
        result = COMPILER.compile("class TopModule extends Module { val x = ( }")
        assert not result.success
        assert result.stage == "parse"

    def test_elaboration_failure_reports_stage(self):
        result = COMPILER.compile(
            "import chisel3._\nclass TopModule extends Module {\n"
            "  val io = IO(new Bundle { val out = Output(UInt(4.W)) })\n"
            "  io.out := missing\n}"
        )
        assert result.stage == "elaborate"

    def test_firrtl_failure_reports_stage(self):
        result = COMPILER.compile(
            "import chisel3._\nclass TopModule extends Module {\n"
            "  val io = IO(new Bundle { val out = Output(UInt(4.W)) })\n"
            "  val w = Wire(UInt(4.W))\n"
            "  when (w(0)) { w := 1.U }\n"
            "  io.out := w\n}"
        )
        assert result.stage == "firrtl"

    def test_feedback_ends_with_compilation_failed(self):
        result = COMPILER.compile("class TopModule extends Module { val x = ( }")
        assert result.render_feedback().endswith("Compilation failed")


class TestSimulatorFacade:
    def test_simulate_golden_against_itself(self):
        problem = mux2(4, "verilogeval_s2r")
        verilog = golden_verilog(problem)
        outcome = SIMULATOR.simulate(verilog, verilog, problem.build_testbench())
        assert outcome.success

    def test_unparseable_dut_is_reported(self):
        problem = mux2(4, "verilogeval_s2r")
        outcome = SIMULATOR.simulate("module broken(", golden_verilog(problem), problem.build_testbench())
        assert not outcome.success
        assert "could not be parsed" in outcome.render_feedback()

    def test_functional_mismatch_is_reported(self):
        problem = mux2(4, "verilogeval_s2r")
        fault = problem.functional_faults[0]
        broken = COMPILER.compile(fault.apply(problem.golden_chisel)).verilog
        outcome = SIMULATOR.simulate(broken, golden_verilog(problem), problem.build_testbench())
        assert not outcome.success
        assert "functional point" in outcome.render_feedback()


class TestVerilogParseCache:
    BROKEN = "module broken(input wire a;\nendmodule\n"

    def test_parse_failures_are_cached(self, monkeypatch):
        from repro.toolchain import simulator

        calls = []

        def counting_parse(source):
            calls.append(source)
            return parse_verilog(source)

        monkeypatch.setattr(simulator, "parse_verilog", counting_parse)
        source = self.BROKEN + "// cache probe\n"
        for _ in range(2):
            with pytest.raises(VerilogParseError):
                simulator.parse_verilog_cached(source)
        assert calls == [source]

    def test_baseline_syntax_checks_match_the_uncached_parser(self):
        from repro.baselines.autochip import _parse_error
        from repro.baselines.zero_shot import _parses

        with pytest.raises(VerilogParseError) as direct:
            parse_verilog(self.BROKEN)
        # Twice: the miss and the cached replay must both read the same.
        for _ in range(2):
            assert _parse_error(self.BROKEN) == str(direct.value)
            assert not _parses(self.BROKEN)
        good = golden_verilog(mux2(4, "verilogeval_s2r"))
        assert _parse_error(good) is None and _parses(good)


def _simulate_many_items():
    """A batch mixing passing, failing, unparseable and behavioural items."""
    mux = mux2(4, "verilogeval_s2r")
    mux_golden = golden_verilog(mux)
    mux_broken = COMPILER.compile(mux.functional_faults[0].apply(mux.golden_chisel)).verilog
    count = counter(4, "hdlbits")
    count_golden = golden_verilog(count)
    add = adder(8, "verilogeval_s2r")
    adder_model = BehavioralDevice(
        output_widths={"io_sum": 8, "io_cout": 1},
        combinational=lambda inputs, state: {
            "io_sum": inputs["io_a"] + inputs["io_b"] + inputs["io_cin"],
            "io_cout": (inputs["io_a"] + inputs["io_b"] + inputs["io_cin"]) >> 8,
        },
    )
    return [
        (mux_golden, mux_golden, mux.build_testbench()),
        (mux_broken, mux_golden, mux.build_testbench()),
        ("module broken(", mux_golden, mux.build_testbench()),
        (count_golden, count_golden, count.build_testbench(seed=5)),
        (golden_verilog(add), adder_model, add.build_testbench(seed=3)),
        (mux_golden, "module broken(", mux.build_testbench()),
        ("// no module here\n", mux_golden, mux.build_testbench()),
        (mux_broken, parse_verilog(mux_golden)[-1], mux.build_testbench()),
    ]


class TestSimulateMany:
    """Outcome ``i`` of ``simulate_many`` equals ``simulate(*items[i])``."""

    def test_empty_batch(self):
        assert SIMULATOR.simulate_many([]) == []

    def test_mixed_batch_equals_per_item_simulate(self):
        items = _simulate_many_items()
        expected = [SIMULATOR.simulate(*item) for item in items]
        assert SIMULATOR.simulate_many(items) == expected
        assert [outcome.success for outcome in expected] == [
            True, False, False, True, True, False, False, False
        ]

    def test_errors_stay_in_their_own_slot(self):
        outcomes = SIMULATOR.simulate_many(_simulate_many_items())
        assert [outcome.error is not None for outcome in outcomes] == [
            False, False, True, False, False, True, True, False
        ]
        assert "DUT Verilog could not be parsed" in outcomes[2].error
        assert "reference Verilog could not be parsed" in outcomes[5].error
        assert outcomes[6].error == "no Verilog module definitions found"
        assert all(outcomes[i].report is not None for i in (0, 1, 3, 4, 7))

    def test_one_item_batches_equal_the_whole_batch(self):
        items = _simulate_many_items()
        whole = SIMULATOR.simulate_many(items)
        assert [SIMULATOR.simulate_many([item])[0] for item in items] == whole

    @pytest.mark.parametrize("tb_backend", ["trace", "stepwise"])
    def test_env_forced_backend_equals_per_item_simulate(self, monkeypatch, tb_backend):
        mux = mux2(4, "verilogeval_s2r")
        golden = golden_verilog(mux)
        broken = COMPILER.compile(mux.functional_faults[0].apply(mux.golden_chisel)).verilog
        items = [(golden, golden, mux.build_testbench()), (broken, golden, mux.build_testbench())]
        monkeypatch.setenv("REPRO_TB_BACKEND", tb_backend)
        expected = [SIMULATOR.simulate(*item) for item in items]
        assert SIMULATOR.simulate_many(items) == expected
        assert [outcome.success for outcome in expected] == [True, False]

    def test_top_picks_the_named_module_in_every_item(self):
        problem = mux2(4, "verilogeval_s2r")
        golden = golden_verilog(problem)
        decoy = "module Decoy(input a, output b);\n  assign b = a;\nendmodule\n"
        items = [(golden + decoy, golden, problem.build_testbench())]
        assert SIMULATOR.simulate_many(items)[0].success
        # Without a top the last module is taken, and the decoy has no io ports.
        assert not Simulator().simulate_many(items)[0].success

    def test_simulate_request_run_equals_simulate(self):
        from repro.toolchain.simulator import SimulateRequest

        for item in _simulate_many_items():
            assert SimulateRequest(SIMULATOR, *item).run() == SIMULATOR.simulate(*item)

    def test_service_batcher_groups_requests_by_simulator(self):
        from repro.service.service import _SimulationBatcher
        from repro.toolchain.simulator import SimulateRequest

        items = _simulate_many_items()
        untopped = Simulator()
        requests = [
            SimulateRequest(SIMULATOR if index % 2 else untopped, *item)
            for index, item in enumerate(items)
        ]
        assert _SimulationBatcher._execute(requests) == [request.run() for request in requests]
