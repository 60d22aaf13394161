"""Tests for Verilog emission, parsing and simulation."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.chisel.elaborator import elaborate
from repro.chisel.parser import parse_source
from repro.firrtl.pass_manager import run_default_pipeline
from repro.sim.testbench import FunctionalPoint, Testbench
from repro.verilog.emitter import emit_verilog
from repro.verilog.parser import VerilogParseError, parse_verilog
from repro.verilog.simulator import Simulation, SimulationError
from sim_tiers import run_on

HEADER = "import chisel3._\nimport chisel3.util._\n\n"


def chisel_to_verilog(body: str, io_fields: str) -> str:
    source = HEADER + (
        "class TopModule extends Module {\n"
        "  val io = IO(new Bundle {\n"
        f"{io_fields}"
        "  })\n"
        f"{body}\n"
        "}\n"
    )
    result = run_default_pipeline(elaborate(parse_source(source)))
    assert not result.diagnostics.has_errors, result.diagnostics.render()
    return emit_verilog(result.circuit)


ADDER_VERILOG = chisel_to_verilog(
    "  io.sum := io.a +& io.b",
    "    val a = Input(UInt(8.W))\n    val b = Input(UInt(8.W))\n    val sum = Output(UInt(9.W))\n",
)


class TestEmitter:
    def test_module_header_and_ports(self):
        assert "module TopModule(" in ADDER_VERILOG
        assert "input [7:0] io_a" in ADDER_VERILOG
        assert "output [8:0] io_sum" in ADDER_VERILOG
        assert ADDER_VERILOG.rstrip().endswith("endmodule")

    def test_register_emits_clocked_always_block(self):
        verilog = chisel_to_verilog(
            "  val r = RegInit(0.U(4.W))\n  r := io.d\n  io.q := r",
            "    val d = Input(UInt(4.W))\n    val q = Output(UInt(4.W))\n",
        )
        assert "always @(posedge clock)" in verilog
        assert "if (reset)" in verilog
        assert "r <=" in verilog

    def test_conditional_drive_becomes_ternary(self):
        verilog = chisel_to_verilog(
            "  val w = WireDefault(0.U(4.W))\n  when (io.sel) { w := io.d }\n  io.q := w",
            "    val d = Input(UInt(4.W))\n    val sel = Input(Bool())\n    val q = Output(UInt(4.W))\n",
        )
        assert "?" in verilog

    def test_emitted_verilog_reparses(self):
        modules = parse_verilog(ADDER_VERILOG)
        assert modules[0].name == "TopModule"
        assert len(modules[0].inputs()) == 4  # clock, reset, a, b


class TestVerilogParser:
    def test_parse_handwritten_module(self):
        source = """
        module ref(input clk, input [3:0] a, output reg [3:0] q);
          wire [3:0] next;
          assign next = a + 4'd1;
          always @(posedge clk) begin
            q <= next;
          end
        endmodule
        """
        module = parse_verilog(source)[0]
        assert module.name == "ref"
        assert module.port_named("q").kind == "reg"
        assert len(module.always_blocks) == 1

    def test_parse_case_statement(self):
        source = """
        module dec(input [1:0] sel, output reg [3:0] out);
          always @(*) begin
            case (sel)
              2'd0: out = 4'b0001;
              2'd1: out = 4'b0010;
              default: out = 4'b0000;
            endcase
          end
        endmodule
        """
        module = parse_verilog(source)[0]
        assert module.always_blocks[0].is_combinational

    def test_parse_error_for_unsupported_construct(self):
        with pytest.raises(VerilogParseError):
            parse_verilog("module m(input a); initial begin end endmodule")

    def test_parse_error_reports_line(self):
        try:
            parse_verilog("module m(input a)\n  wire b;\nendmodule")
        except VerilogParseError as exc:
            assert exc.line >= 1
        else:
            pytest.fail("expected a parse error for the missing ';'")

    def test_parameters_are_resolved_in_ranges(self):
        source = """
        module p;
          localparam W = 4;
          wire [W-1:0] data;
          assign data = 4'd3;
        endmodule
        """
        module = parse_verilog(source)[0]
        assert module.nets[0].width == 4

    def test_concatenation_and_replication(self):
        source = "module c(input [1:0] a, output [5:0] y); assign y = {a, {2{a}}}; endmodule"
        module = parse_verilog(source)[0]
        assert module.assigns

    def test_case_equality_operators_are_single_tokens(self):
        module = parse_verilog(CASE_EQUALITY.format(eq="===", ne="!=="))[0]
        assert [assign.value.op for assign in module.assigns] == ["===", "!=="]

    @pytest.mark.parametrize(
        "source, line",
        [
            ("module m;\n/* one\n two */ `x\nendmodule", 3),
            ("module m;\n  wire a; // note\n\n  @", 4),
            ("module m;\n  wire a;\n/* never closed\n", 3),
            ("module m;\n  wire a;\n\n// trailing\n  ", 5),
        ],
    )
    def test_errors_count_lines_across_comments_and_blanks(self, source, line):
        with pytest.raises(VerilogParseError) as info:
            parse_verilog(source)
        assert info.value.line == line


CASE_EQUALITY = """module m(input [3:0] a, input [3:0] b, output eq, output ne);
  assign eq = a {eq} b;
  assign ne = a {ne} b;
endmodule
"""


@pytest.mark.parametrize("backend", ["trace", "interpreter"])
def test_case_equality_simulates_like_two_state_equality(backend):
    """``===``/``!==`` answer as ``==``/``!=`` under either testbench tier."""
    case = parse_verilog(CASE_EQUALITY.format(eq="===", ne="!=="))[0]
    plain = parse_verilog(CASE_EQUALITY.format(eq="==", ne="!="))[0]
    swapped = parse_verilog(CASE_EQUALITY.format(eq="!=", ne="=="))[0]
    points = [FunctionalPoint(inputs={"a": a, "b": b}) for a in (0, 5, 15) for b in (0, 5, 15)]
    testbench = Testbench(points=points, observed_outputs=["eq", "ne"], reset_cycles=0)
    assert run_on(backend, case, plain, testbench).passed
    # Against the negation every point fails: the operators were evaluated.
    report = run_on(backend, case, swapped, testbench)
    assert report.failed_points == report.checked_points == len(points)


class TestSimulator:
    def test_combinational_adder(self):
        sim = Simulation(parse_verilog(ADDER_VERILOG)[0])
        sim.poke_many({"io_a": 200, "io_b": 100})
        assert sim.peek("io_sum") == 300

    def test_register_updates_on_clock_edge(self):
        verilog = chisel_to_verilog(
            "  val r = RegInit(0.U(4.W))\n  r := io.d\n  io.q := r",
            "    val d = Input(UInt(4.W))\n    val q = Output(UInt(4.W))\n",
        )
        sim = Simulation(parse_verilog(verilog)[0])
        sim.poke_many({"io_d": 9, "reset": 0})
        assert sim.peek("io_q") == 0
        sim.step("clock")
        assert sim.peek("io_q") == 9

    def test_synchronous_reset(self):
        verilog = chisel_to_verilog(
            "  val r = RegInit(3.U(4.W))\n  r := io.d\n  io.q := r",
            "    val d = Input(UInt(4.W))\n    val q = Output(UInt(4.W))\n",
        )
        sim = Simulation(parse_verilog(verilog)[0])
        sim.poke_many({"io_d": 9, "reset": 1})
        sim.step("clock")
        assert sim.peek("io_q") == 3

    def test_unknown_signal_raises(self):
        sim = Simulation(parse_verilog(ADDER_VERILOG)[0])
        with pytest.raises(SimulationError):
            sim.peek("nonexistent")

    def test_comb_always_block(self):
        source = """
        module m(input [3:0] a, input [3:0] b, output reg [3:0] y);
          always @(*) begin
            if (a > b) y = a;
            else y = b;
          end
        endmodule
        """
        sim = Simulation(parse_verilog(source)[0])
        sim.poke_many({"a": 3, "b": 9})
        assert sim.peek("y") == 9
        sim.poke_many({"a": 12, "b": 9})
        assert sim.peek("y") == 12

    def test_case_statement_simulation(self):
        source = """
        module dec(input [1:0] sel, output reg [3:0] out);
          always @(*) begin
            case (sel)
              2'd0: out = 4'b0001;
              2'd1: out = 4'b0010;
              2'd2: out = 4'b0100;
              default: out = 4'b1000;
            endcase
          end
        endmodule
        """
        sim = Simulation(parse_verilog(source)[0])
        for sel, expected in [(0, 1), (1, 2), (2, 4), (3, 8)]:
            sim.poke("sel", sel)
            assert sim.peek("out") == expected

    def test_signed_comparison(self):
        source = """
        module s(input signed [3:0] a, input signed [3:0] b, output lt);
          assign lt = a < b;
        endmodule
        """
        sim = Simulation(parse_verilog(source)[0])
        sim.poke_many({"a": 0xF, "b": 1})  # a = -1 signed
        assert sim.peek("lt") == 1

    def test_assignment_context_preserves_carry(self):
        source = """
        module w(input [7:0] a, input [7:0] b, output [15:0] p);
          assign p = a * b;
        endmodule
        """
        sim = Simulation(parse_verilog(source)[0])
        sim.poke_many({"a": 200, "b": 100})
        assert sim.peek("p") == 20000

    @settings(max_examples=30, deadline=None)
    @given(
        st.integers(min_value=0, max_value=255),
        st.integers(min_value=0, max_value=255),
        st.integers(min_value=0, max_value=1),
    )
    def test_adder_matches_python_model(self, a, b, cin):
        source = """
        module add(input [7:0] a, input [7:0] b, input cin, output [7:0] sum, output cout);
          wire [8:0] total;
          assign total = a + b + cin;
          assign sum = total[7:0];
          assign cout = total[8];
        endmodule
        """
        sim = Simulation(parse_verilog(source)[0])
        sim.poke_many({"a": a, "b": b, "cin": cin})
        total = a + b + cin
        assert sim.peek("sum") == total & 0xFF
        assert sim.peek("cout") == (total >> 8) & 1
