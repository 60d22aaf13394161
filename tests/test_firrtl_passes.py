"""Tests for the FIRRTL pass pipeline on hand-built and elaborated circuits."""

import json
import os
import subprocess
import sys

import pytest

from repro.chisel.elaborator import elaborate
from repro.chisel.parser import parse_source
from repro.diagnostics import DiagnosticList
from repro.firrtl import ir
from repro.firrtl.pass_manager import PassManager, run_default_pipeline
from repro.firrtl.passes import (
    CheckCombLoops,
    CheckInitialization,
    InferResets,
    InferWidths,
    LowerTypes,
)
from repro.firrtl.typing import SymbolTable, type_of, width_of

HEADER = "import chisel3._\nimport chisel3.util._\n\n"


def build_circuit(body: str, io_fields: str = "") -> ir.Circuit:
    source = HEADER + (
        "class TopModule extends Module {\n"
        "  val io = IO(new Bundle {\n"
        "    val in = Input(UInt(8.W))\n"
        "    val out = Output(UInt(8.W))\n"
        f"{io_fields}"
        "  })\n"
        f"{body}\n"
        "}\n"
    )
    return elaborate(parse_source(source))


LOOP_WIRES = "".join(f"  val {name} = Wire(UInt(8.W))\n" for name in "pqrxys")
#: A three-wire loop, a two-wire loop and a self-loop, disjoint.
LOOP_BODY = (
    "  p := q + io.in\n"
    "  q := r ^ io.in\n"
    "  r := p & q\n"
    "  x := y | io.in\n"
    "  y := x\n"
    "  s := s + 1.U\n"
)


def comb_loop_message(path: str) -> str:
    return (
        "Detected combinational cycle in a FIRRTL module TopModule. "
        f"Sample path: {{{path}}}. Break the loop by inserting a register "
        "or restructuring the logic"
    )


def comb_loop_messages(circuit: ir.Circuit) -> list[str]:
    result = run_default_pipeline(circuit)
    return [d.message for d in result.diagnostics.errors if d.code == "C2"]


class TestTyping:
    def test_widths_of_primitive_ops(self):
        circuit = build_circuit("  io.out := io.in + 1.U")
        module = circuit.main
        table = SymbolTable(module)
        connect = next(s for s in ir.walk_stmts(module.body) if isinstance(s, ir.Connect))
        tpe = type_of(connect.value, table)
        assert width_of(tpe) == 8  # wrapping add keeps max width

    def test_expanding_add_width(self):
        circuit = build_circuit("  io.out := (io.in +& io.in)(7, 0)")
        module = circuit.main
        table = SymbolTable(module)
        connect = next(s for s in ir.walk_stmts(module.body) if isinstance(s, ir.Connect))
        assert width_of(type_of(connect.value, table)) == 8

    def test_cat_width_is_sum(self):
        table = SymbolTable(ir.Module("m", [ir.Port("a", ir.INPUT, ir.UIntType(3)),
                                            ir.Port("b", ir.INPUT, ir.UIntType(5))]))
        expr = ir.DoPrim("cat", (ir.Reference("a"), ir.Reference("b")))
        assert width_of(type_of(expr, table)) == 8

    def test_comparison_width_is_one(self):
        table = SymbolTable(ir.Module("m", [ir.Port("a", ir.INPUT, ir.UIntType(9))]))
        expr = ir.DoPrim("lt", (ir.Reference("a"), ir.UIntLiteral(3, 9)))
        assert width_of(type_of(expr, table)) == 1


class TestLowerTypes:
    def test_vec_wire_flattened(self):
        circuit = build_circuit(
            "  val v = Wire(Vec(3, UInt(8.W)))\n"
            "  for (i <- 0 until 3) { v(i) := io.in }\n"
            "  io.out := v(1)"
        )
        diags = DiagnosticList()
        lowered = LowerTypes().run(circuit, diags)
        names = {s.name for s in ir.walk_stmts(lowered.main.body) if isinstance(s, ir.DefWire)}
        assert names == {"v_0", "v_1", "v_2"}
        assert not diags.has_errors

    def test_vec_port_flattened(self):
        circuit = build_circuit(
            "  io.out := io.vecIn(0).asUInt",
            io_fields="    val vecIn = Input(Vec(4, Bool()))\n",
        )
        lowered = LowerTypes().run(circuit, DiagnosticList())
        port_names = {p.name for p in lowered.main.ports}
        assert {"io_vecIn_0", "io_vecIn_1", "io_vecIn_2", "io_vecIn_3"} <= port_names

    def test_dynamic_read_becomes_mux_chain(self):
        circuit = build_circuit(
            "  val v = Wire(Vec(4, UInt(8.W)))\n"
            "  for (i <- 0 until 4) { v(i) := i.U }\n"
            "  io.out := v(io.in(1, 0))"
        )
        lowered = LowerTypes().run(circuit, DiagnosticList())
        connects = [
            s for s in ir.walk_stmts(lowered.main.body)
            if isinstance(s, ir.Connect) and ir.root_reference(s.target).name == "io_out"
        ]
        assert len(connects) == 1
        assert isinstance(connects[0].value, ir.Mux)

    def test_dynamic_write_becomes_conditional_writes(self):
        circuit = build_circuit(
            "  val v = Wire(Vec(4, UInt(8.W)))\n"
            "  for (i <- 0 until 4) { v(i) := 0.U }\n"
            "  v(io.in(1, 0)) := io.in\n"
            "  io.out := v(0)"
        )
        lowered = LowerTypes().run(circuit, DiagnosticList())
        conditionals = [
            s for s in ir.walk_stmts(lowered.main.body) if isinstance(s, ir.Conditionally)
        ]
        assert len(conditionals) == 4

    def test_bundle_wire_flattened(self):
        source = HEADER + (
            "class MyBundle extends Bundle { val a = UInt(4.W)\n val b = Bool() }\n"
            "class TopModule extends Module {\n"
            "  val io = IO(new Bundle {\n"
            "    val in = Input(UInt(4.W))\n"
            "    val out = Output(UInt(4.W))\n"
            "  })\n"
            "  val w = Wire(new MyBundle)\n"
            "  w.a := io.in\n"
            "  w.b := io.in(0)\n"
            "  io.out := w.a\n"
            "}\n"
        )
        circuit = elaborate(parse_source(source))
        lowered = LowerTypes().run(circuit, DiagnosticList())
        names = {s.name for s in ir.walk_stmts(lowered.main.body) if isinstance(s, ir.DefWire)}
        assert names == {"w_a", "w_b"}


class TestInferWidths:
    def test_unsized_wire_gets_width_from_driver(self):
        circuit = build_circuit("  val w = Wire(UInt())\n  w := io.in\n  io.out := w")
        result = PassManager([InferResets(), LowerTypes(), InferWidths()]).run(circuit)
        assert result.ok
        wire = next(s for s in ir.walk_stmts(result.circuit.main.body) if isinstance(s, ir.DefWire))
        assert wire.type.width == 8

    def test_reginit_literal_width_inferred(self):
        circuit = build_circuit("  val r = RegInit(0.U)\n  r := io.in\n  io.out := r")
        result = PassManager([InferResets(), LowerTypes(), InferWidths()]).run(circuit)
        reg = next(s for s in ir.walk_stmts(result.circuit.main.body) if isinstance(s, ir.DefRegister))
        assert reg.type.width == 8

    def test_never_driven_unsized_wire_is_reported(self):
        circuit = build_circuit("  val w = Wire(UInt())\n  io.out := io.in")
        result = PassManager([InferResets(), LowerTypes(), InferWidths()]).run(circuit)
        assert not result.ok
        assert any(d.code == "WIDTH" for d in result.diagnostics.errors)


class TestChecks:
    def test_abstract_reset_port_reported(self):
        circuit = build_circuit(
            "  io.out := io.in", io_fields="    val rst = Input(Reset())\n"
        )
        diags = DiagnosticList()
        InferResets().run(circuit, diags)
        assert any(d.code == "B1" for d in diags.errors)

    def test_partial_initialization_detected(self):
        circuit = build_circuit(
            "  val w = Wire(UInt(8.W))\n"
            "  when (io.in(0)) { w := io.in }\n"
            "  io.out := w"
        )
        result = run_default_pipeline(circuit)
        assert not result.ok
        assert any(d.code == "B3" for d in result.diagnostics.errors)

    def test_wiredefault_is_considered_initialized(self):
        circuit = build_circuit(
            "  val w = WireDefault(0.U(8.W))\n"
            "  when (io.in(0)) { w := io.in }\n"
            "  io.out := w"
        )
        result = run_default_pipeline(circuit)
        assert result.ok

    def test_register_without_otherwise_is_fine(self):
        circuit = build_circuit(
            "  val r = RegInit(0.U(8.W))\n"
            "  when (io.in(0)) { r := io.in }\n"
            "  io.out := r"
        )
        result = run_default_pipeline(circuit)
        assert result.ok

    def test_comb_loop_detected_with_sample_path(self):
        circuit = build_circuit("  val a = Wire(UInt(8.W))\n  a := a + 1.U\n  io.out := a")
        result = run_default_pipeline(circuit)
        assert not result.ok
        error = next(d for d in result.diagnostics.errors if d.code == "C2")
        assert "Sample path" in error.message

    def test_register_breaks_comb_loop(self):
        circuit = build_circuit(
            "  val r = RegInit(0.U(8.W))\n  r := r + 1.U\n  io.out := r"
        )
        result = run_default_pipeline(circuit)
        assert result.ok

    def test_two_wire_cycle_detected(self):
        circuit = build_circuit(
            "  val a = Wire(UInt(8.W))\n"
            "  val b = Wire(UInt(8.W))\n"
            "  a := b\n"
            "  b := a\n"
            "  io.out := a"
        )
        result = run_default_pipeline(circuit)
        assert any(d.code == "C2" for d in result.diagnostics.errors)

    def test_disjoint_loops_and_a_self_loop_are_each_reported(self):
        circuit = build_circuit(LOOP_WIRES + LOOP_BODY + "  io.out := p + x + s")
        assert comb_loop_messages(circuit) == [
            comb_loop_message("p <- q <- r <- p"),
            comb_loop_message("x <- y <- x"),
            comb_loop_message("s <- s"),
        ]

    def test_loop_report_order_does_not_depend_on_string_hashing(self):
        # The first sink reads all three loops, so the order in which its
        # sources enter the graph decides which loop is found first.
        body = LOOP_WIRES + "  io.out := p + x + s\n" + LOOP_BODY
        expected = [
            comb_loop_message("p <- q <- r <- p"),
            comb_loop_message("s <- s"),
            comb_loop_message("x <- y <- x"),
        ]
        assert comb_loop_messages(build_circuit(body)) == expected
        probe = (
            "import json, sys\n"
            "from test_firrtl_passes import build_circuit, comb_loop_messages\n"
            "print(json.dumps(comb_loop_messages(build_circuit(sys.argv[1]))))\n"
        )
        tests_dir = os.path.dirname(os.path.abspath(__file__))
        src = os.path.join(tests_dir, os.pardir, "src")
        for seed in ("0", "1"):
            env = {**os.environ, "PYTHONHASHSEED": seed,
                   "PYTHONPATH": os.pathsep.join([src, tests_dir])}
            out = subprocess.run(
                [sys.executable, "-c", probe, body],
                capture_output=True, text=True, check=True, env=env,
            ).stdout
            assert json.loads(out) == expected, seed

    def test_pipeline_stops_after_first_failing_pass(self):
        circuit = build_circuit(
            "  io.out := io.in", io_fields="    val rst = Input(Reset())\n"
        )
        result = run_default_pipeline(circuit)
        codes = {d.code for d in result.diagnostics.errors}
        assert codes == {"B1"}
