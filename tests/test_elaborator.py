"""Tests for Chisel elaboration: structure of the produced FIRRTL."""

import pytest

from repro.chisel.elaborator import elaborate
from repro.chisel.parser import parse_source
from repro.diagnostics import ChiselError
from repro.firrtl import ir

HEADER = "import chisel3._\nimport chisel3.util._\n\n"


def elaborate_source(body: str, io_fields: str = "") -> ir.Module:
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
    circuit = elaborate(parse_source(source))
    return circuit.main


class TestPortsAndImplicits:
    def test_implicit_clock_and_reset_ports(self):
        module = elaborate_source("  io.out := io.in")
        names = [p.name for p in module.ports]
        assert names[:2] == ["clock", "reset"]

    def test_io_bundle_flattened_to_ports(self):
        module = elaborate_source("  io.out := io.in")
        names = {p.name for p in module.ports}
        assert {"io_in", "io_out"} <= names
        assert module.port_named("io_in").direction == ir.INPUT
        assert module.port_named("io_out").direction == ir.OUTPUT

    def test_vec_io_field_becomes_vector_port(self):
        module = elaborate_source(
            "  io.out := 0.U",
            io_fields="    val vecIn = Input(Vec(4, Bool()))\n",
        )
        port = module.port_named("io_vecIn")
        assert isinstance(port.type, ir.VectorType)
        assert port.type.size == 4

    def test_unknown_module_name_errors(self):
        program = parse_source(HEADER + "class Foo extends Module { }")
        with pytest.raises(ChiselError):
            elaborate(program, top="Bar")


class TestHardwareConstruction:
    def test_wire_and_connect(self):
        module = elaborate_source("  val w = Wire(UInt(8.W))\n  w := io.in\n  io.out := w")
        wires = [s for s in ir.walk_stmts(module.body) if isinstance(s, ir.DefWire)]
        assert [w.name for w in wires] == ["w"]

    def test_wiredefault_marks_default(self):
        module = elaborate_source("  val w = WireDefault(0.U(8.W))\n  io.out := w")
        wire = next(s for s in ir.walk_stmts(module.body) if isinstance(s, ir.DefWire))
        assert wire.has_default

    def test_reginit_uses_implicit_clock_and_reset(self):
        module = elaborate_source("  val r = RegInit(0.U(8.W))\n  r := io.in\n  io.out := r")
        reg = next(s for s in ir.walk_stmts(module.body) if isinstance(s, ir.DefRegister))
        assert reg.reset is not None
        assert reg.init is not None
        assert isinstance(reg.clock, ir.Reference)
        assert reg.clock.name == "clock"

    def test_regnext_emits_register_and_connect(self):
        module = elaborate_source("  val r = RegNext(io.in)\n  io.out := r")
        regs = [s for s in ir.walk_stmts(module.body) if isinstance(s, ir.DefRegister)]
        assert len(regs) == 1
        connects = [s for s in ir.walk_stmts(module.body) if isinstance(s, ir.Connect)]
        assert any(ir.root_reference(c.target).name == "r" for c in connects)

    def test_when_produces_conditionally(self):
        module = elaborate_source(
            "  val r = RegInit(0.U(8.W))\n"
            "  when (io.in(0)) { r := io.in } .otherwise { r := 0.U }\n"
            "  io.out := r"
        )
        conditionals = [s for s in ir.walk_stmts(module.body) if isinstance(s, ir.Conditionally)]
        assert len(conditionals) == 1
        assert len(conditionals[0].conseq) == 1
        assert len(conditionals[0].alt) == 1

    def test_switch_desugars_to_nested_whens(self):
        module = elaborate_source(
            "  val result = WireDefault(0.U(8.W))\n"
            "  switch (io.in) {\n"
            "    is (0.U) { result := 1.U }\n"
            "    is (1.U) { result := 2.U }\n"
            "  }\n"
            "  io.out := result"
        )
        conditionals = [s for s in ir.walk_stmts(module.body) if isinstance(s, ir.Conditionally)]
        assert len(conditionals) == 2

    def test_for_loop_unrolls(self):
        module = elaborate_source(
            "  val v = Wire(Vec(4, UInt(8.W)))\n"
            "  for (i <- 0 until 4) { v(i) := io.in }\n"
            "  io.out := v(0)"
        )
        connects = [s for s in ir.walk_stmts(module.body) if isinstance(s, ir.Connect)]
        vec_connects = [c for c in connects if isinstance(c.target, ir.SubIndex)]
        assert len(vec_connects) == 4

    def test_scala_if_resolved_at_elaboration(self):
        module = elaborate_source(
            "  val n = 4\n"
            "  if (n > 2) { io.out := io.in } else { io.out := 0.U }"
        )
        conditionals = [s for s in ir.walk_stmts(module.body) if isinstance(s, ir.Conditionally)]
        assert not conditionals  # the Scala if does not create hardware muxing

    def test_named_expression_becomes_node(self):
        module = elaborate_source("  val total = io.in + 1.U\n  io.out := total")
        nodes = [s for s in ir.walk_stmts(module.body) if isinstance(s, ir.DefNode)]
        assert [n.name for n in nodes] == ["total"]

    def test_vecinit_creates_initialised_vector(self):
        module = elaborate_source(
            "  val v = VecInit(io.in(0), io.in(1), io.in(2))\n  io.out := v.asUInt"
        )
        wire = next(s for s in ir.walk_stmts(module.body) if isinstance(s, ir.DefWire))
        assert isinstance(wire.type, ir.VectorType)
        assert wire.type.size == 3

    def test_dontcare_produces_invalidate(self):
        module = elaborate_source("  io.out := DontCare")
        invalidates = [s for s in ir.walk_stmts(module.body) if isinstance(s, ir.Invalidate)]
        assert len(invalidates) == 1

    def test_name_collision_gets_suffix(self):
        module = elaborate_source(
            "  val w = Wire(UInt(8.W))\n"
            "  w := io.in\n"
            "  io.out := w"
        )
        # The io port already reserved io_* names; the wire keeps its own name.
        wire = next(s for s in ir.walk_stmts(module.body) if isinstance(s, ir.DefWire))
        assert wire.name == "w"


class TestScalaSemantics:
    def test_var_reassignment_in_loop(self):
        module = elaborate_source(
            "  var idx = 0\n"
            "  val v = Wire(Vec(4, Bool()))\n"
            "  for (i <- 0 until 4) {\n"
            "    v(idx) := io.in(i)\n"
            "    idx += 1\n"
            "  }\n"
            "  io.out := v.asUInt"
        )
        connects = [
            s
            for s in ir.walk_stmts(module.body)
            if isinstance(s, ir.Connect) and isinstance(s.target, ir.SubIndex)
        ]
        assert sorted(c.target.index for c in connects) == [0, 1, 2, 3]

    def test_seq_map_reduce(self):
        module = elaborate_source(
            "  val bits = Seq(io.in(0), io.in(1), io.in(2))\n"
            "  io.out := bits.map(_.asUInt).reduce(_ +& _)"
        )
        assert module.port_named("io_out") is not None

    def test_log2ceil(self):
        module = elaborate_source(
            "  val width = log2Ceil(16)\n  io.out := io.in(width - 1, 0)"
        )
        assert module is not None

    def test_class_parameter_default_used(self):
        source = HEADER + (
            "class TopModule(val width: Int = 8) extends Module {\n"
            "  val io = IO(new Bundle {\n"
            "    val in = Input(UInt(width.W))\n"
            "    val out = Output(UInt(width.W))\n"
            "  })\n"
            "  io.out := io.in\n"
            "}\n"
        )
        module = elaborate(parse_source(source)).main
        port = module.port_named("io_in")
        assert isinstance(port.type, ir.UIntType)
        assert port.type.width == 8

    def test_user_bundle_class_as_wire(self):
        source = HEADER + (
            "class MyBundle extends Bundle {\n"
            "  val a = UInt(4.W)\n"
            "  val b = Bool()\n"
            "}\n"
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
        module = elaborate(parse_source(source)).main
        wire = next(s for s in ir.walk_stmts(module.body) if isinstance(s, ir.DefWire))
        assert isinstance(wire.type, ir.BundleType)
