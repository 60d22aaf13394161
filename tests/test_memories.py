"""Memories end-to-end: ``Mem``/``SyncReadMem`` through every backend.

Covers the full pipeline added for the memory language surface — frontend
elaboration and diagnostics, Verilog emission and re-parse of memory arrays,
bit-identical semantics across the interpreter and the trace kernels
(including the batched ``run_testbenches`` path and warm/cold caches),
read-during-write pinning for ``SyncReadMem``, the 63/64/65-bit width
seams, and the ``memory`` problem family riding the standard sweep path.
"""

from __future__ import annotations

import pytest

from repro.fuzz.config import ALL_FEATURES, FuzzConfig
from repro.fuzz.differential import check_program, check_source
from repro.fuzz.generate import generate_program
from repro.problems.base import SUITE_MEMORY
from repro.problems.registry import (
    EXPECTED_PROBLEM_COUNT,
    MEMORY_PROBLEM_COUNT,
    build_default_registry,
    build_extended_registry,
    build_memory_family,
)
from repro.sim.testbench import run_testbench, run_testbenches
from repro.toolchain.compiler import ChiselCompiler
from repro.verilog.parser import VerilogParseError, parse_verilog
from repro.verilog.simulator import Simulation

HEADER = "import chisel3._\nimport chisel3.util._\n\n"

COMPILER = ChiselCompiler(top="TopModule")

REGFILE = HEADER + """class TopModule extends Module {
  val io = IO(new Bundle {
    val wen = Input(Bool())
    val waddr = Input(UInt(3.W))
    val wdata = Input(UInt(8.W))
    val raddr = Input(UInt(3.W))
    val rdata = Output(UInt(8.W))
  })
  val mem = Mem(8, UInt(8.W))
  when (io.wen) {
    mem(io.waddr) := io.wdata
  }
  io.rdata := mem(io.raddr)
}
"""

SYNC_REGFILE = HEADER + """class TopModule extends Module {
  val io = IO(new Bundle {
    val wen = Input(Bool())
    val waddr = Input(UInt(3.W))
    val wdata = Input(UInt(8.W))
    val ren = Input(Bool())
    val raddr = Input(UInt(3.W))
    val rdata = Output(UInt(8.W))
  })
  val mem = SyncReadMem(8, UInt(8.W))
  when (io.wen) {
    mem.write(io.waddr, io.wdata)
  }
  io.rdata := mem.read(io.raddr, io.ren)
}
"""


def _module(source: str):
    result = COMPILER.compile(source)
    assert result.success, result.render_feedback()
    return parse_verilog(result.verilog)[-1]


def assert_error(result, code, fragment):
    assert not result.success
    codes = {d.code for d in result.errors}
    assert code in codes, f"expected {code} in {codes}: {result.render_feedback()}"
    assert fragment.lower() in result.render_feedback().lower()


# ---------------------------------------------------------------------------
# Frontend: elaboration and diagnostics
# ---------------------------------------------------------------------------


class TestMemFrontend:
    def test_mem_compiles_to_verilog_array(self):
        result = COMPILER.compile(REGFILE)
        assert result.success, result.render_feedback()
        assert "reg [7:0] mem [0:7];" in result.verilog
        assert "mem[io_waddr] <= io_wdata;" in result.verilog
        assert "assign io_rdata = mem[io_raddr];" in result.verilog

    def test_sync_read_mem_emits_read_register(self):
        result = COMPILER.compile(SYNC_REGFILE)
        assert result.success, result.render_feedback()
        # The synchronous read port is an explicit register clocked off the
        # memory array, which is what gives read-first semantics everywhere.
        assert "reg [7:0] mem [0:7];" in result.verilog
        assert "mem[io_raddr]" in result.verilog
        assert "assign io_rdata" in result.verilog

    def test_memory_arrays_reparse(self):
        result = COMPILER.compile(REGFILE)
        module = parse_verilog(result.verilog)[-1]
        mems = [net for net in module.nets if net.depth is not None]
        assert len(mems) == 1
        assert mems[0].name == "mem"
        assert mems[0].depth == 8
        assert mems[0].width == 8

    def test_mem_size_must_be_positive(self):
        result = COMPILER.compile(
            HEADER + "class TopModule extends Module {\n"
            "  val io = IO(new Bundle { val out = Output(UInt(4.W)) })\n"
            "  val m = Mem(0, UInt(4.W))\n"
            "  io.out := m(0.U)\n}\n"
        )
        assert_error(result, "A3", "positive")

    def test_mem_element_must_be_ground_type(self):
        result = COMPILER.compile(
            HEADER + "class TopModule extends Module {\n"
            "  val io = IO(new Bundle { val out = Output(UInt(4.W)) })\n"
            "  val m = Mem(4, Vec(2, UInt(4.W)))\n"
            "  io.out := 0.U\n}\n"
        )
        assert_error(result, "UNSUPPORTED", "ground types")

    def test_mem_element_needs_explicit_width(self):
        result = COMPILER.compile(
            HEADER + "class TopModule extends Module {\n"
            "  val io = IO(new Bundle { val out = Output(UInt(4.W)) })\n"
            "  val m = Mem(4, UInt())\n"
            "  io.out := 0.U\n}\n"
        )
        assert_error(result, "A3", "explicit width")

    def test_mem_address_must_be_uint(self):
        result = COMPILER.compile(
            HEADER + "class TopModule extends Module {\n"
            "  val io = IO(new Bundle {\n"
            "    val a = Input(SInt(3.W))\n"
            "    val out = Output(UInt(4.W))\n"
            "  })\n"
            "  val m = Mem(4, UInt(4.W))\n"
            "  io.out := m(io.a)\n}\n"
        )
        assert_error(result, "B5", "addresses must be UInt")

    def test_sync_read_mem_apply_is_rejected_with_guidance(self):
        result = COMPILER.compile(
            HEADER + "class TopModule extends Module {\n"
            "  val io = IO(new Bundle {\n"
            "    val a = Input(UInt(2.W))\n"
            "    val out = Output(UInt(4.W))\n"
            "  })\n"
            "  val m = SyncReadMem(4, UInt(4.W))\n"
            "  io.out := m(io.a)\n}\n"
        )
        assert_error(result, "UNSUPPORTED", ".read(addr)")

    def test_mem_cannot_be_connected_wholesale(self):
        result = COMPILER.compile(
            HEADER + "class TopModule extends Module {\n"
            "  val io = IO(new Bundle { val out = Output(UInt(4.W)) })\n"
            "  val m = Mem(4, UInt(4.W))\n"
            "  m := 0.U\n"
            "  io.out := 0.U\n}\n"
        )
        assert not result.success

    def test_mem_write_signedness_mismatch(self):
        result = COMPILER.compile(
            HEADER + "class TopModule extends Module {\n"
            "  val io = IO(new Bundle {\n"
            "    val d = Input(SInt(4.W))\n"
            "    val out = Output(UInt(4.W))\n"
            "  })\n"
            "  val m = Mem(4, UInt(4.W))\n"
            "  m.write(1.U, io.d)\n"
            "  io.out := m(0.U)\n}\n"
        )
        assert_error(result, "B5", "type mismatch")


class TestIntrinsicDiagnostics:
    """Satellite: log2* argument validation and the split UNSUPPORTED list."""

    @pytest.mark.parametrize("fn", ["log2Ceil", "log2Up", "log2Floor"])
    @pytest.mark.parametrize("arg", [0, -1, -8])
    def test_log2_rejects_non_positive(self, fn, arg):
        result = COMPILER.compile(
            HEADER + "class TopModule extends Module {\n"
            "  val io = IO(new Bundle { val out = Output(UInt(8.W)) })\n"
            f"  val n = {fn}({arg})\n"
            "  io.out := n.U\n}\n"
        )
        assert_error(result, "A3", "positive")

    @pytest.mark.parametrize(
        "fn,arg,expected",
        [
            ("log2Ceil", 1, 0), ("log2Ceil", 5, 3), ("log2Ceil", 8, 3),
            ("log2Up", 1, 1), ("log2Up", 5, 3), ("log2Up", 8, 3),
            ("log2Floor", 1, 0), ("log2Floor", 5, 2), ("log2Floor", 8, 3),
        ],
    )
    def test_log2_positive_values(self, fn, arg, expected):
        result = COMPILER.compile(
            HEADER + "class TopModule extends Module {\n"
            "  val io = IO(new Bundle { val out = Output(UInt(8.W)) })\n"
            f"  io.out := {fn}({arg}).U(8.W)\n}}\n"
        )
        assert result.success, result.render_feedback()
        sim = Simulation(parse_verilog(result.verilog)[-1])
        assert sim.peek("io_out") == expected

    @pytest.mark.parametrize(
        "arg,expected", [(0, False), (-4, False), (1, True), (3, False), (8, True)]
    )
    def test_ispow2(self, arg, expected):
        result = COMPILER.compile(
            HEADER + "class TopModule extends Module {\n"
            "  val io = IO(new Bundle { val out = Output(Bool()) })\n"
            f"  io.out := isPow2({arg}).B\n}}\n"
        )
        assert result.success, result.render_feedback()
        sim = Simulation(parse_verilog(result.verilog)[-1])
        assert sim.peek("io_out") == (1 if expected else 0)

    @pytest.mark.parametrize(
        "construct,hint",
        [
            ("Queue(io.out, 4)", "FIFO"),
            ("Counter(4)", "RegInit"),
            ("MuxCase(0.U, Seq())", "nested Mux"),
            ("MuxLookup(0.U, 0.U)", "nested Mux"),
        ],
    )
    def test_unsupported_rejections_name_nearest_construct(self, construct, hint):
        result = COMPILER.compile(
            HEADER + "class TopModule extends Module {\n"
            "  val io = IO(new Bundle { val out = Output(UInt(4.W)) })\n"
            f"  val x = {construct}\n"
            "  io.out := 0.U\n}\n"
        )
        # The code stays UNSUPPORTED (shrinker signatures key on it) while
        # the message now names the nearest supported construct.
        assert_error(result, "UNSUPPORTED", hint)

    def test_mem_no_longer_unsupported(self):
        result = COMPILER.compile(REGFILE)
        assert result.success
        assert "UNSUPPORTED" not in {d.code for d in result.diagnostics}


# ---------------------------------------------------------------------------
# Verilog layer: parser guards
# ---------------------------------------------------------------------------


class TestMemoryVerilogParsing:
    def test_wire_memory_array_rejected(self):
        with pytest.raises(VerilogParseError, match="declared as reg"):
            parse_verilog(
                "module m(input clock);\n  wire [3:0] mem [0:3];\nendmodule\n"
            )

    def test_non_zero_based_array_rejected(self):
        with pytest.raises(VerilogParseError, match="zero-based"):
            parse_verilog(
                "module m(input clock);\n  reg [3:0] mem [1:4];\nendmodule\n"
            )

    def test_memory_initializer_rejected(self):
        with pytest.raises(VerilogParseError):
            parse_verilog(
                "module m(input clock);\n  reg [3:0] mem [0:3] = 0;\nendmodule\n"
            )

    def test_reversed_range_normalises(self):
        module = parse_verilog(
            "module m(input clock);\n  reg [3:0] mem [3:0];\nendmodule\n"
        )[-1]
        net = [n for n in module.nets if n.name == "mem"][0]
        assert net.depth == 4


# ---------------------------------------------------------------------------
# Backends: bit-identity across every seam
# ---------------------------------------------------------------------------


class TestMemoryBackends:
    @pytest.mark.cache_mutating
    @pytest.mark.parametrize("source", [REGFILE, SYNC_REGFILE], ids=["mem", "sync"])
    def test_full_conformance(self, source):
        """Interpreter, compiled and trace, warm + cold caches."""
        report = check_source(source, points=48, sequential=True)
        assert report.ok, report.render()
        assert report.compiled_eligible
        assert report.trace_eligible

    def test_mem_interpreter_semantics(self):
        """Direct interpreter checks: comb read, sync write, reset-immunity."""
        sim = Simulation(_module(REGFILE))
        sim.poke_many({"io_wen": 1, "io_waddr": 3, "io_wdata": 0xAB, "io_raddr": 3})
        # Combinational read sees the old contents until the clock edge.
        assert sim.peek("io_rdata") == 0
        sim.step()
        assert sim.peek("io_rdata") == 0xAB
        # Reset does not clear memory contents.
        sim.poke_many({"io_wen": 0, "reset": 1})
        sim.step()
        sim.poke("reset", 0)
        assert sim.peek("io_rdata") == 0xAB

    def test_mem_write_enable_gates_write(self):
        sim = Simulation(_module(REGFILE))
        sim.poke_many({"io_wen": 0, "io_waddr": 2, "io_wdata": 0x55, "io_raddr": 2})
        sim.step()
        assert sim.peek("io_rdata") == 0

    def test_last_write_wins_on_same_address(self):
        source = HEADER + """class TopModule extends Module {
  val io = IO(new Bundle {
    val addr = Input(UInt(2.W))
    val rdata = Output(UInt(8.W))
  })
  val mem = Mem(4, UInt(8.W))
  mem(io.addr) := 1.U
  mem(io.addr) := 2.U
  io.rdata := mem(io.addr)
}
"""
        report = check_source(source, points=16, sequential=True, check_cold=False)
        assert report.ok, report.render()
        sim = Simulation(_module(source))
        sim.poke("io_addr", 1)
        sim.step()
        assert sim.peek("io_rdata") == 2

    def test_distinct_addressed_writes_both_land(self):
        """Two writes to different (dynamic) addresses must not fold."""
        source = HEADER + """class TopModule extends Module {
  val io = IO(new Bundle {
    val a = Input(UInt(2.W))
    val b = Input(UInt(2.W))
    val ra = Input(UInt(2.W))
    val rdata = Output(UInt(8.W))
  })
  val mem = Mem(4, UInt(8.W))
  mem(io.a) := 10.U
  mem(io.b) := 20.U
  io.rdata := mem(io.ra)
}
"""
        report = check_source(source, points=24, sequential=True, check_cold=False)
        assert report.ok, report.render()
        sim = Simulation(_module(source))
        sim.poke_many({"io_a": 1, "io_b": 2, "io_ra": 1})
        sim.step()
        assert sim.peek("io_rdata") == 10
        sim.poke("io_ra", 2)
        assert sim.peek("io_rdata") == 20

    def test_signed_memory_elements(self):
        source = HEADER + """class TopModule extends Module {
  val io = IO(new Bundle {
    val waddr = Input(UInt(2.W))
    val wdata = Input(SInt(6.W))
    val raddr = Input(UInt(2.W))
    val rdata = Output(SInt(6.W))
    val neg = Output(Bool())
  })
  val mem = Mem(4, SInt(6.W))
  mem.write(io.waddr, io.wdata)
  io.rdata := mem(io.raddr)
  io.neg := mem(io.raddr) < 0.S
}
"""
        report = check_source(source, points=32, sequential=True, check_cold=False)
        assert report.ok, report.render()
        sim = Simulation(_module(source))
        sim.poke_many({"io_waddr": 0, "io_wdata": 0x3F, "io_raddr": 0})  # -1
        sim.step()
        assert sim.peek_signed("io_rdata") == -1
        assert sim.peek("io_neg") == 1

    def test_batched_trace_runs_match(self):
        module = _module(REGFILE)
        from repro.fuzz.differential import build_testbench

        tb = build_testbench(module, "mem-batch", 32, sequential=True)
        stepwise = run_testbench(module, module, tb, backend="stepwise")
        batched = run_testbenches(
            [(module, module, tb), (module, module, tb)], backend="trace"
        )
        assert batched[0] == stepwise
        assert batched[1] == stepwise


class TestSyncReadMemReadDuringWrite:
    """Satellite: pin read-first semantics across backends and cache states."""

    RDW = HEADER + """class TopModule extends Module {
  val io = IO(new Bundle {
    val addr = Input(UInt(2.W))
    val wdata = Input(UInt(8.W))
    val wen = Input(Bool())
    val rdata = Output(UInt(8.W))
  })
  val mem = SyncReadMem(4, UInt(8.W))
  when (io.wen) {
    mem.write(io.addr, io.wdata)
  }
  io.rdata := mem.read(io.addr)
}
"""

    def test_read_during_write_returns_old_data(self):
        """Same-address read+write in one cycle yields the pre-write contents."""
        sim = Simulation(_module(self.RDW))
        sim.poke_many({"io_wen": 1, "io_addr": 2, "io_wdata": 7})
        sim.step()
        # The write landed and the read port captured the OLD contents (0).
        assert sim.peek("io_rdata") == 0
        sim.poke("io_wdata", 9)
        sim.step()
        # Now the read register shows the first write, not the second.
        assert sim.peek("io_rdata") == 7
        sim.poke("io_wen", 0)
        sim.step()
        assert sim.peek("io_rdata") == 9

    @pytest.mark.cache_mutating
    @pytest.mark.parametrize("with_enable", [False, True], ids=["plain", "enabled"])
    def test_rdw_identical_across_backends_and_caches(self, with_enable):
        source = self.RDW
        if with_enable:
            source = source.replace(
                "val wen = Input(Bool())",
                "val wen = Input(Bool())\n    val ren = Input(Bool())",
            ).replace("mem.read(io.addr)", "mem.read(io.addr, io.ren)")
        report = check_source(source, points=64, sequential=True)
        assert report.ok, report.render()
        assert report.trace_eligible

    @pytest.mark.parametrize("backend", ["stepwise", "trace"])
    def test_rdw_sequence_per_backend(self, backend):
        """The same directed RDW sequence observed identically per backend."""
        from repro.sim.testbench import FunctionalPoint, Testbench

        module = _module(self.RDW)
        points = [
            FunctionalPoint({"io_wen": 1, "io_addr": 2, "io_wdata": 7}, clock_cycles=1),
            FunctionalPoint({"io_wen": 1, "io_addr": 2, "io_wdata": 9}, clock_cycles=1),
            FunctionalPoint({"io_wen": 0, "io_addr": 2, "io_wdata": 0}, clock_cycles=1),
        ]
        tb = Testbench(points=points, reset_cycles=2)
        report = run_testbench(module, module, tb, backend=backend)
        assert report.passed and report.runtime_error is None


# ---------------------------------------------------------------------------
# Width seams: 63, 64 and 65-bit signals
# ---------------------------------------------------------------------------


class TestLaneBoundaryWidths:
    """Signals at and around 64 bits exercise shifts past the width and the
    full-width masks; every op must match the interpreter bit for bit."""

    @pytest.mark.cache_mutating
    @pytest.mark.parametrize("width", [63, 64])
    def test_add_sub_at_boundary(self, width):
        source = HEADER + f"""class TopModule extends Module {{
  val io = IO(new Bundle {{
    val a = Input(UInt({width}.W))
    val b = Input(UInt({width}.W))
    val sum = Output(UInt({width}.W))
    val diff = Output(UInt({width}.W))
  }})
  io.sum := io.a + io.b
  io.diff := io.a - io.b
}}
"""
        report = check_source(source, points=48, sequential=False)
        assert report.ok, report.render()
        assert report.trace_eligible

    @pytest.mark.cache_mutating
    @pytest.mark.parametrize("width", [63, 64])
    def test_dynamic_shifts_at_boundary(self, width):
        """Shift amounts range past 64, hitting the shift-by-width guard."""
        source = HEADER + f"""class TopModule extends Module {{
  val io = IO(new Bundle {{
    val a = Input(UInt({width}.W))
    val amt = Input(UInt(7.W))
    val right = Output(UInt({width}.W))
    val left = Output(UInt({width}.W))
  }})
  io.right := io.a >> io.amt
  io.left := (io.a << io.amt)({width - 1}, 0)
}}
"""
        report = check_source(source, points=48, sequential=False)
        assert report.ok, report.render()
        assert report.trace_eligible

    @pytest.mark.cache_mutating
    @pytest.mark.parametrize("width", [63, 64])
    def test_signed_compare_at_boundary(self, width):
        source = HEADER + f"""class TopModule extends Module {{
  val io = IO(new Bundle {{
    val a = Input(SInt({width}.W))
    val b = Input(SInt({width}.W))
    val lt = Output(Bool())
    val ge = Output(Bool())
    val eq = Output(Bool())
  }})
  io.lt := io.a < io.b
  io.ge := io.a >= io.b
  io.eq := io.a === io.b
}}
"""
        report = check_source(source, points=48, sequential=False)
        assert report.ok, report.render()
        assert report.trace_eligible

    @pytest.mark.cache_mutating
    @pytest.mark.parametrize("wa,wb", [(32, 32), (31, 32)])
    def test_multiply_products_fill_the_lane(self, wa, wb):
        """32x32 products land exactly on the 64-bit lane boundary."""
        source = HEADER + f"""class TopModule extends Module {{
  val io = IO(new Bundle {{
    val a = Input(UInt({wa}.W))
    val b = Input(UInt({wb}.W))
    val p = Output(UInt({wa + wb}.W))
  }})
  io.p := io.a * io.b
}}
"""
        report = check_source(source, points=48, sequential=False)
        assert report.ok, report.render()
        assert report.trace_eligible

    def test_width_65_runs_on_the_trace_tier(self):
        """Python-int kernels have no lane width: 65 bits needs no fallback."""
        source = HEADER + """class TopModule extends Module {
  val io = IO(new Bundle {
    val a = Input(UInt(65.W))
    val out = Output(UInt(65.W))
  })
  io.out := io.a
}
"""
        report = check_source(source, points=8, sequential=False, check_cold=False)
        assert report.ok, report.render()
        assert report.trace_eligible


# ---------------------------------------------------------------------------
# Fuzz integration: the mem feature family
# ---------------------------------------------------------------------------


class TestMemFuzzFamily:
    def test_mem_is_a_known_feature(self):
        assert "mem" in ALL_FEATURES

    def test_mem_only_session_generates_memories(self):
        config = FuzzConfig(seed=7, features=frozenset({"mem"}))
        found = 0
        for index in range(12):
            program = generate_program(config, index)
            if "mem" in program.features:
                found += 1
                assert "Mem(" in program.source or "SyncReadMem(" in program.source
                assert program.sequential
        assert found >= 6

    @pytest.mark.cache_mutating
    def test_mem_programs_conform(self):
        """A bounded mem-featured differential session with zero findings."""
        config = FuzzConfig(seed=11, features=frozenset({"mem", "arith", "mux"}))
        compiler = ChiselCompiler()
        checked = 0
        for index in range(8):
            program = generate_program(config, index)
            report = check_program(program, config, compiler=compiler)
            assert report.ok, f"index {index}: {report.render()}"
            checked += 1
        assert checked == 8


# ---------------------------------------------------------------------------
# The memory problem family through the standard verification path
# ---------------------------------------------------------------------------


class TestMemoryProblemFamily:
    def test_default_registry_unchanged(self):
        assert len(build_default_registry()) == EXPECTED_PROBLEM_COUNT

    def test_extended_registry_appends_memory_suite(self):
        registry = build_extended_registry()
        assert len(registry) == EXPECTED_PROBLEM_COUNT + MEMORY_PROBLEM_COUNT
        memory_problems = registry.by_suite(SUITE_MEMORY)
        assert len(memory_problems) == MEMORY_PROBLEM_COUNT
        assert all(p.sequential for p in memory_problems)

    def test_goldens_pass_their_testbenches_on_every_backend(self):
        for problem in build_memory_family():
            result = COMPILER.compile(problem.golden_chisel)
            assert result.success, f"{problem.problem_id}: {result.render_feedback()}"
            module = parse_verilog(result.verilog)[-1]
            testbench = problem.build_testbench(seed=3)
            stepwise = run_testbench(module, module, testbench, backend="stepwise")
            trace = run_testbench(module, module, testbench, backend="trace")
            assert stepwise.passed, f"{problem.problem_id}: {stepwise.render()}"
            assert stepwise == trace, problem.problem_id

    def test_functional_faults_compile_and_fail(self):
        for problem in build_memory_family():
            golden = parse_verilog(COMPILER.compile(problem.golden_chisel).verilog)[-1]
            for fault in problem.functional_faults:
                faulty_source = fault.apply(problem.golden_chisel)
                result = COMPILER.compile(faulty_source)
                assert result.success, f"{problem.problem_id}/{fault.fault_id}"
                faulty = parse_verilog(result.verilog)[-1]
                # Deep-state faults (e.g. push-when-full) need the right
                # stimulus to surface; require detection within a few seeds.
                caught = False
                for seed in (1, 3, 5, 7):
                    testbench = problem.build_testbench(seed=seed)
                    report = run_testbench(faulty, golden, testbench, backend="stepwise")
                    if not report.passed:
                        caught = True
                        break
                assert caught, f"{problem.problem_id}/{fault.fault_id} undetected"

    def test_memory_problems_run_through_sweep_engine(self):
        """The extension suite rides the standard sweep/campaign path."""
        from repro.experiments.config import ExperimentConfig
        from repro.experiments.engine import SweepEngine
        from repro.experiments.work import WorkUnit
        from repro.llm.profiles import CLAUDE_SONNET

        registry = build_extended_registry()
        problem = registry.by_id("regfile_w4_d4")
        assert problem.suite == SUITE_MEMORY
        config = ExperimentConfig(
            samples_per_case=1,
            max_iterations=2,
            models=(CLAUDE_SONNET,),
            seed=0,
        )
        engine = SweepEngine(config, registry=registry)
        unit = WorkUnit(
            strategy="zero_shot",
            model=CLAUDE_SONNET,
            problem_id="regfile_w4_d4",
            case_index=0,
            sample=0,
            seed=0,
            max_iterations=0,
            knobs=(("language", "chisel"),),
        )
        results = engine.run([unit])
        assert len(results) == 1
        assert "outcome" in results[0]
        assert engine.stats.executed == 1
