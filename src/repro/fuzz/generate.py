"""Seeded, reproducible generator of random-but-well-typed Chisel programs.

The generator emits sources spanning the constructs the frontend supports —
nested Bundles and Vecs, Mux trees, arithmetic at mixed widths and signs,
registers with enables and resets, FSM-like when/switch chains, sibling module
classes — while tracking the width and signedness of every expression using
the elaborator's own inference rules, so each program is well-typed by
construction.  A generated program that fails to compile is therefore a
toolchain (or generator) bug, which is exactly what the differential engine
in :mod:`repro.fuzz.differential` asserts.

Determinism: program ``index`` of a session draws every choice from a
``random.Random`` stream seeded with the session seed, the index and the
config's generator fingerprint, so ``(config, index)`` fully determines the
design; :meth:`GeneratedProgram.repro_line` renders the equivalent CLI
invocation (including any non-default ``--points``/``--features``).
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.fuzz.config import FuzzConfig


@dataclass(frozen=True)
class GeneratedProgram:
    """One generated Chisel source plus the metadata needed to replay it."""

    seed: int
    index: int
    source: str
    top: str
    tops: tuple[str, ...]
    sequential: bool
    features: tuple[str, ...]
    repro: str = ""

    def repro_line(self) -> str:
        return self.repro or f"python -m repro.fuzz --seed {self.seed} --n 1 --skip {self.index}"


@dataclass(frozen=True)
class _Num:
    """A numeric expression with its exact inferred width."""

    expr: str
    width: int


_MAX_TRACKED_WIDTH = 24  # results wider than this are refit to the budget


class _ModuleGen:
    """Generates one module class (ports, body, output drives)."""

    def __init__(
        self,
        rng: random.Random,
        config: FuzzConfig,
        name: str,
        features_used: set[str],
        budget: int,
        allow_bundle_class: bool,
    ):
        self.rng = rng
        self.config = config
        self.name = name
        self.features = features_used
        self.budget = budget
        self.allow_bundle_class = allow_bundle_class
        self.uints: list[_Num] = []
        self.sints: list[_Num] = []
        self.bools: list[str] = []
        self.lines: list[str] = []
        self.prelude: list[str] = []  # named Bundle classes emitted before the module
        self.sequential = False
        self._counter = 0

    # ------------------------------------------------------------------ utils

    def _on(self, feature: str, probability: float = 1.0) -> bool:
        return self.config.enabled(feature) and self.rng.random() < probability

    def _use(self, feature: str) -> None:
        self.features.add(feature)

    def _fresh(self, prefix: str) -> str:
        self._counter += 1
        return f"{prefix}{self._counter}"

    def _width(self) -> int:
        return self.rng.randint(2, self.config.max_width)

    def _fit(self, value: _Num, target: int) -> _Num:
        """Refit ``value`` to exactly ``target`` bits (extract or pad)."""
        if value.width == target:
            return value
        if value.width > target:
            return _Num(f"({value.expr})({target - 1}, 0)", target)
        return _Num(f"({value.expr}).pad({target})", target)

    def _uint_literal(self, width: int) -> _Num:
        return _Num(f"{self.rng.randrange(1 << width)}.U({width}.W)", width)

    # ------------------------------------------------------------ expressions

    def _uint_leaf(self) -> _Num:
        if self.uints and self.rng.random() < 0.8:
            return self.rng.choice(self.uints)
        return self._uint_literal(self._width())

    def _bool_leaf(self) -> str:
        choices = []
        if self.bools:
            choices.append("pool")
        if self.uints:
            choices.append("bit")
        if not choices:
            return self.rng.choice(("true.B", "false.B"))
        kind = self.rng.choice(choices)
        if kind == "pool":
            return self.rng.choice(self.bools)
        operand = self.rng.choice(self.uints)
        return f"({operand.expr})({self.rng.randrange(operand.width)})"

    def _uint_expr(self, depth: int) -> _Num:
        if depth <= 0 or self.rng.random() < 0.25:
            return self._uint_leaf()
        ops = ["leaf"]
        if self.config.enabled("arith"):
            ops += ["add", "sub", "mul", "div", "rem", "shr", "shl"]
        if self.config.enabled("bitops"):
            ops += ["and", "or", "xor", "not", "extract", "cat", "fill", "popcount", "reverse"]
        if self.config.enabled("mux"):
            ops += ["mux"]
        if self.config.enabled("sint") and self.sints:
            ops += ["sint_roundtrip"]
        op = self.rng.choice(ops)
        if op == "leaf":
            return self._uint_leaf()

        a = self._uint_expr(depth - 1)
        if op in ("add", "sub", "and", "or", "xor", "mul", "rem"):
            self._use("arith" if op in ("add", "sub", "mul", "rem") else "bitops")
            b = self._uint_expr(depth - 1)
            symbol = {"add": "+", "sub": "-", "and": "&", "or": "|",
                      "xor": "^", "mul": "*", "rem": "%"}[op]
            if op == "mul":
                width = a.width + b.width
            elif op == "rem":
                width = min(a.width, b.width)
            else:
                width = max(a.width, b.width)
            result = _Num(f"({a.expr} {symbol} {b.expr})", width)
        elif op == "div":
            self._use("arith")
            # Dynamic divisors exercise the div-by-zero seam across backends.
            if self.rng.random() < 0.5:
                b = self._uint_expr(depth - 1)
            else:
                b = self._uint_literal(self._width())
            result = _Num(f"({a.expr} / {b.expr})", a.width)
        elif op == "shr":
            self._use("arith")
            amount = self.rng.randint(2, 3)
            shift = self._fit(self._uint_expr(depth - 1), amount)
            result = _Num(f"({a.expr} >> {shift.expr})", a.width)
        elif op == "shl":
            self._use("arith")
            amount = self.rng.randint(1, 2)
            shift = self._fit(self._uint_expr(depth - 1), amount)
            result = _Num(f"({a.expr} << {shift.expr})", a.width + (1 << amount) - 1)
        elif op == "not":
            self._use("bitops")
            result = _Num(f"(~{a.expr})", a.width)
        elif op == "extract":
            self._use("bitops")
            hi = self.rng.randrange(a.width)
            lo = self.rng.randint(0, hi)
            result = _Num(f"({a.expr})({hi}, {lo})", hi - lo + 1)
        elif op == "cat":
            self._use("bitops")
            b = self._uint_expr(depth - 1)
            if self.rng.random() < 0.5:
                result = _Num(f"({a.expr} ## {b.expr})", a.width + b.width)
            else:
                result = _Num(f"Cat({a.expr}, {b.expr})", a.width + b.width)
        elif op == "fill":
            self._use("bitops")
            copies = self.rng.randint(2, 3)
            chunk = self._fit(a, min(a.width, 4))
            result = _Num(f"Fill({copies}, {chunk.expr})", copies * chunk.width)
        elif op == "popcount":
            self._use("bitops")
            result = _Num(f"PopCount({a.expr})", max(1, a.width.bit_length()))
        elif op == "reverse":
            self._use("bitops")
            result = _Num(f"Reverse({a.expr})", a.width)
        elif op == "sint_roundtrip":
            self._use("sint")
            s = self.rng.choice(self.sints)
            result = _Num(f"({s.expr}).asUInt", s.width)
        else:  # mux
            self._use("mux")
            b = self._fit(self._uint_expr(depth - 1), a.width)
            cond = self._bool_expr(depth - 1)
            result = _Num(f"Mux({cond}, {a.expr}, {b.expr})", a.width)
        if result.width > _MAX_TRACKED_WIDTH:
            result = self._fit(result, self.config.max_width)
        return result

    def _bool_expr(self, depth: int) -> str:
        if depth <= 0 or self.rng.random() < 0.3:
            return self._bool_leaf()
        kind = self.rng.choice(["cmp", "cmp", "logic", "not", "scmp" if self.sints else "cmp"])
        if kind == "cmp":
            a = self._uint_expr(depth - 1)
            b = self._uint_expr(depth - 1)
            op = self.rng.choice(("===", "=/=", "<", "<=", ">", ">="))
            return f"({a.expr} {op} {b.expr})"
        if kind == "scmp" and self.config.enabled("sint"):
            self._use("sint")
            a = self.rng.choice(self.sints)
            b = self.rng.choice(self.sints)
            op = self.rng.choice(("===", "<", ">="))
            return f"({a.expr} {op} {b.expr})"
        if kind == "logic":
            op = self.rng.choice(("&&", "||"))
            return f"({self._bool_expr(depth - 1)} {op} {self._bool_expr(depth - 1)})"
        return f"(!{self._bool_expr(depth - 1)})"

    def _sint_expr(self, depth: int) -> _Num:
        if self.sints and (depth <= 0 or self.rng.random() < 0.4):
            return self.rng.choice(self.sints)
        if not self.sints or self.rng.random() < 0.4:
            u = self._uint_expr(max(0, depth - 1))
            return _Num(f"({u.expr}).asSInt", u.width)
        a = self._sint_expr(depth - 1)
        b = self._sint_expr(depth - 1)
        op = self.rng.choice(("+", "-"))
        width = max(a.width, b.width)
        if width > _MAX_TRACKED_WIDTH:
            return self.rng.choice(self.sints)
        return _Num(f"({a.expr} {op} {b.expr})", width)

    # -------------------------------------------------------------------- IO

    def _build_io(self) -> tuple[list[str], list[tuple[str, str, int]]]:
        """Emit the IO bundle; returns (io field lines, output descriptors)."""
        fields: list[str] = []
        outputs: list[tuple[str, str, int]] = []  # (name, kind, width)

        n_inputs = self.rng.randint(1, 3)
        for i in range(n_inputs):
            width = self._width()
            roll = self.rng.random()
            if roll < 0.15:
                fields.append(f"val in{i} = Input(Bool())")
                self.bools.append(f"io.in{i}")
            elif roll < 0.3 and self.config.enabled("sint"):
                self._use("sint")
                fields.append(f"val in{i} = Input(SInt({width}.W))")
                self.sints.append(_Num(f"io.in{i}", width))
            else:
                fields.append(f"val in{i} = Input(UInt({width}.W))")
                self.uints.append(_Num(f"io.in{i}", width))

        if self._on("nested_bundle", 0.35):
            self._use("nested_bundle")
            wx, wy = self._width(), self._width()
            fields.append(
                "val grp = new Bundle { "
                f"val x = Input(UInt({wx}.W)); val y = Input(UInt({wy}.W)) }}"
            )
            self.uints.append(_Num("io.grp.x", wx))
            self.uints.append(_Num("io.grp.y", wy))

        if self._on("vec", 0.35):
            self._use("vec")
            size = self.rng.choice((2, 4))
            sel_width = size.bit_length() - 1
            width = self._width()
            fields.append(f"val lanes = Input(Vec({size}, UInt({width}.W)))")
            fields.append(f"val sel = Input(UInt({sel_width}.W))")
            for lane in range(size):
                self.uints.append(_Num(f"io.lanes({lane})", width))
            self.uints.append(_Num("io.lanes(io.sel)", width))
            self.uints.append(_Num("io.sel", sel_width))

        n_outputs = self.rng.randint(1, 3)
        for i in range(n_outputs):
            width = self._width()
            roll = self.rng.random()
            if roll < 0.2:
                fields.append(f"val out{i} = Output(Bool())")
                outputs.append((f"out{i}", "bool", 1))
            elif roll < 0.35 and self.config.enabled("sint"):
                self._use("sint")
                fields.append(f"val out{i} = Output(SInt({width}.W))")
                outputs.append((f"out{i}", "sint", width))
            else:
                fields.append(f"val out{i} = Output(UInt({width}.W))")
                outputs.append((f"out{i}", "uint", width))
        return fields, outputs

    # ------------------------------------------------------------- statements

    def _stmt_comb_val(self, depth: int) -> None:
        name = self._fresh("v")
        if self.config.enabled("sint") and self.rng.random() < 0.15:
            value = self._sint_expr(depth)
            self.lines.append(f"  val {name} = {value.expr}")
            self.sints.append(_Num(name, value.width))
            return
        if self.rng.random() < 0.2:
            self.lines.append(f"  val {name} = {self._bool_expr(depth)}")
            self.bools.append(name)
            return
        value = self._uint_expr(depth)
        self.lines.append(f"  val {name} = {value.expr}")
        self.uints.append(_Num(name, value.width))

    def _stmt_wire_when(self, depth: int) -> None:
        self._use("when")
        name = self._fresh("w")
        width = self._width()
        self.lines.append(f"  val {name} = Wire(UInt({width}.W))")
        self.lines.append(f"  {name} := {self._uint_expr(depth).expr}")
        branches = self.rng.randint(1, 3)
        for branch in range(branches):
            if branch == 0:
                self.lines.append(f"  when ({self._bool_expr(depth)}) {{")
            else:
                self.lines.append(f"  }} .elsewhen ({self._bool_expr(depth)}) {{")
            self.lines.append(f"    {name} := {self._uint_expr(depth).expr}")
        if self.rng.random() < 0.6:
            self.lines.append("  } .otherwise {")
            self.lines.append(f"    {name} := {self._uint_expr(depth).expr}")
        self.lines.append("  }")
        self.uints.append(_Num(name, width))

    def _stmt_reg(self, depth: int) -> None:
        self._use("reg")
        self.sequential = True
        name = self._fresh("r")
        width = self._width()
        init = self.rng.randrange(1 << width)
        self.lines.append(f"  val {name} = RegInit({init}.U({width}.W))")
        # The register may feed its own next value (registers break cycles).
        self.uints.append(_Num(name, width))
        update = self._fit(self._uint_expr(depth), width) if self.rng.random() < 0.5 else self._uint_expr(depth)
        if self._on("when", 0.7):
            self._use("when")
            self.lines.append(f"  when ({self._bool_expr(depth)}) {{")
            if self.rng.random() < 0.4:
                self.lines.append(f"    when ({self._bool_expr(depth - 1)}) {{")
                self.lines.append(f"      {name} := {update.expr}")
                self.lines.append("    } .otherwise {")
                self.lines.append(f"      {name} := {self._uint_expr(depth - 1).expr}")
                self.lines.append("    }")
            else:
                self.lines.append(f"    {name} := {update.expr}")
            self.lines.append("  }")
        else:
            self.lines.append(f"  {name} := {update.expr}")

    def _stmt_regnext(self, depth: int) -> None:
        self._use("reg")
        self.sequential = True
        name = self._fresh("n")
        value = self._uint_expr(depth)
        kind = self.rng.random()
        if kind < 0.5:
            self.lines.append(f"  val {name} = RegNext({value.expr}, 0.U)")
        else:
            enable = self._bool_expr(depth)
            init = self._uint_literal(value.width)
            self.lines.append(
                f"  val {name} = RegEnable({value.expr}, {init.expr}, {enable})"
            )
        self.uints.append(_Num(name, value.width))

    def _stmt_lookup_table(self, depth: int) -> None:
        self._use("vec")
        name = self._fresh("t")
        size = self.rng.choice((2, 4))
        sel_width = size.bit_length() - 1
        width = self._width()
        elements = ", ".join(
            self._fit(self._uint_expr(depth - 1), width).expr for _ in range(size)
        )
        self.lines.append(f"  val {name} = VecInit(Seq({elements}))")
        index = self._fit(self._uint_expr(depth - 1), sel_width)
        self.uints.append(_Num(f"{name}({index.expr})", width))
        self.uints.append(_Num(f"{name}({self.rng.randrange(size)})", width))

    def _stmt_reg_pipeline(self, depth: int) -> None:
        self._use("vec")
        self._use("reg")
        self.sequential = True
        name = self._fresh("sv")
        stages = self.rng.randint(2, 3)
        width = self._width()
        feed = self._fit(self._uint_expr(depth), width)
        self.lines.append(f"  val {name} = Reg(Vec({stages}, UInt({width}.W)))")
        self.lines.append(f"  {name}(0) := {feed.expr}")
        self.lines.append(f"  for (i <- 1 until {stages}) {{")
        self.lines.append(f"    {name}(i) := {name}(i - 1)")
        self.lines.append("  }")
        self.uints.append(_Num(f"{name}({stages - 1})", width))

    def _stmt_fsm(self, depth: int) -> None:
        self._use("switch")
        self._use("reg")
        self.sequential = True
        name = self._fresh("st")
        states = self.rng.randint(2, 4)
        width = max(1, (states - 1).bit_length())
        self.lines.append(f"  val {name} = RegInit(0.U({width}.W))")
        self.lines.append(f"  switch ({name}) {{")
        for state in range(states):
            nxt = (state + 1) % states
            roll = self.rng.random()
            if roll < 0.4:
                self.lines.append(f"    is ({state}.U) {{")
                self.lines.append(f"      when ({self._bool_expr(depth - 1)}) {{")
                self.lines.append(f"        {name} := {nxt}.U")
                self.lines.append("      }")
                self.lines.append("    }")
            elif roll < 0.7:
                self.lines.append(
                    f"    is ({state}.U) {{ {name} := Mux({self._bool_expr(depth - 1)}, "
                    f"{nxt}.U, {self.rng.randrange(states)}.U) }}"
                )
            else:
                self.lines.append(f"    is ({state}.U) {{ {name} := {nxt}.U }}")
        self.lines.append("  }")
        self.uints.append(_Num(name, width))

    def _stmt_mem(self, depth: int) -> None:
        """A Mem or SyncReadMem with one write port and one read port.

        Depths include non-powers-of-two so some generated addresses fall out
        of range, exercising the OOB seam (reads collapse to 0, writes drop)
        identically across backends.  The write enable rides inside the mem
        idiom, so a ``--features mem``-only session still generates it.
        """
        self._use("mem")
        self.sequential = True
        name = self._fresh("m")
        words = self.rng.choice((2, 3, 4, 8))
        addr_width = max(1, (words - 1).bit_length())
        width = self._width()
        waddr = self._fit(self._uint_expr(depth - 1), addr_width)
        wdata = self._fit(self._uint_expr(depth - 1), width)
        raddr = self._fit(self._uint_expr(depth - 1), addr_width)
        if self.rng.random() < 0.5:
            # SyncReadMem: synchronous read-first port, optionally enabled,
            # so read-during-write lands on the old data in every backend.
            self.lines.append(f"  val {name} = SyncReadMem({words}, UInt({width}.W))")
            self.lines.append(f"  when ({self._bool_expr(depth - 1)}) {{")
            self.lines.append(f"    {name}.write({waddr.expr}, {wdata.expr})")
            self.lines.append("  }")
            rd = self._fresh("rd")
            if self.rng.random() < 0.5:
                enable = self._bool_expr(depth - 1)
                self.lines.append(f"  val {rd} = {name}.read({raddr.expr}, {enable})")
            else:
                self.lines.append(f"  val {rd} = {name}.read({raddr.expr})")
            self.uints.append(_Num(rd, width))
        else:
            # Mem: combinational read, synchronous write (apply or .write form).
            self.lines.append(f"  val {name} = Mem({words}, UInt({width}.W))")
            if self.rng.random() < 0.7:
                self.lines.append(f"  when ({self._bool_expr(depth - 1)}) {{")
                self.lines.append(f"    {name}({waddr.expr}) := {wdata.expr}")
                self.lines.append("  }")
            else:
                self.lines.append(f"  {name}.write({waddr.expr}, {wdata.expr})")
            self.uints.append(_Num(f"{name}({raddr.expr})", width))

    def _stmt_sint_val(self, depth: int) -> None:
        self._use("sint")
        name = self._fresh("s")
        value = self._sint_expr(depth)
        self.lines.append(f"  val {name} = {value.expr}")
        self.sints.append(_Num(name, value.width))

    # ---------------------------------------------------------------- emit

    def generate(self) -> list[str]:
        depth = self.config.max_expr_depth
        io_fields, outputs = self._build_io()

        header: list[str] = []
        if self.allow_bundle_class and self._on("named_bundle", 0.3):
            self._use("named_bundle")
            bundle_name = f"{self.name}IO"
            if self.rng.random() < 0.5:
                # Parameterized bundle: one extra field sized by the parameter.
                param_width = self._width()
                self.prelude.append(f"class {bundle_name}(w: Int = {param_width}) extends Bundle {{")
                self.prelude.append("  val extra = Input(UInt(w.W))")
                self.uints.append(_Num("io.extra", param_width))
            else:
                self.prelude.append(f"class {bundle_name} extends Bundle {{")
            for line in io_fields:
                self.prelude.append(f"  {line}")
            self.prelude.append("}")
            header.append(f"  val io = IO(new {bundle_name})")
        else:
            header.append("  val io = IO(new Bundle {")
            for line in io_fields:
                header.append(f"    {line}")
            header.append("  })")

        menu: list[str] = ["comb", "comb"]
        if self.config.enabled("when"):
            menu.append("wire_when")
        if self.config.enabled("reg"):
            menu += ["reg", "regnext"]
        if self.config.enabled("vec"):
            menu += ["vec_table", "vec_pipeline"]
        if self.config.enabled("switch"):
            menu.append("fsm")
        if self.config.enabled("sint"):
            menu.append("sint_val")
        if self.config.enabled("mem"):
            menu.append("mem")

        statements = self.rng.randint(2, self.budget)
        for _ in range(statements):
            kind = self.rng.choice(menu)
            if kind == "comb":
                self._stmt_comb_val(depth)
            elif kind == "wire_when":
                self._stmt_wire_when(depth)
            elif kind == "reg":
                self._stmt_reg(depth)
            elif kind == "regnext":
                self._stmt_regnext(depth)
            elif kind == "vec_table":
                self._stmt_lookup_table(depth)
            elif kind == "vec_pipeline":
                self._stmt_reg_pipeline(depth)
            elif kind == "fsm":
                self._stmt_fsm(depth)
            elif kind == "sint_val":
                self._stmt_sint_val(depth)
            elif kind == "mem":
                self._stmt_mem(depth)

        drives: list[str] = []
        for out_name, kind, width in outputs:
            if kind == "bool":
                drives.append(f"  io.{out_name} := {self._bool_expr(depth)}")
            elif kind == "sint":
                value = self._sint_expr(depth)
                if value.width < width:
                    drives.append(f"  io.{out_name} := ({value.expr}).pad({width})")
                else:
                    drives.append(
                        f"  io.{out_name} := (({value.expr}).asUInt)({width - 1}, 0).asSInt"
                    )
            else:
                value = self._uint_expr(depth)
                # Half the drives are width-exact; the rest exercise the
                # connect-side truncate/pad seam.
                if self.rng.random() < 0.5:
                    value = self._fit(value, width)
                drives.append(f"  io.{out_name} := {value.expr}")

        lines = list(self.prelude)
        lines.append(f"class {self.name} extends Module {{")
        lines.extend(header)
        lines.extend(self.lines)
        lines.extend(drives)
        lines.append("}")
        return lines


def generate_program(config: FuzzConfig, index: int) -> GeneratedProgram:
    """Generate program ``index`` of the session described by ``config``."""
    rng = random.Random(f"fuzz:{config.seed}:{index}:{config.fingerprint()}")
    features_used: set[str] = set()

    module_names = ["TopModule"]
    if config.enabled("multi_module") and rng.random() < 0.3:
        features_used.add("multi_module")
        helpers = rng.randint(1, 2)
        module_names = [f"Helper{chr(ord('A') + i)}" for i in range(helpers)] + module_names

    sources: list[str] = ["import chisel3._", "import chisel3.util._", ""]
    sequential = False
    for position, name in enumerate(module_names):
        budget = config.max_statements if name == "TopModule" else min(3, config.max_statements)
        gen = _ModuleGen(
            rng,
            config,
            name,
            features_used,
            budget,
            allow_bundle_class=(name == "TopModule"),
        )
        sources.extend(gen.generate())
        sources.append("")
        sequential = sequential or gen.sequential

    return GeneratedProgram(
        seed=config.seed,
        index=index,
        source="\n".join(sources).rstrip() + "\n",
        top="TopModule",
        tops=tuple(module_names),
        sequential=sequential,
        features=tuple(sorted(features_used)),
        repro=config.repro_line(index),
    )
