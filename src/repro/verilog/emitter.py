"""Emit synthesizable Verilog-2001 from a lowered FIRRTL circuit.

The emitter expects the circuit to have passed the default pipeline
(:func:`repro.firrtl.pass_manager.run_default_pipeline`): all signals are
ground-typed and width-inferred.  The output style is deliberately regular —
ANSI port lists, one ``assign`` per combinational signal (conditional drives
are folded into nested ternaries, i.e. the classic expand-whens lowering) and
one clocked ``always`` block per register — because the same Verilog is
consumed by :mod:`repro.verilog.parser`.
"""

from __future__ import annotations

from repro.firrtl import ir
from repro.firrtl.typing import SymbolTable, TypeError_, type_of, width_of
from repro.hdl.bits import min_width_for


class EmitterError(Exception):
    """Raised when the circuit is not in emittable (lowered, sized) form."""


def emit_verilog(circuit: ir.Circuit) -> str:
    """Emit Verilog text for every module in ``circuit``."""
    return "\n\n".join(_ModuleEmitter(module).emit() for module in circuit.modules) + "\n"


class _ModuleEmitter:
    def __init__(self, module: ir.Module):
        self.module = module
        self.table = SymbolTable(module)

    # ------------------------------------------------------------------ emit

    def emit(self) -> str:
        lines: list[str] = []
        lines.append(f"module {self.module.name}(")
        port_lines = []
        for port in self.module.ports:
            direction = "input" if port.direction == ir.INPUT else "output"
            port_lines.append(f"  {direction} {self._range_of(port.type)}{port.name}")
        lines.append(",\n".join(port_lines))
        lines.append(");")

        wires, registers, nodes, memories = self._collect_declarations()

        for name, tpe in nodes:
            lines.append(f"  wire {self._range_of(tpe)}{name};")
        for name, tpe in wires:
            lines.append(f"  wire {self._range_of(tpe)}{name};")
        for stmt in registers:
            lines.append(f"  reg {self._range_of(stmt.type)}{stmt.name};")
        for stmt in memories:
            lines.append(
                f"  reg {self._range_of(stmt.type)}{stmt.name} [0:{stmt.depth - 1}];"
            )
        if wires or registers or nodes or memories:
            lines.append("")

        # Nodes: single unconditional assignment by construction.
        node_values = {stmt.name: stmt.value for stmt in self._walk_nodes()}
        for name, _ in nodes:
            lines.append(f"  assign {name} = {self._emit_expr(node_values[name])};")

        # Combinational sinks: wires and output ports.
        comb_sinks = [name for name, _ in wires]
        comb_sinks += [p.name for p in self.module.ports if p.direction == ir.OUTPUT]
        for name in comb_sinks:
            driver = self._final_expression(name, default=None)
            if driver is None:
                continue
            lines.append(f"  assign {name} = {self._emit_expr(driver)};")

        # Registers: one clocked always block each.
        for stmt in registers:
            lines.append("")
            lines.extend(self._emit_register(stmt))

        # Memories: one clocked always block per memory with every addressed
        # write retained (last-connect folding would drop distinct addresses).
        for stmt in memories:
            block = self._emit_memory(stmt)
            if block:
                lines.append("")
                lines.extend(block)

        lines.append("endmodule")
        return "\n".join(lines)

    # --------------------------------------------------------------- helpers

    def _collect_declarations(self):
        wires: list[tuple[str, ir.Type]] = []
        registers: list[ir.DefRegister] = []
        nodes: list[tuple[str, ir.Type]] = []
        memories: list[ir.DefMemory] = []
        for stmt in ir.walk_stmts(self.module.body):
            if isinstance(stmt, ir.DefWire):
                wires.append((stmt.name, stmt.type))
            elif isinstance(stmt, ir.DefRegister):
                registers.append(stmt)
            elif isinstance(stmt, ir.DefMemory):
                memories.append(stmt)
            elif isinstance(stmt, ir.DefNode):
                try:
                    tpe = type_of(stmt.value, self.table)
                except TypeError_ as exc:
                    raise EmitterError(str(exc)) from None
                nodes.append((stmt.name, tpe))
        return wires, registers, nodes, memories

    def _walk_nodes(self):
        for stmt in ir.walk_stmts(self.module.body):
            if isinstance(stmt, ir.DefNode):
                yield stmt

    def _range_of(self, tpe: ir.Type) -> str:
        width = width_of(tpe)
        if width is None:
            raise EmitterError("cannot emit a signal with unknown width; run InferWidths first")
        signed = "signed " if isinstance(tpe, ir.SIntType) else ""
        if width == 1:
            return signed
        return f"{signed}[{width - 1}:0] "

    # ------------------------------------------------------- expand-whens walk

    def _final_expression(self, name: str, default: ir.Expr | None) -> ir.Expr | None:
        """Fold last-connect semantics over the statement tree for ``name``."""
        return self._walk_for(name, self.module.body, default)

    def _walk_for(self, name: str, block: ir.Block, current: ir.Expr | None) -> ir.Expr | None:
        for stmt in block.stmts:
            if isinstance(stmt, ir.Connect):
                root = ir.root_reference(stmt.target)
                if root is not None and root.name == name:
                    current = stmt.value
            elif isinstance(stmt, ir.Invalidate):
                root = ir.root_reference(stmt.target)
                if root is not None and root.name == name:
                    current = ir.UIntLiteral(0, 1)
            elif isinstance(stmt, ir.Conditionally):
                conseq = self._walk_for(name, stmt.conseq, current)
                alt = self._walk_for(name, stmt.alt, current)
                if conseq is not current or alt is not current:
                    if conseq is None:
                        conseq = current
                    if alt is None:
                        alt = current
                    if conseq is None or alt is None:
                        # Partially driven: keep whatever branch drives it; the
                        # initialization check rejects this before emission.
                        current = conseq if conseq is not None else alt
                    else:
                        current = ir.Mux(stmt.predicate, conseq, alt)
            elif isinstance(stmt, ir.Block):
                current = self._walk_for(name, stmt, current)
        return current

    # --------------------------------------------------------------- registers

    def _emit_register(self, stmt: ir.DefRegister) -> list[str]:
        clock = self._emit_expr(stmt.clock)
        next_value = self._final_expression(stmt.name, default=ir.Reference(stmt.name))
        lines = [f"  always @(posedge {clock}) begin"]
        if stmt.reset is not None and stmt.init is not None:
            reset = self._emit_expr(stmt.reset)
            init = self._emit_expr(stmt.init)
            lines.append(f"    if ({reset}) begin")
            lines.append(f"      {stmt.name} <= {init};")
            lines.append("    end else begin")
            lines.append(f"      {stmt.name} <= {self._emit_expr(next_value)};")
            lines.append("    end")
        else:
            lines.append(f"    {stmt.name} <= {self._emit_expr(next_value)};")
        lines.append("  end")
        return lines

    # --------------------------------------------------------------- memories

    def _emit_memory(self, stmt: ir.DefMemory) -> list[str]:
        body = self._memory_writes(stmt.name, self.module.body, "    ")
        if not body:
            return []
        clock = self._emit_expr(stmt.clock)
        return [f"  always @(posedge {clock}) begin"] + body + ["  end"]

    def _memory_writes(self, name: str, block: ir.Block, indent: str) -> list[str]:
        """Emit every write to memory ``name``, preserving statement order.

        Unlike ``_final_expression`` this keeps *all* addressed writes: two
        connects to different (or even the same) dynamic addresses must each
        produce a non-blocking assign so the in-order last-write-wins
        semantics of the always block matches FIRRTL last-connect.
        """
        lines: list[str] = []
        for stmt in block.stmts:
            if isinstance(stmt, ir.Connect) and isinstance(stmt.target, ir.SubAccess):
                root = ir.root_reference(stmt.target)
                if root is not None and root.name == name:
                    addr = self._emit_expr(stmt.target.index)
                    lines.append(f"{indent}{name}[{addr}] <= {self._emit_expr(stmt.value)};")
            elif isinstance(stmt, ir.Conditionally):
                conseq = self._memory_writes(name, stmt.conseq, indent + "  ")
                alt = self._memory_writes(name, stmt.alt, indent + "  ")
                if not conseq and not alt:
                    continue
                pred = self._emit_expr(stmt.predicate)
                if conseq:
                    lines.append(f"{indent}if ({pred}) begin")
                    lines.extend(conseq)
                    if alt:
                        lines.append(f"{indent}end else begin")
                        lines.extend(alt)
                    lines.append(f"{indent}end")
                else:
                    lines.append(f"{indent}if ((~{pred})) begin")
                    lines.extend(alt)
                    lines.append(f"{indent}end")
            elif isinstance(stmt, ir.Block):
                lines.extend(self._memory_writes(name, stmt, indent))
        return lines

    # -------------------------------------------------------------- expressions

    def _emit_expr(self, expr: ir.Expr) -> str:
        if isinstance(expr, ir.Reference):
            return expr.name
        if isinstance(expr, ir.UIntLiteral):
            width = expr.width if expr.width is not None else min_width_for(expr.value)
            return f"{width}'h{expr.value:x}"
        if isinstance(expr, ir.SIntLiteral):
            width = expr.width if expr.width is not None else min_width_for(expr.value, signed=True)
            value = expr.value & ((1 << width) - 1)
            return f"$signed({width}'h{value:x})"
        if isinstance(expr, ir.Mux):
            return (
                f"({self._emit_expr(expr.condition)} ? "
                f"{self._emit_expr(expr.true_value)} : {self._emit_expr(expr.false_value)})"
            )
        if isinstance(expr, ir.SubIndex):
            return f"{self._emit_expr(expr.target)}[{expr.index}]"
        if isinstance(expr, ir.SubAccess):
            return f"{self._emit_expr(expr.target)}[{self._emit_expr(expr.index)}]"
        if isinstance(expr, ir.SubField):
            raise EmitterError("bundle subfield survived lowering; run LowerTypes first")
        if isinstance(expr, ir.DoPrim):
            return self._emit_prim(expr)
        raise EmitterError(f"cannot emit expression {expr!r}")

    def _emit_prim(self, expr: ir.DoPrim) -> str:
        op = expr.op
        args = [self._emit_expr(a) for a in expr.args]

        simple_binary = {
            "addw": "+",
            "subw": "-",
            "mul": "*",
            "div": "/",
            "rem": "%",
            "lt": "<",
            "leq": "<=",
            "gt": ">",
            "geq": ">=",
            "eq": "==",
            "neq": "!=",
            "and": "&",
            "or": "|",
            "xor": "^",
            "dshl": "<<",
            "dshr": ">>",
        }
        if op in simple_binary:
            return f"({args[0]} {simple_binary[op]} {args[1]})"
        if op in ("add", "sub"):
            # Expanding add/sub: make the carry bit explicit so self-determined
            # Verilog width semantics match FIRRTL.
            operator = "+" if op == "add" else "-"
            return f"({{1'b0, {args[0]}}} {operator} {{1'b0, {args[1]}}})"
        if op == "not":
            return f"(~{args[0]})"
        if op == "neg":
            return f"(-{args[0]})"
        if op == "andr":
            return f"(&{args[0]})"
        if op == "orr":
            return f"(|{args[0]})"
        if op == "xorr":
            return f"(^{args[0]})"
        if op == "cat":
            return f"{{{args[0]}, {args[1]}}}"
        if op == "bits":
            hi, lo = expr.consts
            return self._emit_bit_extract(expr.args[0], args[0], hi, lo)
        if op == "head":
            width = self._width_of_arg(expr.args[0])
            amount = expr.consts[0]
            return self._emit_bit_extract(expr.args[0], args[0], width - 1, width - amount)
        if op == "tail":
            width = self._width_of_arg(expr.args[0])
            amount = expr.consts[0]
            return self._emit_bit_extract(expr.args[0], args[0], width - amount - 1, 0)
        if op == "pad":
            return args[0]
        if op == "shl":
            return f"({args[0]} << {expr.consts[0]})"
        if op == "shr":
            return f"({args[0]} >> {expr.consts[0]})"
        if op == "asUInt":
            return f"$unsigned({args[0]})"
        if op == "asSInt":
            return f"$signed({args[0]})"
        if op in ("asClock", "asAsyncReset", "cvt"):
            return args[0]
        if op == "popcount":
            width = self._width_of_arg(expr.args[0])
            terms = [self._emit_bit_extract(expr.args[0], args[0], i, i) for i in range(width)]
            return "(" + " + ".join(terms) + ")"
        if op == "reverse":
            width = self._width_of_arg(expr.args[0])
            bits = [self._emit_bit_extract(expr.args[0], args[0], i, i) for i in range(width)]
            return "{" + ", ".join(bits) + "}"
        raise EmitterError(f"cannot emit primitive op {op}")

    def _width_of_arg(self, arg: ir.Expr) -> int:
        try:
            width = width_of(type_of(arg, self.table))
        except TypeError_ as exc:
            raise EmitterError(str(exc)) from None
        if width is None:
            raise EmitterError("operand width unknown during emission; run InferWidths first")
        return width

    def _emit_bit_extract(self, arg: ir.Expr, emitted: str, hi: int, lo: int) -> str:
        # Part-select is only legal on identifiers; other operands fall back to
        # a shift-and-mask form.
        if isinstance(arg, ir.Reference):
            if hi == lo:
                return f"{emitted}[{hi}]"
            return f"{emitted}[{hi}:{lo}]"
        width = hi - lo + 1
        mask = (1 << width) - 1
        if lo == 0:
            return f"(({emitted}) & {width}'h{mask:x})"
        return f"((({emitted}) >> {lo}) & {width}'h{mask:x})"
