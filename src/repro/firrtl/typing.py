"""Type and width computation for FIRRTL expressions.

The :class:`SymbolTable` collects the declared type of every named signal in a
module (ports, wires, registers, nodes); :func:`type_of` then computes the
type of any expression.  Widths follow Chisel semantics (see
:mod:`repro.firrtl.ir`).
"""

from __future__ import annotations

from repro.firrtl import ir
from repro.hdl.bits import min_width_for


class TypeError_(Exception):
    """Raised when an expression is ill-typed (unknown field, bad op operand)."""


def _maxw(a: int | None, b: int | None) -> int | None:
    if a is None or b is None:
        return None
    return max(a, b)


def _addw(a: int | None, b: int | None) -> int | None:
    if a is None or b is None:
        return None
    return a + b


class SymbolTable:
    """Declared types of every named signal in a module."""

    def __init__(self, module: ir.Module):
        self.module = module
        self.types: dict[str, ir.Type] = {}
        for port in module.ports:
            self.types[port.name] = port.type
        for stmt in ir.walk_stmts(module.body):
            if isinstance(stmt, (ir.DefWire, ir.DefRegister)):
                self.types[stmt.name] = stmt.type
            elif isinstance(stmt, ir.DefMemory):
                # A memory types as a vector of its element type, so SubAccess
                # reads/writes resolve to the element through the normal path.
                self.types[stmt.name] = ir.VectorType(stmt.type, stmt.depth)
        # Node types are computed once all declarations are known.
        for stmt in ir.walk_stmts(module.body):
            if isinstance(stmt, ir.DefNode) and stmt.name not in self.types:
                try:
                    self.types[stmt.name] = type_of(stmt.value, self)
                except TypeError_:
                    self.types[stmt.name] = ir.UIntType(None)

    def type_named(self, name: str) -> ir.Type:
        if name not in self.types:
            raise TypeError_(f"reference to unknown signal {name!r}")
        return self.types[name]

    def update(self, name: str, tpe: ir.Type) -> None:
        self.types[name] = tpe


def width_of(tpe: ir.Type) -> int | None:
    if isinstance(tpe, (ir.UIntType, ir.SIntType)):
        return tpe.width
    if isinstance(tpe, (ir.ClockType, ir.ResetType, ir.AsyncResetType)):
        return 1
    if isinstance(tpe, ir.VectorType):
        elem = width_of(tpe.element)
        return None if elem is None else elem * tpe.size
    if isinstance(tpe, ir.BundleType):
        total = 0
        for f in tpe.fields:
            w = width_of(f.type)
            if w is None:
                return None
            total += w
        return total
    raise TypeError_(f"cannot compute width of {tpe}")


def is_signed(tpe: ir.Type) -> bool:
    return isinstance(tpe, ir.SIntType)


def type_of(expr: ir.Expr, table: SymbolTable) -> ir.Type:
    """Compute the type (with possibly-unknown width) of ``expr``."""
    if isinstance(expr, ir.Reference):
        return table.type_named(expr.name)
    if isinstance(expr, ir.SubField):
        target = type_of(expr.target, table)
        if not isinstance(target, ir.BundleType):
            raise TypeError_(f"subfield access .{expr.name} on non-bundle type {target}")
        field = target.field_named(expr.name)
        if field is None:
            raise TypeError_(f"bundle has no field named {expr.name!r}")
        return field.type
    if isinstance(expr, (ir.SubIndex, ir.SubAccess)):
        target = type_of(expr.target, table)
        if isinstance(target, ir.VectorType):
            return target.element
        if isinstance(target, (ir.UIntType, ir.SIntType)):
            return ir.UIntType(1)  # bit extraction from a ground value
        raise TypeError_(f"index access on non-indexable type {target}")
    if isinstance(expr, ir.UIntLiteral):
        width = expr.width if expr.width is not None else min_width_for(expr.value)
        return ir.UIntType(width)
    if isinstance(expr, ir.SIntLiteral):
        width = expr.width if expr.width is not None else min_width_for(expr.value, signed=True)
        return ir.SIntType(width)
    if isinstance(expr, ir.Mux):
        t_true = type_of(expr.true_value, table)
        t_false = type_of(expr.false_value, table)
        return _merge_mux(t_true, t_false)
    if isinstance(expr, ir.DoPrim):
        return _prim_type(expr, table)
    raise TypeError_(f"cannot type expression {expr!r}")


def _merge_mux(t_true: ir.Type, t_false: ir.Type) -> ir.Type:
    if isinstance(t_true, ir.VectorType) and isinstance(t_false, ir.VectorType):
        return t_true
    if isinstance(t_true, ir.BundleType):
        return t_true
    w = _maxw(width_of(t_true), width_of(t_false))
    if is_signed(t_true) and is_signed(t_false):
        return ir.SIntType(w)
    return ir.UIntType(w)


def _prim_type(expr: ir.DoPrim, table: SymbolTable) -> ir.Type:
    op = expr.op
    arg_types = [type_of(a, table) for a in expr.args]
    widths = [width_of(t) for t in arg_types]
    signed = all(is_signed(t) for t in arg_types) if arg_types else False

    def result(width: int | None, force_signed: bool | None = None) -> ir.Type:
        use_signed = signed if force_signed is None else force_signed
        return ir.SIntType(width) if use_signed else ir.UIntType(width)

    if op in ("add", "sub"):
        base = _maxw(widths[0], widths[1])
        return result(None if base is None else base + 1)
    if op in ("addw", "subw"):
        return result(_maxw(widths[0], widths[1]))
    if op == "mul":
        return result(_addw(widths[0], widths[1]))
    if op == "div":
        w = widths[0]
        return result(None if w is None else w + (1 if signed else 0))
    if op == "rem":
        if widths[0] is None or widths[1] is None:
            return result(None)
        return result(min(widths[0], widths[1]))
    if op in ("lt", "leq", "gt", "geq", "eq", "neq"):
        return ir.UIntType(1)
    if op in ("and", "or", "xor"):
        return ir.UIntType(_maxw(widths[0], widths[1]))
    if op == "not":
        return ir.UIntType(widths[0])
    if op == "neg":
        return ir.SIntType(None if widths[0] is None else widths[0] + 1)
    if op in ("andr", "orr", "xorr"):
        return ir.UIntType(1)
    if op == "cat":
        return ir.UIntType(_addw(widths[0], widths[1]))
    if op == "bits":
        hi, lo = expr.consts
        return ir.UIntType(hi - lo + 1)
    if op == "head":
        return ir.UIntType(expr.consts[0])
    if op == "tail":
        w = widths[0]
        return ir.UIntType(None if w is None else max(w - expr.consts[0], 0))
    if op == "pad":
        w = widths[0]
        n = expr.consts[0]
        return result(None if w is None else max(w, n))
    if op == "shl":
        w = widths[0]
        return result(None if w is None else w + expr.consts[0])
    if op == "shr":
        w = widths[0]
        return result(None if w is None else max(w - expr.consts[0], 1))
    if op == "dshl":
        w0, w1 = widths
        if w0 is None or w1 is None:
            return result(None)
        return result(w0 + min((1 << w1) - 1, 64))
    if op == "dshr":
        return result(widths[0])
    if op == "asUInt":
        return ir.UIntType(widths[0])
    if op == "asSInt":
        return ir.SIntType(widths[0])
    if op == "asClock":
        return ir.ClockType()
    if op == "asAsyncReset":
        return ir.AsyncResetType()
    if op == "cvt":
        w = widths[0]
        return ir.SIntType(None if w is None else (w if signed else w + 1))
    if op == "popcount":
        w = widths[0]
        return ir.UIntType(None if w is None else max(1, min_width_for(w)))
    if op == "reverse":
        return ir.UIntType(widths[0])
    raise TypeError_(f"unhandled primitive op {op}")
