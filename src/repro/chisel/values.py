"""Elaboration-time value model for the Chisel subset.

During elaboration every Scala expression evaluates to one of:

* a plain Python value (``int``, ``bool``, ``str``, ``list``, ``range``) for
  Scala-level computation;
* a :class:`Width` (the result of ``8.W``);
* a :class:`HwType` describing a Chisel data type that has not yet been bound
  to hardware (``UInt(8.W)``, ``Vec(4, Bool())``, a ``Bundle`` literal);
* a :class:`Directed` wrapper (the result of ``Input(...)``/``Output(...)``);
* a :class:`HwValue` — actual hardware: a FIRRTL expression plus its Chisel
  type and binding kind; or
* a :class:`BundleView` mapping field names to hardware values (the result of
  ``IO(new Bundle {...})`` after the elaborator flattens the port bundle).

Keeping "type" and "hardware" as distinct runtime categories is what lets the
elaborator reproduce the paper's Table II B2 error ("must be hardware, not a
bare Chisel type") faithfully.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.firrtl import ir

# ---------------------------------------------------------------------------
# Chisel types (pre-hardware)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Width:
    """The value of ``n.W``."""

    value: int


class HwType:
    """Base class of Chisel data types at elaboration time."""

    def chisel_name(self) -> str:
        return type(self).__name__

    def to_firrtl(self) -> ir.Type:
        raise NotImplementedError


@dataclass(frozen=True)
class UIntT(HwType):
    width: int | None = None

    def chisel_name(self) -> str:
        return "chisel3.UInt"

    def to_firrtl(self) -> ir.Type:
        return ir.UIntType(self.width)


@dataclass(frozen=True)
class SIntT(HwType):
    width: int | None = None

    def chisel_name(self) -> str:
        return "chisel3.SInt"

    def to_firrtl(self) -> ir.Type:
        return ir.SIntType(self.width)


@dataclass(frozen=True)
class BoolT(HwType):
    def chisel_name(self) -> str:
        return "chisel3.Bool"

    def to_firrtl(self) -> ir.Type:
        return ir.UIntType(1)


@dataclass(frozen=True)
class ClockT(HwType):
    def chisel_name(self) -> str:
        return "chisel3.Clock"

    def to_firrtl(self) -> ir.Type:
        return ir.ClockType()


@dataclass(frozen=True)
class ResetT(HwType):
    """Abstract ``Reset()`` — triggers the InferResets diagnostic when used as a port."""

    def chisel_name(self) -> str:
        return "chisel3.Reset"

    def to_firrtl(self) -> ir.Type:
        return ir.ResetType()


@dataclass(frozen=True)
class AsyncResetT(HwType):
    def chisel_name(self) -> str:
        return "chisel3.AsyncReset"

    def to_firrtl(self) -> ir.Type:
        return ir.AsyncResetType()


@dataclass(frozen=True)
class VecT(HwType):
    size: int
    element: HwType

    def chisel_name(self) -> str:
        return f"chisel3.Vec[{self.element.chisel_name()}]"

    def to_firrtl(self) -> ir.Type:
        return ir.VectorType(self.element.to_firrtl(), self.size)


@dataclass(frozen=True)
class BundleFieldT:
    name: str
    tpe: HwType
    direction: str | None = None  # "input" / "output" / None


@dataclass(frozen=True)
class BundleT(HwType):
    fields: tuple[BundleFieldT, ...] = ()
    type_name: str = "Bundle"

    def chisel_name(self) -> str:
        return f"chisel3.{self.type_name}"

    def field_named(self, name: str) -> BundleFieldT | None:
        for f in self.fields:
            if f.name == name:
                return f
        return None

    def to_firrtl(self) -> ir.Type:
        return ir.BundleType(
            tuple(
                ir.BundleField(f.name, f.tpe.to_firrtl(), f.direction == "input")
                for f in self.fields
            )
        )


@dataclass(frozen=True)
class Directed:
    """A type wrapped by ``Input``/``Output``/``Flipped``."""

    direction: str  # "input" or "output"
    tpe: HwType


# ---------------------------------------------------------------------------
# Hardware values
# ---------------------------------------------------------------------------

# Binding kinds: how a hardware value came into existence.  Connection rules
# and naming differ per kind.
BINDING_PORT_IN = "port_in"
BINDING_PORT_OUT = "port_out"
BINDING_WIRE = "wire"
BINDING_REG = "reg"
BINDING_NODE = "node"
BINDING_LITERAL = "literal"
BINDING_OP = "op"


@dataclass
class HwValue:
    """A piece of hardware: a FIRRTL expression, its Chisel type and binding."""

    expr: ir.Expr
    tpe: HwType
    binding: str = BINDING_OP

    def type_name(self) -> str:
        return self.tpe.chisel_name()


@dataclass
class MemValue:
    """An elaborated ``Mem``/``SyncReadMem``: addressable storage, not Data.

    Memories are not hardware *values* — they cannot be connected, compared or
    used in expressions directly.  Access goes through ``mem(addr)`` (for
    combinational-read ``Mem``), ``mem.read(addr[, enable])`` and
    ``mem.write(addr, data)``, all of which produce ordinary :class:`HwValue`
    results or ``Connect`` statements against ``SubAccess(Reference(name), _)``.
    """

    name: str
    element: HwType
    depth: int
    sync_read: bool

    def kind_name(self) -> str:
        return "SyncReadMem" if self.sync_read else "Mem"

    def chisel_name(self) -> str:
        return f"chisel3.{self.kind_name()}[{self.element.chisel_name()}]"


@dataclass
class BundleView:
    """The flattened view of an IO bundle: field name → member value.

    Members are :class:`HwValue`, nested :class:`BundleView`, or lists (for
    ``Vec`` fields exposed as Scala sequences is not supported — Vec fields
    stay as single :class:`HwValue` of :class:`VecT` type).
    """

    members: dict[str, object] = field(default_factory=dict)

    def member(self, name: str) -> object | None:
        return self.members.get(name)


@dataclass(frozen=True)
class DontCareValue:
    """The ``DontCare`` marker; connecting it invalidates the sink."""


DONT_CARE = DontCareValue()


def describe_value(value: object) -> str:
    """A short human-readable description used in diagnostics."""
    if isinstance(value, HwValue):
        return value.type_name()
    if isinstance(value, BundleView):
        return "chisel3.Bundle"
    if isinstance(value, MemValue):
        return value.chisel_name()
    if isinstance(value, HwType):
        return f"bare Chisel type {value.chisel_name()}"
    if isinstance(value, Directed):
        return f"{value.direction} of bare Chisel type {value.tpe.chisel_name()}"
    if isinstance(value, Width):
        return "chisel3.internal.firrtl.Width"
    if isinstance(value, bool):
        return "Boolean"
    if isinstance(value, int):
        return "Int"
    if isinstance(value, str):
        return "String"
    if isinstance(value, (list, tuple)):
        return "Seq"
    if isinstance(value, range):
        return "Range"
    return type(value).__name__
