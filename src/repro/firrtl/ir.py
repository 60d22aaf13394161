"""FIRRTL-style intermediate representation.

A deliberately small IR covering what module-level Chisel designs need:
ground types (``UInt``/``SInt``/``Clock``/``Reset``), aggregates
(``Vector``/``Bundle``), wires, registers, nodes, connections and nested
``when`` conditionals.  Width fields may be ``None`` (uninferred) until the
``InferWidths`` pass runs.

Expression width rules (documented per primitive op in
:mod:`repro.firrtl.typing`) follow Chisel semantics rather than raw FIRRTL:
``+``/``-`` wrap to ``max`` width, ``+&``/``-&`` expand by one bit, ``*`` sums
widths, comparisons are 1-bit, ``##`` concatenates.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.diagnostics import SourceLocation

# ---------------------------------------------------------------------------
# Types
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Type:
    """Base class for FIRRTL types."""


@dataclass(frozen=True)
class GroundType(Type):
    pass


@dataclass(frozen=True)
class UIntType(GroundType):
    width: int | None = None

    def __str__(self) -> str:
        return f"UInt<{self.width}>" if self.width is not None else "UInt"


@dataclass(frozen=True)
class SIntType(GroundType):
    width: int | None = None

    def __str__(self) -> str:
        return f"SInt<{self.width}>" if self.width is not None else "SInt"


@dataclass(frozen=True)
class ClockType(GroundType):
    def __str__(self) -> str:
        return "Clock"


@dataclass(frozen=True)
class ResetType(GroundType):
    """Abstract reset; must be resolved to Bool by ``InferResets``."""

    def __str__(self) -> str:
        return "Reset"


@dataclass(frozen=True)
class AsyncResetType(GroundType):
    def __str__(self) -> str:
        return "AsyncReset"


@dataclass(frozen=True)
class VectorType(Type):
    element: Type
    size: int

    def __str__(self) -> str:
        return f"{self.element}[{self.size}]"


@dataclass(frozen=True)
class BundleField:
    name: str
    type: Type
    flipped: bool = False


@dataclass(frozen=True)
class BundleType(Type):
    fields: tuple[BundleField, ...] = ()

    def field_named(self, name: str) -> BundleField | None:
        for f in self.fields:
            if f.name == name:
                return f
        return None

    def __str__(self) -> str:
        inner = ", ".join(
            f"{'flip ' if f.flipped else ''}{f.name}: {f.type}" for f in self.fields
        )
        return f"{{{inner}}}"


# ---------------------------------------------------------------------------
# Expressions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Expr:
    pass


@dataclass(frozen=True)
class Reference(Expr):
    name: str

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True)
class SubField(Expr):
    target: Expr
    name: str

    def __str__(self) -> str:
        return f"{self.target}.{self.name}"


@dataclass(frozen=True)
class SubIndex(Expr):
    target: Expr
    index: int

    def __str__(self) -> str:
        return f"{self.target}[{self.index}]"


@dataclass(frozen=True)
class SubAccess(Expr):
    """Dynamic (run-time) index into a vector."""

    target: Expr
    index: Expr

    def __str__(self) -> str:
        return f"{self.target}[{self.index}]"


@dataclass(frozen=True)
class UIntLiteral(Expr):
    value: int
    width: int | None = None

    def __str__(self) -> str:
        return f"UInt<{self.width}>({self.value})"


@dataclass(frozen=True)
class SIntLiteral(Expr):
    value: int
    width: int | None = None

    def __str__(self) -> str:
        return f"SInt<{self.width}>({self.value})"


# Primitive operations.  The ``consts`` tuple carries integer parameters
# (bit-extract bounds, static shift amounts, pad widths).
PRIM_OPS = {
    "add",      # expanding add (+&)
    "addw",     # wrapping add (+)
    "sub",      # expanding subtract (-&)
    "subw",     # wrapping subtract (-)
    "mul",
    "div",
    "rem",
    "lt",
    "leq",
    "gt",
    "geq",
    "eq",
    "neq",
    "and",
    "or",
    "xor",
    "not",
    "neg",
    "andr",
    "orr",
    "xorr",
    "cat",
    "bits",     # consts = (hi, lo)
    "head",     # consts = (n,)
    "tail",     # consts = (n,)
    "pad",      # consts = (n,)
    "shl",      # consts = (n,)
    "shr",      # consts = (n,)
    "dshl",
    "dshr",
    "asUInt",
    "asSInt",
    "asClock",
    "asAsyncReset",
    "cvt",
    "popcount",
    "reverse",
}


@dataclass(frozen=True)
class DoPrim(Expr):
    op: str
    args: tuple[Expr, ...]
    consts: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        if self.op not in PRIM_OPS:
            raise ValueError(f"unknown primitive op {self.op!r}")

    def __str__(self) -> str:
        parts = [str(a) for a in self.args] + [str(c) for c in self.consts]
        return f"{self.op}({', '.join(parts)})"


@dataclass(frozen=True)
class Mux(Expr):
    condition: Expr
    true_value: Expr
    false_value: Expr

    def __str__(self) -> str:
        return f"mux({self.condition}, {self.true_value}, {self.false_value})"


# ---------------------------------------------------------------------------
# Statements
# ---------------------------------------------------------------------------


@dataclass
class Stmt:
    pass


@dataclass
class DefWire(Stmt):
    name: str
    type: Type
    location: SourceLocation | None = None
    has_default: bool = False  # WireDefault / WireInit


@dataclass
class DefRegister(Stmt):
    name: str
    type: Type
    clock: Expr
    reset: Expr | None = None
    init: Expr | None = None
    location: SourceLocation | None = None


@dataclass
class DefMemory(Stmt):
    """A memory of ``depth`` elements of ground ``type``.

    Reads are expressed as ``SubAccess(Reference(name), addr)``; writes are
    ``Connect`` statements whose target is such a ``SubAccess`` (optionally
    nested under ``Conditionally`` for write enables).  ``sync_read`` records
    whether the Chisel-level construct was ``SyncReadMem`` (the elaborator
    models the one-cycle read latency with an explicit read register, so the
    flag is informational for passes and emission).  Writes are always
    synchronous to ``clock``.
    """

    name: str
    type: Type
    depth: int
    sync_read: bool
    clock: Expr
    location: SourceLocation | None = None


@dataclass
class DefNode(Stmt):
    name: str
    value: Expr
    location: SourceLocation | None = None


@dataclass
class Connect(Stmt):
    target: Expr
    value: Expr
    location: SourceLocation | None = None


@dataclass
class Invalidate(Stmt):
    """``target is invalid`` — marks a signal as intentionally undriven."""

    target: Expr
    location: SourceLocation | None = None


@dataclass
class Block(Stmt):
    stmts: list[Stmt] = field(default_factory=list)

    def append(self, stmt: Stmt) -> None:
        self.stmts.append(stmt)

    def __iter__(self):
        return iter(self.stmts)

    def __len__(self) -> int:
        return len(self.stmts)


@dataclass
class Conditionally(Stmt):
    predicate: Expr
    conseq: Block = field(default_factory=Block)
    alt: Block = field(default_factory=Block)
    location: SourceLocation | None = None


# ---------------------------------------------------------------------------
# Modules and circuits
# ---------------------------------------------------------------------------

INPUT = "input"
OUTPUT = "output"


@dataclass
class Port:
    name: str
    direction: str  # INPUT or OUTPUT
    type: Type
    location: SourceLocation | None = None


@dataclass
class Module:
    name: str
    ports: list[Port] = field(default_factory=list)
    body: Block = field(default_factory=Block)

    def port_named(self, name: str) -> Port | None:
        for port in self.ports:
            if port.name == name:
                return port
        return None


@dataclass
class Circuit:
    name: str
    modules: list[Module] = field(default_factory=list)

    @property
    def main(self) -> Module:
        for module in self.modules:
            if module.name == self.name:
                return module
        return self.modules[0]


# ---------------------------------------------------------------------------
# Traversal helpers
# ---------------------------------------------------------------------------


def walk_exprs(expr: Expr):
    """Yield ``expr`` and all of its sub-expressions."""
    yield expr
    if isinstance(expr, (SubField,)):
        yield from walk_exprs(expr.target)
    elif isinstance(expr, SubIndex):
        yield from walk_exprs(expr.target)
    elif isinstance(expr, SubAccess):
        yield from walk_exprs(expr.target)
        yield from walk_exprs(expr.index)
    elif isinstance(expr, DoPrim):
        for arg in expr.args:
            yield from walk_exprs(arg)
    elif isinstance(expr, Mux):
        yield from walk_exprs(expr.condition)
        yield from walk_exprs(expr.true_value)
        yield from walk_exprs(expr.false_value)


def walk_stmts(stmt: Stmt):
    """Yield ``stmt`` and all nested statements (depth-first)."""
    yield stmt
    if isinstance(stmt, Block):
        for child in stmt.stmts:
            yield from walk_stmts(child)
    elif isinstance(stmt, Conditionally):
        yield from walk_stmts(stmt.conseq)
        yield from walk_stmts(stmt.alt)


def root_reference(expr: Expr) -> Reference | None:
    """Return the leftmost :class:`Reference` of a connect target, if any."""
    current = expr
    while True:
        if isinstance(current, Reference):
            return current
        if isinstance(current, (SubField, SubIndex, SubAccess)):
            current = current.target
            continue
        return None


def expr_references(expr: Expr) -> set[str]:
    """Names of all root references appearing anywhere in ``expr``."""
    names: set[str] = set()
    for sub in walk_exprs(expr):
        if isinstance(sub, Reference):
            names.add(sub.name)
    return names
