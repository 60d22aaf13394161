"""Abstract syntax tree for the Chisel/Scala subset.

The tree distinguishes Scala-level control flow (``for``, ``if``, ``val``)
from hardware statements (``:=`` connections, ``when``, ``switch``) only at
elaboration time; syntactically they are uniform statements, exactly as in
Scala.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.diagnostics import SourceLocation


@dataclass
class Node:
    """Base class for all AST nodes."""

    location: SourceLocation


# ---------------------------------------------------------------------------
# Expressions
# ---------------------------------------------------------------------------


@dataclass
class Expr(Node):
    pass


@dataclass
class IntLit(Expr):
    value: int


@dataclass
class StringLit(Expr):
    value: str


@dataclass
class BoolLit(Expr):
    value: bool


@dataclass
class Ident(Expr):
    name: str


@dataclass
class Placeholder(Expr):
    """A Scala ``_`` placeholder inside an expression (``_ + _``)."""


@dataclass
class FieldSelect(Expr):
    target: Expr
    name: str


@dataclass
class MethodCall(Expr):
    """A call ``target.name[typeArgs](args)``; ``target`` is None for bare calls."""

    target: Expr | None
    name: str
    args: list[Expr] = field(default_factory=list)
    type_args: list[str] = field(default_factory=list)
    # Some Scala calls are curried: Seq.fill(5)(0.U).  Extra argument lists are
    # stored in order after the first.
    extra_arg_lists: list[list[Expr]] = field(default_factory=list)


@dataclass
class Apply(Expr):
    """Application of an arbitrary expression: ``expr(args)`` (indexing, Vec access)."""

    target: Expr
    args: list[Expr] = field(default_factory=list)


@dataclass
class BinaryOp(Expr):
    op: str
    left: Expr
    right: Expr


@dataclass
class UnaryOp(Expr):
    op: str
    operand: Expr


@dataclass
class Lambda(Expr):
    params: list[str]
    body: Expr


@dataclass
class BundleLiteral(Expr):
    """``new Bundle { val a = Input(...) ... }``"""

    members: list["ValDef"]


@dataclass
class NewInstance(Expr):
    class_name: str
    args: list[Expr] = field(default_factory=list)


@dataclass
class IfExpr(Expr):
    """Scala-level ``if (c) a else b`` used in expression position."""

    condition: Expr
    then_value: Expr
    else_value: Expr | None


@dataclass
class WithClockExpr(Expr):
    """``withClock(clk) { expr }`` used in expression position.

    The body is a statement list; the value of the expression is the value of
    the final expression statement, matching Scala block semantics.
    """

    clock: Expr | None
    reset: Expr | None
    body: list["Stmt"] = field(default_factory=list)


# ---------------------------------------------------------------------------
# Statements
# ---------------------------------------------------------------------------


@dataclass
class Stmt(Node):
    pass


@dataclass
class ValDef(Stmt):
    name: str
    value: Expr
    mutable: bool = False
    type_annotation: str | None = None


@dataclass
class Assign(Stmt):
    """Scala reassignment ``x = expr`` or update ``x(i) = expr``."""

    target: Expr
    value: Expr


@dataclass
class Connect(Stmt):
    """Chisel connection ``sink := source``."""

    target: Expr
    value: Expr


@dataclass
class BulkConnect(Stmt):
    """Chisel bulk connection ``sink <> source``."""

    target: Expr
    value: Expr


@dataclass
class WhenBranch:
    condition: Expr | None  # None for the trailing .otherwise branch
    body: list[Stmt] = field(default_factory=list)


@dataclass
class WhenStmt(Stmt):
    branches: list[WhenBranch] = field(default_factory=list)


@dataclass
class SwitchCase:
    """One clause inside ``switch { ... }``.

    ``keyword`` is normally ``is``; anything else (``default``, ``otherwise``)
    is syntactically accepted and rejected during elaboration with the same
    message the Scala compiler would produce — this is exactly the failure
    mode of the paper's Fig. 4 non-progress-loop example.
    """

    keyword: str
    patterns: list[Expr]
    body: list[Stmt]
    location: SourceLocation | None = None


@dataclass
class SwitchStmt(Stmt):
    subject: Expr
    cases: list[SwitchCase] = field(default_factory=list)


@dataclass
class ForStmt(Stmt):
    variable: str
    iterable: Expr
    body: list[Stmt] = field(default_factory=list)


@dataclass
class IfStmt(Stmt):
    condition: Expr
    then_body: list[Stmt] = field(default_factory=list)
    else_body: list[Stmt] = field(default_factory=list)


@dataclass
class WithClockStmt(Stmt):
    """``withClock(clk) { ... }`` / ``withClockAndReset(clk, rst) { ... }``."""

    clock: Expr | None
    reset: Expr | None
    body: list[Stmt] = field(default_factory=list)


@dataclass
class ExprStmt(Stmt):
    expr: Expr


# ---------------------------------------------------------------------------
# Declarations
# ---------------------------------------------------------------------------


@dataclass
class Param:
    name: str
    type_annotation: str | None = None
    default: Expr | None = None


@dataclass
class ClassDef(Node):
    name: str
    params: list[Param]
    parents: list[str]
    body: list[Stmt]

    @property
    def is_module(self) -> bool:
        return any(p in ("Module", "RawModule", "MultiIOModule") for p in self.parents)

    @property
    def is_raw_module(self) -> bool:
        return "RawModule" in self.parents


@dataclass
class Program(Node):
    imports: list[str]
    classes: list[ClassDef]

    def find_class(self, name: str) -> ClassDef | None:
        for cls in self.classes:
            if cls.name == name:
                return cls
        return None

    def module_classes(self) -> list[ClassDef]:
        return [cls for cls in self.classes if cls.is_module]
