"""Elaboration: execute the Scala-level program and build a FIRRTL circuit.

Elaboration mirrors real Chisel: the Scala program *runs* (loops unroll,
``val``s bind, integer arithmetic folds) and hardware constructors
(``Wire``, ``Reg``, ``IO``, operators on hardware values) append nodes to the
module under construction.  Diagnostics raised here carry the Table II error
class in their ``code`` field (``A1`` .. ``C2``) so downstream experiment code
can classify them without parsing message text.
"""

from __future__ import annotations

import difflib
from dataclasses import dataclass, field

from repro.chisel import ast, intrinsics
from repro.chisel import values as v
from repro.chisel.naming import Namer
from repro.diagnostics import ChiselError, SourceLocation
from repro.firrtl import ir
from repro.hdl.literals import LiteralError, parse_literal


class Scope:
    """A lexical scope chain for Scala-level bindings."""

    def __init__(self, parent: "Scope | None" = None):
        self.parent = parent
        self.bindings: dict[str, object] = {}
        self.mutable: set[str] = set()

    def define(self, name: str, value: object, mutable: bool = False) -> None:
        self.bindings[name] = value
        if mutable:
            self.mutable.add(name)

    def lookup(self, name: str) -> object:
        scope: Scope | None = self
        while scope is not None:
            if name in scope.bindings:
                return scope.bindings[name]
            scope = scope.parent
        raise KeyError(name)

    def contains(self, name: str) -> bool:
        try:
            self.lookup(name)
            return True
        except KeyError:
            return False

    def assign(self, name: str, value: object) -> bool:
        """Reassign an existing binding; returns False if it is immutable."""
        scope: Scope | None = self
        while scope is not None:
            if name in scope.bindings:
                if name not in scope.mutable:
                    return False
                scope.bindings[name] = value
                return True
            scope = scope.parent
        raise KeyError(name)

    def all_names(self) -> list[str]:
        names: list[str] = []
        scope: Scope | None = self
        while scope is not None:
            names.extend(scope.bindings.keys())
            scope = scope.parent
        return names


@dataclass
class ModuleContext:
    """Mutable state of the module currently being elaborated."""

    name: str
    is_raw: bool
    ports: list[ir.Port] = field(default_factory=list)
    body: ir.Block = field(default_factory=ir.Block)
    block_stack: list[ir.Block] = field(default_factory=list)
    namer: Namer = field(default_factory=Namer)
    clock_stack: list[v.HwValue | None] = field(default_factory=list)
    reset_stack: list[v.HwValue | None] = field(default_factory=list)

    def current_block(self) -> ir.Block:
        return self.block_stack[-1] if self.block_stack else self.body

    def emit(self, stmt: ir.Stmt) -> None:
        self.current_block().append(stmt)

    def current_clock(self) -> v.HwValue | None:
        for clk in reversed(self.clock_stack):
            if clk is not None:
                return clk
        return None

    def current_reset(self) -> v.HwValue | None:
        for rst in reversed(self.reset_stack):
            if rst is not None:
                return rst
        return None


class Elaborator:
    """Elaborate a parsed program into a FIRRTL circuit."""

    def __init__(self, program: ast.Program, top: str | None = None):
        self.program = program
        self.top = top

    # ------------------------------------------------------------------ API

    def elaborate(self) -> ir.Circuit:
        cls = resolve_top(self.program, self.top)
        module = self._elaborate_module(cls)
        return ir.Circuit(module.name, [module])

    # -------------------------------------------------------------- modules

    def _elaborate_module(self, cls: ast.ClassDef) -> ir.Module:
        ctx = ModuleContext(name=cls.name, is_raw=cls.is_raw_module)
        scope = Scope()
        self._bind_builtin_constants(scope)

        for param in cls.params:
            if param.default is None:
                raise ChiselError.at(
                    f"module parameter {param.name!r} has no default value; "
                    "this subset elaborates modules with default parameters only",
                    cls.location,
                    code="PARAM",
                )
            scope.define(param.name, self._eval(param.default, scope, ctx))

        if not ctx.is_raw:
            clock_port = ir.Port("clock", ir.INPUT, ir.ClockType())
            reset_port = ir.Port("reset", ir.INPUT, ir.UIntType(1))
            ctx.ports.extend([clock_port, reset_port])
            ctx.namer.reserve("clock")
            ctx.namer.reserve("reset")
            clock_value = v.HwValue(ir.Reference("clock"), v.ClockT(), v.BINDING_PORT_IN)
            reset_value = v.HwValue(ir.Reference("reset"), v.BoolT(), v.BINDING_PORT_IN)
            scope.define("clock", clock_value)
            scope.define("reset", reset_value)
            ctx.clock_stack.append(clock_value)
            ctx.reset_stack.append(reset_value)
        else:
            ctx.clock_stack.append(None)
            ctx.reset_stack.append(None)

        self._exec_stmts(cls.body, scope, ctx)
        return ir.Module(cls.name, ctx.ports, ctx.body)

    def _bind_builtin_constants(self, scope: Scope) -> None:
        scope.define("DontCare", v.DONT_CARE)

    # ------------------------------------------------------------ statements

    def _exec_stmts(self, stmts: list[ast.Stmt], scope: Scope, ctx: ModuleContext) -> object:
        result: object = None
        for stmt in stmts:
            result = self._exec_stmt(stmt, scope, ctx)
        return result

    def _exec_stmt(self, stmt: ast.Stmt, scope: Scope, ctx: ModuleContext) -> object:
        if isinstance(stmt, ast.ValDef):
            value = self._eval(stmt.value, scope, ctx, name_hint=stmt.name)
            value = self._maybe_name_node(value, stmt.name, scope, ctx, stmt.location)
            scope.define(stmt.name, value, mutable=stmt.mutable)
            return None
        if isinstance(stmt, ast.Connect):
            self._exec_connect(stmt, scope, ctx, bulk=False)
            return None
        if isinstance(stmt, ast.BulkConnect):
            self._exec_connect(stmt, scope, ctx, bulk=True)
            return None
        if isinstance(stmt, ast.Assign):
            self._exec_assign(stmt, scope, ctx)
            return None
        if isinstance(stmt, ast.WhenStmt):
            self._exec_when(stmt, scope, ctx)
            return None
        if isinstance(stmt, ast.SwitchStmt):
            self._exec_switch(stmt, scope, ctx)
            return None
        if isinstance(stmt, ast.ForStmt):
            self._exec_for(stmt, scope, ctx)
            return None
        if isinstance(stmt, ast.IfStmt):
            self._exec_if(stmt, scope, ctx)
            return None
        if isinstance(stmt, ast.WithClockStmt):
            self._exec_with_clock(stmt.clock, stmt.reset, stmt.body, scope, ctx)
            return None
        if isinstance(stmt, ast.ExprStmt):
            return self._eval(stmt.expr, scope, ctx)
        raise ChiselError.at(
            f"unsupported statement {type(stmt).__name__}", stmt.location, code="PARSE"
        )

    def _maybe_name_node(
        self,
        value: object,
        name: str,
        scope: Scope,
        ctx: ModuleContext,
        location: SourceLocation,
    ) -> object:
        """Bind an anonymous combinational expression to a named node."""
        if isinstance(value, v.HwValue) and value.binding == v.BINDING_OP:
            node_name = ctx.namer.reserve(name)
            ctx.emit(ir.DefNode(node_name, value.expr, location))
            return v.HwValue(ir.Reference(node_name), value.tpe, v.BINDING_NODE)
        return value

    # -- connections ---------------------------------------------------------

    def _exec_connect(
        self, stmt: ast.Connect | ast.BulkConnect, scope: Scope, ctx: ModuleContext, bulk: bool
    ) -> None:
        target = self._eval(stmt.target, scope, ctx)
        value = self._eval(stmt.value, scope, ctx)
        self._connect_values(target, value, stmt.location, ctx, bulk=bulk)

    def _connect_values(
        self,
        target: object,
        value: object,
        location: SourceLocation,
        ctx: ModuleContext,
        bulk: bool = False,
    ) -> None:
        if isinstance(target, (v.HwType, v.Directed)):
            raise ChiselError.at(
                f"{v.describe_value(target)} must be hardware, not a bare Chisel type. "
                "Perhaps you forgot to wrap it in Wire(_) or IO(_)?",
                location,
                code="B2",
            )
        if isinstance(value, (v.HwType, v.Directed)):
            raise ChiselError.at(
                f"{v.describe_value(value)} must be hardware, not a bare Chisel type. "
                "Perhaps you forgot to wrap it in Wire(_) or IO(_)?",
                location,
                code="B2",
            )
        if isinstance(value, v.DontCareValue):
            if isinstance(target, v.HwValue):
                ctx.emit(ir.Invalidate(target.expr, location))
                return
            if isinstance(target, v.BundleView):
                for member in target.members.values():
                    self._connect_values(member, v.DONT_CARE, location, ctx, bulk)
                return
        if isinstance(target, v.BundleView) or isinstance(value, v.BundleView):
            self._connect_bundle_views(target, value, location, ctx)
            return
        if not isinstance(target, v.HwValue):
            raise ChiselError.at(
                f"left-hand side of := must be hardware, found {v.describe_value(target)}",
                location,
                code="B2",
            )
        if not isinstance(value, v.HwValue):
            raise ChiselError.at(
                f"type mismatch;\n found   : {v.describe_value(value)}\n "
                f"required: chisel3.Data (hardware)",
                location,
                code="B5",
            )
        if target.binding == v.BINDING_PORT_IN:
            raise ChiselError.at(
                f"cannot connect to input port {target.expr}: "
                "input ports are driven by the parent, not the module body",
                location,
                code="CONNECT",
            )
        if target.binding in (v.BINDING_LITERAL, v.BINDING_OP, v.BINDING_NODE):
            raise ChiselError.at(
                f"cannot reassign to a read-only hardware value ({target.expr}); "
                "individual bits of a UInt are read-only — use a Vec of Bool and "
                "asUInt, or connect the whole signal",
                location,
                code="READONLY",
            )
        self._check_connect_types(target, value, location)
        ctx.emit(ir.Connect(target.expr, value.expr, location))

    def _connect_bundle_views(
        self, target: object, value: object, location: SourceLocation, ctx: ModuleContext
    ) -> None:
        if not isinstance(target, v.BundleView) or not isinstance(value, v.BundleView):
            raise ChiselError.at(
                "bundle connection requires bundles on both sides; found "
                f"{v.describe_value(target)} := {v.describe_value(value)}",
                location,
                code="B4",
            )
        missing = [name for name in target.members if name not in value.members]
        if missing:
            raise ChiselError.at(
                "Connection between sink (Bundle) and source (Bundle) failed: "
                f"source Record missing field ({missing[0]}).",
                location,
                code="B4",
            )
        for name, member in target.members.items():
            self._connect_values(member, value.members[name], location, ctx)

    def _check_connect_types(
        self, target: v.HwValue, value: v.HwValue, location: SourceLocation
    ) -> None:
        t_tpe, s_tpe = target.tpe, value.tpe
        if isinstance(t_tpe, v.BundleT) or isinstance(s_tpe, v.BundleT):
            if not isinstance(t_tpe, v.BundleT) or not isinstance(s_tpe, v.BundleT):
                raise ChiselError.at(
                    f"type mismatch in connection: sink is {t_tpe.chisel_name()} but "
                    f"source is {s_tpe.chisel_name()}",
                    location,
                    code="B4",
                )
            sink_fields = {f.name for f in t_tpe.fields}
            source_fields = {f.name for f in s_tpe.fields}
            missing = sorted(sink_fields - source_fields)
            if missing:
                raise ChiselError.at(
                    f"Connection between sink ({t_tpe.type_name}) and source "
                    f"({s_tpe.type_name}) failed: source Record missing field "
                    f"({missing[0]}).",
                    location,
                    code="B4",
                )
            return
        if isinstance(t_tpe, v.VecT) != isinstance(s_tpe, v.VecT):
            raise ChiselError.at(
                f"type mismatch in connection: sink is {t_tpe.chisel_name()} but "
                f"source is {s_tpe.chisel_name()}",
                location,
                code="B5",
            )
        if isinstance(t_tpe, v.VecT) and isinstance(s_tpe, v.VecT):
            if t_tpe.size != s_tpe.size:
                raise ChiselError.at(
                    f"cannot connect Vec of size {s_tpe.size} to Vec of size {t_tpe.size}",
                    location,
                    code="B5",
                )
            return
        if isinstance(t_tpe, v.ClockT) != isinstance(s_tpe, v.ClockT):
            raise ChiselError.at(
                f"type mismatch in connection: sink is {t_tpe.chisel_name()} but "
                f"source is {s_tpe.chisel_name()}",
                location,
                code="B5",
            )
        if isinstance(t_tpe, v.SIntT) and isinstance(s_tpe, (v.UIntT, v.BoolT)):
            raise ChiselError.at(
                "type mismatch;\n found   : chisel3.UInt\n required: chisel3.SInt",
                location,
                code="B5",
            )
        if isinstance(t_tpe, (v.UIntT, v.BoolT)) and isinstance(s_tpe, v.SIntT):
            raise ChiselError.at(
                "type mismatch;\n found   : chisel3.SInt\n required: chisel3.UInt",
                location,
                code="B5",
            )

    # -- Scala assignment ------------------------------------------------------

    def _exec_assign(self, stmt: ast.Assign, scope: Scope, ctx: ModuleContext) -> None:
        if isinstance(stmt.target, ast.Ident):
            name = stmt.target.name
            if not scope.contains(name):
                raise self._not_found_error(name, scope, stmt.location)
            current = scope.lookup(name)
            if isinstance(current, (v.HwValue, v.BundleView)):
                raise ChiselError.at(
                    f"reassignment to val {name}: use ':=' to drive hardware signals, "
                    "'=' only reassigns Scala vars",
                    stmt.location,
                    code="A2",
                )
            value = self._eval(stmt.value, scope, ctx)
            if not scope.assign(name, value):
                raise ChiselError.at(
                    f"reassignment to val {name}", stmt.location, code="A2"
                )
            return
        raise ChiselError.at(
            "unsupported assignment target; use ':=' for hardware connections",
            stmt.location,
            code="PARSE",
        )

    # -- when / switch ----------------------------------------------------------

    def _exec_when(self, stmt: ast.WhenStmt, scope: Scope, ctx: ModuleContext) -> None:
        self._emit_when_branches(stmt.branches, scope, ctx, stmt.location)

    def _emit_when_branches(
        self,
        branches: list[ast.WhenBranch],
        scope: Scope,
        ctx: ModuleContext,
        location: SourceLocation,
    ) -> None:
        if not branches:
            return
        branch = branches[0]
        if branch.condition is None:
            # A bare otherwise at the head (shouldn't happen) — just execute.
            self._exec_stmts(branch.body, Scope(scope), ctx)
            return
        condition = self._eval(branch.condition, scope, ctx)
        cond_hw = self._require_bool(condition, location, context="when()")
        conditional = ir.Conditionally(cond_hw.expr, ir.Block(), ir.Block(), location)
        ctx.emit(conditional)
        ctx.block_stack.append(conditional.conseq)
        self._exec_stmts(branch.body, Scope(scope), ctx)
        ctx.block_stack.pop()
        rest = branches[1:]
        if not rest:
            return
        ctx.block_stack.append(conditional.alt)
        if rest[0].condition is None:
            self._exec_stmts(rest[0].body, Scope(scope), ctx)
        else:
            self._emit_when_branches(rest, scope, ctx, location)
        ctx.block_stack.pop()

    def _exec_switch(self, stmt: ast.SwitchStmt, scope: Scope, ctx: ModuleContext) -> None:
        subject = self._eval(stmt.subject, scope, ctx)
        if not isinstance(subject, v.HwValue):
            raise ChiselError.at(
                f"switch() requires a hardware value, found {v.describe_value(subject)}",
                stmt.location,
                code="B5",
            )
        branches: list[ast.WhenBranch] = []
        for case in stmt.cases:
            if case.keyword != "is":
                raise ChiselError.at(
                    f"not found: value {case.keyword}. Chisel's switch block only "
                    "supports is(...) clauses; there is no default case — provide a "
                    "default by initializing the signal with WireDefault before the "
                    "switch",
                    case.location or stmt.location,
                    code="A1",
                )
            if not case.patterns:
                raise ChiselError.at(
                    "is(...) requires at least one literal pattern",
                    case.location or stmt.location,
                    code="A3",
                )
            condition: ast.Expr | None = None
            for pattern in case.patterns:
                comparison = ast.BinaryOp(pattern.location, "===", stmt.subject, pattern)
                if condition is None:
                    condition = comparison
                else:
                    condition = ast.BinaryOp(pattern.location, "||", condition, comparison)
            branches.append(ast.WhenBranch(condition, case.body))
        self._emit_when_branches(branches, scope, ctx, stmt.location)

    # -- Scala control flow -------------------------------------------------------

    def _exec_for(self, stmt: ast.ForStmt, scope: Scope, ctx: ModuleContext) -> None:
        iterable = self._eval(stmt.iterable, scope, ctx)
        items: list[object]
        if isinstance(iterable, range):
            items = list(iterable)
        elif isinstance(iterable, (list, tuple)):
            items = list(iterable)
        elif isinstance(iterable, v.HwValue) and isinstance(iterable.tpe, v.VecT):
            items = [
                self._element_of(iterable, index, stmt.location) for index in range(iterable.tpe.size)
            ]
        else:
            raise ChiselError.at(
                f"cannot iterate over {v.describe_value(iterable)} in a for loop",
                stmt.location,
                code="B5",
            )
        for item in items:
            loop_scope = Scope(scope)
            loop_scope.define(stmt.variable, item, mutable=True)
            self._exec_stmts(stmt.body, loop_scope, ctx)

    def _exec_if(self, stmt: ast.IfStmt, scope: Scope, ctx: ModuleContext) -> None:
        condition = self._eval(stmt.condition, scope, ctx)
        if isinstance(condition, v.HwValue):
            raise ChiselError.at(
                "type mismatch;\n found   : chisel3.Bool (hardware)\n required: Boolean\n"
                "Scala if() cannot branch on a hardware value — use when() or Mux()",
                stmt.location,
                code="B5",
            )
        if condition:
            self._exec_stmts(stmt.then_body, Scope(scope), ctx)
        else:
            self._exec_stmts(stmt.else_body, Scope(scope), ctx)

    def _exec_with_clock(
        self,
        clock_expr: ast.Expr | None,
        reset_expr: ast.Expr | None,
        body: list[ast.Stmt],
        scope: Scope,
        ctx: ModuleContext,
    ) -> object:
        clock_value: v.HwValue | None = None
        reset_value: v.HwValue | None = None
        if clock_expr is not None:
            clock = self._eval(clock_expr, scope, ctx)
            clock_value = self._require_clock(clock, clock_expr.location)
        if reset_expr is not None:
            reset = self._eval(reset_expr, scope, ctx)
            reset_value = self._require_bool(reset, reset_expr.location, context="withReset()")
        ctx.clock_stack.append(clock_value)
        ctx.reset_stack.append(reset_value)
        try:
            return self._exec_stmts(body, Scope(scope), ctx)
        finally:
            ctx.clock_stack.pop()
            ctx.reset_stack.pop()

    # ---------------------------------------------------------------- helpers

    def _require_bool(
        self, value: object, location: SourceLocation, context: str
    ) -> v.HwValue:
        if isinstance(value, v.HwValue):
            if isinstance(value.tpe, v.BoolT):
                return value
            if isinstance(value.tpe, v.UIntT) and value.tpe.width == 1:
                return v.HwValue(value.expr, v.BoolT(), value.binding)
            raise ChiselError.at(
                f"type mismatch;\n found   : {value.type_name()}\n required: chisel3.Bool\n"
                f"{context} requires a Bool condition",
                location,
                code="B5",
            )
        raise ChiselError.at(
            f"type mismatch;\n found   : {v.describe_value(value)}\n required: chisel3.Bool\n"
            f"{context} requires a hardware Bool condition",
            location,
            code="B5",
        )

    def _require_clock(self, value: object, location: SourceLocation) -> v.HwValue:
        if isinstance(value, v.HwValue) and isinstance(value.tpe, v.ClockT):
            return value
        if isinstance(value, (v.HwType, v.Directed)):
            raise ChiselError.at(
                f"{v.describe_value(value)}: Clock must be hardware, not a bare Chisel "
                "type. Perhaps you forgot to wrap it in Wire(_) or IO(_)?",
                location,
                code="B2",
            )
        described = (
            value.type_name() if isinstance(value, v.HwValue) else v.describe_value(value)
        )
        raise ChiselError.at(
            f"type mismatch;\n found   : {described}\n required: chisel3.Clock",
            location,
            code="B5",
        )

    def _not_found_error(
        self, name: str, scope: Scope, location: SourceLocation
    ) -> ChiselError:
        suggestion = None
        matches = difflib.get_close_matches(name, scope.all_names(), n=1)
        if matches:
            suggestion = f"Did you mean {matches[0]}?"
        message = f"not found: value {name}"
        if suggestion:
            message = f"{message}. {suggestion}"
        return ChiselError.at(message, location, code="A1")

    def _element_of(self, vec: v.HwValue, index: int, location: SourceLocation) -> v.HwValue:
        assert isinstance(vec.tpe, v.VecT)
        if index < 0 or index >= vec.tpe.size:
            raise ChiselError.at(
                f"{index} is out of bounds (min 0, max {vec.tpe.size - 1})",
                location,
                code="B7",
            )
        return v.HwValue(ir.SubIndex(vec.expr, index), vec.tpe.element, vec.binding)

    # ------------------------------------------------------------- expressions

    def _eval(
        self,
        expr: ast.Expr,
        scope: Scope,
        ctx: ModuleContext,
        name_hint: str | None = None,
    ) -> object:
        # Dispatch on the exact node type (the AST has no subclasses of its
        # concrete nodes), most frequent first.
        kind = type(expr)
        if kind is ast.MethodCall:
            return self._eval_call(expr, scope, ctx, name_hint)
        if kind is ast.Ident:
            try:
                return scope.lookup(expr.name)
            except KeyError:
                raise self._not_found_error(expr.name, scope, expr.location) from None
        if kind is ast.IntLit or kind is ast.BoolLit or kind is ast.StringLit:
            return expr.value
        if kind is ast.FieldSelect:
            target = self._eval(expr.target, scope, ctx)
            return intrinsics.call_member(
                self, target, expr.name, [], [], [], expr.location, scope, ctx, name_hint
            )
        if kind is ast.BinaryOp:
            left = self._eval(expr.left, scope, ctx)
            right = self._eval(expr.right, scope, ctx)
            return intrinsics.binary_op(self, expr.op, left, right, expr.location)
        if kind is ast.UnaryOp:
            operand = self._eval(expr.operand, scope, ctx)
            return intrinsics.unary_op(self, expr.op, operand, expr.location)
        if kind is ast.Apply:
            target = self._eval(expr.target, scope, ctx)
            args = [self._eval(a, scope, ctx) for a in expr.args]
            return intrinsics.apply_value(self, target, args, expr.location)
        if kind is ast.BundleLiteral:
            return self._eval_bundle_literal(expr, scope, ctx)
        if kind is ast.NewInstance:
            return self._eval_new_instance(expr, scope, ctx)
        if kind is ast.IfExpr:
            condition = self._eval(expr.condition, scope, ctx)
            if isinstance(condition, v.HwValue):
                raise ChiselError.at(
                    "Scala if-expression cannot branch on a hardware value — use Mux()",
                    expr.location,
                    code="B5",
                )
            if condition:
                return self._eval(expr.then_value, scope, ctx, name_hint)
            if expr.else_value is None:
                return None
            return self._eval(expr.else_value, scope, ctx, name_hint)
        if kind is ast.WithClockExpr:
            return self._exec_with_clock(expr.clock, expr.reset, expr.body, scope, ctx)
        if kind is ast.Lambda:
            return ("lambda", expr, scope)
        if kind is ast.Placeholder:
            raise ChiselError.at(
                "unexpected placeholder '_' outside a lambda argument",
                expr.location,
                code="PARSE",
            )
        raise ChiselError.at(
            f"unsupported expression {type(expr).__name__}", expr.location, code="PARSE"
        )

    # -- calls -------------------------------------------------------------------

    def _eval_call(
        self,
        expr: ast.MethodCall,
        scope: Scope,
        ctx: ModuleContext,
        name_hint: str | None = None,
    ) -> object:
        args_ast = expr.args
        if expr.target is None:
            # Bare call: a builtin constructor/function, or a call of a local value.
            if expr.name not in intrinsics.BUILTIN_NAMES and scope.contains(expr.name):
                target_value = scope.lookup(expr.name)
                args = [self._eval(a, scope, ctx) for a in args_ast]
                return intrinsics.apply_value(self, target_value, args, expr.location)
            return intrinsics.call_builtin(self, expr, scope, ctx, name_hint)
        if (
            isinstance(expr.target, ast.Ident)
            and expr.target.name in intrinsics.COMPANION_OBJECTS
            and not scope.contains(expr.target.name)
        ):
            target_value: object = ("companion", expr.target.name)
        else:
            target_value = self._eval(expr.target, scope, ctx)
        args = [self._eval(a, scope, ctx) for a in args_ast]
        extra = [[self._eval(a, scope, ctx) for a in arg_list] for arg_list in expr.extra_arg_lists]
        return intrinsics.call_member(
            self, target_value, expr.name, args, expr.type_args, extra, expr.location, scope, ctx, name_hint
        )

    # -- bundles / classes ----------------------------------------------------------

    def _eval_bundle_literal(
        self, expr: ast.BundleLiteral, scope: Scope, ctx: ModuleContext
    ) -> v.BundleT:
        fields: list[v.BundleFieldT] = []
        for member in expr.members:
            value = self._eval(member.value, scope, ctx)
            direction: str | None = None
            tpe: v.HwType
            if isinstance(value, v.Directed):
                direction = value.direction
                tpe = value.tpe
            elif isinstance(value, v.HwType):
                tpe = value
            else:
                raise ChiselError.at(
                    f"Bundle field {member.name!r} must be a Chisel type, found "
                    f"{v.describe_value(value)}",
                    member.location,
                    code="B2",
                )
            fields.append(v.BundleFieldT(member.name, tpe, direction))
        return v.BundleT(tuple(fields))

    def _eval_new_instance(
        self, expr: ast.NewInstance, scope: Scope, ctx: ModuleContext
    ) -> object:
        cls = self.program.find_class(expr.class_name)
        if cls is None:
            raise self._not_found_error(expr.class_name, scope, expr.location)
        if "Bundle" in cls.parents:
            return self._elaborate_bundle_class(cls, expr, scope, ctx)
        if cls.is_module:
            raise ChiselError.at(
                "submodule instantiation (Module(new ...)) is not supported by this "
                "Chisel subset; flatten the design into a single module",
                expr.location,
                code="UNSUPPORTED",
            )
        raise ChiselError.at(
            f"cannot instantiate class {expr.class_name!r}: only Bundle subclasses are "
            "supported with new",
            expr.location,
            code="UNSUPPORTED",
        )

    def _elaborate_bundle_class(
        self,
        cls: ast.ClassDef,
        expr: ast.NewInstance,
        scope: Scope,
        ctx: ModuleContext,
    ) -> v.BundleT:
        bundle_scope = Scope(scope)
        for index, param in enumerate(cls.params):
            if index < len(expr.args):
                bundle_scope.define(param.name, self._eval(expr.args[index], scope, ctx))
            elif param.default is not None:
                bundle_scope.define(param.name, self._eval(param.default, scope, ctx))
            else:
                raise ChiselError.at(
                    f"missing argument for parameter {param.name} of {cls.name}",
                    expr.location,
                    code="A3",
                )
        fields: list[v.BundleFieldT] = []
        for stmt in cls.body:
            if not isinstance(stmt, ast.ValDef):
                continue
            value = self._eval(stmt.value, bundle_scope, ctx)
            direction: str | None = None
            if isinstance(value, v.Directed):
                direction = value.direction
                tpe = value.tpe
            elif isinstance(value, v.HwType):
                tpe = value
            else:
                raise ChiselError.at(
                    f"Bundle field {stmt.name!r} must be a Chisel type, found "
                    f"{v.describe_value(value)}",
                    stmt.location,
                    code="B2",
                )
            fields.append(v.BundleFieldT(stmt.name, tpe, direction))
        return v.BundleT(tuple(fields), type_name=cls.name)


def resolve_top(program: ast.Program, top: str | None) -> ast.ClassDef:
    """The class that will be elaborated (explicit ``top`` or the last Module)."""
    module_classes = program.module_classes()
    if not module_classes:
        raise ChiselError.at(
            "no class extending Module was found in the source",
            program.location,
            code="NO_MODULE",
        )
    if top is not None:
        cls = program.find_class(top)
        if cls is None or not cls.is_module:
            raise ChiselError.at(
                f"top module {top!r} was not found in the source "
                f"(available: {', '.join(c.name for c in module_classes)})",
                program.location,
                code="NO_MODULE",
            )
        return cls
    return module_classes[-1]


def elaborate(program: ast.Program, top: str | None = None) -> ir.Circuit:
    """Uncached :meth:`Elaborator.elaborate`, kept as the benchmark's layer boundary."""
    return Elaborator(program, top).elaborate()
