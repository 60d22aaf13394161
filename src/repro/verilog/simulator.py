"""Cycle-based two-state simulator for the supported Verilog subset.

The simulator executes a single module (no hierarchy): inputs are poked by
the testbench, combinational logic settles, and :meth:`Simulation.step`
advances registered logic by one clock edge.  :class:`Simulation` is the
tree-walking interpreter: it walks the AST and settles with a bounded
fixed-point loop, so it also runs modules the kernel compiler rejects
(combinational cycles, latch-like self reads, multiple drivers).  It is the
testbench's step-wise tier and the oracle the trace tier's compiled kernels
(:mod:`repro.verilog.compile_sim`) are checked against.  It shares only the
static analysis with those kernels, so a run that falls back to it after a
kernel crash runs independent code.

Expression evaluation follows Verilog's context-determined sizing rules in a
simplified form that is sufficient for the emitted and hand-written designs:

* arithmetic/bitwise operands are evaluated in the width of the widest
  operand or the assignment target, whichever is larger;
* comparisons and reductions are self-determined and produce one bit;
* everything is two-state (``x``/``z`` collapse to 0).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro import settings
from repro.hdl.bits import Bits, mask, to_signed
from repro.verilog import vast
from repro.verilog.analysis import AnalysisError, ModuleAnalysis


class SimulationError(Exception):
    """Raised for unresolvable references, non-convergence or unsupported forms."""


def read_setting(name: str):
    """:func:`repro.settings.read` for a simulator knob, raising
    :class:`SimulationError` (which the simulator's callers handle)."""
    try:
        return settings.read(name)
    except settings.SettingError as exc:
        raise SimulationError(str(exc)) from None


_MAX_SETTLE_ITERATIONS = 256


@dataclass
class _SignalInfo:
    width: int
    signed: bool
    is_input: bool = False


@dataclass
class Simulation:
    """Simulate one Verilog module instance.

    ``values`` holds every non-memory signal; memories live element-wise in
    ``memories``.  Read signals through :meth:`peek`/:meth:`peek_signed`,
    which settle deferred pokes first.
    """

    module: vast.VModule
    signals: dict[str, _SignalInfo] = field(default_factory=dict)
    values: dict[str, Bits] = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.memory_depths: dict[str, int] = {}
        self.memories: dict[str, list[int]] = {}
        self._pending_mem_writes: list[tuple[str, int, int]] = []
        for port in self.module.ports:
            self.signals[port.name] = _SignalInfo(
                port.width, port.signed, is_input=(port.direction == "input")
            )
        for net in self.module.nets:
            if net.name in self.signals:
                # ``output reg q`` style double declarations refine the port.
                self.signals[net.name].signed = self.signals[net.name].signed or net.signed
                continue
            self.signals[net.name] = _SignalInfo(net.width, net.signed)
            if net.depth is not None:
                self.memory_depths[net.name] = net.depth

        self._needs_settle = False
        # Lazily-built memoized static analysis.
        self._analysis: ModuleAnalysis | None = None
        for name, info in self.signals.items():
            if name in self.memory_depths:
                continue  # memory state lives element-wise in self.memories
            self.values[name] = Bits(0, info.width, info.signed)
        for name, depth in self.memory_depths.items():
            self.memories[name] = [0] * depth
        self.settle()

    # ------------------------------------------------------------------ access

    def poke(self, name: str, value: int, settle: bool = True) -> None:
        """Drive an input (or force any signal) to ``value``.

        With ``settle=False`` the combinational update is deferred until the
        next read, step or explicit :meth:`settle` — batching several writes
        (or a write that is immediately followed by a clock edge) into one
        settle pass.
        """
        info = self._info(name)
        self.values[name] = Bits(value, info.width, info.signed)
        if settle:
            self.settle()
        else:
            self._needs_settle = True

    def poke_many(self, assignments: dict[str, int], settle: bool = True) -> None:
        for name, value in assignments.items():
            self.poke(name, value, settle=False)
        if settle:
            self.settle()

    def peek(self, name: str) -> int:
        """Read the current (unsigned) value of a signal."""
        self._settle_if_needed()
        self._check_name(name)
        return self.values[name].value

    def peek_signed(self, name: str) -> int:
        self._settle_if_needed()
        self._check_name(name)
        return self.values[name].as_int

    def _check_name(self, name: str) -> str:
        if name not in self.signals:
            raise SimulationError(f"unknown signal {name!r} in module {self.module.name}")
        return name

    def _info(self, name: str) -> _SignalInfo:
        if name not in self.signals:
            raise SimulationError(f"unknown signal {name!r} in module {self.module.name}")
        return self.signals[name]

    # ---------------------------------------------------------------- execution

    def _settle_if_needed(self) -> None:
        if self._needs_settle:
            self.settle()

    def flush(self) -> None:
        """Apply any deferred pokes now (no-op if already settled).

        Call before overwriting inputs whose settled effect must be observed —
        latch-like combinational logic is path-dependent, so a deferred settle
        that is skipped entirely (rather than merged with an equivalent later
        one) could change behaviour.
        """
        self._settle_if_needed()

    def settle(self) -> None:
        """Propagate combinational logic to a fixed point."""
        self._needs_settle = False
        for _ in range(_MAX_SETTLE_ITERATIONS):
            changed = False
            for assign in self.module.assigns:
                changed |= self._run_continuous_assign(assign)
            for block in self.module.always_blocks:
                if block.is_combinational:
                    changed |= self._run_comb_block(block)
            if not changed:
                return
        raise SimulationError(
            f"combinational logic did not settle in module {self.module.name}; "
            "the design probably contains a combinational loop"
        )

    def step(self, clock: str = "clock", cycles: int = 1) -> None:
        """Advance ``cycles`` positive edges of ``clock``.

        Combinational state is settled before each edge; the settle after the
        final edge is deferred until the next read.
        """
        for _ in range(cycles):
            self._settle_if_needed()
            pending: dict[str, Bits] = {}
            self._pending_mem_writes = []
            for block in self.module.always_blocks:
                if block.is_combinational:
                    continue
                if any(edge == "posedge" and signal == clock for edge, signal in block.edges):
                    env = dict(self.values)
                    self._exec_stmts(block.body, env, pending, nonblocking_to_pending=True)
            for name, value in pending.items():
                info = self._info(name)
                self.values[name] = Bits(value.value, info.width, info.signed)
            # Memory writes commit after every block ran, so same-edge reads
            # observed the old contents (read-first semantics).
            for name, index, raw in self._pending_mem_writes:
                self.memories[name][index] = raw
            self._pending_mem_writes = []
            self._needs_settle = True

    # --------------------------------------------------------- block execution

    def _run_continuous_assign(self, assign: vast.VAssign) -> bool:
        return self._write(assign.target, self._eval_for_target(assign.value, assign.target), self.values)

    def _run_comb_block(self, block: vast.VAlways) -> bool:
        env = dict(self.values)
        pending: dict[str, Bits] = {}
        self._exec_stmts(block.body, env, pending, nonblocking_to_pending=False)
        changed = False
        for name, value in env.items():
            if name not in self.values or self.values[name].value != value.value:
                info = self._info(name)
                self.values[name] = Bits(value.value, info.width, info.signed)
                changed = True
        return changed

    def _exec_stmts(
        self,
        stmts: list[vast.VStmt],
        env: dict[str, Bits],
        pending: dict[str, Bits],
        nonblocking_to_pending: bool,
    ) -> None:
        for stmt in stmts:
            if isinstance(stmt, vast.VBlockingAssign):
                if isinstance(stmt.target, vast.VIdent) and stmt.target.name == "_":
                    continue  # null statement placeholder
                self._write(stmt.target, self._eval_for_target(stmt.value, stmt.target, env), env)
            elif isinstance(stmt, vast.VNonBlockingAssign):
                value = self._eval_for_target(stmt.value, stmt.target, env)
                if nonblocking_to_pending:
                    self._write(stmt.target, value, pending, base=env)
                else:
                    self._write(stmt.target, value, env)
            elif isinstance(stmt, vast.VIf):
                condition = self._eval(stmt.condition, env)
                if condition.value != 0:
                    self._exec_stmts(stmt.then_body, env, pending, nonblocking_to_pending)
                else:
                    self._exec_stmts(stmt.else_body, env, pending, nonblocking_to_pending)
            elif isinstance(stmt, vast.VCase):
                self._exec_case(stmt, env, pending, nonblocking_to_pending)
            else:
                raise SimulationError(f"unsupported statement {stmt!r}")

    def _exec_case(self, stmt, env, pending, nonblocking_to_pending) -> None:
        subject = self._eval(stmt.subject, env)
        default_item = None
        for item in stmt.items:
            if item.patterns is None:
                default_item = item
                continue
            for pattern in item.patterns:
                value = self._eval(pattern, env)
                if value.value == subject.value:
                    self._exec_stmts(item.body, env, pending, nonblocking_to_pending)
                    return
        if default_item is not None:
            self._exec_stmts(default_item.body, env, pending, nonblocking_to_pending)

    # --------------------------------------------------------------- assignment

    def _write(
        self,
        target: vast.VExpr,
        value: Bits,
        store: dict[str, Bits],
        base: dict[str, Bits] | None = None,
    ) -> bool:
        source = base if base is not None else store
        if isinstance(target, vast.VIdent):
            info = self._info(target.name)
            new_value = Bits(value.as_int if value.signed else value.value, info.width, info.signed)
            old = store.get(target.name)
            store[target.name] = new_value
            return old is None or old.value != new_value.value
        if isinstance(target, vast.VIndex):
            name = _target_name(target.target)
            info = self._info(name)
            index = self._eval(target.index, source).value
            if name in self.memory_depths:
                # Memory element write; out-of-range addresses are dropped.
                if index >= self.memory_depths[name]:
                    return False
                raw = value.value & mask(info.width)
                if base is not None:
                    # Non-blocking inside a clocked block: defer the commit so
                    # same-edge reads still see the old element (read-first).
                    self._pending_mem_writes.append((name, index, raw))
                    return True
                changed = self.memories[name][index] != raw
                self.memories[name][index] = raw
                return changed
            current = store.get(name, source.get(name, Bits(0, info.width, info.signed)))
            if index >= info.width:
                return False
            bit = value.value & 1
            new_raw = (current.value & ~(1 << index)) | (bit << index)
            new_value = Bits(new_raw, info.width, info.signed)
            changed = current.value != new_value.value
            store[name] = new_value
            return changed
        if isinstance(target, vast.VRange):
            name = _target_name(target.target)
            info = self._info(name)
            current = store.get(name, source.get(name, Bits(0, info.width, info.signed)))
            width = target.msb - target.lsb + 1
            field_mask = mask(width) << target.lsb
            new_raw = (current.value & ~field_mask) | ((value.value & mask(width)) << target.lsb)
            new_value = Bits(new_raw, info.width, info.signed)
            changed = current.value != new_value.value
            store[name] = new_value
            return changed
        raise SimulationError(f"unsupported assignment target {target!r}")

    # --------------------------------------------------------------- evaluation

    def _eval_for_target(
        self, expr: vast.VExpr, target: vast.VExpr, env: dict[str, Bits] | None = None
    ) -> Bits:
        env = env if env is not None else self.values
        context = self._target_width(target)
        return self._eval(expr, env, context)

    def _target_width(self, target: vast.VExpr) -> int:
        if isinstance(target, vast.VIdent):
            return self._info(target.name).width
        if isinstance(target, vast.VIndex):
            if (
                isinstance(target.target, vast.VIdent)
                and target.target.name in self.memory_depths
            ):
                return self._info(target.target.name).width
            return 1
        if isinstance(target, vast.VRange):
            return target.msb - target.lsb + 1
        raise SimulationError(f"unsupported assignment target {target!r}")

    def _static_analysis(self) -> ModuleAnalysis:
        # The same (memoized) static analysis drives the kernel codegen: the
        # compiled kernels and the interpreter agree on widths and signedness
        # by construction, not by keeping two copies in sync.
        if self._analysis is None:
            self._analysis = ModuleAnalysis(self.module)
        return self._analysis

    def self_width(self, expr: vast.VExpr, env: dict[str, Bits]) -> int:
        try:
            return self._static_analysis().width(expr)
        except AnalysisError as exc:
            raise SimulationError(str(exc)) from None

    def _is_signed(self, expr: vast.VExpr, env: dict[str, Bits]) -> bool:
        try:
            return self._static_analysis().signedness(expr)
        except AnalysisError as exc:
            raise SimulationError(str(exc)) from None

    def _eval(self, expr: vast.VExpr, env: dict[str, Bits], context: int | None = None) -> Bits:
        width = max(self.self_width(expr, env), context or 0)
        return self._eval_sized(expr, env, width)

    def _eval_sized(self, expr: vast.VExpr, env: dict[str, Bits], width: int) -> Bits:
        signed = self._is_signed(expr, env)

        if isinstance(expr, vast.VIdent):
            if expr.name not in env:
                raise SimulationError(
                    f"reference to undeclared signal {expr.name!r} in module {self.module.name}"
                )
            value = env[expr.name]
            return Bits(value.as_int if value.signed else value.value, width, signed)
        if isinstance(expr, vast.VLiteral):
            return Bits(expr.value, width, signed)
        if isinstance(expr, vast.VCall):
            operand = self._eval_sized(expr.args[0], env, width)
            if expr.name == "$signed":
                return Bits(operand.value, width, True)
            return Bits(operand.value, width, False)
        if isinstance(expr, vast.VUnary):
            if expr.op in ("&", "|", "^", "~&", "~|", "~^"):
                operand = self._eval(expr.operand, env)
                reductions = {
                    "&": operand.and_reduce(),
                    "|": operand.or_reduce(),
                    "^": operand.xor_reduce(),
                    "~&": operand.and_reduce().bit_not(),
                    "~|": operand.or_reduce().bit_not(),
                    "~^": operand.xor_reduce().bit_not(),
                }
                return Bits(reductions[expr.op].value, max(width, 1), False)
            if expr.op == "!":
                operand = self._eval(expr.operand, env)
                return Bits(0 if operand.value else 1, max(width, 1), False)
            operand = self._eval_sized(expr.operand, env, width)
            if expr.op == "~":
                return Bits(~operand.value, width, signed)
            if expr.op == "-":
                return Bits(-operand.as_int, width, signed)
            raise SimulationError(f"unsupported unary operator {expr.op}")
        if isinstance(expr, vast.VBinary):
            return self._eval_binary(expr, env, width, signed)
        if isinstance(expr, vast.VTernary):
            condition = self._eval(expr.condition, env)
            chosen = expr.true_value if condition.value else expr.false_value
            return self._eval_sized(chosen, env, width)
        if isinstance(expr, vast.VConcat):
            result = Bits(0, 0)
            for part in expr.parts:
                part_value = self._eval(part, env)
                result = result.cat(Bits(part_value.value, self.self_width(part, env)))
            return Bits(result.value, max(width, result.width), False)
        if isinstance(expr, vast.VRepeat):
            part_width = self.self_width(expr.value, env)
            part_value = self._eval(expr.value, env)
            replicated = Bits(part_value.value, part_width).replicate(expr.count)
            return Bits(replicated.value, max(width, replicated.width), False)
        if isinstance(expr, vast.VIndex):
            if (
                isinstance(expr.target, vast.VIdent)
                and expr.target.name in self.memory_depths
            ):
                name = expr.target.name
                info = self._info(name)
                index = self._eval(expr.index, env).value
                element = (
                    self.memories[name][index]
                    if index < self.memory_depths[name]
                    else 0  # out-of-range reads collapse to 0 (two-state)
                )
                if signed:
                    element = to_signed(element, info.width)
                return Bits(element, max(width, info.width), signed)
            target = self._eval(expr.target, env)
            index = self._eval(expr.index, env).value
            bit = (target.value >> index) & 1 if index < target.width else 0
            return Bits(bit, max(width, 1), False)
        if isinstance(expr, vast.VRange):
            target = self._eval(expr.target, env)
            field_width = expr.msb - expr.lsb + 1
            value = (target.value >> expr.lsb) & mask(field_width)
            return Bits(value, max(width, field_width), False)
        raise SimulationError(f"unsupported expression {expr!r}")

    def _eval_binary(self, expr: vast.VBinary, env: dict[str, Bits], width: int, signed: bool) -> Bits:
        op = expr.op
        if op in ("&&", "||"):
            left = self._eval(expr.left, env).value != 0
            right = self._eval(expr.right, env).value != 0
            result = (left and right) if op == "&&" else (left or right)
            return Bits(1 if result else 0, max(width, 1), False)
        if op in ("==", "!=", "===", "!==", "<", "<=", ">", ">="):
            operand_width = max(
                self.self_width(expr.left, env), self.self_width(expr.right, env)
            )
            operands_signed = self._is_signed(expr.left, env) and self._is_signed(expr.right, env)
            left = self._eval_sized(expr.left, env, operand_width)
            right = self._eval_sized(expr.right, env, operand_width)
            left_value = left.as_int if operands_signed else left.value
            right_value = right.as_int if operands_signed else right.value
            comparisons = {
                "==": left_value == right_value,
                "===": left_value == right_value,
                "!=": left_value != right_value,
                "!==": left_value != right_value,
                "<": left_value < right_value,
                "<=": left_value <= right_value,
                ">": left_value > right_value,
                ">=": left_value >= right_value,
            }
            return Bits(1 if comparisons[op] else 0, max(width, 1), False)
        if op in ("<<", ">>", "<<<", ">>>"):
            left = self._eval_sized(expr.left, env, width)
            amount = self._eval(expr.right, env).value
            if op == "<<" or op == "<<<":
                return Bits(left.value << amount, width, signed)
            if op == ">>>" and self._is_signed(expr.left, env):
                return Bits(left.as_int >> amount, width, signed)
            return Bits(left.value >> amount, width, signed)
        left = self._eval_sized(expr.left, env, width)
        right = self._eval_sized(expr.right, env, width)
        left_value = left.as_int if signed else left.value
        right_value = right.as_int if signed else right.value
        if op == "+":
            return Bits(left_value + right_value, width, signed)
        if op == "-":
            return Bits(left_value - right_value, width, signed)
        if op == "*":
            return Bits(left_value * right_value, width, signed)
        if op == "/":
            if right_value == 0:
                return Bits(0, width, signed)
            quotient = abs(left_value) // abs(right_value)
            if (left_value < 0) != (right_value < 0):
                quotient = -quotient
            return Bits(quotient, width, signed)
        if op == "%":
            if right_value == 0:
                return Bits(0, width, signed)
            remainder = abs(left_value) % abs(right_value)
            if left_value < 0:
                remainder = -remainder
            return Bits(remainder, width, signed)
        if op == "&":
            return Bits(left.value & right.value, width, signed)
        if op == "|":
            return Bits(left.value | right.value, width, signed)
        if op in ("^", "^~", "~^"):
            result = left.value ^ right.value
            if op != "^":
                result = ~result
            return Bits(result, width, signed)
        raise SimulationError(f"unsupported binary operator {op}")


def _target_name(expr: vast.VExpr) -> str:
    if isinstance(expr, vast.VIdent):
        return expr.name
    raise SimulationError(f"unsupported assignment target base {expr!r}")
