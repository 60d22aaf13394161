"""Compiled simulation backend: Verilog modules → native Python closures.

Where :class:`repro.verilog.simulator.Simulation` walks the AST and re-derives
widths on every evaluation, this module translates a :class:`vast.VModule`
*once* into straight-line Python source operating on a flat ``list[int]`` of
signal slots with all masks, widths and sign-extension constants folded in at
compile time:

* the combinational pass (``comb(s)``) executes the continuous assigns and
  ``always @(*)`` blocks in the topological order computed by
  :class:`~repro.verilog.analysis.ModuleAnalysis`, so settling is a single
  ordered sweep instead of a bounded fixed-point loop;
* one clocked pass per clock (``step(s)``) snapshots non-blocking targets,
  executes the triggered blocks, and commits — reproducing the interpreter's
  blocking/non-blocking semantics exactly;
* the generated source is ``compile()``/``exec``'d into closures and cached by
  module content hash, so repeated candidate attempts across samples and
  iterations never pay for analysis or codegen twice;
* the same passes are rendered once more on Python locals
  (``KernelTemplate.comb_body`` / ``step_bodies``) for the trace kernels
  below, which compile a whole testbench schedule into one closure and
  inline those passes into its re-rolled loops.

Modules using constructs whose once-through evaluation could diverge from the
interpreter (combinational cycles, latch-like self reads, multiple full
drivers) raise :class:`~repro.verilog.analysis.AnalysisError` from
:func:`compile_kernel`; :func:`get_kernel` converts that into ``None`` so the
caller falls back to the interpreter, which stays the semantic oracle.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Sequence

from repro.caching import LruCache
from repro.hdl.bits import mask as _mask
from repro.verilog import vast
from repro.verilog.analysis import (
    AnalysisError,
    CombLoopError,
    ModuleAnalysis,
    SignalMeta,
    module_fingerprint,
)

__all__ = [
    "AnalysisError",
    "CombLoopError",
    "KernelTemplate",
    "TraceKernel",
    "TraceSchedule",
    "compile_kernel",
    "compile_trace",
    "get_kernel",
    "get_trace_kernel",
    "clear_kernel_cache",
]


def _vdiv(a: int, b: int) -> int:
    """Verilog division: truncate toward zero, ``x / 0 == 0``."""
    if b == 0:
        return 0
    q = abs(a) // abs(b)
    return -q if (a < 0) != (b < 0) else q


def _vrem(a: int, b: int) -> int:
    """Verilog remainder: sign follows the dividend, ``x % 0 == 0``."""
    if b == 0:
        return 0
    r = abs(a) % abs(b)
    return -r if a < 0 else r


@dataclass
class KernelTemplate:
    """A compiled module: shared, immutable; per-instance state is a list.

    ``comb_body`` and ``step_bodies`` are the ``comb`` and step passes again,
    rendered on locals (slot ``k`` is the local ``v{k}``) as unindented
    lines: a trace kernel inlines them into its re-rolled loops.
    """

    module_name: str
    fingerprint: str
    slots: dict[str, SignalMeta]
    n_slots: int
    comb: Callable[[list[int]], None]
    steps: dict[str, Callable[[list[int]], None]] = field(default_factory=dict)
    source: str = ""
    memory_slots: dict[int, int] = field(default_factory=dict)  # slot -> depth
    comb_body: tuple[str, ...] = ()
    step_bodies: dict[str, tuple[str, ...]] = field(default_factory=dict)

    def new_state(self) -> list[int]:
        state: list = [0] * self.n_slots
        for slot, depth in self.memory_slots.items():
            state[slot] = [0] * depth
        return state


def _sx(code: str, width: int) -> str:
    """Sign-extend a ``width``-bit masked value to a Python int."""
    if width <= 0:
        return code
    sign_bit = 1 << (width - 1)
    return f"((({code}) ^ {sign_bit}) - {sign_bit})"


#: Binary operators with the same two-state semantics as another one.
_SYNONYMS = {"===": "==", "!==": "!=", "<<<": "<<", "~^": "^~"}
_COMPARISONS = ("==", "!=", "<", "<=", ">", ">=")
_REDUCTIONS = ("&", "|", "^", "~&", "~|", "~^", "!")
_SHIFTS = ("<<", ">>", ">>>")

#: Where a statement context's writes go: signal metadata -> lvalue code.
_Store = Callable[[SignalMeta], str]


class _Codegen:
    """One lowering of a module's expressions and statements to Python source.

    Widths, masks, sign extension and assignment-target resolution live in
    the tree walk; each operator's code comes from a leaf template (the
    upper-case class attributes, formatted with the operand code).  Values
    are Python ints in a flat ``list[int]``, control flow is real
    ``if``/``elif``.
    """

    TERNARY = "(({t}) if ({c}) != 0 else ({f}))"
    CONCAT_PART = "(({x}) << {offset})"
    # Multiplying a pw-wide value by 0b...0001_0001 replicates it.
    REPEAT = "(({x}) * {stamp})"
    # Memory element gather; out-of-range reads collapse to 0.
    MEM_READ = "(({mem})[({i})] if ({i}) < {depth} else 0)"
    BIT = "((({x}) >> {index}) & 1)"
    DYN_BIT = "(((({x}) >> ({i})) & 1) if ({i}) < {width} else 0)"
    FIELD = "((({x}) >> {lsb}) & {m})"
    #: Reductions and ``!`` see the operand at its own width (``m`` is its
    #: mask); ``~`` and ``-`` see it at the context width.
    UNARY = {
        "&": "(1 if ({x}) == {m} else 0)",
        "~&": "(0 if ({x}) == {m} else 1)",
        "|": "(1 if ({x}) != 0 else 0)",
        "~|": "(0 if ({x}) != 0 else 1)",
        "^": "(({x}).bit_count() & 1)",
        "~^": "((({x}).bit_count() & 1) ^ 1)",
        "!": "(0 if ({x}) != 0 else 1)",
        "~": "((~({x})) & {m})",
        "-": "((-({x})) & {m})",
    }
    BINARY = {
        "&&": "(1 if (({l}) != 0 and ({r}) != 0) else 0)",
        "||": "(1 if (({l}) != 0 or ({r}) != 0) else 0)",
        **{op: f"(1 if ({{l}}) {op} ({{r}}) else 0)" for op in _COMPARISONS},
        "<<": "((({l}) << ({r})) & {m})",
        ">>": "(({l}) >> ({r}))",
        ">>>": "(({l}) >> ({r}))",
        **dict.fromkeys(("&", "|", "^"), "(({l}) {op} ({r}))"),
        "^~": "((~(({l}) ^ ({r}))) & {m})",
        **dict.fromkeys(("+", "-", "*"), "((({l}) {op} ({r})) & {m})"),
        "/": "((_vdiv({l}, {r})) & {m})",
        "%": "((_vrem({l}, {r})) & {m})",
    }
    #: Ops whose operands are sign-extended when signed, with the template
    #: used then; an op missing here ignores signedness.
    SIGNED_UNARY = {"-": UNARY["-"]}
    SIGNED_BINARY = {
        **{op: t for op, t in BINARY.items() if op in (*_COMPARISONS, "+", "-", "*", "/", "%")},
        ">>>": "((({l}) >> ({r})) & {m})",
    }
    # Copy so same-edge reads observe the old contents.
    MEMORY_SNAPSHOT = "{mem}[:]"

    def __init__(self, analysis: ModuleAnalysis):
        self.a = analysis
        self.lines: list[str] = []
        self._tmp = 0

    # ------------------------------------------------------------------ output

    def emit(self, indent: int, text: str) -> None:
        self.lines.append("    " * indent + text)

    def fresh(self) -> str:
        self._tmp += 1
        return f"_t{self._tmp}"

    # ------------------------------------------------------------- expressions

    def gen(self, expr: vast.VExpr, w: int, read: Callable[[str], str]) -> str:
        """Code for the unsigned value of ``expr`` masked to ``w`` bits.

        ``w`` must be >= the self-determined width of ``expr``; under that
        invariant the produced value matches ``Simulation._eval_sized``'s
        ``.value`` field bit for bit.
        """
        a = self.a
        if isinstance(expr, vast.VIdent):
            meta = a.meta(expr.name)
            if meta.is_memory:
                raise AnalysisError(
                    f"memory {expr.name!r} used as a plain value in module "
                    f"{self.a.module.name}"
                )
            return self._resize(read(expr.name), meta, w)
        if isinstance(expr, vast.VLiteral):
            return str(expr.value & _mask(w))
        if isinstance(expr, vast.VCall):
            # $signed / $unsigned only flip the static flag; the raw value
            # (already masked to w) is unchanged.
            return self.gen(expr.args[0], w, read)
        if isinstance(expr, vast.VUnary):
            return self._gen_unary(expr, w, read)
        if isinstance(expr, vast.VBinary):
            return self._gen_binary(expr, w, read)
        if isinstance(expr, vast.VTernary):
            c = self.gen(expr.condition, a.width(expr.condition), read)
            t = self.gen(expr.true_value, w, read)
            f = self.gen(expr.false_value, w, read)
            return self.TERNARY.format(c=c, t=t, f=f)
        if isinstance(expr, vast.VConcat):
            parts = []
            offset = sum(a.width(p) for p in expr.parts)
            for part in expr.parts:
                pw = a.width(part)
                offset -= pw
                code = self.gen(part, pw, read)
                parts.append(
                    self.CONCAT_PART.format(x=code, offset=offset) if offset else f"({code})"
                )
            return f"({' | '.join(parts)})" if parts else "0"
        if isinstance(expr, vast.VRepeat):
            if expr.count == 0:
                return "0"
            pw = a.width(expr.value)
            code = self.gen(expr.value, pw, read)
            stamp = sum(1 << (i * pw) for i in range(expr.count))
            return self.REPEAT.format(x=code, stamp=stamp)
        if isinstance(expr, vast.VIndex):
            if isinstance(expr.target, vast.VIdent):
                meta = a.meta(expr.target.name)
                if meta.is_memory:
                    i = self.gen(expr.index, a.width(expr.index), read)
                    base = self.MEM_READ.format(
                        mem=read(expr.target.name), i=i, depth=meta.depth
                    )
                    return self._resize(base, meta, w)
            tw = a.width(expr.target)
            t = self.gen(expr.target, tw, read)
            if isinstance(expr.index, vast.VLiteral):
                index = expr.index.value & _mask(a.width(expr.index))
                if index >= tw:
                    return "0"
                return self.BIT.format(x=t, index=index)
            i = self.gen(expr.index, a.width(expr.index), read)
            return self.DYN_BIT.format(x=t, i=i, width=tw)
        if isinstance(expr, vast.VRange):
            t = self.gen(expr.target, a.width(expr.target), read)
            fw = expr.msb - expr.lsb + 1
            return self.FIELD.format(x=t, lsb=expr.lsb, m=_mask(fw))
        raise AnalysisError(f"unsupported expression {expr!r}")

    @staticmethod
    def _resize(code: str, meta: SignalMeta, w: int) -> str:
        """A ``meta``-wide value read into a ``w``-bit context."""
        if w < meta.width:
            return f"({code} & {_mask(w)})"
        if w > meta.width and meta.signed:
            return f"({_sx(code, meta.width)} & {_mask(w)})"
        return code

    def _gen_unary(self, expr: vast.VUnary, w: int, read) -> str:
        op = expr.op
        if op in _REDUCTIONS:
            ow = self.a.width(expr.operand)
            x = self.gen(expr.operand, ow, read)
            if ow <= 0 and op in ("&", "~&"):
                return "0" if op == "&" else "1"
            return self.UNARY[op].format(x=x, m=_mask(ow))
        if op in ("~", "-"):
            x = self.gen(expr.operand, w, read)
            if op in self.SIGNED_UNARY and self.a.signedness(expr.operand):
                return self.SIGNED_UNARY[op].format(x=_sx(x, w), m=_mask(w))
            return self.UNARY[op].format(x=x, m=_mask(w))
        raise AnalysisError(f"unsupported unary operator {expr.op}")

    def _gen_binary(self, expr: vast.VBinary, w: int, read) -> str:
        a = self.a
        op = _SYNONYMS.get(expr.op, expr.op)
        if op in ("&&", "||"):
            l = self.gen(expr.left, a.width(expr.left), read)
            r = self.gen(expr.right, a.width(expr.right), read)
            return self.BINARY[op].format(l=l, r=r)
        if op in _COMPARISONS:
            ow = max(a.width(expr.left), a.width(expr.right))
            operands_signed = a.signedness(expr.left) and a.signedness(expr.right)
            l = self.gen(expr.left, ow, read)
            r = self.gen(expr.right, ow, read)
            return self._op(op, l, r, ow, operands_signed)
        if op in _SHIFTS:
            l = self.gen(expr.left, w, read)
            amt = self.gen(expr.right, a.width(expr.right), read)
            if op == ">>>" and a.signedness(expr.left):
                return self.SIGNED_BINARY[op].format(l=_sx(l, w), r=amt, m=_mask(w))
            return self.BINARY[op].format(l=l, r=amt, m=_mask(w))
        signed = a.signedness(expr)
        l = self.gen(expr.left, w, read)
        r = self.gen(expr.right, w, read)
        return self._op(op, l, r, w, signed)

    def _op(self, op: str, l: str, r: str, w: int, signed: bool) -> str:
        """A ``w``-bit binary op over operand code ``l`` and ``r``."""
        if signed and op in self.SIGNED_BINARY:
            return self.SIGNED_BINARY[op].format(l=_sx(l, w), r=_sx(r, w), m=_mask(w), op=op)
        if op not in self.BINARY:
            raise AnalysisError(f"unsupported binary operator {op}")
        return self.BINARY[op].format(l=l, r=r, m=_mask(w), op=op)

    # -------------------------------------------------------------- statements

    def emit_assign(
        self,
        target: vast.VExpr,
        value: vast.VExpr,
        indent: int,
        read: Callable[[str], str],
        store: _Store,
    ) -> None:
        """Write ``value`` to ``target``."""
        a = self.a
        if isinstance(target, vast.VIdent):
            meta = a.meta(target.name)
            if meta.is_memory:
                raise AnalysisError(
                    f"whole-memory assignment to {target.name!r} in module "
                    f"{self.a.module.name}"
                )
            self.emit(indent, f"{store(meta)} = {self._fit(value, meta, read)}")
            return
        if not isinstance(target, (vast.VIndex, vast.VRange)) or not isinstance(
            target.target, vast.VIdent
        ):
            raise AnalysisError(f"unsupported assignment target {target!r}")
        meta = a.meta(target.target.name)
        if isinstance(target, vast.VRange):
            fw = target.msb - target.lsb + 1
            lsb = target.lsb
            code = self.gen(value, max(a.width(value), fw), read)
            lv = store(meta)
            self.emit(
                indent,
                f"{lv} = (({lv} & ~{_mask(fw) << lsb}) | ((({code}) & {_mask(fw)}) << {lsb}))"
                f" & {meta.mask}",
            )
            return
        if meta.is_memory:
            code = self._fit(value, meta, read)
        else:
            code = f"({self.gen(value, max(a.width(value), 1), read)}) & 1"
        lv = store(meta)
        index = self.fresh()
        self.emit(indent, f"{index} = {self.gen(target.index, a.width(target.index), read)}")
        if meta.is_memory:
            # Memory element scatter; out-of-range writes are dropped.
            self.emit(indent, f"if {index} < {meta.depth}:")
            self.emit(indent + 1, f"{lv}[{index}] = {code}")
        else:
            self.emit(indent, f"if {index} < {meta.width}:")
            self.emit(indent + 1, f"{lv} = ({lv} & ~(1 << {index})) | (({code}) << {index})")

    def _fit(self, value: vast.VExpr, meta: SignalMeta, read) -> str:
        """``value`` evaluated for a ``meta``-wide target and truncated to it."""
        cw = max(self.a.width(value), meta.width)
        code = self.gen(value, cw, read)
        return f"({code}) & {meta.mask}" if cw > meta.width else code

    def emit_stmts(
        self,
        stmts: list[vast.VStmt],
        indent: int,
        read: Callable[[str], str],
        blocking: _Store,
        nonblocking: _Store,
    ) -> None:
        emitted = False
        for stmt in stmts:
            if isinstance(stmt, vast.VBlockingAssign):
                if isinstance(stmt.target, vast.VIdent) and stmt.target.name == "_":
                    continue  # null statement placeholder
                self.emit_assign(stmt.target, stmt.value, indent, read, blocking)
            elif isinstance(stmt, vast.VNonBlockingAssign):
                self.emit_assign(stmt.target, stmt.value, indent, read, nonblocking)
            elif isinstance(stmt, vast.VIf):
                self.emit_if(stmt, indent, read, blocking, nonblocking)
            elif isinstance(stmt, vast.VCase):
                self.emit_case(stmt, indent, read, blocking, nonblocking)
            else:
                raise AnalysisError(f"unsupported statement {stmt!r}")
            emitted = True
        if not emitted:
            self.emit(indent, "pass")

    def emit_if(self, stmt: vast.VIf, indent, read, blocking, nonblocking) -> None:
        cond = self.gen(stmt.condition, self.a.width(stmt.condition), read)
        self.emit(indent, f"if ({cond}) != 0:")
        self.emit_stmts(stmt.then_body, indent + 1, read, blocking, nonblocking)
        if stmt.else_body:
            self.emit(indent, "else:")
            self.emit_stmts(stmt.else_body, indent + 1, read, blocking, nonblocking)

    def emit_case(self, stmt: vast.VCase, indent, read, blocking, nonblocking) -> None:
        subject = self.fresh()
        self.emit(indent, f"{subject} = {self.gen(stmt.subject, self.a.width(stmt.subject), read)}")
        default_item = None
        keyword = "if"
        any_branch = False
        for item in stmt.items:
            if item.patterns is None:
                default_item = item
                continue
            tests = [
                f"{subject} == ({self.gen(p, self.a.width(p), read)})" for p in item.patterns
            ]
            condition = " or ".join(tests) if tests else "False"
            self.emit(indent, f"{keyword} {condition}:")
            self.emit_stmts(item.body, indent + 1, read, blocking, nonblocking)
            keyword = "elif"
            any_branch = True
        if default_item is not None:
            if any_branch:
                self.emit(indent, "else:")
                self.emit_stmts(default_item.body, indent + 1, read, blocking, nonblocking)
            else:
                self.emit_stmts(default_item.body, indent, read, blocking, nonblocking)


# ---------------------------------------------------------------------------
# Module compilation
# ---------------------------------------------------------------------------


def _blocking_targets(stmts: list[vast.VStmt], blocking: set[str], nonblocking: set[str]) -> None:
    """Collect base names of blocking / non-blocking targets in a block body."""
    for stmt in stmts:
        if isinstance(stmt, (vast.VBlockingAssign, vast.VNonBlockingAssign)):
            target = stmt.target
            if isinstance(target, vast.VIdent) and target.name == "_" and isinstance(
                stmt, vast.VBlockingAssign
            ):
                continue
            base = target
            if isinstance(target, (vast.VIndex, vast.VRange)):
                base = target.target
            if not isinstance(base, vast.VIdent):
                raise AnalysisError(f"unsupported assignment target {target!r}")
            bucket = blocking if isinstance(stmt, vast.VBlockingAssign) else nonblocking
            bucket.add(base.name)
        elif isinstance(stmt, vast.VIf):
            _blocking_targets(stmt.then_body, blocking, nonblocking)
            _blocking_targets(stmt.else_body, blocking, nonblocking)
        elif isinstance(stmt, vast.VCase):
            for item in stmt.items:
                _blocking_targets(item.body, blocking, nonblocking)
        else:
            raise AnalysisError(f"unsupported statement {stmt!r}")


def _state_ref(slot: int) -> str:
    return f"s[{slot}]"


def _local_ref(slot: int) -> str:
    return f"v{slot}"


def _emit_comb(gen: _Codegen, schedule, ref: Callable[[int], str], indent: int) -> None:
    """The combinational pass on the state ``ref`` names (slot -> code)."""
    meta = gen.a.meta

    def read(name: str) -> str:
        return ref(meta(name).slot)

    def store(signal: SignalMeta) -> str:
        return ref(signal.slot)

    for node in schedule:
        if node.kind == "assign":
            gen.emit_assign(node.item.target, node.item.value, indent, read, store)
        else:
            gen.emit_stmts(node.item.body, indent, read, store, store)


def _emit_step(
    gen: _Codegen,
    plans: list[tuple[vast.VAlways, set[str]]],
    pending_slots: dict[int, None],
    memory_slots: dict[int, int],
    ref: Callable[[int], str],
    indent: int,
) -> None:
    """One clocked pass: snapshot the non-blocking targets, run the blocks, commit."""
    meta = gen.a.meta
    for slot in pending_slots:
        snapshot = gen.MEMORY_SNAPSHOT if slot in memory_slots else "{mem}"
        gen.emit(indent, f"_n{slot} = {snapshot.format(mem=ref(slot))}")
    for block_index, (block, blocking) in enumerate(plans):
        for slot in sorted(meta(name).slot for name in blocking):
            gen.emit(indent, f"_b{block_index}_{slot} = {ref(slot)}")

        def clocked_read(name: str, _bi=block_index, _bset=blocking) -> str:
            slot = meta(name).slot
            return f"_b{_bi}_{slot}" if name in _bset else ref(slot)

        def blocking_store(signal: SignalMeta, _bi=block_index) -> str:
            return f"_b{_bi}_{signal.slot}"

        def nonblocking_store(signal: SignalMeta) -> str:
            return f"_n{signal.slot}"

        gen.emit_stmts(block.body, indent, clocked_read, blocking_store, nonblocking_store)
    for slot in pending_slots:
        gen.emit(indent, f"{ref(slot)} = _n{slot}")


def compile_kernel(module: vast.VModule, analysis: ModuleAnalysis | None = None) -> KernelTemplate:
    """Translate ``module`` to native closures; raises AnalysisError if unsupported.

    The kernel is a ``comb`` pass plus one step per clock.  The same passes
    are rendered a second time on locals for the trace kernels' loops.
    """
    analysis = analysis if analysis is not None else ModuleAnalysis(module)
    schedule = analysis.schedule()  # raises CombLoopError on true cycles
    gen = _Codegen(analysis)

    gen.emit(0, "def comb(s):")
    mark = len(gen.lines)
    _emit_comb(gen, schedule, _state_ref, 1)
    if len(gen.lines) == mark:
        gen.emit(1, "pass")
    gen.emit(0, "")

    memory_slots = {m.slot: m.depth for m in analysis.memories()}
    clocks = analysis.clocks()
    step_plans = []
    for clock_index, clock in enumerate(clocks):
        blocks = analysis.clocked_blocks(clock)

        # All non-blocking target slots across the triggered blocks share one
        # pending set, exactly like the interpreter's shared ``pending`` dict.
        # Blocks keep their order; each block's targets go in slot order.
        pending_slots: dict[int, None] = {}
        block_plans: list[tuple[vast.VAlways, set[str]]] = []
        for block in blocks:
            blocking: set[str] = set()
            nonblocking: set[str] = set()
            _blocking_targets(block.body, blocking, nonblocking)
            overlap = blocking & nonblocking
            if overlap:
                raise AnalysisError(
                    f"signal(s) {sorted(overlap)} are both blocking and non-blocking "
                    f"targets in one always block of module {module.name}"
                )
            pending_slots.update(
                dict.fromkeys(sorted(analysis.meta(name).slot for name in nonblocking))
            )
            for name in sorted(blocking):
                if analysis.meta(name).is_memory:
                    # The interpreter persists blocking memory writes in
                    # clocked blocks; the _b temps here would discard them.
                    raise AnalysisError(
                        f"blocking write to memory {name!r} in a clocked block "
                        f"of module {module.name}"
                    )
            block_plans.append((block, blocking))
        step_plans.append((clock, block_plans, pending_slots))

        gen.emit(0, f"def _step_{clock_index}(s):")
        if not blocks:
            gen.emit(1, "pass")
        _emit_step(gen, block_plans, pending_slots, memory_slots, _state_ref, 1)
        gen.emit(0, "")

    source = "\n".join(gen.lines)
    namespace: dict[str, object] = {"_vdiv": _vdiv, "_vrem": _vrem}
    exec(compile(source, f"<kernel:{module.name}>", "exec"), namespace)

    # The trace loops' copies, rendered after the kernel so its temporaries
    # (and so its source) are numbered exactly as before.
    gen.lines = []
    _emit_comb(gen, schedule, _local_ref, 0)
    comb_body = tuple(gen.lines)
    step_bodies = {}
    for clock, block_plans, pending_slots in step_plans:
        gen.lines = []
        _emit_step(gen, block_plans, pending_slots, memory_slots, _local_ref, 0)
        step_bodies[clock] = tuple(gen.lines)

    return KernelTemplate(
        module_name=module.name,
        fingerprint=_fingerprint(module),
        slots=dict(analysis.signals),
        n_slots=len(analysis.signals),
        comb=namespace["comb"],
        steps={clock: namespace[f"_step_{index}"] for index, clock in enumerate(clocks)},
        source=source,
        memory_slots=memory_slots,
        comb_body=comb_body,
        step_bodies=step_bodies,
    )


# ---------------------------------------------------------------------------
# Trace kernels: one compiled closure for a whole stimulus schedule
# ---------------------------------------------------------------------------
#
# run_testbench's step-wise loop pays dict/attr dispatch per functional point:
# a drive() walking an inputs dict, a tick() with per-cycle settle bookkeeping
# and one read() per observed output.  A *trace kernel* compiles the whole
# schedule for one (module, testbench shape) pair into a single generated
# function: stimulus values arrive as one flat array, the reset/drive/settle/
# tick sequence is unrolled, and every sampled output is appended to one flat
# result list.  The schedule is stored as maximal runs of equal point shapes,
# and a run whose settle state is stable from point to point is re-rolled into
# a tight loop, so planning, digest, port check and codegen are O(runs), not
# O(points).  A re-rolled loop runs on locals: it unpacks the state list once,
# takes each point's inputs from one stimulus slice through a grouper
# (``zip(*[iter(stim[a:b])] * n)``), runs the kernel's comb and step passes
# inline (rendered on locals by ``compile_kernel``) and stores the locals back
# once after the loop.  The reset prologue and unrolled points call
# ``comb(s)``/``step(s)``.  Either way the generated code replays exactly the
# comb/step sequence the deferred-settle step-wise path performs, so sampled
# values are bit-identical by construction.


@dataclass(frozen=True)
class TraceSchedule:
    """Structural digest of a testbench: shapes, not stimulus values.

    ``runs`` holds the maximal runs of consecutive functional points with
    equal shape, ``(input_names, clock_cycles, check, length)`` each, in point
    order.  The driven values are passed to :meth:`TraceKernel.run` as one
    flat array in point order, so one compiled trace serves any stimulus with
    the same shape.  A typical stimulus program is a single run, so the
    digest and everything built from the schedule cost O(runs).
    """

    clock: str
    reset: str
    reset_cycles: int
    observed: tuple[str, ...]
    runs: tuple[tuple[tuple[str, ...], int, bool, int], ...]

    @cached_property
    def digest(self) -> str:
        payload = repr(
            (self.clock, self.reset, self.reset_cycles, self.observed, self.runs)
        )
        return hashlib.sha256(payload.encode()).hexdigest()


@dataclass
class TraceKernel:
    """A compiled (module, schedule) pair: the whole testbench in one call."""

    module_name: str
    fingerprint: str
    digest: str
    run: Callable[[Sequence[int]], list[int]]
    source: str = ""


#: Lines a trace may take below its ``def``, counted as if every comb and
#: step pass were a call: inlining a loop's passes changes no verdict.
_TRACE_LINE_BUDGET = 60_000

_COMB = ("comb",)
_STEP = ("step",)


class _TraceGen:
    """Trace codegen for one (kernel, schedule) pair.

    A functional point is a list of ops: ``("drive", position, slot, mask)``
    stores the point's ``position``-th stimulus value, ``_COMB`` and
    ``_STEP`` run a pass, ``("cycles", n)`` is ``n`` more clock cycles of
    settle-then-edge, and ``("sample", slot)`` appends an observed output.
    Unrolled points render the ops as calls on ``s``; a re-rolled loop
    renders them on locals with the kernel's passes inlined.
    """

    def __init__(self, kernel: KernelTemplate, schedule: TraceSchedule, has_edge: bool):
        self.kernel = kernel
        self.schedule = schedule
        self.has_edge = has_edge
        self.lines: list[str] = []
        self.cost = 0  # budget lines spent, in call form
        self.step_body = kernel.step_bodies[schedule.clock] if has_edge else ()
        self.cycle_calls = ["comb(s)", "step(s)"] if has_edge else ["comb(s)"]

    def charge(self, lines: int) -> None:
        self.cost += lines
        if self.cost > _TRACE_LINE_BUDGET:
            raise AnalysisError(
                f"trace for module {self.kernel.module_name} exceeds the "
                "generated-code budget"
            )

    def emit(self, indent: int, text: str, cost: int = 1) -> None:
        if cost:
            self.charge(cost)
        self.lines.append("    " * indent + text)

    def point_ops(
        self, names: tuple[str, ...], cycles: int, check: bool, needs_settle: bool
    ) -> tuple[list[tuple], bool]:
        """Ops of one functional point; returns (ops, needs_settle_after).

        Mirrors the step-wise path statically: drives defer their settle, each
        clock edge settles the pending state first, and a checked read (or the
        unchecked-point flush) settles once before sampling.
        """
        if cycles > _TRACE_LINE_BUDGET:
            # Guard before any rendering: a cycle count alone can exceed
            # the budget.
            raise AnalysisError(
                f"trace for module {self.kernel.module_name} exceeds the "
                "generated-code budget"
            )
        slots = self.kernel.slots
        ops: list[tuple] = []
        for position, name in enumerate(names):
            meta = slots[name]
            ops.append(("drive", position, meta.slot, meta.mask))
        if names:
            needs_settle = True
        if cycles:
            if needs_settle:
                ops.append(_COMB)
            if self.has_edge:
                ops.append(_STEP)
            needs_settle = True
            if cycles > 1:
                ops.append(("cycles", cycles - 1))
        if check:
            if self.schedule.observed:
                if needs_settle:
                    ops.append(_COMB)
                needs_settle = False
                for name in self.schedule.observed:
                    ops.append(("sample", slots[name].slot))
        else:
            # Unchecked points flush: the deferred stimulus must settle before
            # the next point overwrites it (latch-like designs observe this).
            if needs_settle:
                ops.append(_COMB)
            needs_settle = False
        return ops, needs_settle

    def call_cost(self, op: tuple) -> int:
        return op[1] * len(self.cycle_calls) if op[0] == "cycles" else 1

    def call_lines(self, ops: list[tuple], base: int) -> list[str]:
        """``ops`` as calls on the state list, reading stimulus from ``base``."""
        lines: list[str] = []
        for op in ops:
            kind = op[0]
            if kind == "drive":
                _, position, slot, mask = op
                lines.append(f"s[{slot}] = stim[{base + position}] & {mask}")
            elif kind == "sample":
                lines.append(f"ap(s[{op[1]}])")
            elif kind == "cycles":
                lines.extend(self.cycle_calls * op[1])
            else:
                lines.append(f"{kind}(s)")
        return lines

    def inline_lines(self, ops: list[tuple]) -> list[str]:
        """``ops`` on locals: ``v{slot}`` per slot, ``x{position}`` per input."""
        lines: list[str] = []
        for op in ops:
            kind = op[0]
            if kind == "drive":
                _, position, slot, mask = op
                lines.append(f"v{slot} = x{position} & {mask}")
            elif kind == "sample":
                lines.append(f"ap(v{op[1]})")
            elif kind == "comb":
                lines.extend(self.kernel.comb_body)
            elif kind == "step":
                lines.extend(self.step_body)
            else:
                lines.append(f"for _ in range({op[1]}):")
                cycle = [*self.kernel.comb_body, *self.step_body] or ["pass"]
                lines.extend("    " + line for line in cycle)
        return lines

    @cached_property
    def state_locals(self) -> str:
        return "[" + ", ".join(f"v{slot}" for slot in range(self.kernel.n_slots)) + "]"

    def emit_loop(self, ops: list[tuple], start: int, length: int, width: int) -> None:
        """Re-roll ``length`` points of ``ops`` into one loop on locals.

        The state list is unpacked into locals once and stored back once, and
        each iteration takes its ``width`` stimulus values from one slice.
        Budgeted as its call form: an index set, the header, the body and an
        index step (no index lines when the run drives nothing).
        """
        self.charge(sum(map(self.call_cost, ops)) + (3 if width else 1))
        end = start + length * width
        if width == 0:
            header = f"for _ in range({length}):"
        elif width == 1:
            header = f"for x0 in stim[{start}:{end}]:"
        else:
            inputs = ", ".join(f"x{position}" for position in range(width))
            header = f"for {inputs} in zip(*[iter(stim[{start}:{end}])] * {width}):"
        self.emit(1, f"{self.state_locals} = s", cost=0)
        self.emit(1, header, cost=0)
        # Passes can render to nothing (a module without comb logic).
        for line in self.inline_lines(ops) or ["pass"]:
            self.emit(2, line, cost=0)
        self.emit(1, f"s[:] = {self.state_locals}", cost=0)


def check_schedule_ports(module: vast.VModule, schedule: TraceSchedule) -> set[str]:
    """Validate the schedule's port references; returns the module's port names.

    Raises :class:`AnalysisError` when the step-wise path could raise a
    runtime :class:`SimulationError` for this pairing (missing input/clock/
    observed port): those runs must keep their exact step-wise error report,
    so the caller falls back.
    """
    ports = {port.name for port in module.ports}
    for names, cycles, _check, _length in schedule.runs:
        for name in names:
            if name not in ports:
                raise AnalysisError(
                    f"module {module.name} has no port named {name!r}"
                )
        if cycles > 0 and schedule.clock not in ports:
            raise AnalysisError(
                f"module {module.name} has no clock port {schedule.clock!r}"
            )
    for name in schedule.observed:
        if name not in ports:
            raise AnalysisError(
                f"module {module.name} has no output port named {name!r}"
            )
    return ports


def checked_indices(schedule: TraceSchedule) -> list[int]:
    """Indices of the schedule's checked points, expanded from its runs."""
    indices: list[int] = []
    start = 0
    for _names, _cycles, check, length in schedule.runs:
        if check:
            indices.extend(range(start, start + length))
        start += length
    return indices


def emit_trace_body(gen: _TraceGen, ports: set[str]) -> tuple[str, Callable]:
    """Emit and exec ``def trace(s, stim, ap)`` for ``gen``'s schedule.

    Returns ``(source, trace)``.
    """
    schedule = gen.schedule
    kernel = gen.kernel
    gen.emit(0, "def trace(s, stim, ap):", cost=0)
    # Simulation.__post_init__ settles the freshly-zeroed state once.
    gen.emit(1, "comb(s)")
    needs_settle = False

    if schedule.reset_cycles > 0 and schedule.reset in ports:
        meta = kernel.slots[schedule.reset]
        gen.emit(1, f"s[{meta.slot}] = {1 & meta.mask}")
        # The asserted reset is pending at every edge, so each one settles.
        for _ in range(schedule.reset_cycles):
            gen.emit(1, "comb(s)")
            if gen.has_edge:
                gen.emit(1, "step(s)")
        gen.emit(1, "comb(s)")  # deassertion-order flush
        gen.emit(1, f"s[{meta.slot}] = 0")
        gen.emit(1, "comb(s)")  # eager settle of the deasserted reset

    # Re-roll each run into a loop when its ops are the same from one point
    # to the next; otherwise unroll it point by point.
    offset = 0
    for names, cycles, check, length in schedule.runs:
        width = len(names)
        ops, after = gen.point_ops(names, cycles, check, needs_settle)
        stable = False
        if length > 1:
            stable = (ops, after) == gen.point_ops(names, cycles, check, after)
        if stable:
            # A run can compile to nothing (no inputs, no cycles, nothing to
            # sample): emitting a bodyless for-loop would be a syntax error.
            if ops:
                gen.emit_loop(ops, offset, length, width)
            needs_settle = after
            offset += length * width
        else:
            for _ in range(length):
                ops, needs_settle = gen.point_ops(names, cycles, check, needs_settle)
                for line in gen.call_lines(ops, offset):
                    gen.emit(1, line)
                offset += width
    gen.emit(1, "return None")

    source = "\n".join(gen.lines)
    namespace: dict[str, object] = {"comb": kernel.comb, "_vdiv": _vdiv, "_vrem": _vrem}
    if gen.has_edge:
        namespace["step"] = kernel.steps[schedule.clock]
    exec(compile(source, f"<trace:{kernel.module_name}>", "exec"), namespace)
    return source, namespace["trace"]


def compile_trace(
    module: vast.VModule, schedule: TraceSchedule, kernel: KernelTemplate | None = None
) -> TraceKernel:
    """Compile the whole ``schedule`` against ``module`` into one closure.

    Raises :class:`AnalysisError` on pairings whose step-wise run would raise
    (missing ports): the caller falls back to reproduce that report verbatim.
    """
    kernel = kernel if kernel is not None else compile_kernel(module)
    ports = check_schedule_ports(module, schedule)
    gen = _TraceGen(kernel, schedule, has_edge=schedule.clock in kernel.steps)
    source, trace_fn = emit_trace_body(gen, ports)
    new_state = kernel.new_state

    def run(stim: Sequence[int]) -> list[int]:
        state = new_state()
        out: list[int] = []
        trace_fn(state, stim, out.append)
        return out

    return TraceKernel(
        module_name=module.name,
        fingerprint=kernel.fingerprint,
        digest=schedule.digest,
        run=run,
        source=source,
    )


# ---------------------------------------------------------------------------
# Kernel caches
# ---------------------------------------------------------------------------

_cache: LruCache[KernelTemplate | None] = LruCache(256, name="sim_kernel")
_trace_cache: LruCache[TraceKernel | None] = LruCache(512, name="sim_trace")
_MISSING = object()


def _fingerprint(module: vast.VModule) -> str:
    """:func:`module_fingerprint`, memoized on the module object."""
    key = getattr(module, "_kernel_fingerprint", None)
    if key is None:
        key = module_fingerprint(module)
        module._kernel_fingerprint = key  # AST is immutable by convention
    return key


def _cached_build(
    cache: LruCache,
    module: vast.VModule,
    build: Callable[[], object],
    schedule: TraceSchedule | None = None,
    demote: tuple[type[Exception], ...] = (AnalysisError,),
):
    """``build()`` for ``module`` (and ``schedule``), cached; ``None`` means "fall back".

    The module fingerprint is memoized on the module object itself, so
    repeated :func:`get_kernel` / :func:`get_trace_kernel` lookups over a
    shared parsed AST (the parse cache's normal hit path) cost one attribute
    lookup, not an AST-sized repr + hash.  A ``demote`` exception is deterministic for the key, so
    ``None`` is cached and repeated attempts (the common case in
    iterative-repair sweeps) skip re-analysis.  RecursionError depends on the
    caller's stack depth, and ValueError covers degenerate widths the
    interpreter only rejects lazily: those fall back for this call without
    demoting the key.  The cache's own counters (``cache_stats()``) count
    each build as a miss; a demoted key's later lookups are hits on ``None``.
    """
    key = _fingerprint(module)
    if schedule is not None:
        key = f"{key}:{schedule.digest}"
    cached = cache.get(key, _MISSING)
    if cached is not _MISSING:
        return cached
    try:
        built = build()
    except demote:
        return cache.put(key, None)
    except (RecursionError, ValueError):
        return None
    return cache.put(key, built)


def get_kernel(module: vast.VModule) -> KernelTemplate | None:
    """Cached kernel for ``module``; ``None`` means "use the interpreter".

    Unsupported modules are negatively cached: the first lookup is a
    ``sim_kernel`` miss in ``cache_stats()``, later ones are hits on ``None``.
    """
    return _cached_build(_cache, module, lambda: compile_kernel(module))


def get_trace_kernel(module: vast.VModule, schedule: TraceSchedule) -> TraceKernel | None:
    """Cached trace kernel for ``(module, schedule)``; ``None`` means step-wise.

    Ineligible pairings (module outside the compiled subset, or a port mismatch
    whose step-wise run raises a :class:`SimulationError` that must be
    reproduced verbatim) are negatively cached.  SyntaxError is a codegen bug
    tripwire: deterministic for the pairing, so it demotes the pairing to the
    step-wise path rather than crash.
    """
    kernel = get_kernel(module)
    if kernel is None:
        return None
    return _cached_build(
        _trace_cache,
        module,
        lambda: compile_trace(module, schedule, kernel),
        schedule,
        demote=(AnalysisError, SyntaxError),
    )


def clear_kernel_cache() -> None:
    """Empty the kernel and trace caches (benchmarks force cold runs)."""
    _cache.clear()
    _trace_cache.clear()
