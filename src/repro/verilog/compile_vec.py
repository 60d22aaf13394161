"""Vectorized simulation backend: structure-of-arrays NumPy trace kernels.

Where :mod:`repro.verilog.compile_sim` compiles a module into scalar Python
closures over a flat ``list[int]`` and still pays a Python-level loop per
stimulus point (and per candidate), this module emits NumPy code in which every
signal is a width-masked ``uint64`` array with **one lane per execution**, so
one kernel call covers many executions at once.  Two lane layouts:

* **point lanes** (``mode == "points"``) — modules with no clocked block on the
  schedule's clock are stateless between functional points, so every stimulus
  point of every batched row becomes an independent lane: stimulus carry-over
  (inputs keep their last driven value) is reproduced with a static
  forward-fill gather, and the whole testbench settles in a *single*
  combinational sweep;
* **lockstep lanes** (``mode == "lockstep"``) — sequential modules keep the
  scalar trace's time loop (points are time steps and cannot be reordered),
  but each batched row — structurally identical candidates and/or repeated
  stimulus programs that share one :func:`~repro.verilog.analysis.module_fingerprint`
  and :class:`~repro.verilog.compile_sim.TraceSchedule` digest — is one lane,
  so N candidates advance through the schedule in lockstep with N state
  columns and per-step array ops.

Bit-identity with the scalar backends is the contract: the generated code
replays exactly the ``comb()``/``step()`` sequence the scalar trace performs,
all arithmetic is carried out on masked unsigned 64-bit patterns (contexts
wider than 64 bits raise :class:`AnalysisError` and fall back), and signed
compare/divide/shift go through helpers that reinterpret the two's-complement
patterns exactly as the scalar ``_sx`` sign-extension does.  ``uint64``
wraparound is relied on deliberately for ``+``/``-``/``*`` (sign-extension is
a no-op modulo 2**w); division, remainder and shift counts are routed through
lane-safe helpers because NumPy's behaviour there (zero divisors, shifts
>= 64) is undefined or raising where Verilog semantics are total.

NumPy is optional: when it is missing, :func:`get_vec_kernel` returns ``None``
and callers fall back to the scalar trace / step-wise backends.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

try:  # import-guarded: the toolchain must degrade gracefully without NumPy
    import numpy as np
except ImportError:  # pragma: no cover - exercised via monkeypatching in tests
    np = None

from repro.caching import LruCache
from repro.hdl.bits import mask as _mask
from repro.verilog import vast
from repro.verilog.analysis import (
    AnalysisError,
    ModuleAnalysis,
    SignalMeta,
)
from repro.verilog.compile_sim import (
    KernelTemplate,
    TraceSchedule,
    _cached_build,
    _Codegen,
    _compile_module,
    _TraceGen,
    check_schedule_ports,
    checked_indices,
    emit_trace_body,
)

__all__ = [
    "HAVE_NUMPY",
    "LANE_WIDTH",
    "VecKernelTemplate",
    "VecTraceKernel",
    "compile_vec_kernel",
    "compile_vec_trace",
    "get_vec_kernel",
    "vec_cache_stats",
    "clear_vec_cache",
]

HAVE_NUMPY = np is not None

#: Lanes are ``uint64``; any expression context wider than this falls back to
#: the scalar backends (which use arbitrary-precision Python ints).
LANE_WIDTH = 64


# ---------------------------------------------------------------------------
# Lane-safe runtime helpers (the generated code's vocabulary)
# ---------------------------------------------------------------------------
#
# dtype discipline: every helper returns uint64 (or bool for predicates).
# np.where with two weak Python-int operands promotes to int64 — which then
# poisons uint64 arithmetic into float64 — so _sel/_b2u force uint64 on the
# way out.  Shift counts >= 64 are undefined behaviour on uint64 operands, so
# _shl/_shr/_sra clamp-and-select.  Zero divisors are replaced before the
# NumPy op (which would raise) and the Verilog x/0 == x%0 == 0 result is
# selected afterwards.

if HAVE_NUMPY:
    _U64 = np.uint64
    _Z = np.uint64(0)
    _ONE = np.uint64(1)
    _SIXTY_FOUR = np.uint64(64)
    _SIXTY_THREE = np.uint64(63)

    def _u(x):
        """Coerce a non-negative operand to a uint64 array/scalar."""
        return np.asarray(x, dtype=_U64)

    def _i64(x):
        """Reinterpret a 64-bit two's-complement pattern as signed int64.

        Accepts uint64 patterns *and* plain Python ints (sign-extension of a
        literal produces a negative int); values always fit once wrapped.
        """
        a = np.asarray(x)
        return a if a.dtype == np.int64 else a.astype(np.int64)

    def _sel(c, t, f):
        """Predicated select yielding uint64 (bare np.where promotes badly)."""
        return np.where(c, np.asarray(t, dtype=_U64), np.asarray(f, dtype=_U64))

    def _b2u(c):
        """Bool predicate -> 0/1 as uint64."""
        return np.where(c, _ONE, _Z)

    def _shl(v, amt):
        a = _u(amt)
        big = a >= _SIXTY_FOUR
        return np.where(big, _Z, _u(v) << np.where(big, _Z, a))

    def _shr(v, amt):
        a = _u(amt)
        big = a >= _SIXTY_FOUR
        return np.where(big, _Z, _u(v) >> np.where(big, _Z, a))

    def _sra(v, amt):
        """Arithmetic shift of a 64-bit sign pattern; returns the uint64 pattern."""
        sh = np.minimum(_u(amt), _SIXTY_THREE).astype(np.int64)
        return (_i64(v) >> sh).astype(_U64)

    def _udiv(a, b):
        au, bu = _u(a), _u(b)
        bz = np.equal(bu, _Z)
        return np.where(bz, _Z, au // np.where(bz, _ONE, bu))

    def _urem(a, b):
        au, bu = _u(a), _u(b)
        bz = np.equal(bu, _Z)
        return np.where(bz, _Z, au % np.where(bz, _ONE, bu))

    def _sdiv(a, b):
        """Verilog signed division on two's-complement patterns.

        Magnitudes are computed in the uint64 domain (0 - x) so INT64_MIN
        does not overflow the way abs(int64) would.
        """
        ai, bi = _i64(a), _i64(b)
        au, bu = ai.astype(_U64), bi.astype(_U64)
        na, nb = ai < 0, bi < 0
        ma = np.where(na, _Z - au, au)
        mb = np.where(nb, _Z - bu, bu)
        bz = np.equal(bi, 0)
        q = ma // np.where(bz, _ONE, mb)
        q = np.where(np.logical_xor(na, nb), _Z - q, q)
        return np.where(bz, _Z, q)

    def _srem(a, b):
        """Verilog signed remainder: sign follows the dividend, x % 0 == 0."""
        ai, bi = _i64(a), _i64(b)
        au, bu = ai.astype(_U64), bi.astype(_U64)
        na = ai < 0
        ma = np.where(na, _Z - au, au)
        mb = np.where(bi < 0, _Z - bu, bu)
        bz = np.equal(bi, 0)
        r = ma % np.where(bz, _ONE, mb)
        r = np.where(na, _Z - r, r)
        return np.where(bz, _Z, r)

    def _parity(v):
        x = _u(v)
        for s in (32, 16, 8, 4, 2, 1):
            x = x ^ (x >> np.uint64(s))
        return x & _ONE

    def _mem_rd(plane, addr):
        """Per-lane gather from a (depth, lanes) memory plane; OOB reads 0."""
        depth, lanes = plane.shape
        a = np.broadcast_to(_u(addr), (lanes,))
        ok = a < np.uint64(depth)
        idx = np.where(ok, a, _Z).astype(np.int64)
        return np.where(ok, plane[idx, np.arange(lanes)], _Z)

    def _mem_wr(plane, addr, data, pred):
        """Lane-masked scatter returning a fresh plane; OOB writes dropped.

        Copying (never mutating) keeps the rebind-not-mutate discipline the
        clocked-block temps rely on: the pre-edge plane aliased by s[slot]
        stays intact until the non-blocking commit rebinds it.
        """
        depth, lanes = plane.shape
        a = np.broadcast_to(_u(addr), (lanes,))
        ok = a < np.uint64(depth)
        if pred is not True:
            ok = ok & np.broadcast_to(pred, (lanes,))
        d = np.broadcast_to(_u(data), (lanes,))
        new = plane.copy()
        sel = np.nonzero(ok)[0]
        new[a.astype(np.int64)[sel], sel] = d[sel]
        return new

    _NAMESPACE = {
        "np": np,
        "_u": _u,
        "_i64": _i64,
        "_sel": _sel,
        "_b2u": _b2u,
        "_shl": _shl,
        "_shr": _shr,
        "_sra": _sra,
        "_udiv": _udiv,
        "_urem": _urem,
        "_sdiv": _sdiv,
        "_srem": _srem,
        "_parity": _parity,
        "_mem_rd": _mem_rd,
        "_mem_wr": _mem_wr,
    }


_COMPARE_OPS = {
    "==": "np.equal", "!=": "np.not_equal",
    "<": "np.less", "<=": "np.less_equal",
    ">": "np.greater", ">=": "np.greater_equal",
}


class _VecCodegen(_Codegen):
    """The ``uint64`` lane dialect of the shared lowering.

    Arithmetic is carried out on masked unsigned 64-bit patterns, so
    sign-extension only matters where the pattern's sign is read: signed
    compare, divide/remainder and arithmetic right shift.  ``+``/``-``/``*``
    and negation rely on ``uint64`` wraparound (a no-op modulo 2**w).

    Control flow is if-converted: VIf/VCase bodies run unconditionally on all
    lanes and their writes merge through bool predicate arrays (``pred``), so
    a single pass serves every lane regardless of which branch each lane
    takes.  All expressions are pure and all Verilog ops are total (x/0 == 0),
    so evaluating untaken branches can neither raise nor diverge.
    """

    lane_width = LANE_WIDTH

    TERNARY = "_sel(np.not_equal({c}, 0), {t}, {f})"
    CONCAT_PART = "((_u({x})) << np.uint64({offset}))"
    REPEAT = "((_u({x})) * {stamp})"
    MEM_READ = "_mem_rd({mem}, {i})"
    BIT = "((_u({x}) >> np.uint64({index})) & 1)"
    DYN_BIT = "_sel(np.less(_u({i}), np.uint64({width})), _shr({x}, {i}) & 1, 0)"
    FIELD = "((_u({x}) >> np.uint64({lsb})) & {m})"
    UNARY = {
        "&": "_b2u(np.equal({x}, {m}))",
        "~&": "_b2u(np.not_equal({x}, {m}))",
        "|": "_b2u(np.not_equal({x}, 0))",
        "~|": "_b2u(np.equal({x}, 0))",
        "^": "_parity({x})",
        "~^": "(_parity({x}) ^ 1)",
        "!": "_b2u(np.equal({x}, 0))",
        "~": "((~_u({x})) & {m})",
        "-": "((0 - _u({x})) & {m})",
    }
    BINARY = {
        "&&": "_b2u(np.logical_and(np.not_equal({l}, 0), np.not_equal({r}, 0)))",
        "||": "_b2u(np.logical_or(np.not_equal({l}, 0), np.not_equal({r}, 0)))",
        **{op: f"_b2u({fn}(_u({{l}}), _u({{r}})))" for op, fn in _COMPARE_OPS.items()},
        "<<": "(_shl({l}, {r}) & {m})",
        ">>": "_shr({l}, {r})",
        ">>>": "_shr({l}, {r})",
        **dict.fromkeys(("&", "|", "^"), "((_u({l})) {op} ({r}))"),
        "^~": "((~(_u({l}) ^ ({r}))) & {m})",
        **dict.fromkeys(("+", "-", "*"), "(((_u({l})) {op} ({r})) & {m})"),
        "/": "(_udiv({l}, {r}) & {m})",
        "%": "(_urem({l}, {r}) & {m})",
    }
    SIGNED_UNARY = {}
    SIGNED_BINARY = {
        **{op: f"_b2u({fn}(_i64({{l}}), _i64({{r}})))" for op, fn in _COMPARE_OPS.items()},
        ">>>": "(_sra({l}, {r}) & {m})",
        "/": "(_sdiv({l}, {r}) & {m})",
        "%": "(_srem({l}, {r}) & {m})",
    }
    # _mem_wr returns a fresh plane, so the snapshot may alias s[slot].
    MEMORY_SNAPSHOT = "s[{slot}]"

    def __init__(self, analysis: ModuleAnalysis):
        for meta in analysis.signals.values():
            if meta.width > LANE_WIDTH:
                raise AnalysisError(
                    f"signal {meta.name!r} is {meta.width} bits wide; vector lanes "
                    f"are {LANE_WIDTH}-bit"
                )
        super().__init__(analysis)

    # Predicated writes rebind the target to a fresh merged array (never
    # in-place), so the s[slot] arrays the clocked-block temps alias stay
    # intact until the non-blocking commit.

    def emit_write(self, indent: int, lv: str, code: str, pred: str | None) -> None:
        if pred is not None:
            code = f"_sel({pred}, {code}, {lv})"
        self.emit(indent, f"{lv} = {code}")

    def emit_mem_write(self, indent, lv, index, code, depth, pred) -> None:
        p = "True" if pred is None else pred
        self.emit(indent, f"{lv} = _mem_wr({lv}, {index}, {code}, {p})")

    def emit_bit_write(self, indent, lv, index, bit, width, pred) -> None:
        in_range = f"np.less(_u({index}), np.uint64({width}))"
        p = in_range if pred is None else f"(({pred}) & {in_range})"
        merged = f"(_u({lv}) & (~_shl(1, {index}))) | _shl({bit}, {index})"
        self.emit_write(indent, lv, merged, p)

    @staticmethod
    def field_merge(lv: str, code: str, lsb: int, fw: int, mask: int) -> str:
        inv = (~(_mask(fw) << lsb)) & _mask(LANE_WIDTH)
        return (
            f"((_u({lv}) & {inv}) | (((_u({code})) & {_mask(fw)}) << np.uint64({lsb})))"
            f" & {mask}"
        )

    def emit_empty(self, indent: int) -> None:
        pass  # predicated code opens no blocks that would need a body

    def emit_if(self, stmt: vast.VIf, indent, read, blocking, nonblocking, pred) -> None:
        cond = self.gen(stmt.condition, self.a.width(stmt.condition), read)
        c = self.fresh()
        self.emit(indent, f"{c} = np.not_equal({cond}, 0)")
        then_pred = self._narrow(indent, pred, c)
        self.emit_stmts(stmt.then_body, indent, read, blocking, nonblocking, then_pred)
        if stmt.else_body:
            else_pred = self._exclude(indent, pred, c)
            self.emit_stmts(stmt.else_body, indent, read, blocking, nonblocking, else_pred)

    def emit_case(self, stmt: vast.VCase, indent, read, blocking, nonblocking, pred) -> None:
        subject = self.fresh()
        self.emit(
            indent,
            f"{subject} = {self.gen(stmt.subject, self.a.width(stmt.subject), read)}",
        )
        default_item = None
        reached = pred  # lanes still looking for a matching branch
        for item in stmt.items:
            if item.patterns is None:
                default_item = item
                continue
            tests = [
                f"np.equal({subject}, ({self.gen(p, self.a.width(p), read)}))"
                for p in item.patterns
            ]
            m = self.fresh()
            if tests:
                self.emit(indent, f"{m} = {' | '.join(tests)}")
            else:
                self.emit(indent, f"{m} = np.False_")
            item_pred = self._narrow(indent, reached, m)
            self.emit_stmts(item.body, indent, read, blocking, nonblocking, item_pred)
            reached = self._exclude(indent, reached, m)
        if default_item is not None:
            self.emit_stmts(default_item.body, indent, read, blocking, nonblocking, reached)

    def _narrow(self, indent: int, pred: str | None, mask: str) -> str:
        """The lanes of ``pred`` (all lanes if ``None``) where ``mask`` holds."""
        if pred is None:
            return mask
        name = self.fresh()
        self.emit(indent, f"{name} = ({pred}) & {mask}")
        return name

    def _exclude(self, indent: int, pred: str | None, mask: str) -> str:
        """The lanes of ``pred`` (all lanes if ``None``) where ``mask`` fails."""
        name = self.fresh()
        self.emit(indent, f"{name} = ~{mask}" if pred is None else f"{name} = ({pred}) & (~{mask})")
        return name


# ---------------------------------------------------------------------------
# Module compilation (SoA kernel template)
# ---------------------------------------------------------------------------


class VecKernelTemplate(KernelTemplate):
    """A vector-compiled module; per-batch state is a list of lane arrays."""

    def new_state(self, lanes: int) -> list:
        state = [np.zeros(lanes, dtype=np.uint64) for _ in range(self.n_slots)]
        for slot, depth in self.memory_slots.items():
            state[slot] = np.zeros((depth, lanes), dtype=np.uint64)
        return state


def compile_vec_kernel(
    module: vast.VModule, analysis: ModuleAnalysis | None = None
) -> VecKernelTemplate:
    """Translate ``module`` to NumPy SoA closures; AnalysisError if unsupported."""
    if not HAVE_NUMPY:
        raise AnalysisError("NumPy is unavailable; the vector backend is disabled")
    return _compile_module(
        module, analysis, _VecCodegen, dict(_NAMESPACE), VecKernelTemplate, "veckernel"
    )


# ---------------------------------------------------------------------------
# Vector trace kernels: a whole stimulus schedule, all lanes at once
# ---------------------------------------------------------------------------


@dataclass
class VecTraceKernel:
    """A compiled (module, schedule) pair running many executions per call.

    ``run`` takes a batch of stimulus rows (each a flat sequence shaped like
    :meth:`TraceKernel.run`'s input) and returns a ``(rows, n_samples)``
    uint64 matrix whose row ``i`` equals, bit for bit, what the scalar trace
    kernel would return for stimulus row ``i``.  ``run`` also accepts the
    pre-masked matrix produced by ``pack`` (callers that re-run the same
    stimulus — repair iterations over one testbench — cache the packing).
    """

    module_name: str
    fingerprint: str
    digest: str
    n_samples: int
    run: Callable[[Sequence[Sequence[int]]], "np.ndarray"]
    pack: Callable[[Sequence[Sequence[int]]], "np.ndarray"]
    source: str = ""


class _VecTraceGen(_TraceGen):
    """Scalar trace emitter with drives re-aimed at stimulus matrix columns."""

    def drive_code(self, meta: SignalMeta, index_code: str) -> str:
        # Columns are pre-masked by _pack, so no & here.
        return f"s[{meta.slot}] = stim[:, {index_code}]"


def _pack(rows: Sequence[Sequence[int]], masks: list[int]) -> "np.ndarray":
    """Mask and stack stimulus rows into a (rows, stim_len) uint64 matrix.

    Masking happens in Python-int space *before* the uint64 conversion, so
    arbitrary-precision (or negative) stimulus values cannot overflow.
    """
    if not masks:
        return np.empty((len(rows), 0), dtype=np.uint64)
    return np.array(
        [[v & m for v, m in zip(row, masks)] for row in rows], dtype=np.uint64
    ).reshape(len(rows), len(masks))


def _sample_count(schedule: TraceSchedule) -> int:
    """Sampled values per stimulus row: every observed output at every checked point."""
    checked = sum(length for _names, _cycles, check, length in schedule.runs if check)
    return checked * len(schedule.observed)


def _point_lanes(
    schedule: TraceSchedule, template: VecKernelTemplate
) -> Callable[["np.ndarray"], "np.ndarray"]:
    """Mode A: no clocked block on the schedule clock, so ticks are no-ops and
    every functional point is an independent evaluation of the settled
    combinational function — one lane per (row, point).

    Input carry-over (a point only re-drives some inputs; the rest keep their
    last driven value, initially 0 — including the deasserted reset) is
    reproduced per input with a static forward-fill gather over the points
    that drive it.
    """
    # The only reader that needs per-point indices: expand the runs here.
    driven: dict[str, tuple[list[int], list[int]]] = {}
    offset = 0
    p_index = 0
    for names, _cycles, _check, length in schedule.runs:
        for _ in range(length):
            for j, name in enumerate(names):
                entry = driven.setdefault(name, ([], []))
                entry[0].append(p_index)
                entry[1].append(offset + j)
            offset += len(names)
            p_index += 1
    n_points = p_index
    n_samples = _sample_count(schedule)
    checked_arr = np.array(checked_indices(schedule), dtype=np.int64)
    n_observed = len(schedule.observed)
    observed_slots = [template.slots[name].slot for name in schedule.observed]

    gathers: list[tuple[int, "np.ndarray", "np.ndarray"]] = []
    for name, (p_indices, offs) in driven.items():
        # marker[p] = 1 + rank of the latest drive at or before point p
        # (0 = never driven yet -> the prepended all-zeros column).
        marker = np.zeros(n_points, dtype=np.int64)
        marker[np.array(p_indices, dtype=np.int64)] = np.arange(
            1, len(p_indices) + 1, dtype=np.int64
        )
        marker = np.maximum.accumulate(marker)
        gathers.append(
            (template.slots[name].slot, np.array(offs, dtype=np.int64), marker)
        )

    comb = template.comb
    new_state = template.new_state

    def run(stim: "np.ndarray") -> "np.ndarray":
        n_rows = stim.shape[0]
        lanes = n_rows * n_points
        state = new_state(lanes)
        for slot, offs, marker in gathers:
            cols = np.concatenate(
                [np.zeros((n_rows, 1), dtype=np.uint64), stim[:, offs]], axis=1
            )
            state[slot] = cols[:, marker].reshape(lanes)
        comb(state)
        out = np.empty((n_rows, n_samples), dtype=np.uint64)
        for w_index, slot in enumerate(observed_slots):
            value = np.broadcast_to(
                np.asarray(state[slot], dtype=np.uint64), (lanes,)
            ).reshape(n_rows, n_points)
            out[:, w_index::n_observed] = value[:, checked_arr]
        return out

    return run


def _lockstep(
    schedule: TraceSchedule, template: VecKernelTemplate, ports: set[str]
) -> tuple[Callable[["np.ndarray"], "np.ndarray"], str]:
    """Mode B: the module is sequential on the schedule clock, so points stay
    a time loop — but every batched row is a lane, advancing N structurally
    identical executions through the schedule in lockstep.  Returns the
    runner and the trace source.
    """
    gen = _VecTraceGen(template, schedule, has_edge=True)
    source, trace_fn = emit_trace_body(gen, ports, "vectrace")
    new_state = template.new_state

    def run(stim: "np.ndarray") -> "np.ndarray":
        n_rows = stim.shape[0]
        state = new_state(n_rows)
        samples: list = []

        def ap(value) -> None:
            samples.append(
                np.broadcast_to(np.asarray(value, dtype=np.uint64), (n_rows,))
            )

        trace_fn(state, stim, ap)
        if not samples:
            return np.empty((n_rows, 0), dtype=np.uint64)
        return np.stack(samples, axis=1)

    return run, source


def compile_vec_trace(
    module: vast.VModule,
    schedule: TraceSchedule,
    template: VecKernelTemplate | None = None,
) -> VecTraceKernel:
    """Compile ``schedule`` against ``module`` into a batched lane kernel.

    Raises :class:`AnalysisError` on pairings the scalar trace would also
    reject (missing ports, unsupported constructs, oversized unrolls): the
    caller falls back so step-wise error reports are reproduced verbatim.
    """
    if not HAVE_NUMPY:
        raise AnalysisError("NumPy is unavailable; the vector backend is disabled")
    template = template if template is not None else compile_vec_kernel(module)
    ports = check_schedule_ports(module, schedule)
    if schedule.clock in template.steps:
        run_packed, source = _lockstep(schedule, template, ports)
    else:
        run_packed, source = _point_lanes(schedule, template), template.source
    masks: list[int] = []
    for names, _cycles, _check, length in schedule.runs:
        masks.extend([template.slots[name].mask for name in names] * length)

    def pack(rows: Sequence[Sequence[int]]) -> "np.ndarray":
        return _pack(rows, masks)

    def run(rows: Sequence[Sequence[int]]) -> "np.ndarray":
        stim = rows if isinstance(rows, np.ndarray) else pack(rows)
        # Wraparound on +/-/* is the masked-arithmetic contract, not an error.
        with np.errstate(over="ignore"):
            return run_packed(stim)

    return VecTraceKernel(
        module_name=module.name,
        fingerprint=template.fingerprint,
        digest=schedule.digest,
        n_samples=_sample_count(schedule),
        run=run,
        pack=pack,
        source=source,
    )


# ---------------------------------------------------------------------------
# Caches
# ---------------------------------------------------------------------------

_template_cache: LruCache = LruCache(256, name="sim_vec_kernel")
_vec_cache: LruCache = LruCache(512, name="sim_vec")
_vec_fallbacks = [0]


def get_vec_template(module: vast.VModule) -> VecKernelTemplate | None:
    """Cached SoA template for ``module``; ``None`` means "fall back".

    Modules outside the lane subset (a signal wider than 64 bits, say) are
    negatively cached and counted in ``vec_cache_stats()["vec_fallbacks"]``.
    """
    if not HAVE_NUMPY:
        return None
    return _cached_build(
        _template_cache, module, lambda: compile_vec_kernel(module), fallbacks=_vec_fallbacks
    )


def get_vec_kernel(
    module: vast.VModule, schedule: TraceSchedule
) -> VecTraceKernel | None:
    """Cached vector trace kernel; ``None`` means "use a scalar backend".

    Cached like :func:`~repro.verilog.compile_sim.get_trace_kernel`.
    """
    template = get_vec_template(module)
    if template is None:
        return None
    return _cached_build(
        _vec_cache,
        module,
        lambda: compile_vec_trace(module, schedule, template),
        schedule,
        demote=(AnalysisError, SyntaxError),
    )


def vec_cache_stats() -> dict[str, int]:
    """Counters for the vector template and trace caches."""
    return {
        "vec_hits": _vec_cache.stats["hits"],
        "vec_misses": _vec_cache.stats["misses"],
        "vec_size": len(_vec_cache),
        "vec_kernel_size": len(_template_cache),
        "vec_fallbacks": _vec_fallbacks[0],
    }


def clear_vec_cache() -> None:
    """Empty the vector caches (benchmarks force cold runs here)."""
    _template_cache.clear()
    _vec_cache.clear()
    _vec_fallbacks[0] = 0
