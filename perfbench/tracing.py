"""Traced-run mode: in-memory spans around each layer's entry points.

Spans are recorded from outside the program: :func:`install_layers` replaces
each layer's public function (or method) with a timing wrapper, in every
module that looks the name up.  ``parse_verilog``, for instance, is imported
by name into ``toolchain/simulator.py`` and both baselines, so each of those
module globals is wrapped.  Nothing under ``src/`` changes.

A span is ``(span_id, parent_id, name, start, end, unit, ok)``.  The parent
comes from a context variable, which follows nesting across ``await`` points
and inside one thread.  ``loop.run_in_executor`` does not carry context
variables, so a tool step captures the current span when the step object is
created and restores it in the tool thread.

Self time of a span is its duration minus the part of its interval that its
children cover (:func:`self_times`).
"""

from __future__ import annotations

import contextvars
import functools
import importlib
import itertools
import json
import threading
import time
from collections import Counter, defaultdict
from typing import Iterable, NamedTuple


class Span(NamedTuple):
    span_id: int
    parent_id: int
    name: str
    start: float
    end: float
    unit: object
    ok: bool


#: Layer name -> the (module, attribute) entry points wrapped for it.  An
#: attribute ``Class.method`` wraps the method on the class itself, so every
#: importer sees the wrapper; a plain name is wrapped in each listed module.
LAYER_ENTRY_POINTS: dict[str, list[tuple[str, str]]] = {
    "chisel.parse": [
        ("repro.toolchain.compiler", "parse_source_cached"),
        ("repro.chisel.parser", "parse_source_cached"),
    ],
    "chisel.elaborate": [
        ("repro.toolchain.compiler", "elaborate"),
        ("repro.chisel.elaborator", "elaborate"),
        ("repro.chisel", "elaborate"),
    ],
    "firrtl.passes": [("repro.firrtl.pass_manager", "PassManager.run_cached")],
    # The emit stage, including its circuit-fingerprint cache lookup.
    "verilog.emit": [("repro.toolchain.compiler", "_emit_cached")],
    "verilog.parse": [
        ("repro.verilog.parser", "parse_verilog"),
        ("repro.verilog", "parse_verilog"),
        ("repro.toolchain.simulator", "parse_verilog"),
        ("repro.baselines.zero_shot", "parse_verilog"),
        ("repro.baselines.autochip", "parse_verilog"),
    ],
    "problems.testbench": [("repro.problems.base", "Problem.build_testbench")],
    "verilog.kernel": [
        ("repro.verilog.compile_sim", "compile_kernel"),
        ("repro.verilog.compile_sim", "compile_trace"),
        ("repro.verilog.compile_vec", "compile_vec_kernel"),
        ("repro.verilog.compile_vec", "compile_vec_trace"),
    ],
    "sim.run": [
        ("repro.sim.testbench", "run_testbench"),
        ("repro.sim.testbench", "run_testbenches"),
        ("repro.toolchain.simulator", "run_testbench"),
        ("repro.toolchain.simulator", "run_testbenches"),
    ],
    "toolchain.compile": [("repro.toolchain.compiler", "ChiselCompiler.compile")],
    "toolchain.simulate": [("repro.toolchain.simulator", "Simulator.simulate")],
    "toolchain.simulate_many": [("repro.toolchain.simulator", "Simulator.simulate_many")],
    "llm.complete": [("repro.llm.synthetic", "SyntheticChiselLLM.complete")],
    "experiments.engine": [("repro.experiments.engine", "SweepEngine.run")],
    "experiments.store.put": [("repro.experiments.store", "ResultStore.put")],
    "experiments.store.get": [("repro.experiments.store", "ResultStore.get")],
}

#: The span covering one unit of work: a sweep unit, a verified candidate or
#: a served job.  Its self time is the agent logic between the layer calls.
UNIT_LAYER = "core.session"

#: Session-step purposes counted in the traced run.
STEP_PURPOSES = ("generate", "review", "revise", "reference", "compile", "parse", "simulate")

#: Layers with a cache, and the ``repro.caching.cache_stats()`` names behind it.
CACHES_OF_LAYER = {
    "chisel.parse": ("chisel_parse",),
    "chisel.elaborate": ("chisel_elaborate",),
    "firrtl.passes": ("firrtl_passes",),
    "verilog.emit": ("verilog_emit",),
    "verilog.parse": ("verilog_parse",),
    "verilog.kernel": ("sim_kernel", "sim_trace", "sim_vec_kernel", "sim_vec"),
    "toolchain.compile": ("chisel_compile",),
}


def per_layer_specs() -> dict[str, tuple[str, str]]:
    """Every per-layer metric: name -> (unit, which direction is better)."""
    specs: dict[str, tuple[str, str]] = {}
    for layer in (*LAYER_ENTRY_POINTS, UNIT_LAYER):
        specs[f"{layer}.calls"] = ("count", "lower")
        specs[f"{layer}.self_s"] = ("s", "lower")
        if layer in CACHES_OF_LAYER:
            specs[f"{layer}.hit_ratio"] = ("ratio", "higher")
    specs["verilog.parse.failed"] = ("count", "lower")
    for purpose in STEP_PURPOSES:
        specs[f"{UNIT_LAYER}.steps.{purpose}"] = ("count", "lower")
    specs["service.dispatch.wait_s"] = ("s", "lower")
    specs["service.tool.wait_s"] = ("s", "lower")
    specs["service.sim_batch.size"] = ("count", "higher")
    specs["loadgen.late_max_ms"] = ("ms", "lower")
    specs["trace.overhead_frac"] = ("ratio", "lower")
    specs["trace.span_cost_frac"] = ("ratio", "lower")
    specs["unattributed_frac"] = ("ratio", "lower")
    return specs


def span_cost_s(calls: int = 20000) -> float:
    """Seconds one span adds to a call: a wrapped no-op against a bare one."""
    tracer = Tracer()

    def noop() -> None:
        return None

    traced = tracer.wrap("noop", noop)
    start = time.perf_counter()
    for _ in range(calls):
        traced()
    wrapped = time.perf_counter() - start
    start = time.perf_counter()
    for _ in range(calls):
        noop()
    bare = time.perf_counter() - start
    return max(0.0, wrapped - bare) / calls


def layer_metrics(tracer: "Tracer", window: tuple[float, float]) -> dict[str, float]:
    """The traced run's per-layer numbers (service and load-generator extras aside)."""
    from repro.caching import cache_stats

    spans = tracer.spans
    own = self_times(spans)
    calls = Counter(span.name for span in spans)
    durations: dict[str, float] = defaultdict(float)
    for span in spans:
        durations[span.name] += span.end - span.start
    metrics: dict[str, float] = {}
    for layer in (*LAYER_ENTRY_POINTS, UNIT_LAYER):
        metrics[f"{layer}.calls"] = calls[layer]
        metrics[f"{layer}.self_s"] = own.get(layer, 0.0)
    stats = cache_stats()
    for layer, names in CACHES_OF_LAYER.items():
        hits = sum(stats.get(name, {}).get("hits", 0) for name in names)
        lookups = hits + sum(stats.get(name, {}).get("misses", 0) for name in names)
        metrics[f"{layer}.hit_ratio"] = hits / lookups if lookups else 0.0
    metrics["verilog.parse.failed"] = sum(
        1 for span in spans if span.name == "verilog.parse" and not span.ok
    )
    for purpose in STEP_PURPOSES:
        metrics[f"{UNIT_LAYER}.steps.{purpose}"] = tracer.steps[purpose]
    # Time a dispatched LLM request spent queued, batched or retried, beyond
    # the client call itself (injected latency included in the call).
    metrics["service.dispatch.wait_s"] = max(
        0.0, durations["service.dispatch"] - durations["service.llm_call"]
    )
    metrics["service.tool.wait_s"] = tracer.tool_wait_s
    metrics["unattributed_frac"] = unattributed_fraction(spans, *window)
    # The traced-minus-untraced difference compares two processes and moves
    # with the host; this estimate of the same cost does not.
    metrics["trace.span_cost_frac"] = len(spans) * span_cost_s() / (window[1] - window[0])
    return metrics


def covered_length(intervals: Iterable[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    clipped = sorted((max(a, lo), min(b, hi)) for a, b in intervals if b > lo and a < hi)
    total = 0.0
    run_start = run_end = None
    for a, b in clipped:
        if run_end is None or a > run_end:
            if run_end is not None:
                total += run_end - run_start
            run_start, run_end = a, b
        elif b > run_end:
            run_end = b
    if run_end is not None:
        total += run_end - run_start
    return total


def self_times(spans: Iterable[Span]) -> dict[str, float]:
    """Total self time per span name: duration minus what its children cover."""
    spans = list(spans)
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for span in spans:
        if span.parent_id:
            children[span.parent_id].append((span.start, span.end))
    totals: dict[str, float] = defaultdict(float)
    for span in spans:
        covered = covered_length(children.get(span.span_id, ()), span.start, span.end)
        totals[span.name] += (span.end - span.start) - covered
    return dict(totals)


def unattributed_fraction(spans: Iterable[Span], lo: float, hi: float) -> float:
    """Share of the wall window ``[lo, hi]`` that no span covers."""
    if hi <= lo:
        return 0.0
    covered = covered_length(((span.start, span.end) for span in spans), lo, hi)
    return max(0.0, 1.0 - covered / (hi - lo))


class Tracer:
    """Records spans in memory; wraps and later restores the layer entry points."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        #: Session steps created, by purpose.
        self.steps: Counter[str] = Counter()
        #: Seconds tool work waited between being requested and starting.
        self.tool_wait_s = 0.0
        self._wait_lock = threading.Lock()
        self._ids = itertools.count(1)
        #: (innermost span id, unit id) of the running code.
        self.current: contextvars.ContextVar[tuple[int, object]] = contextvars.ContextVar(
            "perfbench_span", default=(0, None)
        )
        self._patches: list[tuple[object, str, object]] = []

    def add_tool_wait(self, seconds: float) -> None:
        with self._wait_lock:
            self.tool_wait_s += seconds

    def record(self, name: str, start: float, end: float, origin: tuple[int, object] | None = None) -> None:
        """Add a span timed elsewhere, below ``origin`` (default: the current span)."""
        parent, unit = origin if origin is not None else self.current.get()
        self.spans.append(Span(next(self._ids), parent, name, start, end, unit, True))

    # ------------------------------------------------------------- recording

    def wrap(self, name: str, fn, unit_of=None):
        """A wrapper recording one ``name`` span per call of ``fn``.

        With ``unit_of``, the span is a unit span: ``unit_of(*args)`` names
        the unit, and every span below it carries that name.
        """
        current, spans, ids, clock = self.current, self.spans, self._ids, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent, unit = current.get()
            if unit_of is not None:
                unit = unit_of(*args)
            span_id = next(ids)
            token = current.set((span_id, unit))
            start = clock()
            ok = False
            try:
                result = fn(*args, **kwargs)
                ok = True
                return result
            finally:
                end = clock()
                current.reset(token)
                spans.append(Span(span_id, parent, name, start, end, unit, ok))

        return traced

    def wrap_async(self, name: str, fn, unit_of=None):
        """The coroutine-function form of :meth:`wrap`."""
        current, spans, ids, clock = self.current, self.spans, self._ids, time.perf_counter

        @functools.wraps(fn)
        async def traced(*args, **kwargs):
            parent, unit = current.get()
            if unit_of is not None:
                unit = unit_of(*args)
            span_id = next(ids)
            token = current.set((span_id, unit))
            start = clock()
            ok = False
            try:
                result = await fn(*args, **kwargs)
                ok = True
                return result
            finally:
                end = clock()
                current.reset(token)
                spans.append(Span(span_id, parent, name, start, end, unit, ok))

        return traced

    # --------------------------------------------------------------- patching

    def patch(self, owner: object, attr: str, replacement: object) -> None:
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, replacement)

    def patch_entry_point(self, module_name: str, attr: str, layer: str, unit_of=None) -> None:
        owner: object = importlib.import_module(module_name)
        if "." in attr:
            class_name, attr = attr.split(".")
            owner = getattr(owner, class_name)
            original = owner.__dict__[attr]
        else:
            original = getattr(owner, attr)
        if isinstance(original, staticmethod):
            self.patch(owner, attr, staticmethod(self.wrap(layer, original.__func__, unit_of)))
        else:
            self.patch(owner, attr, self.wrap(layer, original, unit_of))

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # ----------------------------------------------------------------- output

    def write(self, path: str) -> None:
        with open(path, "w") as handle:
            for span in self.spans:
                handle.write(json.dumps(span._asdict(), default=str) + "\n")


def install_layers(tracer: Tracer) -> None:
    """Wrap every layer entry point plus the session-step constructors."""
    for layer, entry_points in LAYER_ENTRY_POINTS.items():
        for module_name, attr in entry_points:
            tracer.patch_entry_point(module_name, attr, layer)
    _install_step_hooks(tracer)


def _install_step_hooks(tracer: Tracer) -> None:
    """Count session steps by purpose and remember where each was created.

    An ``LLMCall``/``ToolCall`` step, and a ``SimulateRequest`` (which the
    service's simulation batcher runs instead of its step), remembers the
    span that was current when it was created, and when.
    """
    from repro.core.session import LLMCall, ToolCall
    from repro.toolchain.simulator import SimulateRequest

    current, steps, clock = tracer.current, tracer.steps, time.perf_counter

    def remember(cls) -> None:
        original_init = cls.__dict__["__init__"]

        @functools.wraps(original_init)
        def init(self, *args, **kwargs):
            original_init(self, *args, **kwargs)
            object.__setattr__(self, "_perfbench_origin", (current.get(), clock()))
            purpose = getattr(self, "purpose", None)
            if purpose is not None:
                steps[purpose] += 1

        tracer.patch(cls, "__init__", init)

    for cls in (LLMCall, ToolCall, SimulateRequest):
        remember(cls)


class _TimedSession:
    """A session generator that records how long its driver took to resume it.

    After a tool step ran on the tool thread, the job waits for the event
    loop to pick the result up; that wait ends when the driver sends the
    result in, and is recorded as a ``service.tool.wait`` span.
    """

    def __init__(self, tracer: Tracer, session) -> None:
        self._tracer = tracer
        self._session = session
        self._step = None

    def __iter__(self):
        return self

    def __next__(self):
        return self.send(None)

    def send(self, value):
        ran = getattr(self._step, "__dict__", {}).get("_perfbench_ran")
        if ran is not None:
            self._tracer.record("service.tool.wait", ran, time.perf_counter())
        self._step = self._session.send(value)
        return self._step

    def __getattr__(self, name):
        return getattr(self._session, name)


def install_service_hooks(tracer: Tracer) -> None:
    """Unit spans, waits and LLM dispatch timing for the generation service.

    A ``service.job`` span covers each submitted job and the unit span the
    session it drives, if any.  Every wait of a session gets a span below the
    unit span, so its self time is the agent logic alone: ``service.dispatch``
    around each LLM request, ``service.sim.wait`` around each batched simulation, and
    ``service.tool.wait`` for a tool step's time in the tool queue and for
    the event loop's pick-up of its result.  ``loop.run_in_executor`` does
    not carry context variables, so a tool step restores, on the tool
    thread, the span that was current when the step was created.
    """
    from repro.core.session import ToolCall
    from repro.experiments.strategies import AutoChipStrategy, ReChiselStrategy, ZeroShotStrategy
    from repro.llm.dispatch import BatchingDispatcher, LatencyClient
    from repro.service.service import GenerationService, _SimulationBatcher

    current, clock = tracer.current, time.perf_counter

    def job_name(_service, unit) -> str:
        return f"{unit.model}/{unit.problem_id}/{unit.sample}"

    # A job that the memo answers, or that waits on an identical job already
    # running, drives no session: its time is the job span's own.
    tracer.patch(
        GenerationService,
        "_execute",
        tracer.wrap_async("service.job", GenerationService.__dict__["_execute"], unit_of=job_name),
    )
    tracer.patch(
        GenerationService,
        "_drive",
        tracer.wrap_async(UNIT_LAYER, GenerationService.__dict__["_drive"]),
    )
    tracer.patch(
        BatchingDispatcher,
        "complete",
        tracer.wrap_async("service.dispatch", BatchingDispatcher.__dict__["complete"]),
    )
    tracer.patch(
        LatencyClient,
        "complete",
        tracer.wrap_async("service.llm_call", LatencyClient.__dict__["complete"]),
    )
    tracer.patch(
        _SimulationBatcher,
        "simulate",
        tracer.wrap_async("service.sim.wait", _SimulationBatcher.__dict__["simulate"]),
    )

    for cls in (ZeroShotStrategy, ReChiselStrategy, AutoChipStrategy):
        def session(self, *args, _original=cls.__dict__["session"], **kwargs):
            return _TimedSession(tracer, _original(self, *args, **kwargs))

        tracer.patch(cls, "session", session)

    original_run = ToolCall.__dict__["run"]

    @functools.wraps(original_run)
    def run(self):
        origin, created = self.__dict__["_perfbench_origin"]
        started = clock()
        tracer.add_tool_wait(started - created)
        tracer.record("service.tool.wait", created, started, origin)
        token = current.set(origin)
        try:
            return original_run(self)
        finally:
            current.reset(token)
            object.__setattr__(self, "_perfbench_ran", clock())

    tracer.patch(ToolCall, "run", run)

    execute = _SimulationBatcher.__dict__["_execute"].__func__

    def batched(requests):
        now = clock()
        for request in requests:
            tracer.add_tool_wait(now - request.__dict__["_perfbench_origin"][1])
        return execute(requests)

    tracer.patch(
        _SimulationBatcher, "_execute", staticmethod(tracer.wrap("service.sim_batch", batched))
    )
