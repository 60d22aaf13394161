"""Tracing spans: nested timed scopes published as paired bus events.

A :func:`span` context manager emits ``span.start`` / ``span.end`` events on
the ``trace`` topic, with monotonic durations (``time.perf_counter``) and
parent/child linkage carried through a :class:`contextvars.ContextVar` — so
nesting works across ``await`` points and each asyncio task (one served
session) gets its own lineage.  The taxonomy the service emits::

    session                     one served work unit
    ├── llm.generate            chat completion (purpose-labelled)
    ├── tool.compile            toolchain step on the loop's tool queue
    ├── tool.simulate           simulate step (possibly micro-batched)
    └── llm.review / tool.parse / ...

:func:`build_timeline` reconstructs the parent/child tree from a captured
event stream; the operations console uses it for per-stage latencies and the
tests assert a session's timeline covers its LLM, tool and simulate steps.

When the bus has no subscribers a span costs two attribute reads — no ids,
no clocks, no contextvar traffic — so instrumentation can stay on warm paths
permanently.
"""

from __future__ import annotations

import itertools
import os
import time
from contextvars import ContextVar
from dataclasses import dataclass, field

from repro.obs.events import Event, EventBus, get_bus

#: (trace_id, span_id) of the innermost active span in this context.
_current: ContextVar[tuple[str, str] | None] = ContextVar("repro_obs_span", default=None)

_ids = itertools.count(1)


def _new_id() -> str:
    return f"{os.getpid():x}-{next(_ids):x}"


def current_span() -> tuple[str, str] | None:
    """The active ``(trace_id, span_id)`` pair, or ``None`` outside any span."""
    return _current.get()


class span:
    """Context manager timing one scope and publishing its start/end events.

    ``attrs`` ride on both events (and whatever :meth:`annotate` adds rides
    on the end event).  A span opened with no active parent starts a new
    trace; children inherit the trace id.  Reentrant and exception-safe: the
    end event carries ``error`` when the scope raised.
    """

    __slots__ = ("name", "topic", "attrs", "_bus", "_token", "_started",
                 "span_id", "parent_id", "trace_id")

    def __init__(self, name: str, bus: EventBus | None = None, topic: str = "trace", **attrs):
        self.name = name
        self.topic = topic
        self.attrs = attrs
        self._bus = bus
        self._token = None  # set while the span is active
        self.span_id = self.parent_id = self.trace_id = ""

    def annotate(self, **attrs) -> "span":
        """Attach attributes to the end event (e.g. an outcome computed late)."""
        self.attrs.update(attrs)
        return self

    def __enter__(self) -> "span":
        bus = self._bus
        if bus is None:
            bus = self._bus = get_bus()
        if not bus.active:
            return self
        parent = _current.get()
        if parent is None:
            self.trace_id = _new_id()
        else:
            self.trace_id, self.parent_id = parent
        self.span_id = _new_id()
        self._token = _current.set((self.trace_id, self.span_id))
        self._started = time.perf_counter()
        bus.publish_attrs(
            self.topic,
            "span.start",
            {
                "span": self.span_id,
                "parent": self.parent_id,
                "trace": self.trace_id,
                "op": self.name,
                **self.attrs,
            },
        )
        return self

    def __exit__(self, exc_type, exc, _tb) -> None:
        token = self._token
        if token is None:
            return
        duration = time.perf_counter() - self._started
        _current.reset(token)
        self._token = None
        attrs = self.attrs
        if exc_type is not None:
            attrs = {**attrs, "error": exc_type.__name__}
        self._bus.publish_attrs(
            self.topic,
            "span.end",
            {
                "span": self.span_id,
                "parent": self.parent_id,
                "trace": self.trace_id,
                "op": self.name,
                "duration": round(duration, 9),
                **attrs,
            },
        )


# ---------------------------------------------------------------------------
# Timeline reconstruction
# ---------------------------------------------------------------------------


@dataclass
class SpanNode:
    """One reconstructed span with its children, ordered by start time."""

    span_id: str
    parent_id: str
    trace_id: str
    name: str
    start_ts: float = 0.0
    duration: float | None = None
    attrs: dict = field(default_factory=dict)
    children: list["SpanNode"] = field(default_factory=list)

    @property
    def complete(self) -> bool:
        return self.duration is not None

    def find(self, name: str) -> list["SpanNode"]:
        """Every descendant (and self) whose name matches ``name``."""
        found = [self] if self.name == name else []
        for child in self.children:
            found.extend(child.find(name))
        return found

    def render(self, indent: int = 0) -> str:
        duration = f"{self.duration * 1000:.2f} ms" if self.complete else "…"
        lines = ["  " * indent + f"{self.name}  {duration}"]
        for child in self.children:
            lines.append(child.render(indent + 1))
        return "\n".join(lines)


def build_timeline(events: list[Event]) -> list[SpanNode]:
    """Reconstruct span trees from a captured stream of trace events.

    Tolerant of truncation: an end without a captured start still yields a
    node (with the end event's timestamp), and an unfinished span appears
    with ``duration None``.  Returns the roots (spans whose parent was never
    seen), ordered by start time.
    """
    nodes: dict[str, SpanNode] = {}
    order: dict[str, int] = {}
    for event in events:
        if event.name not in ("span.start", "span.end"):
            continue
        attrs = event.attrs
        span_id = attrs.get("span", "")
        node = nodes.get(span_id)
        if node is None:
            node = nodes[span_id] = SpanNode(
                span_id=span_id,
                parent_id=attrs.get("parent", ""),
                trace_id=attrs.get("trace", ""),
                name=attrs.get("op", ""),
                start_ts=event.ts,
            )
            order[span_id] = event.seq
        if event.name == "span.end":
            node.duration = attrs.get("duration")
        extra = {
            key: value
            for key, value in attrs.items()
            if key not in ("span", "parent", "trace", "op", "duration")
        }
        node.attrs.update(extra)

    roots: list[SpanNode] = []
    for node in nodes.values():
        parent = nodes.get(node.parent_id) if node.parent_id else None
        if parent is not None:
            parent.children.append(node)
        else:
            roots.append(node)
    for node in nodes.values():
        node.children.sort(key=lambda child: order[child.span_id])
    roots.sort(key=lambda node: order[node.span_id])
    return roots
