"""Headless state model behind the operations console.

:class:`ConsoleModel` consumes structured events from a
:class:`repro.obs.EventBus` subscription and folds them into the live tables
the console renders: per-session rows with per-stage latencies, cache hit
rates, recent LLM/simulation batch sizes and a bounded event tail.

It is deliberately pure Python with no UI dependency: the Textual app in
:mod:`repro.console.app` is a thin view over this model, the plain-text
``--plain`` mode calls :meth:`ConsoleModel.render`, and the headless console
tests drive a real generation service against it without Textual installed.
"""

from __future__ import annotations

from collections import OrderedDict, deque
from dataclasses import dataclass, field

from repro.obs import Event, EventBus, Subscription

#: Topic prefixes the console subscribes to — everything it knows how to fold.
TOPICS = (
    "service.snapshot", "trace", "llm", "sim", "cache", "sweep", "fuzz", "campaign", "retry",
)

#: Glyphs for :func:`sparkline`, lowest to highest.
_SPARK_BLOCKS = "▁▂▃▄▅▆▇█"


def sparkline(values, width: int = 32) -> str:
    """Render the last ``width`` values as a unicode block sparkline."""
    tail = list(values)[-width:]
    if not tail:
        return ""
    top = max(tail)
    if top <= 0:
        return _SPARK_BLOCKS[0] * len(tail)
    scale = len(_SPARK_BLOCKS) - 1
    return "".join(_SPARK_BLOCKS[min(scale, int(value * scale / top))] for value in tail)


@dataclass
class SessionRow:
    """One generation session (one ``session`` span) as the console shows it."""

    key: str
    trace: str = ""
    problem: str = "?"
    strategy: str = "?"
    model: str = "?"
    sample: int | None = None
    status: str = "running"
    started_ts: float = 0.0
    duration: float | None = None
    #: Cumulative seconds spent per child-span operation (``llm.generate``,
    #: ``tool.compile``, ``tool.simulate``, ...).
    stages: dict[str, float] = field(default_factory=dict)
    stage_counts: dict[str, int] = field(default_factory=dict)

    def stage_ms(self, prefix: str) -> float:
        """Total milliseconds across stages whose op starts with ``prefix``."""
        return 1000.0 * sum(
            seconds for op, seconds in self.stages.items() if op.startswith(prefix)
        )


class ConsoleModel:
    """Folds bus events into the tables the operations console displays."""

    def __init__(self, max_sessions: int = 256, tail: int = 200, batches: int = 120):
        self.sessions: OrderedDict[str, SessionRow] = OrderedDict()
        self.max_sessions = max_sessions
        self.counters: dict[str, int] = {}
        self.snapshot: dict = {}
        self.caches: dict[str, dict] = {}
        self.sim_batches: deque[int] = deque(maxlen=batches)
        self.sweep: dict = {}
        # Resilience state: LLM breaker snapshot, live campaign budget /
        # stage progress, retry counters (see resilience_lines).
        self.breaker: dict = {}
        self.campaign_id: str = ""
        self.campaign_status: str = ""
        self.campaign_budget: dict = {}
        self.campaign_stages: OrderedDict[str, dict] = OrderedDict()
        self.tail: deque[str] = deque(maxlen=tail)
        self.events_seen = 0
        self._trace_to_session: dict[str, str] = {}
        self._subscription: Subscription | None = None
        self._pending: deque[Event] = deque()

    # ------------------------------------------------------------- bus wiring

    def attach(self, bus: EventBus, maxsize: int = 8192) -> Subscription:
        """Subscribe to ``bus``; call :meth:`pump` to drain into the model."""
        self._subscription = bus.subscribe(TOPICS, maxsize=maxsize, name="console")
        return self._subscription

    def detach(self) -> None:
        if self._subscription is not None:
            self._subscription.close()
            self._subscription = None

    def feed(self, event: Event) -> None:
        """Queue one event from another thread (e.g. a socket reader).

        Safe without a lock: deque append/popleft are atomic, and the event is
        folded in on the next :meth:`pump` from the rendering thread.
        """
        self._pending.append(event)

    def pump(self) -> int:
        """Drain fed and subscribed events; returns how many arrived."""
        count = 0
        while self._pending:
            self.apply(self._pending.popleft())
            count += 1
        if self._subscription is not None:
            events = self._subscription.pop_all()
            for event in events:
                self.apply(event)
            count += len(events)
        return count

    # ---------------------------------------------------------------- folding

    def apply(self, event: Event) -> None:
        """Fold one event into the model (usable without a subscription)."""
        self.events_seen += 1
        topic = event.topic
        if topic == "trace":
            self._apply_trace(event)
        elif topic == "service.snapshot":
            self.snapshot = dict(event.attrs)
        elif topic == "cache.stats":
            self.caches = dict(event.attrs.get("caches", {}))
        elif topic == "sim.batch":
            self.sim_batches.append(int(event.attrs.get("size", 0)))
        elif topic == "llm.breaker":
            self.breaker = dict(event.attrs)
            self._count("breaker." + event.name)
            if event.name in ("open", "half-open", "close"):
                self.tail.append(self._format(event))
        elif topic == "retry":
            self._count("retry." + str(event.attrs.get("source", "?")))
            self.tail.append(self._format(event))
        elif topic == "campaign":
            self._apply_campaign(event)
        elif topic == "sweep.progress":
            self.sweep = dict(event.attrs)
        elif topic.startswith("fuzz"):
            self._count(topic)
            if topic == "fuzz.finding":
                self.tail.append(self._format(event))

    def _count(self, key: str) -> None:
        self.counters[key] = self.counters.get(key, 0) + 1

    def _apply_campaign(self, event: Event) -> None:
        attrs = event.attrs
        self.campaign_id = str(attrs.get("campaign", self.campaign_id or ""))
        if event.name == "progress":
            stage = str(attrs.get("stage", "?"))
            entry = self.campaign_stages.setdefault(stage, {})
            entry["done"] = int(attrs.get("done", 0))
            entry["total"] = int(attrs.get("total", 0))
        elif event.name == "stage":
            stage = str(attrs.get("stage", "?"))
            entry = self.campaign_stages.setdefault(stage, {})
            entry["status"] = str(attrs.get("status", "?"))
            self.tail.append(self._format(event))
        elif event.name == "budget":
            self.campaign_budget = dict(attrs)
        elif event.name == "checkpoint":
            self._count("campaign.checkpoint")
        else:  # start / complete / drain
            self._count("campaign." + event.name)
            if event.name == "complete":
                self.campaign_status = str(attrs.get("status", "?"))
            elif event.name == "start":
                self.campaign_status = "running"
            self.tail.append(self._format(event))

    def _apply_trace(self, event: Event) -> None:
        attrs = event.attrs
        op = attrs.get("op", "")
        span_id = attrs.get("span", "")
        trace_id = attrs.get("trace", "")
        if event.name == "span.start" and op == "session":
            row = SessionRow(
                key=span_id,
                trace=trace_id,
                problem=str(attrs.get("problem", "?")),
                strategy=str(attrs.get("strategy", "?")),
                model=str(attrs.get("model", "?")),
                sample=attrs.get("sample"),
                started_ts=event.ts,
            )
            self.sessions[span_id] = row
            self._trace_to_session[trace_id] = span_id
            while len(self.sessions) > self.max_sessions:
                _, evicted = self.sessions.popitem(last=False)
                self._trace_to_session.pop(evicted.trace, None)
        elif event.name == "span.end":
            if op == "session":
                row = self.sessions.get(span_id)
                if row is not None:
                    row.duration = attrs.get("duration")
                    row.status = "error" if "error" in attrs else "done"
                self._trace_to_session.pop(trace_id, None)
            else:
                session_key = self._trace_to_session.get(trace_id)
                row = self.sessions.get(session_key) if session_key else None
                if row is not None:
                    duration = float(attrs.get("duration") or 0.0)
                    row.stages[op] = row.stages.get(op, 0.0) + duration
                    row.stage_counts[op] = row.stage_counts.get(op, 0) + 1

    def _format(self, event: Event) -> str:
        extras = " ".join(
            f"{key}={value}" for key, value in sorted(event.attrs.items())
        )
        return f"{event.topic} {event.name} {extras}".rstrip()

    # -------------------------------------------------------------- table views

    def session_rows(self) -> list[tuple]:
        """Newest-first ``(problem, strategy, model, sample, status, llm ms,
        compile ms, simulate ms, total ms)`` rows for the sessions table."""
        rows = []
        for row in reversed(self.sessions.values()):
            total = row.duration
            rows.append(
                (
                    row.problem,
                    row.strategy,
                    row.model,
                    "-" if row.sample is None else str(row.sample),
                    row.status,
                    f"{row.stage_ms('llm.'):.1f}",
                    f"{row.stage_ms('tool.compile'):.1f}",
                    f"{row.stage_ms('tool.simulate'):.1f}",
                    "-" if total is None else f"{1000.0 * total:.1f}",
                )
            )
        return rows

    def cache_rows(self) -> list[tuple]:
        """``(cache, hits, misses, hit rate, size)`` per registered cache."""
        rows = []
        for name, stats in sorted(self.caches.items()):
            hits = stats.get("hits", 0)
            misses = stats.get("misses", 0)
            lookups = hits + misses
            rate = f"{100.0 * hits / lookups:.0f}%" if lookups else "-"
            rows.append((name, str(hits), str(misses), rate, str(stats.get("size", 0))))
        return rows

    def headline(self) -> str:
        """One status line: job counts, queue depth, sweep progress.

        Job counts come from the latest ``service.snapshot`` event, which
        carries the service's cumulative counts, so events dropped under
        backpressure do not make the line undercount.
        """
        snap = self.snapshot
        hits = sum(snap.get(tier, 0) for tier in ("memo_hits", "store_hits", "coalesced_hits"))
        parts = [
            f"done={snap.get('completed', 0)}",
            f"failed={snap.get('failed', 0)}",
            f"cache-hits={hits}",
            f"queue={snap.get('queue_depth', 0)}",
            f"in-flight={snap.get('in_flight', 0)}",
        ]
        if self.sweep:
            parts.append(f"sweep={self.sweep.get('done', 0)}/{self.sweep.get('total', 0)}")
        if self.breaker:
            parts.append(f"breaker={self.breaker.get('state', '?')}")
        return "  ".join(parts)

    def resilience_lines(self) -> list[str]:
        """The resilience panel: breaker, budget, campaign stages, retries."""
        lines = []
        if self.breaker:
            lines.append(
                f"llm breaker: {self.breaker.get('state', '?')}"
                f"  failures={self.breaker.get('failures', 0)}"
                f"  opens={self.breaker.get('opens', 0)}"
                f"  rejections={self.breaker.get('rejections', 0)}"
            )
        if self.campaign_id:
            status = self.campaign_status or "running"
            lines.append(f"campaign {self.campaign_id}: {status}")
        if self.campaign_budget:
            budget = self.campaign_budget
            limit = budget.get("limit")
            remaining = budget.get("remaining")
            line = f"llm budget: spent={budget.get('spent', 0)}"
            if limit is not None:
                line += f"/{limit}  remaining={remaining}"
            deadline_remaining = budget.get("deadline_remaining")
            if deadline_remaining is not None:
                line += f"  deadline={deadline_remaining}s"
            lines.append(line)
        for stage, entry in self.campaign_stages.items():
            status = entry.get("status", "running")
            done, total = entry.get("done"), entry.get("total")
            progress = f"  {done}/{total}" if total else ""
            lines.append(f"  stage {stage}: {status}{progress}")
        retries = sum(
            count for key, count in self.counters.items() if key.startswith("retry.")
        )
        if retries:
            lines.append(f"retries={retries}")
        return lines

    # ------------------------------------------------------------- plain text

    def render(self, sessions: int = 12) -> str:
        """A full plain-text dashboard (used by ``--plain`` and tests)."""
        lines = [self.headline(), ""]
        lines.append("sessions (newest first):")
        header = ("problem", "strategy", "model", "s", "status", "llm ms", "compile ms", "sim ms", "total ms")
        for row in [header] + self.session_rows()[:sessions]:
            lines.append("  " + "  ".join(str(cell).ljust(12) for cell in row).rstrip())
        if self.caches:
            lines.append("")
            lines.append("caches:")
            for row in self.cache_rows():
                lines.append("  " + "  ".join(row))
        resilience = self.resilience_lines()
        if resilience:
            lines.append("")
            lines.append("resilience:")
            lines.extend("  " + line for line in resilience)
        if self.sim_batches:
            lines.append("")
            lines.append(f"sim batches: {sparkline(self.sim_batches)}")
        if self.tail:
            lines.append("")
            lines.append("events:")
            lines.extend("  " + line for line in list(self.tail)[-10:])
        return "\n".join(lines)
