"""The structured event bus: typed events, topic pub/sub, bounded subscribers.

Every layer of the served system (service, dispatcher, fleet supervisor,
sweep engine, toolchain caches, fuzz engine) publishes :class:`Event` records
onto an :class:`EventBus`.  Publishing is designed to sit on hot paths:

* with **no subscribers** a ``publish`` call is one attribute read and a
  falsy check — no event object is even constructed;
* with subscribers it is a cheap enqueue onto each matching subscriber's
  bounded deque — no locks held during I/O, no serialization, no syscalls.

Subscribers own **bounded** queues: a slow consumer loses the *oldest*
events (ring-buffer semantics, the tail of a live stream matters most) and
the loss is counted per subscriber — silent event loss is a bug class this
module refuses to have.  External processes subscribe through the line-JSON
transports in :mod:`repro.obs.transport`.

Topics are dotted names (``service.job``, ``llm.batch``, ``fleet``,
``trace``, ``cache.stats``, ``sweep.progress``, ``fuzz.program``).  A
subscription names topic *prefixes*: ``"service"`` matches ``service.job``
and ``service.snapshot``; ``None`` (or ``"*"``) matches everything.
"""

from __future__ import annotations

import itertools
import json
import os
import threading
import time
from collections import deque
from dataclasses import dataclass, field

from repro import settings

#: Monotonic sequence shared by every bus in the process, so merged streams
#: from several buses still have a total order.
_sequence = itertools.count(1)


@dataclass(frozen=True)
class Event:
    """One structured occurrence: a topic, a name, a timestamp and attributes.

    ``ts`` is wall-clock (``time.time()``) for cross-process correlation;
    ``seq`` is a process-wide monotonic sequence number that orders events
    published in the same clock tick.  ``attrs`` is a flat JSON-serializable
    mapping; treat it as immutable.
    """

    topic: str
    name: str
    ts: float
    seq: int
    pid: int
    attrs: dict = field(default_factory=dict)

    def to_json(self) -> str:
        return json.dumps(
            {
                "topic": self.topic,
                "name": self.name,
                "ts": self.ts,
                "seq": self.seq,
                "pid": self.pid,
                "attrs": self.attrs,
            },
            sort_keys=True,
            separators=(",", ":"),
            default=str,
        )

    @classmethod
    def from_json(cls, line: str) -> "Event":
        raw = json.loads(line)
        return cls(
            topic=raw["topic"],
            name=raw["name"],
            ts=raw["ts"],
            seq=raw["seq"],
            pid=raw.get("pid", 0),
            attrs=raw.get("attrs", {}),
        )


def _matches(topics: tuple[str, ...] | None, topic: str) -> bool:
    if topics is None:
        return True
    for prefix in topics:
        if prefix == "*" or topic == prefix or topic.startswith(prefix + "."):
            return True
    return False


class Subscription:
    """One subscriber's bounded event queue with drop accounting.

    Thread-safe: any number of publisher threads may :meth:`_offer` while one
    consumer drains via :meth:`pop_all` / :meth:`get`.  When the queue is
    full the oldest event is dropped and ``dropped`` incremented — consumers
    check :attr:`dropped` to know their view has gaps.
    """

    def __init__(
        self,
        topics: tuple[str, ...] | None = None,
        maxsize: int = 2048,
        name: str | None = None,
    ):
        if maxsize < 1:
            raise ValueError("maxsize must be >= 1")
        self.topics = topics
        self.maxsize = maxsize
        self.name = name or f"sub-{next(_sequence)}"
        self._queue: deque[Event] = deque()
        self._lock = threading.Lock()
        self._ready = threading.Event()
        self._dropped = 0
        self.closed = False

    @property
    def dropped(self) -> int:
        return self._dropped

    def __len__(self) -> int:
        return len(self._queue)

    def _offer(self, event: Event) -> None:
        with self._lock:
            if self.closed:
                return
            if len(self._queue) >= self.maxsize:
                self._queue.popleft()
                self._dropped += 1
            self._queue.append(event)
        self._ready.set()

    def pop_all(self) -> list[Event]:
        """Drain everything queued right now (non-blocking)."""
        with self._lock:
            drained = list(self._queue)
            self._queue.clear()
            self._ready.clear()
        return drained

    def get(self, timeout: float | None = None) -> Event | None:
        """Pop one event, waiting up to ``timeout`` seconds; ``None`` on timeout."""
        deadline = None if timeout is None else time.monotonic() + timeout
        while True:
            with self._lock:
                if self._queue:
                    return self._queue.popleft()
                if self.closed:
                    return None
                self._ready.clear()
            remaining = None if deadline is None else deadline - time.monotonic()
            if remaining is not None and remaining <= 0:
                return None
            if not self._ready.wait(remaining):
                return None

    def close(self) -> None:
        with self._lock:
            self.closed = True
        self._ready.set()


class EventBus:
    """Topic-based pub/sub with per-subscriber bounded queues.

    The publish fast path is engineered for hot loops: ``self._subscriptions``
    empty means return immediately; otherwise the (topic → matching
    subscribers) route is served from a cache invalidated on every
    subscribe/unsubscribe.
    """

    def __init__(self):
        self._subscriptions: list[Subscription] = []
        self._routes: dict[str, tuple[Subscription, ...]] = {}
        self._lock = threading.Lock()
        self.published = 0
        self._pid = os.getpid()

    # ---------------------------------------------------------- subscriptions

    @property
    def active(self) -> bool:
        """True when at least one subscriber is attached (publish is not free)."""
        return bool(self._subscriptions)

    def subscribe(
        self,
        topics: str | list[str] | tuple[str, ...] | None = None,
        maxsize: int = 2048,
        name: str | None = None,
    ) -> Subscription:
        """Attach a bounded subscriber for ``topics`` (prefixes; ``None`` = all)."""
        if isinstance(topics, str):
            topics = (topics,)
        elif topics is not None:
            topics = tuple(topics)
        subscription = Subscription(topics, maxsize=maxsize, name=name)
        with self._lock:
            self._subscriptions.append(subscription)
            self._routes.clear()
        return subscription

    def unsubscribe(self, subscription: Subscription) -> None:
        subscription.close()
        with self._lock:
            if subscription in self._subscriptions:
                self._subscriptions.remove(subscription)
            self._routes.clear()

    # --------------------------------------------------------------- publish

    def publish(self, topic: str, name: str, **attrs) -> Event | None:
        """Publish one event; returns it, or ``None`` when nobody listens."""
        if not self._subscriptions:
            return None
        targets = self._routes.get(topic)
        if targets is None:
            with self._lock:
                targets = tuple(
                    sub for sub in self._subscriptions if _matches(sub.topics, topic)
                )
                self._routes[topic] = targets
        if not targets:
            return None
        event = Event(
            topic=topic,
            name=name,
            ts=time.time(),
            seq=next(_sequence),
            pid=self._pid,
            attrs=attrs,
        )
        self.published += 1
        for subscription in targets:
            subscription._offer(event)
        return event

    def emit(self, event: Event) -> None:
        """Re-publish a pre-built event (transports relaying foreign streams)."""
        if not self._subscriptions:
            return
        targets = self._routes.get(event.topic)
        if targets is None:
            with self._lock:
                targets = tuple(
                    sub for sub in self._subscriptions if _matches(sub.topics, event.topic)
                )
                self._routes[event.topic] = targets
        self.published += 1
        for subscription in targets:
            subscription._offer(event)

    # ------------------------------------------------------------------ stats

    def stats(self) -> dict:
        with self._lock:
            subscribers = [
                {
                    "name": sub.name,
                    "topics": list(sub.topics) if sub.topics else ["*"],
                    "queued": len(sub),
                    "dropped": sub.dropped,
                }
                for sub in self._subscriptions
            ]
        return {"published": self.published, "subscribers": subscribers}


# ---------------------------------------------------------------------------
# The process-global bus
# ---------------------------------------------------------------------------

_global_bus: EventBus | None = None
_global_lock = threading.Lock()
_env_installed = False


def get_bus() -> EventBus:
    """The process-global bus every instrumented layer defaults to.

    On first call, the environment transports are installed when configured:
    ``REPRO_EVENTS_JSONL=path`` attaches a JSON-lines file sink and
    ``REPRO_EVENTS_SOCKET=host:port`` serves the stream to external
    subscribers (see :mod:`repro.obs.transport`).
    """
    global _global_bus, _env_installed
    bus = _global_bus
    if bus is not None and _env_installed:
        return bus
    with _global_lock:
        if _global_bus is None:
            _global_bus = EventBus()
        if not _env_installed:
            _env_installed = True
            if settings.read("REPRO_EVENTS_JSONL") or settings.read("REPRO_EVENTS_SOCKET"):
                from repro.obs.transport import install_from_environment

                install_from_environment(_global_bus)
        return _global_bus


def set_bus(bus: EventBus | None) -> EventBus | None:
    """Swap the global bus (tests); returns the previous one."""
    global _global_bus
    with _global_lock:
        previous, _global_bus = _global_bus, bus
    return previous


def publish(topic: str, name: str, **attrs) -> Event | None:
    """Publish onto the global bus (convenience for one-off call sites)."""
    return get_bus().publish(topic, name, **attrs)
