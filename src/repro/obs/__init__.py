"""Observability: structured event bus, tracing spans, metrics, transports.

The operator surface of the served system (see README "Operations
console").  Three layers share one event stream:

* :mod:`repro.obs.events` — the typed :class:`EventBus` with topic pub/sub
  and bounded, drop-counting subscriber queues; :func:`get_bus` is the
  process-global instance every instrumented layer publishes to;
* :mod:`repro.obs.spans` — :func:`span` context managers emitting
  start/end trace events with monotonic durations and parent/child lineage
  (session → LLM call → tool call → simulate), plus timeline reconstruction;
* :mod:`repro.obs.metrics` — a Prometheus-style :class:`MetricsRegistry`.
  The generation service and its LLM dispatcher each count into their own
  registry where things happen (``service.metrics``,
  ``dispatcher.metrics``); :class:`MetricsSink` fills one from the events
  that have no such owner (spans, retries, campaigns, cache snapshots,
  sweeps, fuzzing);
* :mod:`repro.obs.transport` — JSON-lines file and line-JSON socket
  transports so external processes (the Textual console, CI artifacts, a
  scraper) subscribe without touching the serving process.
"""

from repro.obs.events import Event, EventBus, Subscription, get_bus, publish, set_bus
from repro.obs.metrics import Counter, Gauge, Histogram, MetricsRegistry, MetricsSink
from repro.obs.spans import SpanNode, build_timeline, current_span, span
from repro.obs.transport import (
    JsonlWriter,
    SocketEventServer,
    install_from_environment,
    iter_socket_events,
    parse_endpoint,
)

__all__ = [
    "Event",
    "EventBus",
    "Subscription",
    "get_bus",
    "set_bus",
    "publish",
    "span",
    "current_span",
    "SpanNode",
    "build_timeline",
    "MetricsRegistry",
    "MetricsSink",
    "Counter",
    "Gauge",
    "Histogram",
    "JsonlWriter",
    "SocketEventServer",
    "iter_socket_events",
    "parse_endpoint",
    "install_from_environment",
]
