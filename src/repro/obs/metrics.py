"""Metrics registry: counters, gauges, histograms, Prometheus exposition.

The registry holds typed instruments keyed by ``(name, labels)`` series and
renders them in the Prometheus text format, so any scraper (or a human with
``curl`` against a dump) can read service health without bespoke parsing.

:class:`MetricsSink` derives the whole registry from the structured event
stream — the same events the operations console renders — instead of a
second set of ad-hoc counters threaded through the code: job states, cache
tiers, span latencies, LLM/sim batch sizes, queue depth and fleet
supervision counters all fall out of one ``attach``.
"""

from __future__ import annotations

import threading
from bisect import bisect_right

from repro.obs.events import Event, EventBus, Subscription

_DEFAULT_BUCKETS = (0.001, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0)


def _labels_key(labels: dict) -> tuple[tuple[str, str], ...]:
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


def _render_labels(key: tuple[tuple[str, str], ...]) -> str:
    if not key:
        return ""
    body = ",".join(f'{name}="{value}"' for name, value in key)
    return "{" + body + "}"


class Counter:
    """A monotonically increasing value, optionally split by labels."""

    kind = "counter"

    def __init__(self, name: str, help: str = ""):
        self.name = name
        self.help = help
        self._series: dict[tuple, float] = {}
        self._lock = threading.Lock()

    def inc(self, value: float = 1.0, **labels) -> None:
        key = _labels_key(labels)
        with self._lock:
            self._series[key] = self._series.get(key, 0.0) + value

    def value(self, **labels) -> float:
        return self._series.get(_labels_key(labels), 0.0)

    def render(self) -> list[str]:
        lines = [f"# HELP {self.name} {self.help}", f"# TYPE {self.name} {self.kind}"]
        for key in sorted(self._series):
            lines.append(f"{self.name}{_render_labels(key)} {self._series[key]:g}")
        return lines


class Gauge(Counter):
    """A value that can go up and down (queue depth, workers alive)."""

    kind = "gauge"

    def set(self, value: float, **labels) -> None:
        with self._lock:
            self._series[_labels_key(labels)] = float(value)


class Histogram:
    """Cumulative-bucket histogram in the Prometheus style."""

    kind = "histogram"

    def __init__(self, name: str, help: str = "", buckets: tuple[float, ...] = _DEFAULT_BUCKETS):
        self.name = name
        self.help = help
        self.buckets = tuple(sorted(buckets))
        self._series: dict[tuple, list] = {}  # key -> [bucket counts..., count, sum]
        self._lock = threading.Lock()

    def observe(self, value: float, **labels) -> None:
        key = _labels_key(labels)
        with self._lock:
            series = self._series.get(key)
            if series is None:
                series = self._series[key] = [0] * len(self.buckets) + [0, 0.0]
            index = bisect_right(self.buckets, value)
            for i in range(index, len(self.buckets)):
                series[i] += 1
            series[-2] += 1
            series[-1] += value

    def count(self, **labels) -> int:
        series = self._series.get(_labels_key(labels))
        return series[-2] if series else 0

    def sum(self, **labels) -> float:
        series = self._series.get(_labels_key(labels))
        return series[-1] if series else 0.0

    def render(self) -> list[str]:
        lines = [f"# HELP {self.name} {self.help}", f"# TYPE {self.name} {self.kind}"]
        for key in sorted(self._series):
            series = self._series[key]
            for bucket, cumulative in zip(self.buckets, series):
                labelled = key + (("le", f"{bucket:g}"),)
                lines.append(f"{self.name}_bucket{_render_labels(labelled)} {cumulative}")
            inf_key = key + (("le", "+Inf"),)
            lines.append(f"{self.name}_bucket{_render_labels(inf_key)} {series[-2]}")
            lines.append(f"{self.name}_count{_render_labels(key)} {series[-2]}")
            lines.append(f"{self.name}_sum{_render_labels(key)} {series[-1]:g}")
        return lines


class MetricsRegistry:
    """A named collection of instruments with one-call text exposition."""

    def __init__(self):
        self._instruments: dict[str, Counter | Gauge | Histogram] = {}
        self._lock = threading.Lock()

    def counter(self, name: str, help: str = "") -> Counter:
        return self._get(name, lambda: Counter(name, help), Counter)

    def gauge(self, name: str, help: str = "") -> Gauge:
        return self._get(name, lambda: Gauge(name, help), Gauge)

    def histogram(
        self, name: str, help: str = "", buckets: tuple[float, ...] = _DEFAULT_BUCKETS
    ) -> Histogram:
        return self._get(name, lambda: Histogram(name, help, buckets), Histogram)

    def _get(self, name: str, build, expected):
        with self._lock:
            instrument = self._instruments.get(name)
            if instrument is None:
                instrument = self._instruments[name] = build()
            elif not isinstance(instrument, expected):
                raise TypeError(
                    f"metric {name!r} already registered as {type(instrument).__name__}"
                )
            return instrument

    def render(self) -> str:
        """The whole registry in Prometheus text exposition format."""
        lines: list[str] = []
        with self._lock:
            instruments = sorted(self._instruments.values(), key=lambda i: i.name)
        for instrument in instruments:
            lines.extend(instrument.render())
        return "\n".join(lines) + ("\n" if lines else "")


class MetricsSink:
    """Fill a :class:`MetricsRegistry` from the structured event stream.

    ``pump()`` drains the sink's bus subscription and folds every event into
    the registry; call it from a timer, a console refresh, or a loop around
    ``subscription.get``.  ``attach``/``detach`` manage the subscription;
    events lost to backpressure surface as ``repro_events_dropped_total``.
    """

    TOPICS = (
        "service", "llm", "sim", "trace", "fleet", "cache", "sweep", "fuzz",
        "campaign", "retry",
    )

    def __init__(self, registry: MetricsRegistry | None = None):
        self.registry = registry or MetricsRegistry()
        self._subscription: Subscription | None = None
        self._bus: EventBus | None = None

    def attach(self, bus: EventBus, maxsize: int = 8192) -> "MetricsSink":
        self._bus = bus
        self._subscription = bus.subscribe(self.TOPICS, maxsize=maxsize, name="metrics")
        return self

    def detach(self) -> None:
        if self._bus is not None and self._subscription is not None:
            self._bus.unsubscribe(self._subscription)
        self._bus = None
        self._subscription = None

    def pump(self) -> int:
        """Fold everything queued into the registry; returns events consumed."""
        if self._subscription is None:
            return 0
        events = self._subscription.pop_all()
        for event in events:
            self.apply(event)
        dropped = self._subscription.dropped
        if dropped:
            self.registry.counter(
                "repro_events_dropped_total", "events lost to sink backpressure"
            ).inc(0)  # ensure the series exists even before the first loss
            gauge = self.registry.gauge(
                "repro_events_dropped", "current drop count of the metrics sink"
            )
            gauge.set(dropped)
        return len(events)

    # ------------------------------------------------------------------ rules

    def apply(self, event: Event) -> None:
        registry = self.registry
        topic, name, attrs = event.topic, event.name, event.attrs
        if topic == "service.job":
            if name == "cache-hit":
                registry.counter(
                    "repro_service_cache_hits_total", "jobs served from a cache tier"
                ).inc(tier=attrs.get("tier", "unknown"))
            else:
                registry.counter(
                    "repro_service_jobs_total", "job state transitions"
                ).inc(state=name)
        elif topic == "service.snapshot":
            registry.gauge("repro_service_queue_depth", "queued jobs").set(
                attrs.get("queue_depth", 0)
            )
            registry.gauge("repro_service_in_flight", "executing sessions").set(
                attrs.get("in_flight", 0)
            )
        elif topic == "trace" and name == "span.end":
            duration = attrs.get("duration")
            if duration is not None:
                registry.histogram(
                    "repro_span_seconds", "span durations by operation"
                ).observe(duration, op=attrs.get("op", ""))
        elif topic == "llm.batch":
            registry.histogram(
                "repro_llm_batch_size",
                "LLM micro-batch sizes",
                buckets=(1, 2, 4, 8, 16, 32, 64, 128),
            ).observe(attrs.get("size", 0))
        elif topic == "llm.retry":
            registry.counter("repro_llm_retries_total", "dispatch retries").inc(
                reason=attrs.get("reason", "error")
            )
        elif topic == "llm.breaker":
            registry.counter(
                "repro_breaker_transitions_total", "circuit-breaker transitions"
            ).inc(transition=name)
        elif topic == "retry":
            registry.counter(
                "repro_retries_total", "retry attempts by source layer"
            ).inc(source=attrs.get("source", "unknown"))
        elif topic == "campaign":
            if name == "budget":
                registry.gauge("repro_campaign_llm_spent", "campaign LLM spend").set(
                    attrs.get("spent", 0)
                )
            elif name == "progress":
                registry.gauge(
                    "repro_campaign_stage_done", "campaign stage progress"
                ).set(attrs.get("done", 0), stage=attrs.get("stage", ""))
            else:
                registry.counter(
                    "repro_campaign_events_total", "campaign lifecycle events"
                ).inc(event=name)
        elif topic == "sim.batch":
            registry.histogram(
                "repro_sim_batch_size",
                "simulate micro-batch sizes",
                buckets=(1, 2, 4, 8, 16, 32, 64, 128),
            ).observe(attrs.get("size", 0))
        elif topic == "fleet":
            registry.counter(
                "repro_fleet_events_total", "fleet supervision events"
            ).inc(event=name)
        elif topic == "cache.stats":
            for cache, counters in (attrs.get("caches") or {}).items():
                registry.gauge("repro_cache_hits", "toolchain cache hits").set(
                    counters.get("hits", 0), cache=cache
                )
                registry.gauge("repro_cache_misses", "toolchain cache misses").set(
                    counters.get("misses", 0), cache=cache
                )
        elif topic == "sweep.progress":
            registry.counter("repro_sweep_units_total", "sweep units resolved").inc()
        elif topic == "fuzz.program":
            registry.counter(
                "repro_fuzz_programs_total", "fuzzed programs by outcome"
            ).inc(ok=str(bool(attrs.get("ok", True))).lower())
