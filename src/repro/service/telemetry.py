"""Service telemetry: counters, latency percentiles, one-call snapshots.

All counters are mutated from the event loop only, so no locking is needed;
the latency reservoir is a bounded deque holding the most recent session
latencies (enough for stable p50/p95 without unbounded growth).
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field

from repro.caching import cache_stats
from repro.core.session import StepCounts


def percentile(samples: list[float], q: float) -> float:
    """The ``q``-quantile (0..1) of ``samples``, linearly interpolated.

    Matches numpy's default (``method='linear'``): the quantile position is
    ``q * (n - 1)`` and values between ranks are interpolated, so small
    reservoirs give smooth, deterministic estimates instead of the coarse
    stair-steps of nearest-rank (with 4 samples, nearest-rank p50 and p75
    were identical).
    """
    if not samples:
        return 0.0
    ordered = sorted(samples)
    position = min(max(q, 0.0), 1.0) * (len(ordered) - 1)
    lower = math.floor(position)
    upper = math.ceil(position)
    if lower == upper:
        return ordered[lower]
    fraction = position - lower
    return ordered[lower] * (1.0 - fraction) + ordered[upper] * fraction


@dataclass
class ServiceSnapshot:
    """One consistent view of the service's state and history."""

    queue_depth: int
    in_flight: int
    submitted: int
    completed: int
    failed: int
    memo_hits: int
    store_hits: int
    coalesced_hits: int
    llm_calls: int
    tool_calls: int
    p50_latency: float
    p95_latency: float
    p99_latency: float = 0.0
    max_latency: float = 0.0
    dispatcher: dict = field(default_factory=dict)
    # Toolchain cache counters (repro.caching.cache_stats()): compile
    # results, Verilog parse, kernel and trace caches.
    caches: dict = field(default_factory=dict)
    # Simulate-call micro-batching (0 everywhere when sim_max_batch <= 1).
    sim_batches: int = 0
    sim_batched_requests: int = 0
    max_sim_batch: int = 0

    @property
    def cache_hits(self) -> int:
        return self.memo_hits + self.store_hits + self.coalesced_hits

    def render(self) -> str:
        lines = [
            f"queue depth      {self.queue_depth}",
            f"in flight        {self.in_flight}",
            f"submitted        {self.submitted}",
            f"completed        {self.completed}  (failed {self.failed})",
            (
                f"cache hits       {self.cache_hits}  "
                f"(memo {self.memo_hits}, store {self.store_hits}, coalesced {self.coalesced_hits})"
            ),
            f"llm calls        {self.llm_calls}",
            f"tool calls       {self.tool_calls}",
            (
                f"session latency  p50 {self.p50_latency * 1000:.1f} ms / "
                f"p95 {self.p95_latency * 1000:.1f} ms / "
                f"p99 {self.p99_latency * 1000:.1f} ms / "
                f"max {self.max_latency * 1000:.1f} ms"
            ),
        ]
        if self.sim_batches:
            mean = self.sim_batched_requests / self.sim_batches
            lines.append(
                "sim batches      "
                f"{self.sim_batched_requests} simulations in {self.sim_batches} batches "
                f"(mean {mean:.1f}, max {self.max_sim_batch})"
            )
        if self.dispatcher:
            lines.append(
                "dispatch         "
                f"{self.dispatcher.get('requests', 0)} requests in "
                f"{self.dispatcher.get('batches', 0)} batches "
                f"(mean {self.dispatcher.get('mean_batch_size', 0.0)}, "
                f"max {self.dispatcher.get('max_batch_size', 0)}; "
                f"retries {self.dispatcher.get('retries', 0)}, "
                f"timeouts {self.dispatcher.get('timeouts', 0)})"
            )
        if self.caches:
            parts = [
                f"{name} {counters['hits']}/{counters['hits'] + counters['misses']}"
                for name, counters in sorted(self.caches.items())
            ]
            lines.append("toolchain caches (hits/lookups)  " + ", ".join(parts))
        return "\n".join(lines)


class Telemetry:
    """Cumulative service accounting; see :class:`ServiceSnapshot`."""

    def __init__(self, latency_window: int = 4096):
        self.submitted = 0
        self.completed = 0
        self.failed = 0
        self.memo_hits = 0
        self.store_hits = 0
        self.coalesced_hits = 0
        self.in_flight = 0
        self.sim_batches = 0
        self.sim_batched_requests = 0
        self.max_sim_batch = 0
        self.steps = StepCounts()
        self._latencies: deque[float] = deque(maxlen=latency_window)

    def record_sim_batch(self, size: int) -> None:
        self.sim_batches += 1
        self.sim_batched_requests += size
        self.max_sim_batch = max(self.max_sim_batch, size)

    def record_latency(self, seconds: float) -> None:
        self._latencies.append(seconds)

    def snapshot(
        self,
        queue_depth: int = 0,
        dispatcher_stats: dict | None = None,
    ) -> ServiceSnapshot:
        samples = list(self._latencies)
        return ServiceSnapshot(
            queue_depth=queue_depth,
            in_flight=self.in_flight,
            submitted=self.submitted,
            completed=self.completed,
            failed=self.failed,
            memo_hits=self.memo_hits,
            store_hits=self.store_hits,
            coalesced_hits=self.coalesced_hits,
            llm_calls=self.steps.llm_calls,
            tool_calls=self.steps.tool_calls,
            p50_latency=percentile(samples, 0.50),
            p95_latency=percentile(samples, 0.95),
            p99_latency=percentile(samples, 0.99),
            max_latency=max(samples) if samples else 0.0,
            dispatcher=dict(dispatcher_stats or {}),
            caches=cache_stats(),
            sim_batches=self.sim_batches,
            sim_batched_requests=self.sim_batched_requests,
            max_sim_batch=self.max_sim_batch,
        )
