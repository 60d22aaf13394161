"""The service snapshot type and the latency percentile it reports.

:class:`ServiceSnapshot` is one consistent view of a
:class:`~repro.service.service.GenerationService`.  The service builds it
from the counts in its own and its dispatcher's metrics registries, plus its
latency reservoir, queue and the toolchain cache counters.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field


def percentile(samples: list[float], q: float) -> float:
    """The ``q``-quantile (0..1) of ``samples``, linearly interpolated.

    Matches NumPy's default (``method='linear'``): the quantile position is
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
                f"{self.dispatcher.get('requests', 0)} requests "
                f"(retries {self.dispatcher.get('retries', 0)}, "
                f"timeouts {self.dispatcher.get('timeouts', 0)})"
            )
        if self.caches:
            parts = [
                f"{name} {counters['hits']}/{counters['hits'] + counters['misses']}"
                for name, counters in sorted(self.caches.items())
            ]
            lines.append("toolchain caches (hits/lookups)  " + ", ".join(parts))
        return "\n".join(lines)
