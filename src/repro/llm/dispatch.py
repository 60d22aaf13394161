"""Async LLM access: the dispatcher that multiplexes many sessions onto one loop.

The blocking :class:`~repro.llm.client.ChatClient` protocol serves one
session at a time; the async generation service (:mod:`repro.service`) runs
hundreds.  This module provides the shared machinery between them:

* :class:`AsyncChatClient` — the awaitable twin of ``ChatClient``;
* :class:`SyncClientAdapter` — lift any blocking client into the async
  protocol (inline for cheap synthetic backends, via an executor for real
  network clients);
* :class:`LatencyClient` — a latency-simulating wrapper used by the service
  benchmarks and demos to model provider round-trips without burning CPU;
* :class:`TokenBucket` — an asyncio token-bucket rate limiter;
* :class:`BatchingDispatcher` — the service's LLM layer.  Each request runs
  on its caller's task: it charges a duck-typed budget (anything with
  ``charge(n)``) one unit, so campaign LLM-call budgets propagate into the
  service path with no import cycle; takes one rate-limiter token; then
  attempts the completion under a per-attempt timeout, retrying failures
  with jittered backoff.  Optionally a :class:`~repro.retry.CircuitBreaker`
  guards every attempt (consecutive transport failures open it; rejected
  attempts back off like transport errors without adding failure evidence).
  Requests and outcomes are counted in the dispatcher's own
  :class:`~repro.obs.MetricsRegistry` (``metrics``); :meth:`snapshot` reads
  them back as one dict.  The name is historical: nothing is grouped, because
  a session's LLM calls are sequential and no client here has a native
  multi-request endpoint.

Determinism note: each generation session owns its deterministically seeded
client, and the dispatcher always answers a request through *that* request's
client.  Scheduling therefore changes wall-clock only — never the text a
session receives — which is what makes service results bit-identical to
blocking runs.
"""

from __future__ import annotations

import asyncio
import inspect
import random
from typing import Protocol

from repro.llm.client import ChatClient, ChatMessage
from repro.obs.metrics import MetricsRegistry
from repro.retry import BreakerOpenError, RetryPolicy, emit_retry, is_transport_fault

__all__ = [
    "AsyncChatClient",
    "BatchingDispatcher",
    "LatencyClient",
    "SyncClientAdapter",
    "TokenBucket",
]


class AsyncChatClient(Protocol):
    """Anything that can asynchronously turn a message list into a completion."""

    async def complete(self, messages: list[ChatMessage]) -> str:  # pragma: no cover - protocol
        ...


class SyncClientAdapter:
    """Lift a blocking :class:`ChatClient` into the async protocol.

    Without an ``executor`` the wrapped client runs inline on the event loop —
    correct for the fast synthetic backends this repo ships.  Pass an executor
    for clients that genuinely block (network APIs) so the loop stays free.
    """

    def __init__(self, client: ChatClient, executor=None):
        self.client = client
        self._executor = executor

    async def complete(self, messages: list[ChatMessage]) -> str:
        if self._executor is None:
            return self.client.complete(messages)
        loop = asyncio.get_running_loop()
        return await loop.run_in_executor(self._executor, self.client.complete, messages)


class LatencyClient:
    """An async client simulating a provider round-trip before answering.

    Wraps a blocking client and awaits ``latency`` seconds first, so N
    concurrent requests overlap their waits — the service benchmark uses this
    to model real API latency without consuming CPU.
    """

    def __init__(self, inner: ChatClient, latency: float):
        self.inner = inner
        self.latency = latency

    async def complete(self, messages: list[ChatMessage]) -> str:
        if self.latency > 0:
            await asyncio.sleep(self.latency)
        return self.inner.complete(messages)


class TokenBucket:
    """Asyncio token-bucket rate limiter (``rate`` tokens/second).

    ``acquire(n)`` waits until ``n`` tokens are available; waiters are served
    FIFO (an :class:`asyncio.Lock` queues them), so a large acquisition
    cannot be starved by a stream of small ones.
    """

    def __init__(self, rate: float, capacity: float | None = None):
        if rate <= 0:
            raise ValueError("rate must be > 0")
        self.rate = float(rate)
        self.capacity = float(capacity) if capacity is not None else max(1.0, self.rate)
        self._tokens = self.capacity
        self._last: float | None = None
        self._lock = asyncio.Lock()

    def _refill(self, now: float) -> None:
        if self._last is not None:
            self._tokens = min(self.capacity, self._tokens + (now - self._last) * self.rate)
        self._last = now

    async def acquire(self, tokens: float = 1.0) -> None:
        async with self._lock:
            loop = asyncio.get_running_loop()
            self._refill(loop.time())
            # Debt model: subtract first, then sleep the debt off.  Refilling
            # from a negative balance is never clipped by ``capacity``, so an
            # acquisition larger than the bucket (many tokens under a small
            # rate) still pays exactly ``tokens / rate`` seconds instead of
            # losing the tokens earned while sleeping.
            self._tokens -= tokens
            if self._tokens < 0:
                try:
                    await asyncio.sleep(-self._tokens / self.rate)
                except asyncio.CancelledError:
                    # A cancelled waiter spends nothing: refund its tokens so
                    # the next waiter does not pay off a debt nobody used.
                    self._refill(loop.time())
                    self._tokens = min(self.capacity, self._tokens + tokens)
                    raise
                self._refill(loop.time())


#: The counts of :meth:`BatchingDispatcher.snapshot`, one ``kind`` label each
#: of ``repro_llm_dispatch_total``.
DISPATCH_COUNTS = (
    "requests",
    "retries",
    "failures",
    "timeouts",
    "cancelled",
    "breaker_rejections",
    "budget_rejections",
)


class BatchingDispatcher:
    """Answer completion requests under a budget, a rate limit and a retry policy.

    :meth:`complete` runs on the caller's task, one straight path: charge the
    budget, count the request, take one ``rate_limiter`` token, then attempt
    the completion through the request's own client (or ``default_client``),
    retrying failures under ``retry`` with jittered exponential backoff.

    ``request_timeout`` bounds every completion *attempt*: an attempt slower
    than that many seconds is abandoned, counted as a timeout and retried
    under the same policy as a transport error, so a wedged provider call
    cannot hold its session forever.  A caller that cancels ``complete``
    cancels its own wait or attempt and counts as ``cancelled``.
    """

    def __init__(
        self,
        default_client: AsyncChatClient | ChatClient | None = None,
        *,
        rate_limiter: TokenBucket | None = None,
        retry: RetryPolicy | None = None,
        retry_seed: int | None = None,
        request_timeout: float | None = None,
        bus=None,
        breaker=None,
        budget=None,
    ):
        if request_timeout is not None and request_timeout <= 0:
            raise ValueError("request_timeout must be > 0 or None")
        # Optional structured event bus (repro.obs): retries and exhausted
        # requests publish to it when subscribers are attached.
        self.bus = bus
        # Optional resilience hooks: ``breaker`` is a
        # :class:`repro.retry.CircuitBreaker` consulted before every attempt;
        # ``budget`` is any object with ``charge(n)`` (raising to refuse) —
        # campaigns pass their LLM-call budget without this module importing
        # repro.campaign.
        self.breaker = breaker
        self.budget = budget
        self.default_client = default_client
        self.rate_limiter = rate_limiter
        self.retry = retry or RetryPolicy()
        self.request_timeout = request_timeout
        self.metrics = MetricsRegistry()
        self._counts = self.metrics.counter(
            "repro_llm_dispatch_total", "dispatcher requests and their outcomes"
        )
        self._rng = random.Random(retry_seed)

    async def complete(
        self,
        messages: list[ChatMessage],
        client: AsyncChatClient | ChatClient | None = None,
    ) -> str:
        """Complete ``messages`` through ``client`` (default: ``default_client``)."""
        resolved = client if client is not None else self.default_client
        if resolved is None:
            raise ValueError("no client for request and no default_client configured")
        if self.budget is not None:
            try:
                self.budget.charge(1)
            except Exception:
                self._counts.inc(kind="budget_rejections")
                raise
        self._counts.inc(kind="requests")
        try:
            if self.rate_limiter is not None:
                await self.rate_limiter.acquire(1)
            return await self._attempt(resolved, messages)
        except asyncio.CancelledError:
            # The caller gave up (session cancelled, service closing).
            self._counts.inc(kind="cancelled")
            raise

    def snapshot(self) -> dict:
        """The dispatcher's counts, read from :attr:`metrics`."""
        return {name: self._counts.value(kind=name) for name in DISPATCH_COUNTS}

    async def _call(self, client, messages: list[ChatMessage]) -> str:
        """One completion attempt under the per-attempt timeout."""
        value = client.complete(messages)
        if not inspect.isawaitable(value):
            # Synchronous clients complete inline; there is nothing to bound.
            return value
        if self.request_timeout is None:
            return await value
        return await asyncio.wait_for(value, self.request_timeout)

    async def _attempt(self, client, messages: list[ChatMessage]) -> str:
        """Attempt the completion until it succeeds or the retry policy is spent."""
        attempt = 0
        while True:
            try:
                if self.breaker is not None and not self.breaker.allow():
                    self._counts.inc(kind="breaker_rejections")
                    raise BreakerOpenError(
                        f"circuit breaker {self.breaker.name!r} is open"
                    )
                result = await self._call(client, messages)
                if self.breaker is not None:
                    self.breaker.record_success()
                return result
            except Exception as exc:
                timed_out = isinstance(exc, (asyncio.TimeoutError, TimeoutError))
                if timed_out:
                    self._counts.inc(kind="timeouts")
                    exc = TimeoutError(
                        f"completion attempt exceeded {self.request_timeout}s"
                    )
                # Breaker rejections are back-pressure, not fresh transport
                # evidence: back off and retry, but record nothing.
                if self.breaker is not None and not isinstance(exc, BreakerOpenError):
                    if timed_out or is_transport_fault(exc):
                        self.breaker.record_failure()
                attempt += 1
                reason = "timeout" if timed_out else type(exc).__name__
                if attempt > self.retry.attempts:
                    self._counts.inc(kind="failures")
                    if self.bus is not None and self.bus.active:
                        self.bus.publish("llm.retry", "exhausted", reason=reason)
                    raise exc
                self._counts.inc(kind="retries")
                delay = self.retry.delay(attempt, self._rng)
                emit_retry(self.bus, "llm", attempt, reason, delay)
                await asyncio.sleep(delay)
