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
* :class:`RetryPolicy` — re-exported from :mod:`repro.retry` (the shared
  retry/backoff vocabulary), kept importable from here for compatibility;
* :class:`BatchingDispatcher` — the heart of the service's LLM layer: it
  coalesces concurrent completion requests into micro-batches (a short
  collection window, closed early when the batch fills), applies the rate
  limiter per batch, caps in-flight batches and per-profile concurrency, and
  retries transient failures with jittered backoff.  Optionally it threads a
  :class:`~repro.retry.CircuitBreaker` around every attempt (consecutive
  transport failures open it; rejected attempts back off like transport
  errors without adding failure evidence) and charges a duck-typed budget
  (anything with ``charge(n)``) one unit per accepted request, so campaign
  LLM-call budgets propagate into the service path with no import cycle.
  Requests, outcomes and batch sizes are counted in the dispatcher's own
  :class:`~repro.obs.MetricsRegistry` (``metrics``); :meth:`snapshot` reads
  them back as one dict.

Determinism note: each generation session owns its deterministically seeded
client, and the dispatcher always answers a request through *that* request's
client.  Batching therefore changes scheduling and wall-clock only — never
the text a session receives — which is what makes service results
bit-identical to blocking runs.
"""

from __future__ import annotations

import asyncio
import inspect
import random
from typing import Protocol

from repro.llm.client import ChatClient, ChatMessage
from repro.obs.metrics import BATCH_BUCKETS, MetricsRegistry
from repro.retry import BreakerOpenError, RetryPolicy, emit_retry, is_transport_fault

__all__ = [
    "AsyncChatClient",
    "BatchChatClient",
    "BatchingDispatcher",
    "LatencyClient",
    "RetryPolicy",
    "SyncClientAdapter",
    "TokenBucket",
]


class AsyncChatClient(Protocol):
    """Anything that can asynchronously turn a message list into a completion."""

    async def complete(self, messages: list[ChatMessage]) -> str:  # pragma: no cover - protocol
        ...


class BatchChatClient(Protocol):
    """A client with a native batch endpoint (one call, many completions)."""

    def complete_batch(self, batches: list[list[ChatMessage]]) -> list[str]:  # pragma: no cover
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
    FIFO (an :class:`asyncio.Lock` queues them), so a large batch cannot be
    starved by a stream of small ones.
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
            # acquisition larger than the bucket (a big batch under a small
            # rate) still pays exactly ``tokens / rate`` seconds instead of
            # losing the tokens earned while sleeping.
            self._tokens -= tokens
            if self._tokens < 0:
                await asyncio.sleep(-self._tokens / self.rate)
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


class _Request:
    __slots__ = ("messages", "client", "future")

    def __init__(self, messages: list[ChatMessage], client, future: asyncio.Future):
        self.messages = messages
        self.client = client
        self.future = future


class BatchingDispatcher:
    """Coalesce concurrent completion requests into rate-limited micro-batches.

    Requests arriving within ``batch_window`` seconds of each other (or until
    ``max_batch`` of them are pending) are flushed as one batch: the batch
    acquires rate-limiter tokens once, occupies one in-flight batch slot, and
    its members complete concurrently.  A ``batch_window`` of 0 still batches
    whatever accumulated during the current event-loop tick — with many
    sessions awaiting completions, that alone yields healthy batch sizes.

    Requests carry their own client (per-session seeded backends) or fall
    back to ``default_client``.  If the default client exposes
    ``complete_batch``, same-batch requests bound to it are sent through one
    native batch call.  ``per_profile_limit`` caps how many requests of one
    model profile are in flight at once; ``retry`` resubmits failed requests
    with jittered exponential backoff.

    ``request_timeout`` bounds every completion *attempt*: an attempt slower
    than that many seconds is abandoned, counted as a timeout and
    retried under the same policy as a transport error (so a wedged provider
    call cannot hold its batch slot forever).  Cancellation propagates both
    ways — a caller abandoning ``complete`` marks its request cancelled so
    workers skip it, and cancelled requests never have results forced on
    them.

    A dispatcher instance is bound to the event loop it first runs on.
    """

    def __init__(
        self,
        default_client: AsyncChatClient | ChatClient | None = None,
        *,
        batch_window: float = 0.0,
        max_batch: int = 8,
        rate_limiter: TokenBucket | None = None,
        max_concurrent_batches: int | None = None,
        per_profile_limit: int | None = None,
        retry: RetryPolicy | None = None,
        retry_seed: int | None = None,
        request_timeout: float | None = None,
        bus=None,
        breaker=None,
        budget=None,
    ):
        if max_batch < 1:
            raise ValueError("max_batch must be >= 1")
        if request_timeout is not None and request_timeout <= 0:
            raise ValueError("request_timeout must be > 0 or None")
        # Optional structured event bus (repro.obs): batch flushes, retries
        # and timeouts publish to it when subscribers are attached.
        self.bus = bus
        # Optional resilience hooks: ``breaker`` is a
        # :class:`repro.retry.CircuitBreaker` consulted before every attempt;
        # ``budget`` is any object with ``charge(n)`` (raising to refuse) —
        # campaigns pass their LLM-call budget without this module importing
        # repro.campaign.
        self.breaker = breaker
        self.budget = budget
        self.default_client = default_client
        self.batch_window = batch_window
        self.max_batch = max_batch
        self.rate_limiter = rate_limiter
        self.per_profile_limit = per_profile_limit
        self.retry = retry or RetryPolicy()
        self.request_timeout = request_timeout
        self.metrics = MetricsRegistry()
        self._counts = self.metrics.counter(
            "repro_llm_dispatch_total", "dispatcher requests and their outcomes"
        )
        self._batch_sizes = self.metrics.histogram(
            "repro_llm_batch_size", "LLM micro-batch sizes", buckets=BATCH_BUCKETS
        )
        self._rng = random.Random(retry_seed)
        self._pending: list[_Request] = []
        self._timer: asyncio.Task | None = None
        self._batch_tasks: set[asyncio.Task] = set()
        self._batch_slots = (
            asyncio.Semaphore(max_concurrent_batches) if max_concurrent_batches else None
        )
        self._profile_slots: dict[str, asyncio.Semaphore] = {}

    # ---------------------------------------------------------------- public

    async def complete(
        self,
        messages: list[ChatMessage],
        client: AsyncChatClient | ChatClient | None = None,
        profile: str | None = None,
    ) -> str:
        """Complete ``messages`` through the batching pipeline."""
        resolved = client if client is not None else self.default_client
        if resolved is None:
            raise ValueError("no client for request and no default_client configured")
        if profile is not None and self.per_profile_limit:
            slot = self._profile_slots.get(profile)
            if slot is None:
                slot = self._profile_slots[profile] = asyncio.Semaphore(self.per_profile_limit)
            async with slot:
                return await self._enqueue(messages, resolved)
        return await self._enqueue(messages, resolved)

    def snapshot(self) -> dict:
        """The dispatcher's counts, read from :attr:`metrics`."""
        counts = {name: self._counts.value(kind=name) for name in DISPATCH_COUNTS}
        batches = self._batch_sizes.count()
        counts["batches"] = batches
        counts["mean_batch_size"] = (
            round(self._batch_sizes.sum() / batches, 3) if batches else 0.0
        )
        counts["max_batch_size"] = self._batch_sizes.max()
        return counts

    async def drain(self) -> None:
        """Wait until every pending and in-flight batch has finished."""
        while self._pending or self._batch_tasks or self._timer is not None:
            if self._timer is not None or self._pending:
                self._flush_all()
            tasks = list(self._batch_tasks)
            if tasks:
                await asyncio.gather(*tasks, return_exceptions=True)
            else:
                await asyncio.sleep(0)

    # --------------------------------------------------------------- batching

    async def _enqueue(self, messages: list[ChatMessage], client) -> str:
        if self.budget is not None:
            try:
                self.budget.charge(1)
            except Exception:
                self._counts.inc(kind="budget_rejections")
                raise
        loop = asyncio.get_running_loop()
        future: asyncio.Future = loop.create_future()
        self._counts.inc(kind="requests")
        self._pending.append(_Request(messages, client, future))
        if len(self._pending) >= self.max_batch:
            self._flush_all()
        elif self._timer is None:
            self._timer = loop.create_task(self._flush_after_window())
        try:
            return await future
        except asyncio.CancelledError:
            # The caller gave up (session cancelled, service closing): leave
            # the request future cancelled so batch workers skip it instead
            # of completing work nobody is waiting for.
            if not future.done():
                future.cancel()
            if future.cancelled():
                self._counts.inc(kind="cancelled")
            raise

    async def _flush_after_window(self) -> None:
        try:
            if self.batch_window > 0:
                await asyncio.sleep(self.batch_window)
            else:
                # Yield once so every session runnable this tick can enqueue.
                await asyncio.sleep(0)
        except asyncio.CancelledError:
            return
        self._timer = None
        self._flush_all()

    def _flush_all(self) -> None:
        if self._timer is not None:
            self._timer.cancel()
            self._timer = None
        loop = asyncio.get_running_loop()
        while self._pending:
            chunk = self._pending[: self.max_batch]
            del self._pending[: self.max_batch]
            task = loop.create_task(self._run_batch(chunk))
            self._batch_tasks.add(task)
            task.add_done_callback(self._batch_tasks.discard)

    async def _run_batch(self, batch: list[_Request]) -> None:
        try:
            if self._batch_slots is not None:
                async with self._batch_slots:
                    await self._execute_batch(batch)
            else:
                await self._execute_batch(batch)
        except asyncio.CancelledError:
            for request in batch:
                if not request.future.done():
                    request.future.cancel()
            raise
        except BaseException as exc:  # defensive: a failed batch must not hang waiters
            for request in batch:
                if not request.future.done():
                    request.future.set_exception(exc)
            if not isinstance(exc, Exception):
                # KeyboardInterrupt & co. must still take the task down.
                raise

    async def _execute_batch(self, batch: list[_Request]) -> None:
        if self.rate_limiter is not None:
            await self.rate_limiter.acquire(len(batch))
        self._batch_sizes.observe(len(batch))
        if self.bus is not None and self.bus.active:
            self.bus.publish("llm.batch", "flush", size=len(batch))
        grouped = [request for request in batch if self._is_batchable(request)]
        singles = [request for request in batch if not self._is_batchable(request)]
        coros = []
        if grouped:
            coros.append(self._complete_grouped(grouped))
        coros.extend(self._complete_single(request) for request in singles)
        if coros:
            await asyncio.gather(*coros)

    def _is_batchable(self, request: _Request) -> bool:
        return request.client is self.default_client and hasattr(
            request.client, "complete_batch"
        )

    # ------------------------------------------------------------- completion

    async def _await_value(self, value):
        """Await an awaitable completion under the per-attempt timeout."""
        if not inspect.isawaitable(value):
            # Synchronous clients complete inline; there is nothing to bound.
            return value
        if self.request_timeout is None:
            return await value
        return await asyncio.wait_for(asyncio.ensure_future(value), self.request_timeout)

    async def _call(self, client, messages: list[ChatMessage]) -> str:
        return await self._await_value(client.complete(messages))

    async def _complete_single(self, request: _Request) -> None:
        attempt = 0
        while True:
            if request.future.done():
                return  # The caller abandoned this request; spend nothing on it.
            try:
                if self.breaker is not None and not self.breaker.allow():
                    self._counts.inc(kind="breaker_rejections")
                    raise BreakerOpenError(
                        f"circuit breaker {self.breaker.name!r} is open"
                    )
                result = await self._call(request.client, request.messages)
                if self.breaker is not None:
                    self.breaker.record_success()
                if not request.future.done():
                    request.future.set_result(result)
                return
            except asyncio.CancelledError:
                raise
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
                    if not request.future.done():
                        request.future.set_exception(exc)
                    return
                self._counts.inc(kind="retries")
                delay = self.retry.delay(attempt, self._rng)
                emit_retry(self.bus, "llm", attempt, reason, delay)
                await asyncio.sleep(delay)

    async def _complete_grouped(self, group: list[_Request]) -> None:
        group = [request for request in group if not request.future.done()]
        if not group:
            return
        try:
            value = self.default_client.complete_batch(
                [request.messages for request in group]
            )
            value = await self._await_value(value)
            results = list(value)
            if len(results) != len(group):
                raise RuntimeError(
                    f"complete_batch returned {len(results)} results for {len(group)} requests"
                )
        except Exception as exc:
            if isinstance(exc, (asyncio.TimeoutError, TimeoutError)):
                self._counts.inc(kind="timeouts")
            # One poisoned request must not sink its batch-mates: degrade to
            # per-request completion, where the retry policy (and per-attempt
            # timeout) isolates failures to the requests that caused them.
            await asyncio.gather(*(self._complete_single(request) for request in group))
            return
        for request, result in zip(group, results):
            if not request.future.done():
                request.future.set_result(result)
