"""The async generation service: hundreds of concurrent sessions, one loop.

:class:`GenerationService` accepts :class:`~repro.experiments.work.WorkUnit`
jobs (the same unit type the sweep engine executes) and runs each as a
step-wise session (see :mod:`repro.core.session`) on one asyncio event loop:

* **LLM steps** go through the :class:`~repro.llm.dispatch.BatchingDispatcher`
  on the session's own task, under a shared budget, token bucket, circuit
  breaker and jittered retry;
* **tool steps** (compile / simulate / parse) queue in FIFO order on the
  loop thread itself, one step per event-loop pass, so timers and LLM
  completions run between them; the toolchain is pure Python and holds the
  GIL, so a tool thread would add handoffs without adding parallelism.
  Simulate steps additionally micro-batch through a
  :class:`_SimulationBatcher` (``sim_batch_window`` / ``sim_max_batch``),
  one queued call per batch;
* **scheduling** is fair FIFO: a bounded job queue feeds ``max_in_flight``
  worker tasks, and ``submit`` awaits whenever the queue is full
  (backpressure);
* **caching** reuses the sweep engine's content fingerprints: results are
  memoized in-process, served from a persistent
  :class:`~repro.experiments.store.ResultStore` when one is configured, and
  duplicate in-flight specs coalesce onto a single execution — repeat specs
  cost zero LLM calls;
* **counting** is done once, where each fact happens, in the service's
  :class:`~repro.obs.MetricsRegistry` (``metrics``: job states, cache tiers,
  session steps, in-flight sessions, simulate batch sizes) and the
  dispatcher's (``dispatcher.metrics``: requests, retries, failures,
  timeouts, cancellations, rejections).  :meth:`GenerationService.snapshot`
  and the ``service.snapshot`` event are both built from them.

Every session owns its deterministically seeded client, so results are
bit-identical to blocking ``ReChisel.run`` / ``ZeroShotRunner.run`` /
``AutoChip.run`` at any concurrency level — ``tests/test_service.py``
asserts this for all three strategies.
"""

from __future__ import annotations

import asyncio
import time
from collections import deque
from concurrent.futures import Executor
from typing import Callable, Iterable, Sequence

from repro.caching import LruCache, cache_stats
from repro.core.session import LLMCall, Session
from repro.experiments.store import ResultStore
from repro.experiments.strategies import strategy_from_unit
from repro.experiments.work import WorkerContext, WorkUnit
from repro.llm.dispatch import BatchingDispatcher, TokenBucket
from repro.obs import EventBus, MetricsRegistry, get_bus, span
from repro.obs.metrics import BATCH_BUCKETS, Histogram
from repro.problems.registry import ProblemRegistry
from repro.service.config import ServiceConfig
from repro.service.telemetry import ServiceSnapshot, percentile
from repro.toolchain.simulator import SimulateRequest


def _consume_exception(future: asyncio.Future) -> None:
    """Mark a barrier future's exception retrieved even with no waiters."""
    if not future.cancelled():
        future.exception()


class _LoopToolQueue(Executor):
    """Run tool steps on the event loop's own thread, one per loop pass, FIFO.

    ``loop.run_in_executor(queue, fn)`` appends ``fn`` to a deque; a runner
    scheduled with ``call_soon`` pops and runs one callable per pass and
    reschedules itself while work remains, so ready callbacks (timers, LLM
    completions, other sessions' steps) interleave between tool steps.
    ``submit`` returns a loop future, which ``run_in_executor`` hands to the
    awaiting task unwrapped, so cancelling that task cancels the step's future
    at once; a cancelled step is skipped, at the head of the queue too.
    :meth:`shutdown` cancels whatever is still queued instead of running it.
    Submit only from the loop's thread.
    """

    def __init__(self, loop: asyncio.AbstractEventLoop):
        self._loop = loop
        self._queue: deque[tuple[asyncio.Future, Callable, tuple, dict]] = deque()
        self._scheduled = False
        self._closed = False

    def submit(self, fn, /, *args, **kwargs) -> asyncio.Future:
        if self._closed:
            raise RuntimeError("cannot queue a tool step after the service closed")
        future = self._loop.create_future()
        self._queue.append((future, fn, args, kwargs))
        if not self._scheduled:
            self._scheduled = True
            self._loop.call_soon(self._run_one)
        return future

    def _run_one(self) -> None:
        self._scheduled = False
        while self._queue:
            future, fn, args, kwargs = self._queue.popleft()
            if not future.cancelled():
                break
        else:
            return
        if self._queue:
            self._scheduled = True
            self._loop.call_soon(self._run_one)
        try:
            result = fn(*args, **kwargs)
        except BaseException as exc:
            # The submitter sees every failure; an interrupt or exit also
            # keeps propagating, out of the loop.
            future.set_exception(exc)
            if not isinstance(exc, Exception):
                raise
        else:
            future.set_result(result)

    def shutdown(self, wait: bool = True, *, cancel_futures: bool = False) -> None:
        self._closed = True
        while self._queue:
            self._queue.popleft()[0].cancel()


class _SimulationBatcher:
    """Micro-batch simulate tool calls from concurrent sessions.

    Requests collect for up to ``window`` seconds (or until ``max_batch`` are
    pending) and run as one :meth:`Simulator.simulate_many` call on the tool
    queue, which simulates them one after another; outcomes equal
    per-call ``simulate``.  If a batch fails wholesale, each request is
    retried individually so one poisoned DUT can't fail its batch-mates.
    Each batch's size is observed in ``sizes``, the service's
    ``repro_sim_batch_size`` histogram.
    """

    def __init__(
        self,
        loop,
        executor,
        sizes: Histogram,
        window: float,
        max_batch: int,
        bus: EventBus | None = None,
    ):
        self._loop = loop
        self._executor = executor
        self._sizes = sizes
        self._window = window
        self._max_batch = max_batch
        self._bus = bus
        self._pending: list[tuple[SimulateRequest, asyncio.Future]] = []
        self._timer: asyncio.TimerHandle | None = None

    async def simulate(self, request: SimulateRequest):
        future = self._loop.create_future()
        self._pending.append((request, future))
        if len(self._pending) >= self._max_batch:
            self._flush()
        elif self._timer is None:
            self._timer = self._loop.call_later(self._window, self._flush)
        return await future

    def _flush(self) -> None:
        if self._timer is not None:
            self._timer.cancel()
            self._timer = None
        batch, self._pending = self._pending, []
        if batch:
            self._loop.create_task(self._run(batch))

    async def _run(self, batch: list[tuple[SimulateRequest, asyncio.Future]]) -> None:
        self._sizes.observe(len(batch))
        if self._bus is not None and self._bus.active:
            self._bus.publish("sim.batch", "flush", size=len(batch))
        try:
            outcomes = await self._loop.run_in_executor(
                self._executor, _SimulationBatcher._execute, [r for r, _ in batch]
            )
            for (_request, future), outcome in zip(batch, outcomes):
                if not future.done():
                    future.set_result(outcome)
        except Exception:
            # Degrade to per-request execution; individual failures then land
            # on their own futures.
            for request, future in batch:
                if future.done():
                    continue
                try:
                    outcome = await self._loop.run_in_executor(self._executor, request.run)
                except Exception as exc:
                    future.set_exception(exc)
                else:
                    future.set_result(outcome)

    @staticmethod
    def _execute(requests: list[SimulateRequest]):
        """Group by simulator facade and run each group as one batch."""
        outcomes: list[object | None] = [None] * len(requests)
        by_sim: dict[int, list[int]] = {}
        for index, request in enumerate(requests):
            by_sim.setdefault(id(request.simulator), []).append(index)
        for indices in by_sim.values():
            simulator = requests[indices[0]].simulator
            results = simulator.simulate_many(
                [
                    (requests[i].dut_verilog, requests[i].reference, requests[i].testbench)
                    for i in indices
                ]
            )
            for position, outcome in zip(indices, results):
                outcomes[position] = outcome
        return outcomes

    def close(self) -> None:
        """Fail anything still pending (service shutdown)."""
        if self._timer is not None:
            self._timer.cancel()
            self._timer = None
        batch, self._pending = self._pending, []
        for _request, future in batch:
            if not future.done():
                future.set_exception(
                    RuntimeError("generation service closed while a simulation was pending")
                )


class GenerationService:
    """Concurrent ReChisel/zero-shot/AutoChip serving on one event loop.

    Use as an async context manager (or call :meth:`start` / :meth:`close`)::

        async with GenerationService(ServiceConfig(max_in_flight=64)) as service:
            payloads = await service.run(units)

    ``client_factory`` builds the per-job chat client; it defaults to the
    worker context's seeded synthetic client and is the hook for plugging in
    real API clients (wrap blocking ones in
    :class:`~repro.llm.dispatch.SyncClientAdapter` with an executor).

    Tool steps run on the loop's thread through a FIFO :class:`_LoopToolQueue`
    (``_tools``), one step per loop pass; :meth:`close` cancels steps still
    queued there.
    """

    def __init__(
        self,
        config: ServiceConfig | None = None,
        *,
        context: WorkerContext | None = None,
        registry: ProblemRegistry | None = None,
        store: ResultStore | None = None,
        dispatcher: BatchingDispatcher | None = None,
        client_factory: Callable[[WorkUnit], object] | None = None,
        bus: EventBus | None = None,
    ):
        self.config = config or ServiceConfig()
        # The structured event bus this service publishes to (job lifecycle,
        # session/LLM/tool/simulate spans, snapshots).  Publishing is a no-op
        # until something subscribes, so it is always safe to leave attached.
        self.bus = bus if bus is not None else get_bus()
        self._last_stats_publish = 0.0
        self.context = context or WorkerContext(registry=registry)
        if store is None and self.config.store_path:
            store = ResultStore(self.config.store_path)
            self._owns_store = True
        else:
            self._owns_store = False
        self.store = store
        # The service's one counter store; snapshot() reads it back.
        self.metrics = MetricsRegistry()
        self._jobs = self.metrics.counter("repro_service_jobs_total", "job state transitions")
        self._cache_hits = self.metrics.counter(
            "repro_service_cache_hits_total", "jobs served from a cache tier"
        )
        self._steps = self.metrics.counter("repro_session_steps_total", "session steps by kind")
        self._in_flight = self.metrics.gauge("repro_service_in_flight", "executing sessions")
        self._sim_batch_sizes = self.metrics.histogram(
            "repro_sim_batch_size", "simulate micro-batch sizes", buckets=BATCH_BUCKETS
        )
        # The most recent session latencies: enough for stable percentiles
        # without unbounded growth.
        self._latencies: deque[float] = deque(maxlen=4096)
        self._dispatcher_override = dispatcher
        self._client_factory = client_factory or self.context.client_for
        self.dispatcher: BatchingDispatcher | None = None
        self._queue: asyncio.Queue | None = None
        self._workers: list[asyncio.Task] = []
        self._tools: _LoopToolQueue | None = None
        # Bounded: a long-lived service streaming mostly-unique specs must not
        # accumulate payloads forever; the persistent store is the durable tier.
        self._memo: LruCache[dict] = LruCache(self.config.memo_size)
        self._inflight: dict[str, asyncio.Future] = {}
        # Futures of jobs a worker has dequeued but not yet resolved; swept at
        # close so a dying worker can never strand its submitter.
        self._active: dict[int, asyncio.Future] = {}
        self._sim_batcher: _SimulationBatcher | None = None
        self._draining = False

    # -------------------------------------------------------------- lifecycle

    @property
    def started(self) -> bool:
        return bool(self._workers)

    async def start(self) -> "GenerationService":
        if self.started:
            return self
        loop = asyncio.get_running_loop()
        config = self.config
        self.dispatcher = self._dispatcher_override or BatchingDispatcher(
            rate_limiter=TokenBucket(config.rate_limit) if config.rate_limit else None,
            retry=config.retry,
            retry_seed=0,
            request_timeout=config.request_timeout,
            breaker=config.breaker,
            budget=config.llm_budget,
            bus=self.bus,
        )
        self._queue = asyncio.Queue(maxsize=config.queue_limit)
        self._tools = _LoopToolQueue(loop)
        if config.sim_max_batch > 1:
            self._sim_batcher = _SimulationBatcher(
                loop,
                self._tools,
                self._sim_batch_sizes,
                config.sim_batch_window,
                config.sim_max_batch,
                bus=self.bus,
            )
        self._workers = [loop.create_task(self._worker()) for _ in range(config.max_in_flight)]
        return self

    async def close(self, drain: bool = False) -> None:
        """Tear the service down; ``drain=True`` finishes in-flight work first.

        Draining stops ``submit`` from accepting new jobs, then waits (up to
        ``config.drain_timeout`` seconds) for every queued and in-flight job
        to resolve before the normal teardown — so a graceful shutdown never
        strands a submitter and never abandons work it already accepted.
        """
        if drain and self.started:
            self._draining = True
            try:
                await asyncio.wait_for(
                    self._queue.join(), timeout=self.config.drain_timeout or None
                )
            except asyncio.TimeoutError:
                pass
            if self.bus.active:
                self.bus.publish(
                    "service.job",
                    "drained",
                    pending=self._queue.qsize() if self._queue is not None else 0,
                    in_flight=self._in_flight.value(),
                )
        for worker in self._workers:
            worker.cancel()
        if self._workers:
            await asyncio.gather(*self._workers, return_exceptions=True)
        self._workers = []
        # A worker that died between dequeuing a job and resolving its future
        # (cancelled at an interior await, or killed by a non-Exception) left
        # that future in _active; fail it so the submitter wakes up.
        for future in list(self._active.values()):
            if not future.done():
                future.set_exception(
                    RuntimeError("generation service closed while the job was in flight")
                )
        self._active.clear()
        if self._queue is not None:
            await self._fail_queued_jobs()
        if self._sim_batcher is not None:
            self._sim_batcher.close()
            self._sim_batcher = None
        if self._tools is not None:
            self._tools.shutdown()
            self._tools = None
        self._queue = None
        self._draining = False
        if self._owns_store and self.store is not None:
            self.store.close()

    async def _fail_queued_jobs(self) -> None:
        """Fail jobs still queued at close so their submitters don't hang.

        Draining frees queue slots, which wakes submitters blocked on a full
        queue; the loop keeps yielding to them until a full pass finds the
        queue empty, so every orphaned job's future resolves.
        """
        while True:
            drained = False
            while not self._queue.empty():
                _unit, future = self._queue.get_nowait()
                if not future.done():
                    future.set_exception(
                        RuntimeError("generation service closed before the job ran")
                    )
                self._queue.task_done()
                drained = True
            await asyncio.sleep(0)
            if not drained and self._queue.empty():
                return

    async def __aenter__(self) -> "GenerationService":
        return await self.start()

    async def __aexit__(self, *exc_info) -> None:
        await self.close()

    # ------------------------------------------------------------------- jobs

    async def submit(self, unit: WorkUnit) -> dict:
        """Enqueue one job and await its payload (awaits when the queue is full)."""
        if not self.started:
            raise RuntimeError("service not started; use `async with service:` or await start()")
        if self._draining:
            raise RuntimeError("generation service is draining; not accepting new jobs")
        loop = asyncio.get_running_loop()
        future: asyncio.Future = loop.create_future()
        self._jobs.inc(state="submitted")
        if self.bus.active:
            self.bus.publish(
                "service.job",
                "submitted",
                problem=unit.problem_id,
                strategy=unit.strategy,
                model=unit.model,
                sample=unit.sample,
            )
        await self._queue.put((unit, future))
        return await future

    async def run(self, units: Iterable[WorkUnit]) -> list[dict]:
        """Submit a batch of jobs and return their payloads in submission order."""
        units = list(units)
        if not self.started:
            async with self:
                return await asyncio.gather(*(self.submit(unit) for unit in units))
        return await asyncio.gather(*(self.submit(unit) for unit in units))

    def snapshot(self) -> ServiceSnapshot:
        """A consistent snapshot (queue depth, cache hits, p50/p95) of the registries."""
        samples = list(self._latencies)
        sizes = self._sim_batch_sizes
        return ServiceSnapshot(
            **self._counts(),
            p50_latency=percentile(samples, 0.50),
            p95_latency=percentile(samples, 0.95),
            p99_latency=percentile(samples, 0.99),
            max_latency=max(samples) if samples else 0.0,
            dispatcher=self.dispatcher.snapshot() if self.dispatcher else {},
            caches=cache_stats(),
            sim_batches=sizes.count(),
            sim_batched_requests=sizes.sum(),
            max_sim_batch=sizes.max(),
        )

    def _counts(self) -> dict:
        """The count fields of :class:`ServiceSnapshot`, read from :attr:`metrics`.

        They are also the attributes of every ``service.snapshot`` event.
        """
        jobs, hits, steps = self._jobs, self._cache_hits, self._steps
        return {
            "queue_depth": self._queue.qsize() if self._queue is not None else 0,
            "in_flight": self._in_flight.value(),
            "submitted": jobs.value(state="submitted"),
            "completed": jobs.value(state="completed"),
            "failed": jobs.value(state="failed"),
            "memo_hits": hits.value(tier="memo"),
            "store_hits": hits.value(tier="store"),
            "coalesced_hits": hits.value(tier="coalesced"),
            "llm_calls": steps.value(kind="llm"),
            "tool_calls": steps.value(kind="tool"),
        }

    # ---------------------------------------------------------------- workers

    async def _worker(self) -> None:
        while True:
            unit, future = await self._queue.get()
            self._active[id(future)] = future
            try:
                payload = await self._execute(unit)
            except asyncio.CancelledError:
                if not future.done():
                    future.cancel()
                raise
            except Exception as exc:
                self._jobs.inc(state="failed")
                if self.bus.active:
                    self.bus.publish(
                        "service.job",
                        "failed",
                        problem=unit.problem_id,
                        strategy=unit.strategy,
                        error=type(exc).__name__,
                    )
                    self._publish_snapshot()
                if not future.done():
                    future.set_exception(exc)
            except BaseException:
                # The worker task itself is dying (KeyboardInterrupt & co.);
                # resolve the job so its submitter isn't stranded, then let
                # the exception take the task down.
                self._jobs.inc(state="failed")
                if not future.done():
                    future.set_exception(RuntimeError("generation worker died mid-job"))
                raise
            else:
                self._jobs.inc(state="completed")
                if self.bus.active:
                    self.bus.publish(
                        "service.job",
                        "completed",
                        problem=unit.problem_id,
                        strategy=unit.strategy,
                        model=unit.model,
                        sample=unit.sample,
                    )
                    self._publish_snapshot()
                if not future.done():
                    future.set_result(payload)
            finally:
                # Leave unresolved futures registered: close() fails them.
                if future.done():
                    self._active.pop(id(future), None)
                self._queue.task_done()

    async def _execute(self, unit: WorkUnit) -> dict:
        loop = asyncio.get_running_loop()
        fingerprint = self.context.fingerprint(unit)

        payload = self._memo.get(fingerprint)
        if payload is not None:
            self._cache_hits.inc(tier="memo")
            self._publish_cache_hit("memo", unit)
            return payload
        if self.store is not None:
            payload = self.store.get(fingerprint)
            if payload is not None:
                self._cache_hits.inc(tier="store")
                self._publish_cache_hit("store", unit)
                self._memo.put(fingerprint, payload)
                return payload
        pending = self._inflight.get(fingerprint)
        if pending is not None:
            # The same spec is already executing: piggyback on its result
            # instead of spending duplicate LLM calls.
            self._cache_hits.inc(tier="coalesced")
            self._publish_cache_hit("coalesced", unit)
            return await pending

        barrier: asyncio.Future = loop.create_future()
        barrier.add_done_callback(_consume_exception)
        self._inflight[fingerprint] = barrier
        self._in_flight.inc()
        started = loop.time()
        try:
            with span(
                "session",
                bus=self.bus,
                problem=unit.problem_id,
                strategy=unit.strategy,
                model=unit.model,
                sample=unit.sample,
                fingerprint=fingerprint[:12],
            ):
                client = self._client_factory(unit)
                session = strategy_from_unit(unit).session(self.context, unit, client)
                payload = await self._drive(session, client)
        except BaseException as exc:
            if not barrier.done():
                barrier.set_exception(exc)
            raise
        finally:
            self._in_flight.inc(-1)
            self._latencies.append(loop.time() - started)
            del self._inflight[fingerprint]
        self._memo.put(fingerprint, payload)
        if self.store is not None:
            self.store.put(fingerprint, unit, payload)
        if not barrier.done():
            barrier.set_result(payload)
        return payload

    async def _drive(self, session: Session, client) -> dict:
        """Answer a session's steps: LLM via the dispatcher, tools via the tool queue.

        Each step runs inside a child span of the session span (``llm.<purpose>``
        or ``tool.<purpose>``), so one session's timeline reconstructs into a
        parent/child tree covering its LLM, tool and simulate steps.
        """
        loop = asyncio.get_running_loop()
        bus = self.bus
        try:
            step = next(session)
            while True:
                self._steps.inc(kind="llm" if isinstance(step, LLMCall) else "tool")
                if isinstance(step, LLMCall):
                    with span("llm." + step.purpose, bus=bus):
                        value = await self.dispatcher.complete(step.messages, client=client)
                elif self._sim_batcher is not None and isinstance(
                    getattr(step, "batch", None), SimulateRequest
                ):
                    with span("tool." + step.purpose, bus=bus, batched=True):
                        value = await self._sim_batcher.simulate(step.batch)
                else:
                    with span("tool." + step.purpose, bus=bus):
                        value = await loop.run_in_executor(self._tools, step.run)
                step = session.send(value)
        except StopIteration as stop:
            return stop.value

    # ------------------------------------------------------------- bus output

    def _publish_cache_hit(self, tier: str, unit: WorkUnit) -> None:
        if self.bus.active:
            self.bus.publish(
                "service.job",
                "cache-hit",
                tier=tier,
                problem=unit.problem_id,
                strategy=unit.strategy,
                model=unit.model,
                sample=unit.sample,
            )

    def _publish_snapshot(self) -> None:
        """Emit ``service.snapshot`` + ``cache.stats`` (throttled) events.

        Called after each completed or failed job while subscribers are
        attached.  The snapshot carries :meth:`_counts`, so the latest one is
        complete even when a lossy subscriber dropped the job events before
        it.  The cache-stats walk is throttled so a burst of completions
        costs one registry scan per interval, not one per job.
        """
        bus = self.bus
        bus.publish("service.snapshot", "update", **self._counts())
        now = time.monotonic()
        if now - self._last_stats_publish >= 0.25:
            self._last_stats_publish = now
            bus.publish("cache.stats", "snapshot", caches=cache_stats())


def serve_units(
    units: Sequence[WorkUnit],
    config: ServiceConfig | None = None,
    **kwargs,
) -> tuple[list[dict], ServiceSnapshot]:
    """Blocking convenience: run ``units`` through a fresh service.

    Spins up an event loop, serves every unit, and returns the payloads (in
    submission order) together with the final :class:`ServiceSnapshot`.
    """

    async def _main() -> tuple[list[dict], ServiceSnapshot]:
        service = GenerationService(config, **kwargs)
        async with service:
            payloads = await asyncio.gather(*(service.submit(unit) for unit in units))
        return list(payloads), service.snapshot()

    return asyncio.run(_main())
