"""Tests for the async generation service and its LLM dispatcher."""

import asyncio
import threading

import pytest

from repro.core.session import LLMCall, ToolCall, drive
from repro.experiments.strategies import strategy_from_unit
from repro.experiments.work import WorkerContext, WorkUnit
from repro.llm.client import ChatMessage, EchoClient, RecordingClient
from repro.llm.dispatch import (
    BatchingDispatcher,
    LatencyClient,
    SyncClientAdapter,
    TokenBucket,
)
from repro.retry import RetryPolicy
from repro.service import GenerationService, ServiceConfig, serve_units
from repro.service.telemetry import percentile

RECHISEL_KNOBS = (
    ("enable_escape", True),
    ("feedback_detail", "full"),
    ("use_knowledge", True),
)


def make_units(samples=2):
    """A small mixed workload covering all three strategies and two models."""
    units = []
    specs = [
        ("zero_shot", (("language", "chisel"),), 0),
        ("zero_shot", (("language", "verilog"),), 0),
        ("rechisel", RECHISEL_KNOBS, 6),
        ("autochip", (), 6),
    ]
    for strategy, knobs, max_iterations in specs:
        for sample in range(samples):
            units.append(
                WorkUnit(strategy, "GPT-4o mini", "alu_w4", 0, sample, 0, max_iterations, knobs)
            )
            units.append(
                WorkUnit(
                    strategy, "Claude 3.5 Sonnet", "counter_w4", 1, sample, 0, max_iterations, knobs
                )
            )
    return units


def direct_payloads(units):
    context = WorkerContext()
    return [strategy_from_unit(unit).execute(context, unit) for unit in units]


class TestServiceEquivalence:
    """Service results must be bit-identical to blocking runs, all strategies."""

    @pytest.mark.parametrize("concurrency", [1, 4, 32])
    def test_all_strategies_bit_identical(self, concurrency):
        units = make_units()
        expected = direct_payloads(units)
        payloads, snapshot = serve_units(units, ServiceConfig(max_in_flight=concurrency))
        assert payloads == expected
        assert snapshot.completed == len(units)
        assert snapshot.failed == 0

    def test_latency_simulating_client_does_not_change_results(self):
        units = make_units(samples=1)
        expected = direct_payloads(units)
        context = WorkerContext()
        payloads, _ = serve_units(
            units,
            ServiceConfig(max_in_flight=16),
            context=context,
            client_factory=lambda unit: LatencyClient(context.client_for(unit), 0.001),
        )
        assert payloads == expected

    def test_rate_limit_does_not_change_results(self):
        units = make_units(samples=1)
        expected = direct_payloads(units)
        config = ServiceConfig(max_in_flight=8, rate_limit=5000.0)
        payloads, _ = serve_units(units, config)
        assert payloads == expected


class TestServiceCaching:
    def test_duplicate_units_cost_no_extra_llm_calls(self):
        base = make_units(samples=1)
        units = base + base  # every unit twice
        payloads, snapshot = serve_units(units, ServiceConfig(max_in_flight=8))
        assert payloads[: len(base)] == payloads[len(base):]
        duplicates = len(base)
        assert snapshot.memo_hits + snapshot.coalesced_hits == duplicates

    def test_warm_store_serves_repeats_without_llm_calls(self, tmp_path):
        store_path = str(tmp_path / "service-results.jsonl")
        units = make_units(samples=1)
        cold, cold_snapshot = serve_units(units, ServiceConfig(store_path=store_path))
        assert cold_snapshot.dispatcher["requests"] > 0

        warm, warm_snapshot = serve_units(units, ServiceConfig(store_path=store_path))
        assert warm == cold
        assert warm_snapshot.dispatcher["requests"] == 0
        assert warm_snapshot.llm_calls == 0
        assert warm_snapshot.store_hits == len(units)

    def test_service_shares_store_with_sweep_engine(self, tmp_path):
        """A spec already swept by the engine is served from the store."""
        from repro.experiments.config import ExperimentConfig
        from repro.experiments.engine import SweepEngine

        store_path = str(tmp_path / "shared.jsonl")
        units = make_units(samples=1)
        config = ExperimentConfig(store_path=store_path)
        engine = SweepEngine(config)
        engine.run(units)
        engine.close()

        payloads, snapshot = serve_units(units, ServiceConfig(store_path=store_path))
        assert snapshot.store_hits == len(units)
        assert snapshot.dispatcher["requests"] == 0
        assert payloads == direct_payloads(units)

    def test_close_fails_queued_jobs_instead_of_hanging(self):
        """Closing with jobs still queued resolves every submitter's future."""
        units = make_units(samples=2)[:6]

        class SlowClient:
            def __init__(self, inner):
                self.inner = inner

            async def complete(self, messages):
                await asyncio.sleep(0.2)
                return self.inner.complete(messages)

        async def main():
            context = WorkerContext()
            service = GenerationService(
                ServiceConfig(max_in_flight=1, queue_limit=2),
                context=context,
                client_factory=lambda unit: SlowClient(context.client_for(unit)),
            )
            await service.start()
            tasks = [asyncio.create_task(service.submit(unit)) for unit in units]
            await asyncio.sleep(0.02)  # one in flight, rest queued or awaiting a slot
            await service.close()
            return await asyncio.gather(*tasks, return_exceptions=True)

        results = asyncio.run(main())
        assert all(
            isinstance(result, (RuntimeError, asyncio.CancelledError)) for result in results
        ), results
        assert any(isinstance(result, RuntimeError) for result in results)

    def test_worker_killed_mid_job_never_strands_its_submitter(self):
        """Regression: a worker dying between dequeuing a job and resolving
        its future (a non-Exception escaping ``_execute``) used to leave the
        submitter awaiting forever; the in-flight registry must resolve it."""
        units = make_units(samples=1)[:2]

        class WorkerKiller(BaseException):
            """Not an Exception: escapes the worker's normal handler."""

        class LethalClient:
            async def complete(self, messages):
                await asyncio.sleep(0)
                raise WorkerKiller()

        async def main():
            service = GenerationService(
                ServiceConfig(max_in_flight=2),
                client_factory=lambda unit: LethalClient(),
            )
            await service.start()
            tasks = [asyncio.create_task(service.submit(unit)) for unit in units]
            done, pending = await asyncio.wait(tasks, timeout=5)
            assert not pending, "submitters were stranded by the dying worker"
            await service.close()
            return [task.exception() for task in tasks]

        results = asyncio.run(main())
        assert all(isinstance(result, RuntimeError) for result in results), results

    def test_close_resolves_futures_of_cancelled_in_flight_jobs(self):
        """Jobs being executed at close (not merely queued) must resolve too."""
        units = make_units(samples=1)[:3]
        entered = []

        class StuckClient:
            async def complete(self, messages):
                entered.append(True)
                await asyncio.sleep(3600)
                raise AssertionError("unreachable")

        async def main():
            service = GenerationService(
                ServiceConfig(max_in_flight=len(units)),
                client_factory=lambda unit: StuckClient(),
            )
            await service.start()
            tasks = [asyncio.create_task(service.submit(unit)) for unit in units]
            while len(entered) < len(units):
                await asyncio.sleep(0.01)
            await service.close()
            done, pending = await asyncio.wait(tasks, timeout=5)
            assert not pending, "in-flight submitters were left hanging at close"
            return await asyncio.gather(*tasks, return_exceptions=True)

        results = asyncio.run(main())
        assert all(
            isinstance(result, (RuntimeError, asyncio.CancelledError)) for result in results
        ), results

    def test_backpressure_queue_stays_bounded(self):
        units = make_units(samples=2)
        config = ServiceConfig(max_in_flight=2, queue_limit=2)
        payloads, snapshot = serve_units(units, config)
        assert len(payloads) == len(units)
        assert snapshot.failed == 0


class TestServiceSnapshot:
    def test_snapshot_counts_llm_and_tool_steps(self):
        units = make_units(samples=1)
        _, snapshot = serve_units(units, ServiceConfig(max_in_flight=4))
        assert snapshot.llm_calls > 0
        assert snapshot.tool_calls > 0
        assert snapshot.max_latency >= snapshot.p99_latency >= snapshot.p95_latency
        assert snapshot.p95_latency >= snapshot.p50_latency >= 0.0
        assert snapshot.dispatcher["requests"] == snapshot.llm_calls
        rendered = snapshot.render()
        assert "session latency" in rendered
        assert "p99" in rendered and "max" in rendered

    def test_percentile_linear_interpolation(self):
        samples = [0.1, 0.2, 0.3, 0.4]
        assert percentile(samples, 0.5) == pytest.approx(0.25)
        assert percentile(samples, 0.95) == pytest.approx(0.385)
        assert percentile([], 0.5) == 0.0
        # Two samples: the median interpolates halfway between them instead of
        # collapsing onto the lower one like nearest-rank did.
        assert percentile([1.0, 2.0], 0.5) == pytest.approx(1.5)
        assert percentile(list(range(1, 101)), 0.95) == pytest.approx(95.05)
        # Exact-rank positions are returned verbatim, extremes clamp.
        assert percentile(samples, 0.0) == 0.1
        assert percentile(samples, 1.0) == 0.4
        assert percentile([7.0], 0.99) == 7.0


class TestDispatcher:
    def run(self, coro):
        return asyncio.run(coro)

    def test_batch_failure_isolates_to_poisoned_request(self):
        """A failing request fails alone; concurrent requests survive."""

        class PoisonClient:
            def complete(self, messages):
                if messages[-1].content == "poison":
                    raise ValueError("bad request")
                return "ok"

        async def main():
            dispatcher = BatchingDispatcher(
                PoisonClient(),
                retry=RetryPolicy(attempts=1, base_delay=0.001),
                retry_seed=0,
            )
            contents = ["a", "poison", "b", "c"]
            return await asyncio.gather(
                *(dispatcher.complete([ChatMessage("user", text)]) for text in contents),
                return_exceptions=True,
            )

        results = self.run(main())
        assert results[0] == "ok" and results[2] == "ok" and results[3] == "ok"
        assert isinstance(results[1], ValueError)

    def test_retry_recovers_from_transient_failures(self):
        class FlakyClient:
            def __init__(self, failures):
                self.failures = failures
                self.calls = 0

            def complete(self, messages):
                self.calls += 1
                if self.calls <= self.failures:
                    raise ConnectionError("transient")
                return "recovered"

        client = FlakyClient(failures=2)

        async def main():
            dispatcher = BatchingDispatcher(
                client, retry=RetryPolicy(attempts=3, base_delay=0.001), retry_seed=0
            )
            return await dispatcher.complete([ChatMessage("user", "q")]), dispatcher.snapshot()

        result, stats = self.run(main())
        assert result == "recovered"
        assert stats["retries"] == 2
        assert stats["failures"] == 0

    def test_retry_exhaustion_raises(self):
        class DeadClient:
            def complete(self, messages):
                raise ConnectionError("down")

        async def main():
            dispatcher = BatchingDispatcher(
                DeadClient(), retry=RetryPolicy(attempts=1, base_delay=0.001), retry_seed=0
            )
            with pytest.raises(ConnectionError):
                await dispatcher.complete([ChatMessage("user", "q")])
            return dispatcher.snapshot()

        stats = self.run(main())
        assert stats["failures"] == 1
        assert stats["retries"] == 1

    def test_request_timeout_retries_then_succeeds(self):
        class SlowThenFastClient:
            def __init__(self):
                self.calls = 0

            async def complete(self, messages):
                self.calls += 1
                if self.calls <= 2:
                    await asyncio.sleep(60)
                return "eventually"

        async def main():
            dispatcher = BatchingDispatcher(
                request_timeout=0.02,
                retry=RetryPolicy(attempts=3, base_delay=0.001),
                retry_seed=0,
            )
            result = await dispatcher.complete(
                [ChatMessage("user", "q")], client=SlowThenFastClient()
            )
            return result, dispatcher

        result, dispatcher = self.run(main())
        stats = dispatcher.snapshot()
        assert result == "eventually"
        assert stats["timeouts"] == 2
        assert stats["retries"] == 2
        assert stats["failures"] == 0
        # The snapshot reads the dispatcher's registry, which renders the
        # same counts for a scraper.
        text = dispatcher.metrics.render()
        assert 'repro_llm_dispatch_total{kind="timeouts"} 2' in text
        assert 'repro_llm_dispatch_total{kind="retries"} 2' in text

    def test_request_timeout_exhaustion_raises_timeout_error(self):
        class WedgedClient:
            async def complete(self, messages):
                await asyncio.sleep(60)

        async def main():
            dispatcher = BatchingDispatcher(
                request_timeout=0.01,
                retry=RetryPolicy(attempts=1, base_delay=0.001),
                retry_seed=0,
            )
            with pytest.raises(TimeoutError):
                await dispatcher.complete([ChatMessage("user", "q")], client=WedgedClient())
            return dispatcher.snapshot()

        stats = self.run(main())
        assert stats["failures"] == 1
        assert stats["timeouts"] == 2  # the first attempt and its one retry

    def test_request_timeout_rejects_nonpositive_values(self):
        with pytest.raises(ValueError):
            BatchingDispatcher(request_timeout=0)

    def test_caller_cancellation_propagates_and_is_skipped(self):
        class NeverClient:
            def __init__(self):
                self.started = asyncio.Event()
                self.calls = 0

            async def complete(self, messages):
                self.calls += 1
                self.started.set()
                await asyncio.sleep(60)

        async def main():
            dispatcher = BatchingDispatcher(retry=RetryPolicy(attempts=0))
            client = NeverClient()
            task = asyncio.create_task(
                dispatcher.complete([ChatMessage("user", "q")], client=client)
            )
            await client.started.wait()
            task.cancel()
            with pytest.raises(asyncio.CancelledError):
                await task
            return dispatcher.snapshot()

        stats = self.run(main())
        assert stats["cancelled"] == 1

    def test_abandoned_request_is_not_attempted(self):
        """A request cancelled while it waits on the rate limiter costs nothing."""

        class CountingClient:
            def __init__(self):
                self.calls = 0

            async def complete(self, messages):
                self.calls += 1
                return "ok"

        async def main():
            # One token, refilled once a second: the second request must wait.
            bucket = TokenBucket(rate=1.0, capacity=1.0)
            dispatcher = BatchingDispatcher(rate_limiter=bucket)
            client = CountingClient()
            survivor = await dispatcher.complete([ChatMessage("user", "live")], client=client)
            doomed = asyncio.create_task(
                dispatcher.complete([ChatMessage("user", "dead")], client=client)
            )
            await asyncio.sleep(0.01)  # the doomed request is paying off its token
            doomed.cancel()
            with pytest.raises(asyncio.CancelledError):
                await doomed
            return survivor, client.calls, dispatcher.snapshot()

        survivor, calls, stats = self.run(main())
        assert survivor == "ok"
        assert calls == 1
        assert stats["requests"] == 2
        assert stats["cancelled"] == 1

    def test_token_bucket_oversized_acquire_keeps_configured_rate(self):
        """Acquiring more than the bucket's capacity must not strand tokens
        earned while sleeping: after the debt is paid the balance is ~0, so
        sustained oversized acquires deliver the configured rate."""

        async def main():
            bucket = TokenBucket(rate=50.0, capacity=1.0)
            await bucket.acquire(5.0)
            return bucket._tokens

        balance = self.run(main())
        assert balance > -1.0  # the pre-fix debt model left it at ~-4

    def test_cancelled_waiter_refunds_its_tokens(self):
        """A waiter cancelled while paying off its debt spends no token, so
        the next acquisition waits only for its own."""

        async def main():
            bucket = TokenBucket(rate=2.0, capacity=1.0)
            await bucket.acquire(1)
            doomed = asyncio.create_task(bucket.acquire(1))
            await asyncio.sleep(0.01)
            doomed.cancel()
            with pytest.raises(asyncio.CancelledError):
                await doomed
            loop = asyncio.get_running_loop()
            start = loop.time()
            await bucket.acquire(1)
            return loop.time() - start

        waited = self.run(main())
        # Its own token takes ~0.49 s at 2/s; paying the cancelled waiter's
        # debt as well took ~0.99 s.
        assert 0.4 < waited < 0.7

    def test_refund_never_overfills_the_bucket(self):
        """An oversized waiter cancelled late refunds no more than capacity."""

        async def main():
            bucket = TokenBucket(rate=100.0, capacity=1.0)
            doomed = asyncio.create_task(bucket.acquire(5.0))
            await asyncio.sleep(0.03)
            doomed.cancel()
            with pytest.raises(asyncio.CancelledError):
                await doomed
            return bucket._tokens

        assert self.run(main()) <= 1.0

    def test_token_bucket_paces_requests(self):
        async def main():
            bucket = TokenBucket(rate=200.0, capacity=1.0)
            loop = asyncio.get_running_loop()
            start = loop.time()
            for _ in range(5):
                await bucket.acquire(1.0)
            return loop.time() - start

        # 5 tokens at 200/s with capacity 1 needs ~4 refills: >= ~20ms.
        assert self.run(main()) >= 0.015

    def test_sync_adapter_and_latency_client(self):
        inner = EchoClient("hello")

        async def main():
            adapted = SyncClientAdapter(inner)
            sim = LatencyClient(inner, 0.001)
            return (
                await adapted.complete([ChatMessage("user", "a")]),
                await sim.complete([ChatMessage("user", "b")]),
            )

        assert self.run(main()) == ("hello", "hello")
        assert inner.call_count() == 2

    def test_requires_some_client(self):
        async def main():
            dispatcher = BatchingDispatcher()
            with pytest.raises(ValueError):
                await dispatcher.complete([ChatMessage("user", "q")])

        self.run(main())


class TestSessionProtocol:
    def test_drive_answers_llm_and_tool_steps(self):
        def session():
            text = yield LLMCall([ChatMessage("user", "hi")], "generate")
            doubled = yield ToolCall(lambda: text * 2, "compile")
            return doubled

        assert drive(session(), EchoClient("x")) == "xx"


class TestConcurrentRecording:
    """Satellite: shared clients record calls safely across threads."""

    def test_echo_client_records_under_threads(self):
        client = EchoClient("ok")

        def worker():
            for i in range(200):
                client.complete([ChatMessage("user", str(i))])

        threads = [threading.Thread(target=worker) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert client.call_count() == 8 * 200

    def test_recording_client_snapshots_exchanges(self):
        client = RecordingClient(EchoClient("pong"))

        def worker():
            for i in range(100):
                client.complete([ChatMessage("user", str(i))])

        threads = [threading.Thread(target=worker) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        exchanges = client.exchanges()
        assert len(exchanges) == 400
        assert all(response == "pong" for _, response in exchanges)


class TestServiceConfig:
    def test_from_environment_reads_service_knobs(self, monkeypatch):
        monkeypatch.setenv("REPRO_SERVICE_MAX_INFLIGHT", "64")
        monkeypatch.setenv("REPRO_SERVICE_RATE_LIMIT", "12.5")
        config = ServiceConfig.from_environment()
        assert config.max_in_flight == 64
        assert config.rate_limit == 12.5

    def test_from_environment_disables_zero_rate(self, monkeypatch):
        monkeypatch.setenv("REPRO_SERVICE_RATE_LIMIT", "0")
        assert ServiceConfig.from_environment().rate_limit is None

    def test_invalid_values_rejected(self):
        with pytest.raises(ValueError):
            ServiceConfig(max_in_flight=0)
        with pytest.raises(ValueError):
            TokenBucket(rate=0)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("max_in_flight", 0),
            ("queue_limit", 0),
            ("tool_workers", 0),
            ("request_timeout", 0),
            ("sim_batch_window", -0.1),
            ("drain_timeout", -1),
        ],
    )
    def test_each_out_of_range_field_is_rejected_by_name(self, field, value):
        with pytest.raises(ValueError, match=field):
            ServiceConfig(**{field: value})

    def test_submit_requires_started_service(self):
        service = GenerationService(ServiceConfig())
        unit = make_units(samples=1)[0]

        async def main():
            with pytest.raises(RuntimeError):
                await service.submit(unit)

        asyncio.run(main())


class TestGracefulDrain:
    """``close(drain=True)`` finishes in-flight work instead of failing it."""

    def test_drain_finishes_queued_jobs_bit_identically(self):
        units = make_units(samples=1)[:4]
        expected = direct_payloads(units)

        class SlowClient:
            def __init__(self, inner):
                self.inner = inner

            async def complete(self, messages):
                await asyncio.sleep(0.02)
                return self.inner.complete(messages)

        async def main():
            context = WorkerContext()
            service = GenerationService(
                ServiceConfig(max_in_flight=1),
                context=context,
                client_factory=lambda unit: SlowClient(context.client_for(unit)),
            )
            await service.start()
            tasks = [asyncio.create_task(service.submit(unit)) for unit in units]
            await asyncio.sleep(0.01)  # one in flight, the rest queued
            await service.close(drain=True)
            return await asyncio.gather(*tasks, return_exceptions=True)

        results = asyncio.run(main())
        assert results == expected  # every submitter got its real payload

    def test_submit_during_drain_is_rejected(self):
        units = make_units(samples=1)[:3]

        class SlowClient:
            def __init__(self, inner):
                self.inner = inner

            async def complete(self, messages):
                await asyncio.sleep(0.05)
                return self.inner.complete(messages)

        async def main():
            context = WorkerContext()
            service = GenerationService(
                ServiceConfig(max_in_flight=1),
                context=context,
                client_factory=lambda unit: SlowClient(context.client_for(unit)),
            )
            await service.start()
            tasks = [asyncio.create_task(service.submit(unit)) for unit in units[:2]]
            await asyncio.sleep(0.01)
            closer = asyncio.create_task(service.close(drain=True))
            await asyncio.sleep(0.01)
            with pytest.raises(RuntimeError, match="draining"):
                await service.submit(units[2])
            await closer
            return await asyncio.gather(*tasks, return_exceptions=True)

        results = asyncio.run(main())
        assert all(isinstance(result, dict) for result in results), results

    def test_drain_timeout_bounds_the_wait(self):
        units = make_units(samples=1)[:2]

        class StuckClient:
            async def complete(self, messages):
                await asyncio.sleep(3600)

        async def main():
            service = GenerationService(
                ServiceConfig(max_in_flight=2, drain_timeout=0.1),
                client_factory=lambda unit: StuckClient(),
            )
            await service.start()
            tasks = [asyncio.create_task(service.submit(unit)) for unit in units]
            await asyncio.sleep(0.01)
            await asyncio.wait_for(service.close(drain=True), timeout=5)
            done, pending = await asyncio.wait(tasks, timeout=5)
            assert not pending, "drain timeout must still resolve submitters"
            return await asyncio.gather(*tasks, return_exceptions=True)

        results = asyncio.run(main())
        assert all(
            isinstance(result, (RuntimeError, asyncio.CancelledError)) for result in results
        ), results


class TestCampaignHooks:
    """Campaign resilience knobs thread through the service config."""

    def test_the_service_does_not_import_campaigns(self):
        # Nothing couples a service to campaigns in the same process: the
        # budget below is duck-typed through ``charge``.
        import os
        import subprocess
        import sys

        probe = (
            "import sys, repro.service.service; "
            "print(sorted(m for m in sys.modules if m.startswith('repro.campaign')))"
        )
        src = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src")
        out = subprocess.run(
            [sys.executable, "-c", probe],
            capture_output=True,
            text=True,
            check=True,
            env={**os.environ, "PYTHONPATH": src},
        ).stdout
        assert out.strip() == "[]"

    def test_llm_budget_is_charged_through_the_dispatcher(self):
        from repro.campaign.budget import Budget

        units = make_units(samples=1)[:4]
        budget = Budget()
        payloads, _ = serve_units(
            units, ServiceConfig(max_in_flight=2, llm_budget=budget)
        )
        assert len(payloads) == len(units)
        assert budget.spent > 0

    def test_breaker_opens_and_fails_fast_on_transport_storm(self):
        from repro.retry import BreakerOpenError, CircuitBreaker, TransportTimeout

        units = make_units(samples=1)[:3]
        attempts = []

        class DeadTransport:
            async def complete(self, messages):
                attempts.append(True)
                raise TransportTimeout("injected transport loss")

        breaker = CircuitBreaker(1, 3600.0, name="llm")
        config = ServiceConfig(
            max_in_flight=1,
            breaker=breaker,
            retry=RetryPolicy(attempts=0, base_delay=0.01),
        )

        async def main():
            service = GenerationService(
                config, client_factory=lambda unit: DeadTransport()
            )
            await service.start()
            results = await asyncio.gather(
                *(service.submit(unit) for unit in units), return_exceptions=True
            )
            await service.close()
            return results

        results = asyncio.run(main())
        assert all(isinstance(result, Exception) for result in results)
        assert breaker.state == "open"
        # Once open, jobs are rejected before touching the transport at all.
        assert any(
            isinstance(result, (BreakerOpenError, RuntimeError)) for result in results
        )
        assert len(attempts) < len(units) * 1 + 2
