"""Tests for the structured event bus, tracing spans, transports and metrics."""

import asyncio
import threading

import pytest

from repro.obs import (
    Event,
    EventBus,
    JsonlWriter,
    MetricsRegistry,
    MetricsSink,
    SocketEventServer,
    build_timeline,
    current_span,
    get_bus,
    iter_socket_events,
    parse_endpoint,
    set_bus,
    span,
)


class TestEventBus:
    def test_publish_without_subscribers_is_a_noop(self):
        bus = EventBus()
        assert not bus.active
        assert bus.publish("service.job", "completed", problem="alu") is None
        assert bus.published == 0

    def test_topic_prefixes_route_events(self):
        bus = EventBus()
        service = bus.subscribe("service")
        everything = bus.subscribe()
        trace = bus.subscribe(["trace", "fuzz"])

        bus.publish("service.job", "completed")
        bus.publish("service.snapshot", "update")
        bus.publish("trace", "span.start")
        bus.publish("servicex", "decoy")  # prefix match is on dot boundaries

        assert [e.topic for e in service.pop_all()] == ["service.job", "service.snapshot"]
        assert [e.topic for e in everything.pop_all()] == [
            "service.job", "service.snapshot", "trace", "servicex",
        ]
        assert [e.topic for e in trace.pop_all()] == ["trace"]

    def test_events_carry_ordering_and_roundtrip_json(self):
        bus = EventBus()
        sub = bus.subscribe("t")
        bus.publish("t", "one", n=1)
        bus.publish("t", "two", n=2, label="x")
        first, second = sub.pop_all()
        assert second.seq > first.seq
        decoded = Event.from_json(second.to_json())
        assert decoded == second

    def test_bounded_subscriber_drops_oldest_and_counts(self):
        bus = EventBus()
        sub = bus.subscribe("t", maxsize=4)
        for index in range(10):
            bus.publish("t", "tick", index=index)
        assert sub.dropped == 6
        kept = sub.pop_all()
        assert [event.attrs["index"] for event in kept] == [6, 7, 8, 9]
        stats = bus.stats()
        assert stats["published"] == 10
        assert stats["subscribers"][0]["dropped"] == 6

    def test_unsubscribe_stops_delivery_and_invalidates_routes(self):
        bus = EventBus()
        sub = bus.subscribe("t")
        bus.publish("t", "before")
        bus.unsubscribe(sub)
        assert bus.publish("t", "after") is None
        assert [event.name for event in sub.pop_all()] == ["before"]

    def test_get_blocks_until_event_or_timeout(self):
        bus = EventBus()
        sub = bus.subscribe("t")
        assert sub.get(timeout=0.01) is None

        def late_publish():
            bus.publish("t", "late")

        timer = threading.Timer(0.05, late_publish)
        timer.start()
        try:
            event = sub.get(timeout=2.0)
        finally:
            timer.join()
        assert event is not None and event.name == "late"

    def test_global_bus_swap(self):
        replacement = EventBus()
        previous = set_bus(replacement)
        try:
            assert get_bus() is replacement
        finally:
            set_bus(previous)

    def test_parse_endpoint(self):
        assert parse_endpoint("localhost:9000") == ("localhost", 9000)
        assert parse_endpoint(":9000") == ("127.0.0.1", 9000)
        assert parse_endpoint("9000") == ("127.0.0.1", 9000)


class TestSpans:
    def test_nested_spans_reconstruct_into_a_tree(self):
        bus = EventBus()
        sub = bus.subscribe("trace")
        with span("session", bus=bus, problem="alu_w4"):
            with span("llm.generate", bus=bus):
                pass
            with span("tool.compile", bus=bus):
                with span("tool.simulate", bus=bus):
                    pass
        roots = build_timeline(sub.pop_all())
        assert len(roots) == 1
        root = roots[0]
        assert root.name == "session"
        assert root.attrs["problem"] == "alu_w4"
        assert [child.name for child in root.children] == ["llm.generate", "tool.compile"]
        assert [child.name for child in root.children[1].children] == ["tool.simulate"]
        assert all(node.complete for node in [root] + root.children)
        assert root.duration >= root.children[1].duration
        assert len(root.find("tool.simulate")) == 1
        assert "session" in root.render()

    def test_span_records_error_on_exception(self):
        bus = EventBus()
        sub = bus.subscribe("trace")
        with pytest.raises(ValueError):
            with span("session", bus=bus):
                raise ValueError("boom")
        end = [e for e in sub.pop_all() if e.name == "span.end"][0]
        assert end.attrs["error"] == "ValueError"

    def test_spans_are_inert_without_subscribers(self):
        bus = EventBus()
        with span("session", bus=bus) as outer:
            assert current_span() is None
            assert outer.span_id == ""
        assert bus.published == 0

    def test_asyncio_tasks_get_independent_lineage(self):
        bus = EventBus()
        sub = bus.subscribe("trace")

        async def session(name):
            with span("session", bus=bus, who=name):
                await asyncio.sleep(0)
                with span("llm.generate", bus=bus):
                    await asyncio.sleep(0)

        async def main():
            await asyncio.gather(session("a"), session("b"))

        asyncio.run(main())
        roots = build_timeline(sub.pop_all())
        assert sorted(root.attrs["who"] for root in roots) == ["a", "b"]
        for root in roots:
            assert [child.name for child in root.children] == ["llm.generate"]
            assert root.trace_id != ""
        assert roots[0].trace_id != roots[1].trace_id

    def test_timeline_tolerates_truncated_streams(self):
        bus = EventBus()
        sub = bus.subscribe("trace")
        with span("outer", bus=bus):
            with span("inner", bus=bus):
                pass
        events = sub.pop_all()
        # Drop the outer start (ring-buffer loss): inner still reconstructs,
        # outer shows up incomplete from its end event.
        truncated = events[1:]
        roots = build_timeline(truncated)
        names = {root.name for root in roots}
        assert "outer" in names


class TestTransports:
    def test_jsonl_writer_roundtrip(self, tmp_path):
        bus = EventBus()
        writer = JsonlWriter(bus, tmp_path / "events.jsonl", topics=["t"])
        for index in range(5):
            bus.publish("t", "tick", index=index)
        writer.close()
        lines = (tmp_path / "events.jsonl").read_text().strip().splitlines()
        events = [Event.from_json(line) for line in lines]
        assert [event.attrs["index"] for event in events] == [0, 1, 2, 3, 4]

    def test_socket_transport_roundtrip(self):
        bus = EventBus()
        server = SocketEventServer(bus, port=0, topics=["t"])
        received: list[Event] = []

        def client():
            host, port = server.address
            for event in iter_socket_events(host, port, timeout=5.0):
                received.append(event)
                if len(received) == 3:
                    return

        thread = threading.Thread(target=client, daemon=True)
        thread.start()
        # Wait for the server to register the client's subscription.
        for _ in range(200):
            if bus.active:
                break
            threading.Event().wait(0.01)
        assert bus.active, "socket client never subscribed"
        for index in range(3):
            bus.publish("t", "tick", index=index)
        thread.join(timeout=10.0)
        server.close()
        assert [event.attrs["index"] for event in received] == [0, 1, 2]
        assert all(event.topic == "t" for event in received)


class TestMetrics:
    def test_prometheus_exposition(self):
        registry = MetricsRegistry()
        registry.counter("repro_jobs_total", "jobs").inc(state="done")
        registry.counter("repro_jobs_total").inc(state="done")
        registry.gauge("repro_queue_depth", "depth").set(7)
        histogram = registry.histogram("repro_latency_seconds", "lat", buckets=(0.1, 1.0))
        histogram.observe(0.05)
        histogram.observe(0.5)
        histogram.observe(1.0)  # on a bound: counts in that bound's bucket
        histogram.observe(5.0)
        text = registry.render()
        assert '# TYPE repro_jobs_total counter' in text
        assert 'repro_jobs_total{state="done"} 2' in text
        assert 'repro_queue_depth 7' in text
        assert 'repro_latency_seconds_bucket{le="0.1"} 1' in text
        assert 'repro_latency_seconds_bucket{le="1"} 3' in text
        assert 'repro_latency_seconds_bucket{le="+Inf"} 4' in text
        assert 'repro_latency_seconds_count 4' in text
        assert registry.histogram("repro_latency_seconds").count() == 4

    def test_metric_name_type_conflict_raises(self):
        registry = MetricsRegistry()
        registry.counter("repro_thing")
        with pytest.raises(TypeError):
            registry.gauge("repro_thing")

    def test_sink_derives_metrics_from_events(self):
        bus = EventBus()
        sink = MetricsSink().attach(bus)
        bus.publish("trace", "span.end", span="s", parent="", trace="t",
                    op="tool.simulate", duration=0.02)
        bus.publish("cache.stats", "snapshot", caches={"sim_kernel": {"hits": 9, "misses": 1}})
        bus.publish("fuzz.program", "checked", index=0, ok=True)
        consumed = sink.pump()
        assert consumed == 3
        registry = sink.registry
        assert registry.histogram("repro_span_seconds").count(op="tool.simulate") == 1
        assert registry.gauge("repro_cache_hits").value(cache="sim_kernel") == 9
        assert registry.counter("repro_fuzz_programs_total").value(ok="true") == 1
        sink.detach()

    def test_sink_leaves_service_and_dispatch_counts_to_their_owners(self):
        bus = EventBus()
        sink = MetricsSink().attach(bus)
        bus.publish("service.job", "completed")
        bus.publish("service.job", "cache-hit", tier="memo")
        bus.publish("service.snapshot", "update", queue_depth=3, in_flight=2)
        bus.publish("llm.retry", "exhausted", reason="timeout")
        bus.publish("sim.batch", "flush", size=2)
        assert sink.pump() == 0
        assert sink.registry.render() == ""
        sink.detach()

    def test_dropped_events_count_in_the_dropped_total(self):
        bus = EventBus()
        sink = MetricsSink().attach(bus, maxsize=2)
        for index in range(5):
            bus.publish("sweep.progress", "unit", done=index)
        assert sink.pump() == 2
        text = sink.registry.render()
        assert "repro_events_dropped_total 3" in text
        assert "repro_events_dropped " not in text
        # Each pump adds only the drops since the previous one.
        for index in range(3):
            bus.publish("sweep.progress", "unit", done=index)
        sink.pump()
        assert sink.registry.counter("repro_events_dropped_total").value() == 4
        sink.detach()

    def test_histogram_keeps_the_exact_max_per_series(self):
        histogram = MetricsRegistry().histogram("repro_batch", buckets=(1, 8))
        for size in (3, 5, 2):
            histogram.observe(size)
        histogram.observe(7, kind="llm")
        assert histogram.max() == 5 and histogram.max(kind="llm") == 7
        assert histogram.count() == 3 and histogram.sum() == 10
        assert histogram.max(kind="sim") == 0


class TestAtSourceCounts:
    """The service and the dispatcher count in their own registries."""

    def test_service_counts_jobs_cache_tiers_and_steps(self):
        from repro.experiments.work import WorkUnit
        from repro.service import GenerationService, ServiceConfig

        unit = WorkUnit(
            "rechisel", "GPT-4o mini", "alu_w4", 0, 2, 0, 6,
            (("enable_escape", True), ("feedback_detail", "full"), ("use_knowledge", True)),
        )

        async def main():
            service = GenerationService(ServiceConfig(max_in_flight=2))
            async with service:
                await service.run([unit, unit])
                await service.run([unit])
            return service

        service = asyncio.run(main())
        snapshot = service.snapshot()
        metrics = service.metrics
        jobs = metrics.counter("repro_service_jobs_total")
        assert jobs.value(state="submitted") == jobs.value(state="completed") == 3
        hits = metrics.counter("repro_service_cache_hits_total")
        assert hits.value(tier="coalesced") == 1 and hits.value(tier="memo") == 1
        assert metrics.gauge("repro_service_in_flight").value() == 0
        steps = metrics.counter("repro_session_steps_total")
        assert steps.value(kind="llm") == snapshot.llm_calls > 0
        assert steps.value(kind="tool") == snapshot.tool_calls > 0
        sizes = metrics.histogram("repro_sim_batch_size")
        assert sizes.count() == snapshot.sim_batches > 0
        assert sizes.sum() == snapshot.sim_batched_requests
        assert 'repro_service_jobs_total{state="completed"} 3' in metrics.render()
        dispatch = service.dispatcher.metrics
        assert dispatch.counter("repro_llm_dispatch_total").value(kind="requests") == (
            snapshot.llm_calls
        )

    def test_one_transient_failure_is_one_retry_event_and_one_count(self):
        from repro.llm.client import ChatMessage
        from repro.llm.dispatch import BatchingDispatcher
        from repro.retry import RetryPolicy

        class FlakyOnce:
            def __init__(self):
                self.calls = 0

            def complete(self, messages):
                self.calls += 1
                if self.calls == 1:
                    raise ConnectionError("transient")
                return "ok"

        bus = EventBus()
        subscription = bus.subscribe(None)

        async def main():
            dispatcher = BatchingDispatcher(
                FlakyOnce(), retry=RetryPolicy(attempts=2, base_delay=0.001),
                retry_seed=0, bus=bus,
            )
            return await dispatcher.complete([ChatMessage("user", "q")]), dispatcher

        result, dispatcher = asyncio.run(main())
        assert result == "ok"
        retries = [
            event for event in subscription.pop_all() if event.topic in ("retry", "llm.retry")
        ]
        assert [(event.topic, event.name) for event in retries] == [("retry", "attempt")]
        assert retries[0].attrs["source"] == "llm"
        assert dispatcher.metrics.counter("repro_llm_dispatch_total").value(kind="retries") == 1
        assert dispatcher.snapshot()["retries"] == 1


class TestResilienceMetrics:
    def test_breaker_retry_and_campaign_events_become_series(self):
        bus = EventBus()
        sink = MetricsSink().attach(bus)
        bus.publish("llm.breaker", "open", state="open", failures=3)
        bus.publish("llm.breaker", "close", state="closed")
        bus.publish("retry", "attempt", source="campaign", attempt=1)
        bus.publish("retry", "attempt", source="llm", attempt=2)
        bus.publish("campaign", "budget", campaign="abc", spent=7, limit=10)
        bus.publish("campaign", "progress", campaign="abc", stage="generate", done=3, total=4)
        bus.publish("campaign", "checkpoint", campaign="abc", seq=2)
        assert sink.pump() == 7
        registry = sink.registry
        assert registry.counter("repro_breaker_transitions_total").value(transition="open") == 1
        assert registry.counter("repro_breaker_transitions_total").value(transition="close") == 1
        assert registry.counter("repro_retries_total").value(source="campaign") == 1
        assert registry.counter("repro_retries_total").value(source="llm") == 1
        assert registry.gauge("repro_campaign_llm_spent").value() == 7
        assert registry.gauge("repro_campaign_stage_done").value(stage="generate") == 3
        assert registry.counter("repro_campaign_events_total").value(event="checkpoint") == 1
        sink.detach()
