"""Console tests: the headless model against a live service, plus the TUI.

The headless tests are the acceptance path: a real
:class:`~repro.service.service.GenerationService` run (synthetic
EchoClient-backed clients, real toolchain) publishes onto a private bus, and
the :class:`~repro.console.model.ConsoleModel` attached to it must show live
session rows with per-stage latencies and the cache panel.  The Textual pilot test at the bottom runs only where the optional
``textual`` dependency is installed (the CI console-smoke job).
"""

import asyncio

import pytest

from repro.console import ConsoleModel, sparkline
from repro.experiments.work import WorkUnit
from repro.obs import EventBus, build_timeline
from repro.service import ServiceConfig, serve_units

RECHISEL_KNOBS = (
    ("enable_escape", True),
    ("feedback_detail", "full"),
    ("use_knowledge", True),
)


def make_units(samples=2):
    units = []
    for strategy, knobs, max_iterations in (
        ("zero_shot", (("language", "chisel"),), 0),
        ("rechisel", RECHISEL_KNOBS, 6),
    ):
        for sample in range(samples):
            units.append(
                WorkUnit(strategy, "GPT-4o mini", "alu_w4", 0, sample, 0, max_iterations, knobs)
            )
    return units


def serve_watched(units, config, model=None):
    """Run ``units`` through a fresh service with a console model attached."""
    bus = EventBus()
    model = model if model is not None else ConsoleModel()
    model.attach(bus)
    try:
        payloads, snapshot = serve_units(units, config, bus=bus)
        model.pump()
    finally:
        model.detach()
    return model, payloads, snapshot


class TestConsoleModel:
    def test_live_service_run_populates_session_rows(self):
        units = make_units()
        model, payloads, _ = serve_watched(units, ServiceConfig(max_in_flight=4))
        assert len(payloads) == len(units)
        rows = model.session_rows()
        assert len(rows) == len(units)
        problems = {row[0] for row in rows}
        strategies = {row[1] for row in rows}
        assert problems == {"alu_w4"}
        assert strategies == {"zero_shot", "rechisel"}
        assert all(row[4] == "done" for row in rows)
        # Per-stage latencies: every session spent measurable time in LLM
        # calls and in the toolchain.
        assert all(float(row[5]) > 0 for row in rows), "llm ms column empty"
        assert any(float(row[6]) > 0 for row in rows), "compile ms column empty"
        assert model.snapshot["completed"] == len(units)
        assert f"done={len(units)}" in model.headline()

    def test_cache_panel_reflects_stage_caches(self):
        units = make_units(samples=1)
        model, _, _ = serve_watched(units, ServiceConfig(max_in_flight=4))
        cache_rows = model.cache_rows()
        assert cache_rows, "cache.stats snapshots never reached the model"
        names = {row[0] for row in cache_rows}
        assert "chisel_compile" in names
        rendered = model.render()
        assert "caches:" in rendered
        assert "sessions (newest first):" in rendered

    def test_headline_counts_every_job_under_backpressure(self):
        """A small subscription drops most events, but the headline reads the
        service's cumulative counts from the latest snapshot event."""
        units = [
            WorkUnit("rechisel", "GPT-4o mini", "alu_w4", 0, sample, 0, 6, RECHISEL_KNOBS)
            for sample in range(8)
        ]
        bus = EventBus()
        model = ConsoleModel()
        subscription = model.attach(bus, maxsize=16)
        try:
            _, snapshot = serve_units(units, ServiceConfig(max_in_flight=4), bus=bus)
            model.pump()
        finally:
            model.detach()
        assert subscription.dropped > 0
        assert snapshot.completed == 8
        assert "done=8" in model.headline()
        assert "failed=0" in model.headline()

    def test_sparkline_rendering(self):
        assert sparkline([]) == ""
        assert sparkline([0, 0]) == "▁▁"
        line = sparkline([1, 2, 4, 8], width=3)
        assert len(line) == 3
        assert line[-1] == "█"

    def test_eviction_keeps_the_newest_sessions(self):
        model = ConsoleModel(max_sessions=2)
        bus = EventBus()
        sub = bus.subscribe("trace")
        from repro.obs import span

        for index in range(4):
            with span("session", bus=bus, problem=f"p{index}"):
                pass
        for event in sub.pop_all():
            model.apply(event)
        assert [row.problem for row in model.sessions.values()] == ["p2", "p3"]


class TestSessionTimelines:
    def test_session_timeline_covers_llm_tool_and_simulate_steps(self):
        bus = EventBus()
        trace = bus.subscribe("trace", maxsize=65536)
        # This spec's synthetic candidate compiles, so the repair loop reaches
        # the simulate step (alu_w4's fails at compile and never simulates).
        units = [
            WorkUnit("rechisel", "Claude 3.5 Sonnet", "counter_w4", 1, 0, 0, 6, RECHISEL_KNOBS)
        ]
        serve_units(units, ServiceConfig(max_in_flight=1), bus=bus)
        roots = build_timeline(trace.pop_all())
        sessions = [root for root in roots if root.name == "session"]
        assert len(sessions) == 1
        session = sessions[0]
        assert session.complete
        assert session.attrs["problem"] == "counter_w4"
        child_ops = {child.name for child in session.children}
        assert any(op.startswith("llm.") for op in child_ops), child_ops
        assert any(op.startswith("tool.") for op in child_ops), child_ops
        assert "tool.simulate" in child_ops, child_ops
        # Parent/child integrity: every child's duration fits in the session.
        for child in session.children:
            assert child.complete
            assert child.duration <= session.duration


@pytest.mark.filterwarnings("ignore::DeprecationWarning")
def test_textual_app_shows_live_session_table():
    """Pilot-drive the real TUI over a model fed by a live service run."""
    pytest.importorskip("textual")
    from textual.widgets import DataTable, Static

    from repro.console.app import ConsoleApp

    units = make_units(samples=1)
    bus = EventBus()
    model = ConsoleModel()
    model.attach(bus)
    serve_units(units, ServiceConfig(max_in_flight=4), bus=bus)

    async def drive():
        app = ConsoleApp(model, interval=0.05)
        async with app.run_test(size=(120, 40)) as pilot:
            await pilot.pause(0.3)
            sessions = app.query_one("#sessions", DataTable)
            assert sessions.row_count == len(units)
            caches = app.query_one("#caches", DataTable)
            assert caches.row_count > 0
            headline = app.query_one("#headline", Static)
            assert "done=" in str(headline.renderable)

    try:
        asyncio.run(drive())
    finally:
        model.detach()


class TestResiliencePanel:
    def test_breaker_and_retry_events_populate_the_panel(self):
        from repro.retry import CircuitBreaker, emit_retry

        bus = EventBus()
        model = ConsoleModel()
        model.attach(bus)
        try:
            breaker = CircuitBreaker(1, 3600.0, name="llm", bus=bus)
            breaker.record_failure()
            emit_retry(bus, "campaign", 1, "TransportTimeout", 0.1)
            emit_retry(bus, "llm", 2, "HttpError", 0.2)
            model.pump()
        finally:
            model.detach()
        lines = model.resilience_lines()
        assert any(line.startswith("llm breaker: open") for line in lines)
        assert any("retries=2" in line for line in lines)
        assert "breaker=open" in model.headline()
        assert "resilience:" in model.render()

    def test_live_campaign_feeds_stage_progress_and_budget(self, tmp_path):
        from repro.campaign.config import CampaignConfig
        from repro.campaign.orchestrator import CampaignOrchestrator
        from repro.campaign.spec import default_campaign

        bus = EventBus()
        model = ConsoleModel()
        model.attach(bus)
        try:
            result = CampaignOrchestrator(
                default_campaign(samples=1, fuzz_programs=2),
                CampaignConfig(store_path=str(tmp_path / "store"), chunk_size=2),
                bus=bus,
            ).run()
            model.pump()
        finally:
            model.detach()
        assert result.status == "complete"
        assert model.campaign_id == result.campaign_id
        assert model.campaign_status == "complete"
        lines = "\n".join(model.resilience_lines())
        assert f"campaign {result.campaign_id}: complete" in lines
        assert "llm budget: spent=" in lines
        for stage in ("generate", "fuzz"):
            assert f"stage {stage}: complete" in lines
        assert lines.count("  stage ") == 2

    def test_empty_panel_stays_out_of_render(self):
        model = ConsoleModel()
        assert model.resilience_lines() == []
        assert "resilience:" not in model.render()
