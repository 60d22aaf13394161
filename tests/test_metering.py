"""Every LLM completion is metered, on every path that can make one.

A campaign's or a service's ``llm_budget`` is the only bound on how many LLM
completions a run spends.  This module checks that the bound holds exactly at
each entry point — the campaign CLI, the campaign orchestrator and the
generation service — and that store hits spend nothing.  It also pins that the
supervised worker fleet, whose workers bypassed the budget, is gone from the
knob table, the constructors, the CLI and the event topics, and that the
deleted knobs and arguments of other removed paths (vector lanes, the
campaign priority gate, LLM micro-batching, the service's tool pool, the
result store's segment rotation, the testbench tier knob and the compiled
simulation mode) are rejected.
"""

import dataclasses
import json
from pathlib import Path

import pytest

from repro import settings
from repro.campaign.budget import Budget, BudgetExceeded
from repro.campaign.config import CampaignConfig
from repro.campaign.orchestrator import CampaignOrchestrator
from repro.campaign.spec import default_campaign
from repro.console.model import TOPICS as CONSOLE_TOPICS
from repro.experiments.config import ExperimentConfig
from repro.experiments.executors import SerialExecutor
from repro.experiments.store import ResultStore
from repro.experiments.work import WorkUnit
from repro.llm.dispatch import BatchingDispatcher
from repro.obs import EventBus
from repro.obs.metrics import MetricsSink
from repro.service import ServiceConfig, serve_units
from repro.sim.testbench import run_testbench, run_testbenches
from repro.verilog.simulator import Simulation

EXPERIMENTS_MD = Path(__file__).resolve().parent.parent / "EXPERIMENTS.md"

RECHISEL_KNOBS = (
    ("enable_escape", True),
    ("feedback_detail", "full"),
    ("use_knowledge", True),
)

FLEET_KNOBS = (
    "REPRO_FLEET",
    "REPRO_FLEET_WORKERS",
    "REPRO_FLEET_HEARTBEAT",
    "REPRO_FLEET_HEARTBEAT_MISSES",
    "REPRO_FLEET_LEASE_TIMEOUT",
    "REPRO_FLEET_MAX_RESTARTS",
    "REPRO_FLEET_BACKOFF",
    "REPRO_FLEET_BACKOFF_MAX",
    "REPRO_FLEET_POISON_THRESHOLD",
    "REPRO_FLEET_START_METHOD",
    "REPRO_SERVICE_FLEET_WORKERS",
    "REPRO_CAMPAIGN_FLEET",
)

#: Knobs whose code is gone: the fleet's, the vector lane budget of the
#: deleted cross-candidate batching, the campaign's wait for the deleted
#: priority gate, the LLM micro-batching's, the service's tool pool size, the
#: result store's segment rotation thresholds and the testbench tier knob
#: (``REPRO_SIM_BACKEND`` picks the tier).
DELETED_KNOBS = FLEET_KNOBS + (
    "REPRO_SIM_MAX_LANES",
    "REPRO_CAMPAIGN_PREEMPT_WAIT",
    "REPRO_SERVICE_BATCH_WINDOW",
    "REPRO_SERVICE_MAX_BATCH",
    "REPRO_SERVICE_TOOL_WORKERS",
    "REPRO_STORE_SEGMENT_RECORDS",
    "REPRO_STORE_SEGMENT_BYTES",
    "REPRO_TB_BACKEND",
)


def rechisel_units(samples=6):
    return [
        WorkUnit("rechisel", "GPT-4o mini", "alu_w4", 0, sample, 0, 4, RECHISEL_KNOBS)
        for sample in range(samples)
    ]


def quick_spec():
    return default_campaign(samples=1, fuzz_programs=2, seed=0)


def quick_config(tmp_path, name="store", **kwargs):
    kwargs.setdefault("chunk_size", 2)
    return CampaignConfig(store_path=str(tmp_path / name), **kwargs)


def run_campaign_cli(args, capsys):
    from repro.campaign.__main__ import main

    code = main(args)
    return code, json.loads(capsys.readouterr().out.strip().splitlines()[-1])


class TestCampaignBudget:
    @pytest.mark.parametrize("limit", [1, 2, 5, 10])
    def test_cli_budget_stops_at_exactly_the_limit(self, tmp_path, capsys, limit):
        store = str(tmp_path / "store")
        code, result = run_campaign_cli(
            ["--store", store, "--quick", "--budget", str(limit)], capsys
        )
        assert code == 4
        assert result["status"] == "budget-exhausted"
        assert (result["llm_spent"], result["llm_limit"]) == (limit, limit)

    @pytest.mark.parametrize("chunk_size", [1, 2, 4])
    def test_budget_stop_is_exact_at_any_chunk_size(self, tmp_path, chunk_size):
        config = quick_config(tmp_path, chunk_size=chunk_size, llm_budget=3)
        result = CampaignOrchestrator(quick_spec(), config).run()
        assert result.status == "budget-exhausted"
        assert result.llm_spent == 3

    def test_every_completion_the_campaign_makes_is_charged(self, tmp_path):
        completions = []

        def middleware(client, unit):
            class _Counting:
                def complete(self, messages):
                    reply = client.complete(messages)
                    completions.append(unit)
                    return reply

            return _Counting()

        orchestrator = CampaignOrchestrator(
            quick_spec(), quick_config(tmp_path), client_middleware=middleware
        )
        result = orchestrator.run()
        assert result.status == "complete"
        assert completions and result.llm_spent == len(completions)

    def test_units_run_in_process_on_the_metered_context(self, tmp_path):
        orchestrator = CampaignOrchestrator(quick_spec(), quick_config(tmp_path))
        try:
            executor = orchestrator.engine._executor
            assert isinstance(executor, SerialExecutor)
            assert executor.context is orchestrator._context
        finally:
            orchestrator.close()

    def test_rerun_from_the_store_spends_nothing(self, tmp_path, capsys):
        store = str(tmp_path / "store")
        first_code, first = run_campaign_cli(["--store", store, "--quick"], capsys)
        assert first_code == 0 and first["llm_spent"] > 0
        code, result = run_campaign_cli(["--store", store, "--quick", "--budget", "0"], capsys)
        assert code == 0 and result["status"] == "complete"
        assert result["executed"] == 0


class TestServiceBudget:
    @pytest.mark.parametrize("max_in_flight", [1, 4])
    @pytest.mark.parametrize("limit", [1, 3, 5])
    def test_budget_stops_at_exactly_the_limit_at_any_concurrency(self, limit, max_in_flight):
        budget = Budget(limit=limit)
        with pytest.raises(BudgetExceeded):
            serve_units(
                rechisel_units(), ServiceConfig(max_in_flight=max_in_flight, llm_budget=budget)
            )
        assert budget.spent == limit

    def test_unlimited_budget_counts_every_llm_call(self):
        budget = Budget()
        payloads, snapshot = serve_units(
            rechisel_units(), ServiceConfig(max_in_flight=2, llm_budget=budget)
        )
        assert len(payloads) == 6
        assert budget.spent == snapshot.llm_calls > 0

    def test_store_hits_are_served_without_spending(self, tmp_path):
        path = str(tmp_path / "store")
        units = rechisel_units(samples=3)
        first, _ = serve_units(units, ServiceConfig(store_path=path, llm_budget=Budget()))
        budget = Budget(limit=0)
        again, snapshot = serve_units(units, ServiceConfig(store_path=path, llm_budget=budget))
        assert again == first
        assert snapshot.store_hits == len(units)
        assert budget.spent == 0


class TestNoFleetSurface:
    @pytest.mark.parametrize("name", DELETED_KNOBS)
    def test_fleet_knob_is_neither_a_setting_nor_documented(self, name):
        with pytest.raises(KeyError):
            settings.read(name)
        assert name not in EXPERIMENTS_MD.read_text()

    @pytest.mark.parametrize(
        "build",
        [
            lambda: ExperimentConfig(fleet=True),
            lambda: ServiceConfig(fleet_workers=2),
            lambda: CampaignConfig(fleet=2),
            lambda: CampaignOrchestrator(quick_spec(), CampaignConfig(), executor=None),
            lambda: CampaignConfig(preempt_wait=1.0),
            lambda: CampaignOrchestrator(quick_spec(), CampaignConfig(), gate=None),
            lambda: ServiceConfig(batch_window=0.01),
            lambda: ServiceConfig(max_batch=4),
            lambda: ServiceConfig(per_profile_limit=2),
            lambda: BatchingDispatcher(max_batch=4),
            lambda: ServiceConfig(tool_workers=1),
            lambda: ResultStore("unopened-store", segment_records=2),
            lambda: run_testbench(None, None, None, backend="trace"),
            lambda: run_testbenches([], backend="trace"),
            lambda: Simulation(None, backend="compiled"),
        ],
        ids=["ExperimentConfig.fleet", "ServiceConfig.fleet_workers", "CampaignConfig.fleet",
             "CampaignOrchestrator.executor", "CampaignConfig.preempt_wait",
             "CampaignOrchestrator.gate", "ServiceConfig.batch_window",
             "ServiceConfig.max_batch", "ServiceConfig.per_profile_limit",
             "BatchingDispatcher.max_batch", "ServiceConfig.tool_workers",
             "ResultStore.segment_records", "run_testbench.backend",
             "run_testbenches.backend", "Simulation.backend"],
    )
    def test_fleet_arguments_are_rejected(self, build):
        with pytest.raises(TypeError):
            build()

    @pytest.mark.parametrize("raw", ["0", "2"])
    def test_campaign_cli_rejects_the_fleet_flag(self, tmp_path, capsys, raw):
        from repro.campaign.__main__ import main

        with pytest.raises(SystemExit) as exit_info:
            main(["--store", str(tmp_path / "store"), "--quick", "--fleet", raw])
        assert exit_info.value.code == 2
        assert "unrecognized arguments: --fleet" in capsys.readouterr().err

    def test_service_snapshot_has_no_fleet_report(self):
        _, snapshot = serve_units(rechisel_units(samples=1), ServiceConfig(max_in_flight=2))
        assert not hasattr(snapshot, "fleet")
        assert "fleet" not in snapshot.render()

    def test_fleet_topic_reaches_neither_metrics_nor_console(self):
        assert "fleet" not in MetricsSink.TOPICS and "fleet" not in CONSOLE_TOPICS
        bus = EventBus()
        sink = MetricsSink().attach(bus)
        before = sink.registry.render()
        bus.publish("fleet", "health", alive=2)
        assert sink.pump() == 0
        assert sink.registry.render() == before

    def test_campaign_publishes_no_degrade_event(self, tmp_path):
        bus = EventBus()
        subscription = bus.subscribe("campaign")
        result = CampaignOrchestrator(quick_spec(), quick_config(tmp_path), bus=bus).run()
        assert result.status == "complete"
        assert "degrade" not in {event.name for event in subscription.pop_all()}


def test_experiment_config_has_one_executor_knob():
    fields = {field.name for field in dataclasses.fields(ExperimentConfig)}
    assert "jobs" in fields and not any("fleet" in name for name in fields)
