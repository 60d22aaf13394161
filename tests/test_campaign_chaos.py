"""Stack-wide chaos matrix: every fault class converges to fault-free results.

Each test injects one fault class — LLM transport faults, store write faults,
torn tail records, event-bus overload — into a full campaign
and asserts the store and stage digests are bit-identical to an uninterrupted
fault-free run of the same spec.  The remaining class, orchestrator SIGKILL,
lives in ``test_campaign_resume.py`` (it needs a subprocess).

Determinism invariants that make this possible:

* injected faults raise *before* the wrapped client runs, so the synthetic
  LLM's RNG never advances on a faulted call;
* faults raise *outside* :class:`MeteredClient`, so a faulted call is never
  charged against the budget;
* the store is the unit frontier — replays hit the memo/store tier and the
  first-wins log keeps whichever record landed first.
"""

import pytest

from chaos import (
    FAULT_KINDS,
    FaultPlan,
    FaultyClient,
    FlakyStore,
    chaos_middleware,
    overload_bus,
    tear_store_tail,
)
from repro.campaign.checkpoint import ResilientStore, store_unit_digest
from repro.campaign.config import CampaignConfig
from repro.campaign.orchestrator import CampaignOrchestrator
from repro.campaign.spec import default_campaign
from repro.obs import EventBus
from repro.retry import CircuitBreaker

pytestmark = pytest.mark.chaos


def chaos_spec():
    return default_campaign(samples=1, fuzz_programs=2, seed=3)


def chaos_config(tmp_path, name, **kwargs):
    kwargs.setdefault("chunk_size", 1)
    kwargs.setdefault("unit_retries", 6)
    return CampaignConfig(store_path=str(tmp_path / name), **kwargs)


@pytest.fixture()
def reference(tmp_path):
    """Fault-free oracle: digests and spend of an unperturbed campaign."""
    result = CampaignOrchestrator(chaos_spec(), chaos_config(tmp_path, "ref")).run()
    assert result.status == "complete"
    return {
        "result": result,
        "digests": [s["result"]["digest"] for s in result.stages],
        "units": store_unit_digest(str(tmp_path / "ref")),
    }


def assert_identical(tmp_path, name, result, reference):
    assert result.status == "complete"
    assert [s["result"]["digest"] for s in result.stages] == reference["digests"]
    assert store_unit_digest(str(tmp_path / name)) == reference["units"]


class TestLlmTransportChaos:
    def test_fault_plan_schedule_is_seeded(self):
        plan_a = FaultPlan(rate=0.5, seed=11, limit=8)
        plan_b = FaultPlan(rate=0.5, seed=11, limit=8)
        schedule_a = [plan_a.next_fault() for _ in range(30)]
        assert schedule_a == [plan_b.next_fault() for _ in range(30)]
        assert sum(1 for kind in schedule_a if kind) == 8
        assert {kind for kind in schedule_a if kind} <= set(FAULT_KINDS)

    @pytest.mark.parametrize(
        "kwargs, message",
        [
            ({"rate": -0.1}, "rate must be in"),
            ({"rate": 1.5}, "rate must be in"),
            ({"kinds": ("meteor-strike",)}, "unknown fault kind"),
        ],
    )
    def test_fault_plan_rejects_bad_arguments(self, kwargs, message):
        with pytest.raises(ValueError, match=message):
            FaultPlan(**kwargs)

    def test_faulty_client_raises_before_inner_call(self):
        calls = []

        class _Inner:
            def complete(self, messages):
                calls.append(messages)
                return "ok"

        client = FaultyClient(_Inner(), FaultPlan(rate=1.0, limit=1))
        with pytest.raises(Exception):
            client.complete(["hello"])
        assert calls == []  # the inner RNG never advanced
        assert client.complete(["hello"]) == "ok"

    def test_transport_faults_converge_bit_identically(self, tmp_path, reference):
        plan = FaultPlan(rate=0.35, seed=5, limit=10)
        result = CampaignOrchestrator(
            chaos_spec(),
            chaos_config(tmp_path, "llm"),
            client_middleware=chaos_middleware(plan),
            breaker=CircuitBreaker(2, 0.05, name="llm"),
        ).run()
        assert_identical(tmp_path, "llm", result, reference)
        assert plan.snapshot()["injected"] > 0
        # A faulted call itself is never charged (the fault raises outside the
        # budget meter), but a retried multi-call unit re-charges its earlier
        # successful calls — so spend is bounded below by the fault-free bill.
        assert result.llm_spent >= reference["result"].llm_spent

    def test_breaker_opens_under_fault_burst(self, tmp_path, reference):
        bus = EventBus()
        subscription = bus.subscribe("llm.breaker")
        result = CampaignOrchestrator(
            chaos_spec(),
            chaos_config(tmp_path, "burst"),
            client_middleware=chaos_middleware(FaultPlan(rate=1.0, seed=1, limit=4)),
            breaker=CircuitBreaker(2, 0.05, name="llm", bus=bus),
            bus=bus,
        ).run()
        assert_identical(tmp_path, "burst", result, reference)
        names = [event.name for event in subscription.pop_all()]
        assert "open" in names and "close" in names
        assert result.breaker["opens"] >= 1


    @pytest.mark.parametrize("kind", FAULT_KINDS)
    def test_each_fault_kind_converges_and_is_never_charged(self, tmp_path, reference, kind):
        plan = FaultPlan(rate=0.35, kinds=(kind,), seed=5, limit=6)
        result = CampaignOrchestrator(
            chaos_spec(),
            chaos_config(tmp_path, kind),
            client_middleware=chaos_middleware(plan),
        ).run()
        assert_identical(tmp_path, kind, result, reference)
        faults = plan.snapshot()
        assert faults["injected"] > 0
        # The meter sits inside the fault layer: exactly the calls that got
        # past it were charged.
        assert result.llm_spent == faults["calls"] - faults["injected"]


class TestStoreChaos:
    def test_enospc_bursts_are_buffered_and_flushed(self, tmp_path, reference):
        flaky = {}

        def wrapper(store):
            flaky["store"] = FlakyStore(store, rate=0.3, seed=9, limit=12)
            return ResilientStore(flaky["store"])

        result = CampaignOrchestrator(
            chaos_spec(),
            chaos_config(tmp_path, "enospc"),
            store_wrapper=wrapper,
        ).run()
        assert_identical(tmp_path, "enospc", result, reference)
        assert flaky["store"].injected > 0

    def test_torn_tail_is_truncated_on_resume(self, tmp_path, reference):
        config = chaos_config(tmp_path, "torn", llm_budget=4)
        stopped = CampaignOrchestrator(chaos_spec(), config).run()
        assert stopped.status == "budget-exhausted"
        tear_store_tail(config.store_path)
        resumed = CampaignOrchestrator(
            chaos_spec(), chaos_config(tmp_path, "torn")
        ).run()
        assert_identical(tmp_path, "torn", resumed, reference)


class TestBusChaos:
    def test_overloaded_bus_never_blocks_the_campaign(self, tmp_path, reference):
        bus = EventBus()
        jammed = overload_bus(bus, maxsize=1)
        result = CampaignOrchestrator(
            chaos_spec(), chaos_config(tmp_path, "bus"), bus=bus
        ).run()
        assert_identical(tmp_path, "bus", result, reference)
        assert jammed.dropped > 0  # the slow consumer lost events, not the run


class TestCombinedChaos:
    def test_everything_at_once_still_converges(self, tmp_path, reference):
        bus = EventBus()
        overload_bus(bus, maxsize=1)
        result = CampaignOrchestrator(
            chaos_spec(),
            chaos_config(tmp_path, "all"),
            client_middleware=chaos_middleware(FaultPlan(rate=0.25, seed=13, limit=8)),
            store_wrapper=lambda s: ResilientStore(FlakyStore(s, rate=0.25, seed=13, limit=8)),
            breaker=CircuitBreaker(2, 0.05, name="llm", bus=bus),
            bus=bus,
        ).run()
        assert_identical(tmp_path, "all", result, reference)
        assert result.llm_spent >= reference["result"].llm_spent
