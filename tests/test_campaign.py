"""Unit and integration tests for the fault-tolerant campaign orchestrator.

Covers the control primitives (budget, deadline, cancel), the unified
retry/breaker module, store meta records and manifest checkpoints, the
ResilientStore write-fault buffer, and whole-campaign orchestration:
complete runs, zero-replay resumes, drain and deadline/budget stops.
Crash (SIGKILL) resumes live in
``test_campaign_resume.py`` and the fault matrix in ``test_campaign_chaos.py``.
"""

import json
import os
import subprocess
import sys
import textwrap
import threading
import time
from pathlib import Path

import pytest

from repro.campaign.budget import (
    Budget,
    BudgetExceeded,
    CampaignCancelled,
    CancelToken,
    Deadline,
    DeadlineExceeded,
    MeteredClient,
)
from repro.campaign.checkpoint import (
    CheckpointLog,
    ResilientStore,
    list_campaigns,
    payload_digest,
    store_unit_digest,
)
from chaos import FlakyStore
from repro.campaign.config import CampaignConfig
from repro.campaign.orchestrator import CampaignOrchestrator
from repro.campaign.spec import (
    KIND_FUZZ,
    KIND_SWEEP,
    CampaignSpec,
    StageSpec,
    default_campaign,
    sweep_units,
)
from repro.experiments.store import ResultStore
from repro.experiments.work import WorkUnit
from repro.obs import EventBus
from repro.retry import (
    BackoffPolicy,
    BreakerOpenError,
    CircuitBreaker,
    HttpError,
    MalformedResponseError,
    RetryPolicy,
    TransportTimeout,
    emit_retry,
    is_transport_fault,
    seeded_rng,
)


def quick_spec(seed=0, samples=1, fuzz_programs=2):
    return default_campaign(samples=samples, fuzz_programs=fuzz_programs, seed=seed)


def quick_config(tmp_path, name="store", **kwargs):
    kwargs.setdefault("chunk_size", 2)
    return CampaignConfig(store_path=str(tmp_path / name), **kwargs)


# --------------------------------------------------------------------- spec


class TestCampaignSpec:
    def test_round_trips_through_json(self):
        spec = quick_spec()
        document = json.loads(json.dumps(spec.to_dict()))
        assert CampaignSpec.from_dict(document) == spec
        assert CampaignSpec.from_dict(document).campaign_id == spec.campaign_id

    def test_campaign_id_is_content_addressed(self):
        assert quick_spec(seed=0).campaign_id == quick_spec(seed=0).campaign_id
        assert quick_spec(seed=0).campaign_id != quick_spec(seed=1).campaign_id

    def test_stage_names_must_be_unique(self):
        with pytest.raises(ValueError, match="unique"):
            CampaignSpec(
                "dup",
                stages=(StageSpec("a", KIND_SWEEP), StageSpec("a", KIND_FUZZ)),
            )

    @pytest.mark.parametrize("kind", ["mystery", "report", "benchmark"])
    def test_unknown_stage_kind_rejected(self, kind):
        with pytest.raises(ValueError, match="unknown stage kind"):
            StageSpec("x", kind)

    def test_default_campaign_is_generate_then_fuzz(self):
        assert [(stage.name, stage.kind) for stage in quick_spec().stages] == [
            ("generate", KIND_SWEEP),
            ("fuzz", KIND_FUZZ),
        ]

    def test_sweep_units_are_deterministic_and_zero_shot_is_single_shot(self):
        stage = quick_spec().stage("generate")
        first = sweep_units(stage, 0)
        second = sweep_units(stage, 0)
        assert first == second
        assert all(
            unit.max_iterations == 0 for unit in first if unit.strategy == "zero_shot"
        )

    def test_sweep_units_rejects_unknown_strategy(self):
        stage = StageSpec("bad", KIND_SWEEP, {"strategies": ["telepathy"]})
        with pytest.raises(ValueError, match="telepathy"):
            sweep_units(stage, 0)


class TestCampaignConfig:
    @pytest.mark.parametrize(
        "field, value",
        [
            ("chunk_size", 0),
            ("deadline", 0),
            ("llm_budget", -1),
            ("unit_retries", -1),
            ("checkpoint_every", 0),
        ],
    )
    def test_each_out_of_range_field_is_rejected_by_name(self, field, value):
        with pytest.raises(ValueError, match=field):
            CampaignConfig(**{field: value})


# ------------------------------------------------------------ control primitives


class _StubClient:
    def __init__(self):
        self.calls = 0

    def complete(self, messages):
        self.calls += 1
        return "ok"


class TestBudget:
    def test_charges_until_limit_then_raises_without_spending(self):
        budget = Budget(limit=2)
        budget.charge()
        budget.charge()
        with pytest.raises(BudgetExceeded):
            budget.charge()
        assert budget.spent == 2
        assert budget.remaining() == 0

    def test_unlimited_budget_still_counts_spend(self):
        budget = Budget()
        for _ in range(5):
            budget.charge()
        assert budget.spent == 5
        assert budget.remaining() is None

    def test_seeded_spend_spans_resumes(self):
        budget = Budget(limit=10, spent=9)
        budget.charge()
        with pytest.raises(BudgetExceeded):
            budget.charge()
        assert budget.spent == 10


class TestDeadlineAndCancel:
    def test_deadline_expires_on_fake_clock(self):
        now = [0.0]
        deadline = Deadline(5.0, clock=lambda: now[0])
        deadline.check()
        now[0] = 5.1
        assert deadline.expired()
        with pytest.raises(DeadlineExceeded):
            deadline.check()

    def test_none_deadline_never_expires(self):
        deadline = Deadline(None)
        assert deadline.remaining() is None
        deadline.check()

    def test_cancel_token_is_sticky_with_reason(self):
        token = CancelToken()
        token.check()
        token.set("drain please")
        token.set("second reason ignored")
        assert token.is_set
        with pytest.raises(CampaignCancelled, match="drain please"):
            token.check()

    def test_cancel_token_wait_times_out_while_unset(self):
        token = CancelToken()
        started = time.monotonic()
        assert token.wait(0.05) is False
        assert time.monotonic() - started >= 0.04
        assert not token.is_set

    def test_cancel_token_wait_returns_at_once_when_already_set(self):
        token = CancelToken()
        token.set("drain")
        started = time.monotonic()
        assert token.wait(30.0) is True
        assert time.monotonic() - started < 5.0

    def test_cancel_token_wait_wakes_when_another_thread_sets_it(self):
        token = CancelToken()
        setter = threading.Timer(0.05, token.set, args=("from a thread",))
        setter.start()
        started = time.monotonic()
        try:
            assert token.wait(30.0) is True
        finally:
            setter.join()
        assert time.monotonic() - started < 10.0
        assert token.reason == "from a thread"

    def test_cancel_token_set_by_a_signal_inside_wait_does_not_deadlock(self):
        # A SIGTERM drain handler runs on the thread it interrupts, which may
        # be inside the token's own wait() (the campaign's throttle); a
        # non-reentrant lock there hangs the process.  Fire the signal at
        # many points of short waits; faulthandler exits a hung child.
        script = textwrap.dedent(
            """
            import faulthandler, signal
            from repro.campaign.budget import CancelToken
            faulthandler.dump_traceback_later(30, exit=True)
            for trial in range(1500):
                token = CancelToken()
                signal.signal(signal.SIGALRM, lambda s, f: token.set("alarm"))
                signal.setitimer(signal.ITIMER_REAL, 0.001 + (trial % 7) * 0.0003)
                while not token.is_set:
                    token.wait(0.00001)
                assert token.reason == "alarm"
            print("done")
            """
        )
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ, PYTHONPATH=src)
        completed = subprocess.run(
            [sys.executable, "-c", script],
            env=env,
            capture_output=True,
            text=True,
            timeout=90,
        )
        assert completed.returncode == 0, completed.stderr[-2000:]
        assert completed.stdout.strip() == "done"

    def test_metered_client_refuses_before_touching_inner(self):
        inner = _StubClient()
        client = MeteredClient(inner, budget=Budget(limit=1))
        client.complete([])
        with pytest.raises(BudgetExceeded):
            client.complete([])
        assert inner.calls == 1  # the refused call never reached the inner client


# ---------------------------------------------------------------- retry module


class TestRetryPrimitives:
    def test_backoff_policy_is_capped_exponential(self):
        policy = BackoffPolicy(base=0.1, factor=2.0, cap=0.5)
        assert [policy.delay(k) for k in range(1, 5)] == [0.1, 0.2, 0.4, 0.5]

    def test_retry_policy_jitter_is_seed_deterministic(self):
        policy = RetryPolicy(base_delay=0.1, max_delay=1.0, jitter=0.5)
        first = [policy.delay(k, seeded_rng("t", 1)) for k in (1, 2, 3)]
        second = [policy.delay(k, seeded_rng("t", 1)) for k in (1, 2, 3)]
        assert first == second
        for attempt, delay in enumerate(first, start=1):
            base = min(1.0, 0.1 * 2 ** (attempt - 1))
            assert base * 0.75 <= delay <= base * 1.25

    def test_transport_fault_taxonomy(self):
        assert is_transport_fault(TransportTimeout("t"))
        assert is_transport_fault(HttpError(503))
        assert is_transport_fault(MalformedResponseError("m"))
        assert is_transport_fault(TimeoutError())
        assert is_transport_fault(ConnectionError())
        assert not is_transport_fault(BreakerOpenError("open"))
        assert not is_transport_fault(ValueError("v"))

    def test_emit_retry_publishes_tagged_event(self):
        bus = EventBus()
        subscription = bus.subscribe("retry")
        emit_retry(bus, "campaign", 2, "TransportTimeout", 0.25)
        events = subscription.pop_all()
        assert len(events) == 1
        assert events[0].name == "attempt"
        assert events[0].attrs["source"] == "campaign"
        assert events[0].attrs["attempt"] == 2


class TestCircuitBreaker:
    def make(self, bus=None, threshold=3, cooldown=10.0, probes=1):
        now = [0.0]
        breaker = CircuitBreaker(
            threshold, cooldown, probes, name="llm", bus=bus, clock=lambda: now[0]
        )
        return breaker, now

    def test_opens_after_threshold_consecutive_failures(self):
        breaker, _ = self.make()
        for _ in range(2):
            breaker.record_failure()
        assert breaker.state == "closed" and breaker.allow()
        breaker.record_failure()
        assert breaker.state == "open"
        assert not breaker.allow()
        assert breaker.snapshot()["rejections"] == 1

    def test_half_open_probe_success_closes(self):
        breaker, now = self.make()
        for _ in range(3):
            breaker.record_failure()
        now[0] = 10.0
        assert breaker.state == "half-open"
        assert breaker.allow()  # claims the single probe slot
        assert not breaker.allow()  # second caller rejected while probing
        breaker.record_success()
        assert breaker.state == "closed"
        assert breaker.allow()

    def test_half_open_probe_failure_reopens(self):
        breaker, now = self.make()
        for _ in range(3):
            breaker.record_failure()
        now[0] = 10.0
        assert breaker.allow()
        breaker.record_failure()
        assert breaker.state == "open"
        assert breaker.snapshot()["opens"] == 2

    def test_success_resets_failure_streak(self):
        breaker, _ = self.make()
        breaker.record_failure()
        breaker.record_failure()
        breaker.record_success()
        breaker.record_failure()
        assert breaker.state == "closed"

    def test_transitions_publish_breaker_events(self):
        bus = EventBus()
        subscription = bus.subscribe("llm.breaker")
        breaker, now = self.make(bus=bus)
        for _ in range(3):
            breaker.record_failure()
        now[0] = 10.0
        assert breaker.allow()
        breaker.record_success()
        names = [event.name for event in subscription.pop_all()]
        assert names == ["open", "half-open", "close"]

    def test_from_environment_disable_and_tuning(self, monkeypatch):
        monkeypatch.setenv("REPRO_BREAKER_THRESHOLD", "0")
        assert CircuitBreaker.from_environment() is None
        monkeypatch.setenv("REPRO_BREAKER_THRESHOLD", "7")
        monkeypatch.setenv("REPRO_BREAKER_COOLDOWN", "2.5")
        breaker = CircuitBreaker.from_environment()
        assert breaker.threshold == 7 and breaker.cooldown == 2.5


# ----------------------------------------------------------- store meta records


class TestStoreMeta:
    def test_meta_records_are_separate_from_units(self, tmp_path):
        store = ResultStore(str(tmp_path / "store"))
        store.put_meta("campaign/x/manifest/00000001", {"status": "running"})
        assert store.get_meta("campaign/x/manifest/00000001") == {"status": "running"}
        assert store.get("campaign/x/manifest/00000001") is None
        assert store.unit_fingerprints() == []
        assert store.meta_keys() == ["campaign/x/manifest/00000001"]
        store.close()

    def test_meta_survives_reopen_and_is_first_wins(self, tmp_path):
        path = str(tmp_path / "store")
        store = ResultStore(path)
        store.put_meta("k", {"value": 1})
        store.put_meta("k", {"value": 2})  # first-wins, like unit records
        store.close()
        reopened = ResultStore(path)
        assert reopened.get_meta("k") == {"value": 1}
        reopened.close()

    def test_meta_keys_prefix_filter(self, tmp_path):
        store = ResultStore(str(tmp_path / "store"))
        store.put_meta("campaign/a/manifest/00000001", {})
        store.put_meta("campaign/b/manifest/00000001", {})
        store.put_meta("other/key", {})
        assert store.meta_keys("campaign/a/") == ["campaign/a/manifest/00000001"]
        assert len(store.meta_keys()) == 3
        store.close()


class TestCheckpointLog:
    def test_versions_are_monotonic_and_newest_wins(self, tmp_path):
        store = ResultStore(str(tmp_path / "store"))
        log = CheckpointLog(store, "abc")
        assert log.load_latest() is None
        assert log.save({"status": "running"}) == 1
        assert log.save({"status": "complete"}) == 2
        fresh = CheckpointLog(store, "abc")
        manifest = fresh.load_latest()
        assert manifest["status"] == "complete" and manifest["seq"] == 2
        assert list_campaigns(store) == ["abc"]
        store.close()

    def test_payload_digest_is_order_sensitive(self):
        a = [{"x": 1}, {"x": 2}]
        assert payload_digest(a) == payload_digest([{"x": 1}, {"x": 2}])
        assert payload_digest(a) != payload_digest(list(reversed(a)))


class TestResilientStore:
    def test_buffers_failed_writes_and_flushes_when_fault_clears(self, tmp_path):
        inner = ResultStore(str(tmp_path / "store"))
        flaky = FlakyStore(inner, rate=1.0, limit=2)  # first two writes fail
        store = ResilientStore(flaky)
        unit = WorkUnit("zero_shot", "GPT-4o mini", "alu_w4", 0, 0, 0, 0)
        store.put_meta("a", {"n": 1})
        store.put("f" * 8, unit, {"n": 2})
        # The second write queues behind the backlog without a fresh fault.
        assert store.buffered == 2 and store.write_faults == 1
        # Parked records are visible to the writer process.
        assert store.get_meta("a") == {"n": 1}
        assert store.get("f" * 8) == {"n": 2}
        assert "a" in store.meta_keys()
        assert store.flush() == 0
        assert inner.get_meta("a") == {"n": 1} and inner.get("f" * 8) == {"n": 2}
        inner.close()

    def test_backlog_is_bounded(self, tmp_path):
        inner = ResultStore(str(tmp_path / "store"))
        store = ResilientStore(FlakyStore(inner, rate=1.0), max_buffered=2)
        store.put_meta("a", {})
        store.put_meta("b", {})
        with pytest.raises(OSError, match="backlog"):
            store.put_meta("c", {})
        inner.close()


# ------------------------------------------------------------- orchestration


class TestOrchestrator:
    def test_campaign_completes_all_stages(self, tmp_path):
        result = CampaignOrchestrator(quick_spec(), quick_config(tmp_path)).run()
        assert result.status == "complete"
        assert [stage["status"] for stage in result.stages] == ["complete"] * 2
        assert result.executed > 0
        assert result.llm_spent > 0
        generate = result.stage("generate")["result"]
        # One zero-shot and one ReChisel unit, both run fresh.
        assert (generate["total"], generate["executed"], generate["reused"]) == (2, 2, 0)
        assert "preemptions" not in result.to_dict()

    def test_rerun_replays_zero_units_and_keeps_digests(self, tmp_path):
        config = quick_config(tmp_path)
        first = CampaignOrchestrator(quick_spec(), config).run()
        second = CampaignOrchestrator(quick_spec(), config).run()
        assert second.status == "complete"
        assert second.resumed is True
        assert second.executed == 0  # nothing replayed
        assert [s["result"]["digest"] for s in second.stages] == [
            s["result"]["digest"] for s in first.stages
        ]
        assert second.llm_spent == first.llm_spent  # purse spans resumes

    def test_two_stores_same_spec_are_bit_identical(self, tmp_path):
        config_a = quick_config(tmp_path, "a")
        config_b = quick_config(tmp_path, "b", chunk_size=1)
        result_a = CampaignOrchestrator(quick_spec(), config_a).run()
        result_b = CampaignOrchestrator(quick_spec(), config_b).run()
        assert [s["result"]["digest"] for s in result_a.stages] == [
            s["result"]["digest"] for s in result_b.stages
        ]
        assert store_unit_digest(config_a.store_path) == store_unit_digest(
            config_b.store_path
        )

    def test_drain_checkpoints_and_resume_converges(self, tmp_path):
        config = quick_config(tmp_path, chunk_size=1)
        cell = {}
        calls = {"n": 0}

        def middleware(client, unit):
            class _Trigger:
                def complete(self, messages):
                    calls["n"] += 1
                    if calls["n"] == 3:
                        cell["orch"].request_drain("test drain")
                    return client.complete(messages)

            return _Trigger()

        orchestrator = CampaignOrchestrator(
            quick_spec(), config, client_middleware=middleware
        )
        cell["orch"] = orchestrator
        drained = orchestrator.run()
        assert drained.status == "drained"
        assert drained.checkpoint_seq > 0

        resumed = CampaignOrchestrator(quick_spec(), config).run()
        assert resumed.status == "complete"
        # Bit-identical to a fault-free campaign in a fresh store.
        reference = quick_config(tmp_path, "ref")
        CampaignOrchestrator(quick_spec(), reference).run()
        assert store_unit_digest(config.store_path) == store_unit_digest(
            reference.store_path
        )

    def test_deadline_stops_then_resume_completes(self, tmp_path):
        config = quick_config(tmp_path, deadline=0.001, throttle=0.01)
        stopped = CampaignOrchestrator(quick_spec(), config).run()
        assert stopped.status == "deadline-exceeded"
        relaxed = quick_config(tmp_path)
        finished = CampaignOrchestrator(quick_spec(), relaxed).run()
        assert finished.status == "complete"

    def test_budget_stops_then_resume_spends_the_difference(self, tmp_path):
        reference = CampaignOrchestrator(quick_spec(), quick_config(tmp_path, "ref")).run()
        config = quick_config(tmp_path, llm_budget=3)
        stopped = CampaignOrchestrator(quick_spec(), config).run()
        assert stopped.status == "budget-exhausted"
        assert stopped.llm_spent <= 3
        relaxed = quick_config(tmp_path)
        finished = CampaignOrchestrator(quick_spec(), relaxed).run()
        assert finished.status == "complete"
        # The purse carries across resumes.  A unit interrupted mid-dialogue
        # re-runs from scratch, so total spend can exceed the fault-free bill
        # by at most one unit's conversation — never undercount it.
        assert finished.llm_spent >= reference.llm_spent
        assert [s["result"]["digest"] for s in finished.stages] == [
            s["result"]["digest"] for s in reference.stages
        ]

    def test_campaign_events_flow_on_the_bus(self, tmp_path):
        bus = EventBus()
        subscription = bus.subscribe("campaign")
        result = CampaignOrchestrator(quick_spec(), quick_config(tmp_path), bus=bus).run()
        assert result.status == "complete"
        names = {event.name for event in subscription.pop_all()}
        assert {"start", "stage", "progress", "checkpoint", "budget", "complete"} <= names

    def test_resume_classmethod_restores_spec_from_manifest(self, tmp_path):
        config = quick_config(tmp_path)
        first = CampaignOrchestrator(quick_spec(), config).run()
        orchestrator = CampaignOrchestrator.resume(first.campaign_id, config)
        assert orchestrator.spec == quick_spec()
        result = orchestrator.run()
        assert result.status == "complete" and result.executed == 0

    def test_resume_unknown_campaign_raises(self, tmp_path):
        config = quick_config(tmp_path)
        store = ResultStore(config.store_path)
        store.close()
        with pytest.raises(KeyError):
            CampaignOrchestrator.resume("feedfacecafe", config)

    def test_resume_rejects_a_manifest_with_an_unknown_stage_kind(self, tmp_path):
        config = quick_config(tmp_path)
        spec = quick_spec().to_dict()
        spec["stages"].insert(1, {"name": "verify", "kind": "report", "params": {}})
        store = ResultStore(config.store_path)
        CheckpointLog(store, "0ldcampaign0").save({"spec": spec, "status": "running"})
        store.close()
        with pytest.raises(ValueError, match="unknown stage kind 'report'"):
            CampaignOrchestrator.resume("0ldcampaign0", config)


class TestCampaignCli:
    def run_cli(self, args):
        from repro.campaign.__main__ import main

        return main(args)

    def test_quick_campaign_runs_and_reruns_reuse(self, tmp_path, capsys):
        store = str(tmp_path / "store")
        assert self.run_cli(["--store", store, "--quick", "--samples", "1"]) == 0
        first = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert first["status"] == "complete"
        assert self.run_cli(["--store", store, "--quick", "--samples", "1"]) == 0
        second = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert second["executed"] == 0 and second["resumed"] is True

    def test_list_and_resume(self, tmp_path, capsys):
        store = str(tmp_path / "store")
        self.run_cli(["--store", store, "--quick", "--samples", "1"])
        result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert self.run_cli(["--store", store, "--list"]) == 0
        assert result["campaign"] in capsys.readouterr().out
        assert self.run_cli(["--store", store, "--resume", result["campaign"]]) == 0
        resumed = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert resumed["executed"] == 0

    def test_budget_stop_exit_code(self, tmp_path, capsys):
        store = str(tmp_path / "store")
        code = self.run_cli(
            ["--store", store, "--quick", "--samples", "1", "--budget", "2"]
        )
        assert code == 4
        result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert result["status"] == "budget-exhausted"

    @pytest.mark.parametrize(
        "flag, raw, rule",
        [
            ("--budget", "-1", "an integer >= 0"),
            ("--chunk", "0", "an integer >= 1"),
            ("--throttle", "-0.5", "a number >= 0"),
            ("--samples", "0", "an integer >= 1"),
            ("--deadline", "-5", "a number >= 0 (0 disables)"),
            ("--deadline", "inf", "a number >= 0 (0 disables)"),
        ],
    )
    def test_bad_flag_values_are_usage_errors(self, tmp_path, capsys, flag, raw, rule):
        with pytest.raises(SystemExit) as exit_info:
            self.run_cli(["--store", str(tmp_path / "store"), "--list", flag, raw])
        assert exit_info.value.code == 2
        assert f"{flag} must be {rule}, got '{raw}'" in capsys.readouterr().err

    def test_flags_override_the_environment_and_zero_deadline_is_off(self, monkeypatch):
        from repro.campaign.__main__ import _build_config, build_parser

        monkeypatch.setenv("REPRO_CAMPAIGN_DEADLINE", "30")
        monkeypatch.setenv("REPRO_CAMPAIGN_CHUNK", "3")

        def config(*flags):
            return _build_config(build_parser().parse_args(["--store", "s", *flags]))

        assert (config().deadline, config().chunk_size) == (30.0, 3)
        assert config("--deadline", "0").deadline is None
        assert config("--deadline", "2.5", "--chunk", "1").chunk_size == 1
        assert config("--budget", "0").llm_budget == 0

    def test_missing_store_is_usage_error(self, monkeypatch):
        monkeypatch.delenv("REPRO_CAMPAIGN_STORE", raising=False)
        monkeypatch.delenv("REPRO_RESULT_STORE", raising=False)
        assert self.run_cli(["--quick"]) == 2
