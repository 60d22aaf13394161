"""Tests for the supervised generation fleet: ring, config, executor, wiring.

Fault-injection scenarios (crashes, hangs, poison jobs, degradation) live in
``tests/test_fleet_chaos.py``; this module covers the fault-free contract —
routing determinism, configuration, and bit-identity with the serial path.
"""

import dataclasses
import os

import pytest

from repro.experiments.config import ExperimentConfig
from repro.experiments.engine import SweepEngine
from repro.experiments.executors import SerialExecutor
from repro.experiments.work import WorkerContext, WorkUnit
from repro.fleet import FleetConfig, FleetExecutor, FleetSupervisor, HashRing
from repro.service import ServiceConfig, serve_units

RECHISEL_KNOBS = (
    ("enable_escape", True),
    ("feedback_detail", "full"),
    ("use_knowledge", True),
)


def make_units(samples=2):
    """A small mixed workload covering all three strategies."""
    units = []
    specs = [
        ("zero_shot", (("language", "chisel"),), 0),
        ("rechisel", RECHISEL_KNOBS, 4),
        ("autochip", (), 4),
    ]
    for strategy, knobs, max_iterations in specs:
        for sample in range(samples):
            units.append(
                WorkUnit(strategy, "GPT-4o mini", "alu_w4", 0, sample, 0, max_iterations, knobs)
            )
    return units


def serial_payloads(units):
    executor = SerialExecutor(WorkerContext())
    ordered = [None] * len(units)
    for index, payload in executor.run_stream(units):
        ordered[index] = payload
    return ordered


FAST = FleetConfig(workers=2, heartbeat_interval=0.1, restart_backoff=0.05)


class TestHashRing:
    def test_routing_is_deterministic(self):
        first = HashRing()
        second = HashRing()
        for ring in (first, second):
            for node in ("a", "b", "c"):
                ring.add(node)
        keys = [f"unit-{i}" for i in range(64)]
        assert [first.node_for(k) for k in keys] == [second.node_for(k) for k in keys]

    def test_removal_only_remaps_removed_nodes_keys(self):
        ring = HashRing()
        for node in ("a", "b", "c"):
            ring.add(node)
        keys = [f"unit-{i}" for i in range(256)]
        before = {k: ring.node_for(k) for k in keys}
        ring.remove("b")
        after = {k: ring.node_for(k) for k in keys}
        for key in keys:
            if before[key] != "b":
                assert after[key] == before[key]
            else:
                assert after[key] in ("a", "c")

    def test_walk_yields_distinct_nodes(self):
        ring = HashRing()
        for node in range(4):
            ring.add(node)
        walked = list(ring.walk("some-key"))
        assert sorted(walked) == [0, 1, 2, 3]

    def test_empty_ring(self):
        ring = HashRing()
        assert ring.node_for("x") is None
        assert list(ring.walk("x")) == []


class TestFleetConfig:
    def test_defaults_are_valid(self):
        config = FleetConfig()
        assert config.heartbeat_timeout == pytest.approx(3.0)
        assert 0.005 <= config.tick <= 0.05

    def test_backoff_escalates_and_caps(self):
        config = FleetConfig(restart_backoff=0.1, restart_backoff_max=0.5)
        delays = [config.backoff_delay(n) for n in range(1, 6)]
        assert delays == [0.1, 0.2, 0.4, 0.5, 0.5]

    def test_validation(self):
        with pytest.raises(ValueError):
            FleetConfig(workers=0)
        with pytest.raises(ValueError):
            FleetConfig(heartbeat_interval=0)
        with pytest.raises(ValueError):
            FleetConfig(poison_threshold=0)

    def test_from_environment(self, monkeypatch):
        monkeypatch.setenv("REPRO_FLEET_WORKERS", "7")
        monkeypatch.setenv("REPRO_FLEET_HEARTBEAT", "0.25")
        monkeypatch.setenv("REPRO_FLEET_MAX_RESTARTS", "2")
        monkeypatch.setenv("REPRO_FLEET_POISON_THRESHOLD", "3")
        config = FleetConfig.from_environment()
        assert config.workers == 7
        assert config.heartbeat_interval == 0.25
        assert config.max_restarts == 2
        assert config.poison_threshold == 3

    def test_environment_overrides_base(self, monkeypatch):
        monkeypatch.setenv("REPRO_FLEET_WORKERS", "3")
        config = FleetConfig.from_environment(FleetConfig(workers=8, lease_timeout=9.0))
        assert config.workers == 3
        assert config.lease_timeout == 9.0


class TestFleetExecutor:
    def test_bit_identical_to_serial(self):
        units = make_units()
        expected = serial_payloads(units)
        executor = FleetExecutor(FAST)
        try:
            ordered = [None] * len(units)
            for index, payload in executor.run_stream(units):
                ordered[index] = payload
        finally:
            executor.shutdown()
        assert ordered == expected

    def test_supervisor_run_preserves_submission_order(self):
        units = make_units(samples=1)
        expected = serial_payloads(units)
        with FleetSupervisor(FAST) as supervisor:
            assert supervisor.run(units) == expected

    def test_duplicate_units_coalesce_routing(self):
        unit = make_units(samples=1)[0]
        with FleetSupervisor(FAST) as supervisor:
            payloads = supervisor.run([unit, unit, unit])
        assert payloads[0] == payloads[1] == payloads[2]

    def test_health_shape(self):
        with FleetSupervisor(FAST) as supervisor:
            supervisor.run(make_units(samples=1))
            health = supervisor.health()
        assert set(health) >= {"workers", "alive", "degraded", "pending_jobs", "counters"}
        assert len(health["workers"]) == FAST.workers
        assert health["alive"] == FAST.workers
        assert health["degraded"] is False
        for worker in health["workers"]:
            assert set(worker) >= {"slot", "state", "pid", "restarts", "leases"}
        counters = health["counters"]
        assert counters["dispatched"] >= len(make_units(samples=1))
        assert counters["completed"] == counters["dispatched"]
        assert counters["crashes"] == 0

    def test_worker_pids_are_live_children(self):
        with FleetSupervisor(FAST) as supervisor:
            pids = supervisor.worker_pids()
            assert len(pids) == FAST.workers
            for pid in pids.values():
                os.kill(pid, 0)  # raises if the process is gone


class TestEngineIntegration:
    def test_fleet_engine_matches_serial_engine(self):
        config = ExperimentConfig(
            samples_per_case=2, max_iterations=4, max_cases=4, jobs=1
        )
        units = make_units()
        serial_engine = SweepEngine(config)
        expected = serial_engine.run(units)
        serial_engine.close()

        fleet_engine = SweepEngine(dataclasses.replace(config, jobs=2, fleet=True))
        try:
            assert fleet_engine.run(units) == expected
            assert fleet_engine._fleet is not None
            # The fleet executor persists across sweeps (warm workers).
            assert fleet_engine.run(make_units(samples=1)) == expected[::2]
        finally:
            fleet_engine.close()
        assert fleet_engine._fleet is None

    def test_fleet_env_knob(self, monkeypatch):
        monkeypatch.setenv("REPRO_FLEET", "1")
        assert ExperimentConfig.from_environment().fleet is True
        monkeypatch.setenv("REPRO_FLEET", "0")
        assert ExperimentConfig.from_environment().fleet is False

    def test_single_job_config_never_builds_a_fleet(self):
        engine = SweepEngine(ExperimentConfig(samples_per_case=1, jobs=1, fleet=True))
        try:
            engine.run(make_units(samples=1))
            assert engine._fleet is None
        finally:
            engine.close()


class TestServiceIntegration:
    def test_fleet_backed_service_is_bit_identical(self):
        units = make_units()
        expected = serial_payloads(units)
        payloads, snapshot = serve_units(
            units,
            ServiceConfig(
                max_in_flight=8,
                fleet_workers=2,
            ),
        )
        assert list(payloads) == expected
        assert snapshot.fleet, "snapshot should carry the fleet health report"
        assert snapshot.fleet["alive"] == 2
        assert snapshot.fleet["degraded"] is False
        assert "fleet" in snapshot.render()

    def test_in_process_service_reports_no_fleet(self):
        payloads, snapshot = serve_units(make_units(samples=1), ServiceConfig(max_in_flight=4))
        assert snapshot.fleet == {}
        assert "fleet" not in snapshot.render()
