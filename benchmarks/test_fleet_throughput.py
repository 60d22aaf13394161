"""Benchmark: supervised-fleet throughput and result-store lookup cost.

Recorded into ``BENCH_toolchain.json`` by ``python benchmarks/run_benchmarks.py``:

* ``test_fleet_warm_throughput`` — the quick-scale Table I unit set executed
  through a warm :class:`~repro.fleet.supervisor.FleetExecutor` (workers
  spawned and contexts built before timing starts), asserted bit-identical
  to ``SerialExecutor`` and at least as fast as the serial baseline measured
  in the same process (the supervision layer must not cost throughput on a
  multi-core host);
* ``test_store_lookup_is_o1`` — ``get`` latency on the segmented result
  store measured at two store sizes an order of magnitude apart; the
  per-lookup cost must not scale with store size (the in-memory fingerprint
  index maps straight to one seek + read).
"""

import time

from conftest import run_once

from repro.caching import clear_registered_caches
from repro.experiments.config import ExperimentConfig
from repro.experiments.executors import SerialExecutor
from repro.experiments.runner import EvaluationHarness
from repro.experiments.store import ResultStore
from repro.experiments.work import WorkerContext, WorkUnit
from repro.fleet import FleetConfig, FleetExecutor
from repro.verilog.compile_sim import clear_kernel_cache

FLEET_WORKERS = 4

#: A single-core host can't overlap workers, and process scheduling adds
#: noise; demand the fleet stays within this factor of serial rather than
#: strictly faster when there's no parallelism to win.
MAX_SLOWDOWN = 1.25


def _table1_units(config: ExperimentConfig) -> list[WorkUnit]:
    harness = EvaluationHarness(config)
    units = []
    for language in ("chisel", "verilog"):
        for case_index, problem in enumerate(harness.problems()):
            for sample in range(config.samples_per_case):
                units.append(
                    WorkUnit(
                        strategy="zero_shot",
                        model=config.models[0],
                        problem_id=problem.problem_id,
                        case_index=case_index,
                        sample=sample,
                        seed=config.seed,
                        max_iterations=0,
                        knobs=(("language", language),),
                    )
                )
    return units


def _drain(executor, units):
    ordered = [None] * len(units)
    for index, payload in executor.run_stream(units):
        ordered[index] = payload
    return ordered


def test_fleet_warm_throughput(benchmark):
    config = ExperimentConfig.quick()
    units = _table1_units(config)

    # Pin the serial baseline to a cold-cache regime so the comparison does
    # not depend on which earlier tests warmed the process-global caches
    # (the warm fleet inherits the serial pass's caches via fork, so its
    # documented advantage is preserved either way).
    clear_registered_caches()
    clear_kernel_cache()
    serial = SerialExecutor(WorkerContext())
    started = time.perf_counter()
    expected = _drain(serial, units)
    serial_seconds = time.perf_counter() - started

    fleet = FleetExecutor(FleetConfig(workers=FLEET_WORKERS))
    try:
        # Warm the fleet: spawn workers, build their contexts, prime caches.
        _drain(fleet, units[: FLEET_WORKERS * 2])
        started = time.perf_counter()
        payloads = run_once(benchmark, _drain, fleet, units)
        fleet_seconds = time.perf_counter() - started
    finally:
        fleet.shutdown()

    assert payloads == expected, "fleet results must be bit-identical to serial"
    assert fleet_seconds <= serial_seconds * MAX_SLOWDOWN, (
        f"warm fleet took {fleet_seconds:.3f}s vs serial {serial_seconds:.3f}s "
        f"(allowed factor {MAX_SLOWDOWN})"
    )


def _unit(index: int) -> WorkUnit:
    return WorkUnit(
        strategy="zero_shot",
        model="Claude 3.5 Sonnet",
        problem_id="passthrough_w8",
        case_index=0,
        sample=index,
        seed=0,
        max_iterations=0,
        knobs=(("language", "chisel"),),
    )


def _fill_store(path, count: int) -> ResultStore:
    store = ResultStore(path, segment_records=1024)
    for index in range(count):
        store.put(f"fp{index:08d}", _unit(index), {"index": index})
    return store


def _mean_lookup_seconds(store: ResultStore, count: int, probes: int = 2000) -> float:
    stride = max(1, count // probes)
    fingerprints = [f"fp{index:08d}" for index in range(0, count, stride)][:probes]
    started = time.perf_counter()
    for fingerprint in fingerprints:
        assert store.get(fingerprint) is not None
    return (time.perf_counter() - started) / len(fingerprints)


def test_store_lookup_is_o1(benchmark, tmp_path):
    small_count, large_count = 1_000, 10_000
    small = _fill_store(tmp_path / "small", small_count)
    large = _fill_store(tmp_path / "large", large_count)
    try:
        small_mean = _mean_lookup_seconds(small, small_count)
        large_mean = run_once(benchmark, _mean_lookup_seconds, large, large_count)
        # 10x the records must not mean meaningfully slower lookups; allow
        # generous jitter headroom, which still rules out any O(n) scan
        # (that would show up as ~10x).
        assert large_mean <= small_mean * 3.0, (
            f"lookup slowed from {small_mean * 1e6:.1f}us to {large_mean * 1e6:.1f}us "
            f"when the store grew {large_count // small_count}x"
        )
    finally:
        small.close()
        large.close()
