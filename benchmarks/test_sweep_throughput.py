"""Benchmark: sweep-engine throughput on the quick-scale Table I sweep.

Tracks the three regimes the sweep execution engine is built for, recorded
into ``BENCH_toolchain.json`` by ``python benchmarks/run_benchmarks.py``:

* ``test_sweep_serial_cold`` — jobs=1, empty result store: the baseline cost
  of executing every work unit;
* ``test_sweep_parallel_cold`` — jobs=4 over a process pool; asserted
  bit-identical to the serial run (on a single-core host this records the
  pool overhead rather than a speedup — the wall-clock delta is the point);
* ``test_sweep_warm_store`` — a rerun against the persisted store, asserted
  to execute zero new work units;
* ``test_store_lookup_is_o1`` — ``get`` latency on the append-only result
  store measured at two store sizes an order of magnitude apart; the
  per-lookup cost must not scale with store size (the in-memory fingerprint
  index maps straight to one seek + read on a shared handle).  The gate is
  the median ratio of ``STORE_PAIRS`` interleaved small/large pairs,
  alternating which size goes first, so a slow stretch on a shared host lands
  on both sides of a pair.
"""

import dataclasses
import statistics
import time

from conftest import run_once

from repro.experiments import table1
from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import EvaluationHarness
from repro.experiments.store import ResultStore
from repro.experiments.work import WorkUnit

PARALLEL_JOBS = 4
STORE_PAIRS = 7

_reference_rows = None


def _sweep_config(store_path=None, jobs=1) -> ExperimentConfig:
    return dataclasses.replace(ExperimentConfig.quick(), jobs=jobs, store_path=store_path)


def _run_table1(config):
    harness = EvaluationHarness(config)
    result = table1.run(config, harness)
    return result, harness.engine.stats


def _rows(result) -> list[tuple]:
    return [(row.model, row.chisel, row.verilog) for row in result.rows]


def _expected_units(config) -> int:
    harness = EvaluationHarness(config)
    # chisel + verilog sweeps per model.
    return 2 * len(config.models) * len(harness.problems()) * config.samples_per_case


def _serial_reference() -> list[tuple]:
    global _reference_rows
    if _reference_rows is None:
        result, _ = _run_table1(_sweep_config())
        _reference_rows = _rows(result)
    return _reference_rows


def test_sweep_serial_cold(benchmark):
    config = _sweep_config()
    result, stats = run_once(benchmark, _run_table1, config)
    assert stats.executed == _expected_units(config)
    assert _rows(result) == _serial_reference()


def test_sweep_parallel_cold(benchmark):
    config = _sweep_config(jobs=PARALLEL_JOBS)
    result, stats = run_once(benchmark, _run_table1, config)
    assert stats.executed == _expected_units(config)
    assert _rows(result) == _serial_reference()


def test_sweep_warm_store(benchmark, tmp_path):
    store_path = str(tmp_path / "results.jsonl")
    cold_result, cold_stats = _run_table1(_sweep_config(store_path=store_path))
    assert cold_stats.executed == _expected_units(_sweep_config())

    result, stats = run_once(benchmark, _run_table1, _sweep_config(store_path=store_path))
    assert stats.executed == 0
    assert stats.store_hits == cold_stats.executed
    assert _rows(result) == _rows(cold_result)


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
    store = ResultStore(path)
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
        run_once(benchmark, _mean_lookup_seconds, large, large_count)
        ratios = []
        for index in range(STORE_PAIRS):
            if index % 2:
                large_mean = _mean_lookup_seconds(large, large_count)
                small_mean = _mean_lookup_seconds(small, small_count)
            else:
                small_mean = _mean_lookup_seconds(small, small_count)
                large_mean = _mean_lookup_seconds(large, large_count)
            ratios.append(large_mean / small_mean)
        # 10x the records must not mean meaningfully slower lookups; allow
        # generous jitter headroom, which still rules out any O(n) scan
        # (that would show up as ~10x).
        ratio = statistics.median(ratios)
        assert ratio <= 3.0, (
            f"median lookup slowed {ratio:.1f}x when the store grew "
            f"{large_count // small_count}x ({STORE_PAIRS} interleaved pairs: "
            + ", ".join(f"{r:.2f}x" for r in ratios)
            + ")"
        )
    finally:
        small.close()
        large.close()
