"""The two sweep executors: the serial one and the process pool.

``tests/test_sweep_engine.py`` pins harness-level serial-vs-parallel
bit-identity; this module covers the pool's own contract — argument checks,
streaming, warm workers, error propagation, abandoned streams, dead workers —
and how :class:`~repro.experiments.engine.SweepEngine` picks and keeps an
executor.
"""

import dataclasses
import multiprocessing
import os
import signal
import time
from concurrent.futures.process import BrokenProcessPool

import pytest

from repro.experiments import table1
from repro.experiments.config import ExperimentConfig
from repro.experiments.engine import SweepEngine
from repro.experiments.executors import ParallelExecutor, SerialExecutor
from repro.experiments.store import ResultStore
from repro.experiments.work import WorkUnit

RECHISEL_KNOBS = (
    ("enable_escape", True),
    ("feedback_detail", "full"),
    ("use_knowledge", True),
)

SPECS = {
    "zero_shot-chisel": ("zero_shot", (("language", "chisel"),), 0),
    "zero_shot-verilog": ("zero_shot", (("language", "verilog"),), 0),
    "rechisel": ("rechisel", RECHISEL_KNOBS, 4),
    "autochip": ("autochip", (), 4),
}

CONFIG = ExperimentConfig(samples_per_case=2, max_iterations=4, max_cases=4, jobs=1)


def make_units(spec="rechisel", samples=4):
    strategy, knobs, max_iterations = SPECS[spec]
    return [
        WorkUnit(strategy, "GPT-4o mini", problem, case, sample, 0, max_iterations, knobs)
        for case, problem in enumerate(("alu_w4", "counter_w4"))
        for sample in range(samples)
    ]


def serial_payloads(units):
    return list(SerialExecutor().run_stream(units))


def kill_one_worker(executor):
    """SIGKILL one pool worker and wait until the pool notices."""
    pool = executor._pool
    victim = next(iter(pool._processes.values()))
    os.kill(victim.pid, signal.SIGKILL)
    victim.join()
    deadline = time.monotonic() + 10
    while not pool._broken and time.monotonic() < deadline:
        time.sleep(0.01)
    assert pool._broken


@pytest.fixture()
def pool():
    executor = ParallelExecutor(2)
    yield executor
    executor.shutdown()


class TestParallelExecutorContract:
    @pytest.mark.parametrize("jobs", [0, -1])
    def test_rejects_fewer_than_one_job(self, jobs):
        with pytest.raises(ValueError, match="jobs must be >= 1"):
            ParallelExecutor(jobs)

    def test_empty_batch_starts_no_pool(self, pool):
        assert list(pool.run_stream([])) == []
        assert pool._pool is None

    @pytest.mark.parametrize("jobs", [1, 2])
    @pytest.mark.parametrize("spec", sorted(SPECS))
    def test_payloads_match_serial(self, spec, jobs):
        units = make_units(spec, samples=2)
        executor = ParallelExecutor(jobs)
        try:
            streamed = list(executor.run_stream(units))
        finally:
            executor.shutdown()
        # Every index arrives exactly once, whatever the completion order.
        assert sorted(index for index, _ in streamed) == list(range(len(units)))
        assert sorted(streamed) == serial_payloads(units)

    def test_duplicate_units_yield_identical_payloads(self, pool):
        unit = make_units(samples=1)[0]
        streamed = dict(pool.run_stream([unit, unit, unit]))
        assert streamed[0] == streamed[1] == streamed[2] == serial_payloads([unit])[0][1]

    def test_workers_are_live_children_that_stay_warm(self, pool):
        list(pool.run_stream(make_units(samples=1)))
        workers = dict(pool._pool._processes)
        assert len(workers) == 2
        assert set(workers) <= {child.pid for child in multiprocessing.active_children()}
        list(pool.run_stream(make_units(samples=2)))
        assert set(pool._pool._processes) == set(workers)  # same processes, no restart

    def test_shutdown_is_idempotent_and_the_executor_reusable(self, pool):
        units = make_units(samples=1)
        list(pool.run_stream(units))
        pool.shutdown()
        pool.shutdown()
        assert pool._pool is None
        assert sorted(pool.run_stream(units)) == serial_payloads(units)
        assert pool._pool is not None

    def test_unit_error_propagates_and_the_pool_survives(self, pool):
        good = make_units(samples=1)
        bad = dataclasses.replace(good[0], problem_id="no_such_problem")
        list(pool.run_stream(good))
        warm = pool._pool
        with pytest.raises(KeyError, match="no_such_problem"):
            list(pool.run_stream([bad]))
        # An exception raised by a unit is not a dead worker: the pool stays.
        assert pool._pool is warm
        assert sorted(pool.run_stream(good)) == serial_payloads(good)

    def test_abandoned_stream_leaves_the_pool_usable(self, pool):
        units = make_units(samples=4)
        stream = pool.run_stream(units)
        next(stream)
        stream.close()
        assert pool._pool is not None
        assert sorted(pool.run_stream(units)) == serial_payloads(units)

    def test_worker_killed_mid_batch_fails_it_and_the_rerun_matches_serial(self, pool):
        units = make_units(samples=8)
        stream = pool.run_stream(units)
        next(stream)  # the batch is under way; most units are still queued
        with pytest.raises(BrokenProcessPool):
            kill_one_worker(pool)
            list(stream)
        assert pool._pool is None
        assert sorted(pool.run_stream(units)) == serial_payloads(units)


class TestEngineExecutorSelection:
    def test_single_job_config_runs_in_process(self):
        engine = SweepEngine(CONFIG)
        try:
            assert isinstance(engine._select_executor(pending_count=10), SerialExecutor)
            engine.run(make_units(samples=1))
            assert engine._parallel is None
        finally:
            engine.close()

    def test_a_single_pending_unit_never_starts_a_pool(self):
        engine = SweepEngine(dataclasses.replace(CONFIG, jobs=2))
        try:
            assert isinstance(engine._select_executor(pending_count=1), SerialExecutor)
            engine.run(make_units(samples=1)[:1])
            assert engine._parallel is None
        finally:
            engine.close()

    def test_default_jobs_is_the_usable_cpu_count(self):
        assert ExperimentConfig().jobs == len(os.sched_getaffinity(0))

    def test_jobs_env_knob_one_runs_in_process(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "1")
        engine = SweepEngine(ExperimentConfig.from_environment())
        try:
            assert isinstance(engine._select_executor(pending_count=10), SerialExecutor)
            engine.run(make_units(samples=1))
            assert engine._parallel is None
        finally:
            engine.close()

    def test_experiment_without_a_harness_leaves_no_worker_behind(self):
        before = set(multiprocessing.active_children())
        config = dataclasses.replace(CONFIG, max_cases=2, models=("GPT-4o mini",), jobs=2)
        result = table1.run(config)
        assert [row.model for row in result.rows] == ["GPT-4o mini"]
        assert set(multiprocessing.active_children()) - before == set()

    def test_jobs_env_knob_selects_the_pool(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "2")
        engine = SweepEngine(ExperimentConfig.from_environment())
        try:
            assert isinstance(engine._select_executor(pending_count=10), ParallelExecutor)
            assert engine._parallel.jobs == 2
        finally:
            engine.close()

    def test_pool_engine_matches_serial_engine_across_sweeps(self):
        units = make_units(samples=2)
        serial = SweepEngine(CONFIG)
        expected = serial.run(units)
        serial.close()

        engine = SweepEngine(dataclasses.replace(CONFIG, jobs=2))
        try:
            assert engine.run(units) == expected
            first = engine._parallel
            # A second sweep reuses the same executor and answers from memo.
            assert engine.run(units[::2]) == expected[::2]
            assert engine._parallel is first
        finally:
            engine.close()
        assert engine._parallel is None

    def test_results_keep_submission_order(self):
        units = make_units(samples=3)
        expected = SweepEngine(CONFIG).run(units)
        engine = SweepEngine(dataclasses.replace(CONFIG, jobs=2))
        try:
            assert engine.run(units[::-1]) == expected[::-1]
        finally:
            engine.close()

    def test_duplicate_units_execute_once_on_the_pool(self):
        units = make_units(samples=2)
        engine = SweepEngine(dataclasses.replace(CONFIG, jobs=2))
        try:
            results = engine.run(units + units)
        finally:
            engine.close()
        assert engine.stats.executed == len(units)
        assert results[: len(units)] == results[len(units) :]

    def test_pool_results_persist_and_a_serial_rerun_executes_nothing(self, tmp_path):
        units = make_units(samples=2)
        path = str(tmp_path / "store")
        engine = SweepEngine(dataclasses.replace(CONFIG, jobs=2, store_path=path))
        try:
            expected = engine.run(units)
        finally:
            engine.close()
        rerun = SweepEngine(dataclasses.replace(CONFIG, store_path=path))
        try:
            assert rerun.run(units) == expected
        finally:
            rerun.close()
        assert rerun.stats.executed == 0
        assert rerun.stats.store_hits == len(units)

    def test_dead_worker_fails_one_engine_run_and_no_unit_runs_twice(self, tmp_path):
        units = make_units(samples=8)
        expected = SweepEngine(CONFIG).run(units)
        path = str(tmp_path / "store")
        engine = SweepEngine(dataclasses.replace(CONFIG, jobs=2, store_path=path))
        try:
            engine.run(units[:2])
            executor = engine._parallel
            kill_one_worker(executor)
            with pytest.raises(BrokenProcessPool):
                engine.run(units)
            assert engine._parallel is executor and executor._pool is None
            assert engine.run(units) == expected
        finally:
            engine.close()
        # Units that finished before the break were memoized and stored, so
        # the retry ran only the rest.
        assert engine.stats.executed == len(units)
        with ResultStore(path) as store:
            assert len(store) == len(units)
