"""Tests for the sweep execution engine: units, executors, store, resume."""

import dataclasses
import json
import os
import signal
import time
from concurrent.futures.process import BrokenProcessPool

import pytest

from repro.experiments.config import ExperimentConfig
from repro.experiments.engine import SweepEngine
from repro.experiments.executors import ParallelExecutor, SerialExecutor
from repro.experiments.runner import EvaluationHarness, problem_family, stratified_subset
from repro.experiments.store import ResultStore
from repro.experiments.strategies import ReChiselStrategy, ZeroShotStrategy, strategy_from_unit
from repro.experiments.work import PAYLOAD_VERSION, WorkerContext, WorkUnit, unit_fingerprint
from repro.llm.profiles import CLAUDE_SONNET, GPT4O_MINI
from repro.problems.registry import build_default_registry

SMALL = ExperimentConfig(
    samples_per_case=2,
    max_iterations=4,
    max_cases=8,
    models=(CLAUDE_SONNET,),
    autochip_models=(CLAUDE_SONNET,),
    seed=0,
    jobs=1,
)


def _unit(**overrides) -> WorkUnit:
    base = dict(
        strategy="zero_shot",
        model=CLAUDE_SONNET,
        problem_id="passthrough_w8",
        case_index=3,
        sample=1,
        seed=0,
        max_iterations=0,
        knobs=(("language", "chisel"),),
    )
    base.update(overrides)
    return WorkUnit(**base)


class TestWorkUnits:
    def test_client_seed_matches_historical_derivation(self):
        assert _unit(case_index=3, sample=1, seed=7).client_seed == 7 + 3000 + 1

    def test_fingerprint_is_stable(self):
        assert unit_fingerprint(_unit(), "g1") == unit_fingerprint(_unit(), "g1")

    def test_fingerprint_covers_every_input(self):
        reference = unit_fingerprint(_unit(), "g1")
        assert unit_fingerprint(_unit(), "g2") != reference
        for change in (
            {"model": GPT4O_MINI},
            {"strategy": "rechisel"},
            {"sample": 0},
            {"case_index": 4},
            {"seed": 1},
            {"max_iterations": 10},
            {"knobs": (("language", "verilog"),)},
        ):
            assert unit_fingerprint(_unit(**change), "g1") != reference, change

    def test_strategy_round_trip_from_unit(self):
        strategy = ReChiselStrategy(enable_escape=False, feedback_detail="summary")
        unit = _unit(strategy=strategy.name, knobs=strategy.knob_items(), max_iterations=4)
        rebuilt = strategy_from_unit(unit)
        assert rebuilt.knob_items() == strategy.knob_items()


class TestResultStore:
    def test_round_trip_across_instances(self, tmp_path):
        path = tmp_path / "results.jsonl"
        with ResultStore(path) as store:
            store.put("fp1", _unit(), {"outcome": "success"})
        reloaded = ResultStore(path)
        assert reloaded.get("fp1") == {"outcome": "success"}
        assert len(reloaded) == 1

    def test_torn_trailing_line_is_skipped(self, tmp_path):
        path = tmp_path / "results.jsonl"
        with ResultStore(path) as store:
            store.put("fp1", _unit(), {"outcome": "success"})
            store.put("fp2", _unit(sample=0), {"outcome": "syntax"})
        # Simulate a run killed mid-write: a torn, undecodable trailing line
        # in the log.
        with (path / "tail.jsonl").open("a") as handle:
            handle.write('{"v": 1, "fp": "tor')
        reloaded = ResultStore(path)
        assert reloaded.get("fp1") == {"outcome": "success"}
        assert "fp2" in reloaded
        assert len(reloaded) == 2
        assert reloaded.stats()["truncated_bytes"] > 0

    def test_incompatible_version_is_ignored(self, tmp_path):
        # A stale-version line in the log is skipped; a fresh put of the same
        # fingerprint is then appended and persists across a reopen.
        path = tmp_path / "results.jsonl"
        path.mkdir()
        record = {"v": PAYLOAD_VERSION + 1, "fp": "fp1", "payload": {"outcome": "stale"}}
        (path / "tail.jsonl").write_text(json.dumps(record) + "\n")
        with ResultStore(path) as store:
            assert store.get("fp1") is None
            store.put("fp1", _unit(), {"outcome": "success"})
        with ResultStore(path) as reloaded:
            assert reloaded.get("fp1") == {"outcome": "success"}
            assert len(reloaded) == 1


def _zero_shot_units(config, harness, language="chisel", model=CLAUDE_SONNET):
    strategy = ZeroShotStrategy(language)
    return [
        WorkUnit(
            strategy=strategy.name,
            model=model,
            problem_id=problem.problem_id,
            case_index=case_index,
            sample=sample,
            seed=config.seed,
            max_iterations=0,
            knobs=strategy.knob_items(),
        )
        for case_index, problem in enumerate(harness.problems())
        for sample in range(config.samples_per_case)
    ]


class TestExecutorEquivalence:
    """Serial and parallel executors must be bit-identical."""

    def _snapshot_rechisel(self, cases):
        return [
            (
                case.problem_id,
                [
                    (
                        result.success,
                        result.success_iteration,
                        [(r.iteration, r.outcome, r.escaped) for r in result.records],
                        result.escapes,
                    )
                    for result in case.results
                ],
            )
            for case in cases
        ]

    def test_zero_shot_serial_vs_parallel(self):
        serial = EvaluationHarness(SMALL)
        parallel = EvaluationHarness(dataclasses.replace(SMALL, jobs=4))
        for language in ("chisel", "verilog"):
            expected = [
                (c.problem_id, c.outcomes) for c in serial.run_zero_shot(CLAUDE_SONNET, language)
            ]
            actual = [
                (c.problem_id, c.outcomes) for c in parallel.run_zero_shot(CLAUDE_SONNET, language)
            ]
            assert actual == expected

    def test_rechisel_serial_vs_parallel(self):
        serial = EvaluationHarness(SMALL)
        parallel = EvaluationHarness(dataclasses.replace(SMALL, jobs=4))
        expected = self._snapshot_rechisel(serial.run_rechisel(CLAUDE_SONNET))
        actual = self._snapshot_rechisel(parallel.run_rechisel(CLAUDE_SONNET))
        assert actual == expected

    def test_autochip_serial_vs_parallel(self):
        serial = EvaluationHarness(SMALL)
        parallel = EvaluationHarness(dataclasses.replace(SMALL, jobs=4))
        expected = [
            (c.problem_id, [(r.success, r.success_iteration, r.outcomes) for r in c.results])
            for c in serial.run_autochip(CLAUDE_SONNET)
        ]
        actual = [
            (c.problem_id, [(r.success, r.success_iteration, r.outcomes) for r in c.results])
            for c in parallel.run_autochip(CLAUDE_SONNET)
        ]
        assert actual == expected

    def test_custom_registry_falls_back_to_serial(self):
        engine = SweepEngine(dataclasses.replace(SMALL, jobs=4), registry=build_default_registry())
        assert isinstance(engine._select_executor(pending_count=10), SerialExecutor)

    def test_default_registry_selects_parallel(self):
        engine = SweepEngine(dataclasses.replace(SMALL, jobs=4))
        assert isinstance(engine._select_executor(pending_count=10), ParallelExecutor)

    def test_parallel_executor_and_pool_persist_across_batches(self):
        engine = SweepEngine(dataclasses.replace(SMALL, jobs=2))
        engine.run([_unit(case_index=0, sample=0), _unit(case_index=0, sample=1)])
        first = engine._parallel
        assert first is not None and first._pool is not None
        pool = first._pool
        engine.run([_unit(case_index=1, sample=0), _unit(case_index=1, sample=1)])
        assert engine._parallel is first
        assert first._pool is pool  # same warm workers, no cold restart
        engine.close()
        assert engine._parallel is None

    def test_dead_worker_fails_one_batch_and_the_next_gets_a_fresh_pool(self):
        batch = [_unit(sample=sample) for sample in range(4)]
        expected = list(SerialExecutor().run_stream(batch))
        executor = ParallelExecutor(2)
        try:
            list(executor.run_stream(batch))
            pool = executor._pool
            victim = next(iter(pool._processes.values()))
            os.kill(victim.pid, signal.SIGKILL)
            victim.join()
            deadline = time.monotonic() + 10
            while not pool._broken and time.monotonic() < deadline:
                time.sleep(0.01)
            with pytest.raises(BrokenProcessPool):
                list(executor.run_stream(batch))
            assert executor._pool is None
            assert sorted(executor.run_stream(batch)) == expected
        finally:
            executor.shutdown()


class TestStoreAndResume:
    def test_warm_store_rerun_executes_nothing(self, tmp_path):
        config = dataclasses.replace(SMALL, store_path=str(tmp_path / "results.jsonl"))
        cold = EvaluationHarness(config)
        expected = [(c.problem_id, c.outcomes) for c in cold.run_zero_shot(CLAUDE_SONNET, "chisel")]
        assert cold.engine.stats.executed > 0

        warm = EvaluationHarness(config)
        actual = [(c.problem_id, c.outcomes) for c in warm.run_zero_shot(CLAUDE_SONNET, "chisel")]
        assert actual == expected
        assert warm.engine.stats.executed == 0
        assert warm.engine.stats.store_hits == len(expected) * config.samples_per_case

    def test_interrupted_sweep_resumes_without_recomputing(self, tmp_path):
        store_path = tmp_path / "results.jsonl"
        config = dataclasses.replace(SMALL, store_path=str(store_path))
        harness = EvaluationHarness(config)
        units = _zero_shot_units(config, harness)

        # "Kill" the sweep partway: only the first half of the units ran.
        first_half = units[: len(units) // 2]
        engine = SweepEngine(config)
        assert engine.store is not None  # resolved from config.store_path
        engine.run(first_half)
        assert engine.stats.executed == len(first_half)
        engine.close()

        # Rerun the full sweep in a fresh engine: only the second half executes.
        resumed = SweepEngine(config)
        resumed.run(units)
        assert resumed.stats.executed == len(units) - len(first_half)
        assert resumed.stats.store_hits == len(first_half)
        resumed.close()

        # A third run recomputes nothing at all.
        warm = SweepEngine(config)
        warm.run(units)
        assert warm.stats.executed == 0
        warm.close()

    def test_overlapping_sweeps_share_the_memo(self):
        harness = EvaluationHarness(SMALL)
        harness.run_rechisel(CLAUDE_SONNET)
        executed = harness.engine.stats.executed
        harness.run_rechisel(CLAUDE_SONNET)  # e.g. Table III then Fig. 6
        assert harness.engine.stats.executed == executed
        assert harness.engine.stats.memo_hits == executed

    def test_duplicate_units_in_one_batch_execute_once(self):
        engine = SweepEngine(SMALL)
        unit = _unit(case_index=0, sample=0)
        payloads = engine.run([unit, unit])
        assert engine.stats.executed == 1
        assert payloads[0] == payloads[1]

    def test_knob_changes_miss_the_store(self, tmp_path):
        config = dataclasses.replace(SMALL, store_path=str(tmp_path / "results.jsonl"))
        first = EvaluationHarness(config)
        first.run_rechisel(CLAUDE_SONNET, enable_escape=True)
        executed = first.engine.stats.executed

        second = EvaluationHarness(config)
        second.run_rechisel(CLAUDE_SONNET, enable_escape=False)
        assert second.engine.stats.executed == executed
        assert second.engine.stats.store_hits == 0


class TestStratifiedSubsetting:
    def test_subset_is_deterministic_and_sized(self):
        problems = list(build_default_registry())
        subset = stratified_subset(problems, 36)
        again = stratified_subset(problems, 36)
        assert [p.problem_id for p in subset] == [p.problem_id for p in again]
        assert len(subset) == 36
        assert len({p.problem_id for p in subset}) == 36

    def test_subset_preserves_registry_order(self):
        problems = list(build_default_registry())
        subset = stratified_subset(problems, 36)
        order = {p.problem_id: i for i, p in enumerate(problems)}
        indices = [order[p.problem_id] for p in subset]
        assert indices == sorted(indices)

    @pytest.mark.parametrize("max_cases", [12, 36, 100])
    def test_family_shares_are_proportional_within_one(self, max_cases):
        problems = list(build_default_registry())
        subset = stratified_subset(problems, max_cases)
        assert len(subset) == max_cases

        full_counts: dict[str, int] = {}
        for problem in problems:
            full_counts[problem_family(problem)] = full_counts.get(problem_family(problem), 0) + 1
        subset_counts: dict[str, int] = {}
        for problem in subset:
            subset_counts[problem_family(problem)] = (
                subset_counts.get(problem_family(problem), 0) + 1
            )

        total = len(problems)
        for family, count in full_counts.items():
            share = count * max_cases / total
            taken = subset_counts.get(family, 0)
            assert abs(taken - share) <= 1.0, (family, share, taken)

    def test_suites_are_all_represented(self):
        harness = EvaluationHarness(ExperimentConfig.quick())
        suites = {p.suite for p in harness.problems()}
        assert suites == {p.suite for p in build_default_registry()}
