"""Vectorized simulation backend: differential suite and lockstep batching.

The vector backend compiles NumPy structure-of-arrays kernels — one lane per
execution — and must produce bit-identical :class:`SimulationReport`s to the
scalar trace and step-wise oracles: same mismatch ordering, same
``max_mismatches`` capping, same unchecked-point flush semantics, for every
golden design and injected-fault mutant.  ``run_testbenches`` layers lockstep
candidate batching on top and must equal per-job ``run_testbench`` exactly,
in job order, at any ``REPRO_SIM_MAX_LANES`` chunking.
"""

from __future__ import annotations

import pytest

from repro.caching import cache_stats
from repro.problems.registry import build_default_registry
from repro.sim.testbench import (
    FunctionalPoint,
    Testbench,
    run_testbench,
    run_testbenches,
)
from repro.toolchain.compiler import ChiselCompiler
from repro.verilog import compile_vec
from repro.verilog.compile_sim import clear_kernel_cache, kernel_cache_stats
from repro.verilog.compile_vec import get_vec_kernel
from repro.verilog.parser import parse_verilog
from repro.verilog.simulator import SimulationError

REGISTRY = build_default_registry()
COMPILER = ChiselCompiler(top="TopModule")


def _golden_module(problem):
    result = COMPILER.compile(problem.golden_chisel)
    assert result.success, problem.problem_id
    return parse_verilog(result.verilog)[-1]


class TestVectorDifferentialGoldens:
    def test_every_golden_design_matches_stepwise_and_trace(self):
        """Vector, trace and step-wise reports are equal on all golden designs."""
        for problem in REGISTRY:
            module = _golden_module(problem)
            testbench = problem.build_testbench()
            stepwise = run_testbench(module, module, testbench, backend="stepwise")
            trace = run_testbench(module, module, testbench, backend="trace")
            vector = run_testbench(module, module, testbench, backend="vector")
            assert stepwise == trace == vector, problem.problem_id
            assert vector.passed, problem.problem_id

    def test_every_golden_design_is_vector_eligible(self):
        """No golden pairing should need the scalar fallback."""
        from repro.sim.testbench import _trace_plan

        fallbacks = []
        for problem in REGISTRY:
            module = _golden_module(problem)
            testbench = problem.build_testbench()
            observed = tuple(port.name for port in module.outputs())
            schedule, _ = _trace_plan(testbench, observed)
            if get_vec_kernel(module, schedule) is None:
                fallbacks.append(problem.problem_id)
        assert fallbacks == []

    def test_interpreter_oracle_agrees_on_stride_subset(self, monkeypatch):
        """Vector must also match the pure-interpreter step-wise oracle."""
        problems = list(REGISTRY)[::9]
        monkeypatch.setenv("REPRO_SIM_BACKEND", "interpreter")
        for problem in problems:
            module = _golden_module(problem)
            testbench = problem.build_testbench()
            interp = run_testbench(module, module, testbench, backend="stepwise")
            vector = run_testbench(module, module, testbench, backend="vector")
            assert interp == vector, problem.problem_id


class TestVectorDifferentialMutants:
    def test_behavior_breaking_mutants_match_stepwise(self):
        """Mutant-vs-golden reports agree: real mismatches, capping, ordering."""
        compared = failing = 0
        for problem in REGISTRY:
            golden = _golden_module(problem)
            testbench = problem.build_testbench()
            for fault in problem.functional_faults:
                if not fault.applies_to(problem.golden_chisel):
                    continue
                result = COMPILER.compile(fault.apply(problem.golden_chisel))
                if not result.success:
                    continue
                mutant = parse_verilog(result.verilog)[-1]
                stepwise = run_testbench(mutant, golden, testbench, backend="stepwise")
                vector = run_testbench(mutant, golden, testbench, backend="vector")
                assert stepwise == vector, (problem.problem_id, fault.fault_id)
                compared += 1
                failing += 0 if stepwise.passed else 1
        assert compared >= 200
        assert failing >= 150  # the suite must actually exercise mismatch paths


PASSTHROUGH = """
module m(input en, input [3:0] d, output [3:0] q);
  assign q = d;
endmodule
"""

WIDE = """
module m(input [70:0] d, output [70:0] q);
  assign q = d;
endmodule
"""

SEQ = """
module m(input clock, input [3:0] d, output reg [3:0] q);
  always @(posedge clock) q <= d;
endmodule
"""


def _tb(values, **kwargs):
    points = [FunctionalPoint(inputs={"en": 0, "d": v}) for v in values]
    return Testbench(points=points, observed_outputs=["q"], reset_cycles=0, **kwargs)


class TestVectorLaneEdgeCases:
    def test_single_point(self):
        module = parse_verilog(PASSTHROUGH)[0]
        testbench = _tb([9])
        stepwise = run_testbench(module, module, testbench, backend="stepwise")
        vector = run_testbench(module, module, testbench, backend="vector")
        assert stepwise == vector and vector.checked_points == 1

    def test_empty_testbench(self):
        module = parse_verilog(PASSTHROUGH)[0]
        testbench = Testbench(points=[], observed_outputs=["q"], reset_cycles=0)
        stepwise = run_testbench(module, module, testbench, backend="stepwise")
        vector = run_testbench(module, module, testbench, backend="vector")
        assert stepwise == vector and vector.total_points == 0

    def test_unchecked_points_and_input_carryover(self):
        """Unchecked stimuli settle; later points inherit undriven inputs."""
        module = parse_verilog(PASSTHROUGH)[0]
        testbench = Testbench(
            points=[
                FunctionalPoint(inputs={"en": 0, "d": 7}),
                FunctionalPoint(inputs={}, check=False),
                FunctionalPoint(inputs={"en": 1}),  # d carries over as 7
                FunctionalPoint(inputs={"d": 3}),
            ],
            observed_outputs=["q"],
            reset_cycles=0,
        )
        stepwise = run_testbench(module, module, testbench, backend="stepwise")
        vector = run_testbench(module, module, testbench, backend="vector")
        assert stepwise == vector
        assert vector.checked_points == 3

    def test_mismatch_cap_and_ordering(self):
        dut = parse_verilog("module m(input [3:0] d, output [3:0] q);\n  assign q = d + 1;\nendmodule\n")[0]
        ref = parse_verilog("module m(input [3:0] d, output [3:0] q);\n  assign q = d;\nendmodule\n")[0]
        testbench = Testbench(
            points=[FunctionalPoint(inputs={"d": value}) for value in range(16)],
            observed_outputs=["q"],
            reset_cycles=0,
            max_mismatches=5,
        )
        stepwise = run_testbench(dut, ref, testbench, backend="stepwise")
        vector = run_testbench(dut, ref, testbench, backend="vector")
        assert stepwise == vector
        assert vector.failed_points == 16 and len(vector.mismatches) == 5
        assert [m.point_index for m in vector.mismatches] == list(range(5))

    def test_ragged_lane_chunking(self, monkeypatch):
        """A lane budget smaller than the batch splits into ragged chunks."""
        module = parse_verilog(SEQ)[0]
        benches = [
            Testbench(
                points=[
                    FunctionalPoint(inputs={"d": (seed + i) % 16}, clock_cycles=1)
                    for i in range(5)
                ],
                observed_outputs=["q"],
                reset_cycles=1,
            )
            for seed in range(9)
        ]
        jobs = [(module, module, tb) for tb in benches]
        expected = [run_testbench(*job) for job in jobs]
        monkeypatch.setenv("REPRO_SIM_MAX_LANES", "2")
        assert run_testbenches(jobs, backend="vector") == expected

    @pytest.mark.parametrize("raw", ["many", "0", "-3"])
    def test_invalid_max_lanes_raises(self, monkeypatch, raw):
        module = parse_verilog(SEQ)[0]
        testbench = Testbench(
            points=[FunctionalPoint(inputs={"d": 1}, clock_cycles=1)],
            observed_outputs=["q"],
            reset_cycles=1,
        )
        monkeypatch.setenv("REPRO_SIM_MAX_LANES", raw)
        with pytest.raises(SimulationError, match=f"REPRO_SIM_MAX_LANES.*'{raw}'"):
            run_testbenches([(module, module, testbench)], backend="vector")

    def test_huge_clock_cycle_counts_fall_back(self):
        """Unrollable-but-enormous schedules fall back under the argument."""
        module = parse_verilog(SEQ)[0]
        testbench = Testbench(
            points=[FunctionalPoint(inputs={"d": 9}, clock_cycles=70_000)],
            observed_outputs=["q"],
            reset_cycles=0,
        )
        stepwise = run_testbench(module, module, testbench, backend="stepwise")
        vector = run_testbench(module, module, testbench, backend="vector")
        assert stepwise == vector
        assert vector.passed


class TestVectorStrictness:
    def test_env_forced_vector_runs_eligible_pairings(self, monkeypatch):
        module = parse_verilog(PASSTHROUGH)[0]
        testbench = _tb([3, 5])
        monkeypatch.setenv("REPRO_TB_BACKEND", "vector")
        report = run_testbench(module, module, testbench)
        assert report == run_testbench(module, module, testbench, backend="stepwise")

    def test_env_forced_vector_raises_for_wide_signals(self, monkeypatch):
        """>64-bit signals exceed the uint64 lanes: strict vector must raise."""
        module = parse_verilog(WIDE)[0]
        testbench = Testbench(
            points=[FunctionalPoint(inputs={"d": (1 << 70) | 5})],
            observed_outputs=["q"],
            reset_cycles=0,
        )
        monkeypatch.setenv("REPRO_TB_BACKEND", "vector")
        with pytest.raises(SimulationError, match="not vector-eligible"):
            run_testbench(module, module, testbench)
        # The explicit argument keeps the documented silent fallback.
        report = run_testbench(module, module, testbench, backend="vector")
        assert report == run_testbench(module, module, testbench, backend="stepwise")

    def test_env_forced_vector_raises_for_behavioural_reference(self, monkeypatch):
        from repro.sim.reference import BehavioralDevice

        module = parse_verilog(PASSTHROUGH)[0]
        reference = BehavioralDevice(
            {"q": 4}, lambda inputs, state: {"q": inputs.get("d", 0)}
        )
        testbench = _tb([9])
        monkeypatch.setenv("REPRO_TB_BACKEND", "vector")
        with pytest.raises(SimulationError, match="behavioural references"):
            run_testbench(module, reference, testbench)

    def test_env_forced_vector_raises_for_interpreter_only_module(self, monkeypatch):
        loop = parse_verilog(
            "module m(input a, output x, y);\n"
            "  assign x = y | a;\n  assign y = x & a;\nendmodule\n"
        )[0]
        testbench = Testbench(points=[FunctionalPoint(inputs={"a": 0})], reset_cycles=0)
        monkeypatch.setenv("REPRO_TB_BACKEND", "vector")
        with pytest.raises(SimulationError, match="not vector-eligible"):
            run_testbench(loop, loop, testbench)
        assert run_testbench(loop, loop, testbench, backend="vector").passed

    def test_strictness_propagates_through_run_testbenches(self, monkeypatch):
        """Batched jobs under REPRO_TB_BACKEND=vector keep strict semantics."""
        from repro.sim.reference import BehavioralDevice

        module = parse_verilog(PASSTHROUGH)[0]
        reference = BehavioralDevice(
            {"q": 4}, lambda inputs, state: {"q": inputs.get("d", 0)}
        )
        monkeypatch.setenv("REPRO_TB_BACKEND", "vector")
        with pytest.raises(SimulationError, match="behavioural references"):
            run_testbenches([(module, reference, _tb([9]))])

    @pytest.mark.cache_mutating
    def test_numpy_absent_falls_back(self, monkeypatch):
        """Without NumPy the vector path degrades to trace, strict env raises."""
        module = parse_verilog(PASSTHROUGH)[0]
        testbench = _tb([4, 2])
        expected = run_testbench(module, module, testbench, backend="stepwise")
        monkeypatch.setattr(compile_vec, "np", None)
        monkeypatch.setattr(compile_vec, "HAVE_NUMPY", False)
        clear_kernel_cache()
        assert run_testbench(module, module, testbench, backend="vector") == expected
        assert run_testbench(module, module, testbench) == expected
        monkeypatch.setenv("REPRO_TB_BACKEND", "vector")
        with pytest.raises(SimulationError, match="not vector-eligible"):
            run_testbench(module, module, testbench)
        monkeypatch.undo()
        clear_kernel_cache()


class TestRunTestbenches:
    def test_empty_batch(self):
        assert run_testbenches([]) == []

    def test_mixed_eligibility_preserves_job_order(self):
        """Vector-eligible, wide, behavioural and loop jobs interleave freely."""
        from repro.sim.reference import BehavioralDevice

        narrow = parse_verilog(PASSTHROUGH)[0]
        wide = parse_verilog(WIDE)[0]
        loop = parse_verilog(
            "module m(input a, output x, y);\n"
            "  assign x = y | a;\n  assign y = x & a;\nendmodule\n"
        )[0]
        behavioural = BehavioralDevice(
            {"q": 4}, lambda inputs, state: {"q": inputs.get("d", 0)}
        )
        wide_tb = Testbench(
            points=[FunctionalPoint(inputs={"d": (1 << 69) + i}) for i in range(3)],
            observed_outputs=["q"],
            reset_cycles=0,
        )
        loop_tb = Testbench(points=[FunctionalPoint(inputs={"a": 0})], reset_cycles=0)
        jobs = [
            (narrow, narrow, _tb([1, 2, 3])),
            (wide, wide, wide_tb),
            (narrow, behavioural, _tb([7])),
            (loop, loop, loop_tb),
            (narrow, narrow, _tb([5, 6])),
        ]
        expected = [run_testbench(*job) for job in jobs]
        assert run_testbenches(jobs) == expected
        assert run_testbenches(jobs, backend="vector") == expected

    def test_sixteen_lockstep_candidates(self):
        """16 sequential candidates over one kernel equal per-job runs."""
        module = parse_verilog(SEQ)[0]
        faulty = parse_verilog(SEQ.replace("q <= d", "q <= d + 1"))[0]
        jobs = []
        for index in range(16):
            testbench = Testbench(
                points=[
                    FunctionalPoint(inputs={"d": (index * 3 + i) % 16}, clock_cycles=1)
                    for i in range(6)
                ],
                observed_outputs=["q"],
                reset_cycles=2,
            )
            jobs.append((module if index % 4 else faulty, module, testbench))
        expected = [run_testbench(*job) for job in jobs]
        batched = run_testbenches(jobs)
        assert batched == expected
        assert sum(0 if report.passed else 1 for report in batched) == 4

    def test_duplicate_rows_collapse_to_shared_lanes(self):
        """Identical (module, stimulus) jobs dedupe onto one lane set."""
        module = parse_verilog(SEQ)[0]
        testbench = Testbench(
            points=[FunctionalPoint(inputs={"d": i}, clock_cycles=1) for i in range(4)],
            observed_outputs=["q"],
            reset_cycles=1,
        )
        jobs = [(module, module, testbench)] * 8
        expected = run_testbench(module, module, testbench)
        assert run_testbenches(jobs, backend="vector") == [expected] * 8

    def test_unknown_backend_raises(self):
        with pytest.raises(SimulationError, match="unknown testbench backend"):
            run_testbenches([], backend="warp")


class TestVectorCaches:
    @pytest.mark.cache_mutating
    def test_vector_kernels_are_cached_per_module_and_shape(self):
        clear_kernel_cache()
        module = parse_verilog(PASSTHROUGH)[0]
        testbench = _tb([0, 1, 2, 3])
        first = run_testbench(module, module, testbench, backend="vector")
        second = run_testbench(module, module, testbench, backend="vector")
        assert first == second
        stats = kernel_cache_stats()
        # dut and reference share the module: one compile, three cache hits.
        assert stats["vec_misses"] == 1 and stats["vec_hits"] == 3
        clear_kernel_cache()
        stats = kernel_cache_stats()
        assert stats["vec_size"] == 0 and stats["vec_kernel_size"] == 0

    @pytest.mark.cache_mutating
    def test_cache_registry_and_snapshot_cover_vector_caches(self):
        module = parse_verilog(PASSTHROUGH)[0]
        run_testbench(module, module, _tb([1]), backend="vector")
        stats = cache_stats()
        assert "sim_vec" in stats and "sim_vec_kernel" in stats
        for key in ("vec_hits", "vec_misses", "vec_size", "vec_kernel_size", "vec_fallbacks"):
            assert key in kernel_cache_stats(), key
        assert kernel_cache_stats()["vec_fallbacks"] == 0
        wide = parse_verilog(WIDE)[0]
        run_testbench(wide, wide, _tb([1]), backend="vector")
        run_testbench(wide, wide, _tb([2]), backend="vector")  # negatively cached
        assert kernel_cache_stats()["vec_fallbacks"] == 1

        from repro.service.telemetry import Telemetry

        snapshot = Telemetry().snapshot()
        assert "sim_vec" in snapshot.caches and "sim_vec_kernel" in snapshot.caches


class TestLockstepExecutor:
    def test_lockstep_executor_matches_serial(self):
        from repro.experiments.executors import LockstepExecutor, SerialExecutor
        from repro.experiments.work import (
            STRATEGY_RECHISEL,
            STRATEGY_ZERO_SHOT,
            WorkerContext,
            WorkUnit,
        )

        knobs = (
            ("enable_escape", True),
            ("feedback_detail", "full"),
            ("use_knowledge", True),
        )
        units = []
        for sample in range(3):
            for problem_id in ("alu_w4", "counter_w4"):
                units.append(
                    WorkUnit(STRATEGY_RECHISEL, "GPT-4o mini", problem_id, 0, sample, 0, 6, knobs)
                )
                units.append(
                    WorkUnit(
                        STRATEGY_ZERO_SHOT,
                        "GPT-4o mini",
                        problem_id,
                        0,
                        sample,
                        0,
                        1,
                        (("language", "chisel"),),
                    )
                )

        def collect(executor):
            ordered = [None] * len(units)
            for index, payload in executor.run_stream(units):
                ordered[index] = payload
            return ordered

        serial = collect(SerialExecutor(WorkerContext()))
        lockstep = collect(LockstepExecutor(WorkerContext()))
        assert serial == lockstep

    def test_engine_selects_lockstep_executor(self):
        from repro.experiments.config import ExperimentConfig
        from repro.experiments.engine import SweepEngine
        from repro.experiments.executors import LockstepExecutor, SerialExecutor

        engine = SweepEngine(ExperimentConfig(jobs=1, lockstep=True))
        assert isinstance(engine._select_executor(pending_count=10), LockstepExecutor)
        assert isinstance(engine._select_executor(pending_count=1), SerialExecutor)

    def test_lockstep_env_opt_in(self, monkeypatch):
        from repro.experiments.config import ExperimentConfig

        monkeypatch.setenv("REPRO_LOCKSTEP", "1")
        assert ExperimentConfig.from_environment().lockstep


class TestServiceSimBatching:
    def test_service_batches_simulations_bit_identically(self):
        from repro.experiments.executors import SerialExecutor
        from repro.experiments.work import STRATEGY_RECHISEL, WorkerContext, WorkUnit
        from repro.service.config import ServiceConfig
        from repro.service.service import serve_units

        knobs = (
            ("enable_escape", True),
            ("feedback_detail", "full"),
            ("use_knowledge", True),
        )
        units = [
            WorkUnit(STRATEGY_RECHISEL, "GPT-4o mini", problem_id, 0, sample, 0, 6, knobs)
            for sample in range(3)
            for problem_id in ("alu_w4", "counter_w4")
        ]
        serial = [None] * len(units)
        for index, payload in SerialExecutor(WorkerContext()).run_stream(units):
            serial[index] = payload

        payloads, snapshot = serve_units(
            units,
            ServiceConfig(max_in_flight=8, sim_batch_window=0.005, sim_max_batch=8),
        )
        assert payloads == serial
        assert snapshot.sim_batches >= 1
        assert snapshot.sim_batched_requests >= snapshot.sim_batches
        assert snapshot.max_sim_batch >= 2
        assert "sim batches" in snapshot.render()

    def test_sim_batching_disabled_below_two(self):
        from repro.experiments.work import STRATEGY_RECHISEL, WorkUnit
        from repro.service.config import ServiceConfig
        from repro.service.service import serve_units

        knobs = (
            ("enable_escape", True),
            ("feedback_detail", "full"),
            ("use_knowledge", True),
        )
        units = [WorkUnit(STRATEGY_RECHISEL, "GPT-4o mini", "alu_w4", 0, 0, 0, 4, knobs)]
        _payloads, snapshot = serve_units(units, ServiceConfig(sim_max_batch=1))
        assert snapshot.sim_batches == 0

    def test_sim_batch_env_knobs(self, monkeypatch):
        from repro.service.config import ServiceConfig

        monkeypatch.setenv("REPRO_SERVICE_SIM_BATCH_WINDOW", "0.25")
        monkeypatch.setenv("REPRO_SERVICE_SIM_MAX_BATCH", "32")
        config = ServiceConfig.from_environment()
        assert config.sim_batch_window == 0.25
        assert config.sim_max_batch == 32
