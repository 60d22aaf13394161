"""The batch entry point: ``run_testbenches`` equals per-job ``run_testbench``.

Every job tries the backend plan's tiers on its own, so a batch returns
exactly the reports of one ``run_testbench`` call per job, in job order,
whatever the mix of eligible and ineligible pairings.  The service's
simulate batcher must leave the served payloads bit-identical to a serial
sweep.
"""

from __future__ import annotations

import pytest

from repro.sim.testbench import (
    FunctionalPoint,
    Testbench,
    run_testbench,
    run_testbenches,
)
from repro.verilog.parser import parse_verilog
from repro.verilog.simulator import SimulationError
from sim_tiers import run_many_on, sim_backend

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


class TestRunTestbenches:
    def test_empty_batch(self):
        assert run_testbenches([]) == []

    def test_mixed_eligibility_preserves_job_order(self):
        """Narrow, wide, behavioural and loop jobs interleave freely."""
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
        assert run_many_on("interpreter", jobs) == expected

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

    def test_duplicate_jobs_equal_one_run(self):
        """Identical (module, stimulus) jobs each report what one run does."""
        module = parse_verilog(SEQ)[0]
        testbench = Testbench(
            points=[FunctionalPoint(inputs={"d": i}, clock_cycles=1) for i in range(4)],
            observed_outputs=["q"],
            reset_cycles=1,
        )
        jobs = [(module, module, testbench)] * 8
        expected = run_testbench(module, module, testbench)
        assert run_many_on("trace", jobs) == [expected] * 8

    def test_unknown_backend_raises(self):
        rule = "REPRO_SIM_BACKEND must be one of auto, trace, interpreter, got 'warp'"
        with sim_backend("warp"), pytest.raises(SimulationError, match=rule):
            run_testbenches([])

    @pytest.mark.parametrize("backend", ["auto", "trace", "interpreter"])
    def test_batch_equals_per_job_runs_for_every_backend(self, backend):
        """Passing, failing, sequential and ineligible jobs under one argument."""
        narrow = parse_verilog(PASSTHROUGH)[0]
        narrow_faulty = parse_verilog(PASSTHROUGH.replace("q = d", "q = d ^ 4'd1"))[0]
        seq = parse_verilog(SEQ)[0]
        seq_faulty = parse_verilog(SEQ.replace("q <= d", "q <= d + 1"))[0]
        wide = parse_verilog(WIDE)[0]
        seq_tb = Testbench(
            points=[FunctionalPoint(inputs={"d": i % 16}, clock_cycles=1) for i in range(6)],
            observed_outputs=["q"],
            reset_cycles=1,
        )
        wide_tb = Testbench(
            points=[FunctionalPoint(inputs={"d": (1 << 69) + i}) for i in range(3)],
            observed_outputs=["q"],
            reset_cycles=0,
        )
        jobs = [
            (narrow, narrow, _tb([1, 2, 3])),
            (narrow_faulty, narrow, _tb([1, 2, 3])),
            (seq_faulty, seq, seq_tb),
            (wide, wide, wide_tb),
            (seq, seq, seq_tb),
        ]
        with sim_backend(backend):
            expected = [run_testbench(*job) for job in jobs]
            assert run_testbenches(jobs) == expected
        assert [report.passed for report in expected] == [True, False, False, True, True]

    def test_jobs_may_be_any_iterable(self):
        module = parse_verilog(PASSTHROUGH)[0]
        jobs = [(module, module, _tb([value])) for value in range(3)]
        expected = [run_testbench(*job) for job in jobs]
        assert run_testbenches(job for job in jobs) == expected


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
