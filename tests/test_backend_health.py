"""Trace-kernel crashes degrade to the step-wise tier, run by run.

A crash in a trace kernel must never take a job down when the step-wise
tier can still answer: in ``auto``, ``run_testbench`` answers every crashed
run from the step-wise tier, which runs on the interpreter and so shares no
compiled closure with the crashed kernel.  No run depends on an earlier
one: each tries the trace tier again.  Strict forcing
(``REPRO_SIM_BACKEND=trace``) opts out — a forced tier propagates its crash,
because silently answering from another tier would invalidate the forcing.
A :class:`SimulationError` is a semantic error and propagates in every mode.
"""

import pytest

from repro.sim import testbench as tb
from repro.sim.testbench import FunctionalPoint, Testbench, run_testbench
from repro.verilog.compile_sim import get_kernel
from repro.verilog.parser import parse_verilog
from repro.verilog.simulator import SimulationError

PASSTHROUGH = """
module top(input wire [3:0] d, output wire [3:0] q);
  assign q = d;
endmodule
"""

MODULE = parse_verilog(PASSTHROUGH)[0]
BENCH = Testbench(
    points=[FunctionalPoint(inputs={"d": value}) for value in range(4)],
    observed_outputs=["q"],
    reset_cycles=0,
)


@pytest.fixture(autouse=True)
def _auto_backend(monkeypatch):
    monkeypatch.delenv("REPRO_SIM_BACKEND", raising=False)


def _crash_trace(monkeypatch, calls):
    def boom(dut, reference, testbench):
        calls.append(1)
        raise RuntimeError("chaos: trace kernel crash")

    monkeypatch.setattr(tb, "_run_testbench_trace", boom)


class TestTraceDegradation:
    def test_trace_crash_degrades_to_stepwise(self, monkeypatch):
        calls = []
        _crash_trace(monkeypatch, calls)
        report = run_testbench(MODULE, MODULE, BENCH)
        assert report.passed and calls == [1]

    def test_every_auto_run_tries_the_trace_tier(self, monkeypatch):
        calls = []
        _crash_trace(monkeypatch, calls)
        reports = [run_testbench(MODULE, MODULE, BENCH) for _ in range(4)]
        assert [report.passed for report in reports] == [True] * 4
        assert len(calls) == 4  # no crash count switches the tier off

    @pytest.mark.parametrize("backend", ["auto", "trace"])
    def test_simulation_error_propagates(self, monkeypatch, backend):
        def raise_sim_error(dut, reference, testbench):
            raise SimulationError("semantic problem, not a kernel crash")

        monkeypatch.setattr(tb, "_run_testbench_trace", raise_sim_error)
        monkeypatch.setenv("REPRO_SIM_BACKEND", backend)
        with pytest.raises(SimulationError, match="semantic problem"):
            run_testbench(MODULE, MODULE, BENCH)


def _fresh_bench() -> Testbench:
    """A testbench with no memoized reference outputs, so kernels really run."""
    return Testbench(points=list(BENCH.points), observed_outputs=["q"], reset_cycles=0)


@pytest.mark.cache_mutating
class TestKernelClosureCrash:
    """A crash inside the compiled kernel's own ``comb``, which the trace
    kernels call: the step-wise fallback must not run the same closure."""

    @pytest.fixture(autouse=True)
    def _poisoned_comb(self, monkeypatch):
        self.crashes = []

        def boom(state):
            self.crashes.append(1)
            raise IndexError("chaos: comb crash")

        monkeypatch.setattr(get_kernel(MODULE), "comb", boom)

    def test_auto_answers_every_run_from_the_interpreter(self):
        reports = [run_testbench(MODULE, MODULE, _fresh_bench()) for _ in range(4)]
        assert [report.passed for report in reports] == [True] * 4
        assert len(self.crashes) == 4  # each run reached the crashing kernel

    def test_forced_trace_propagates_the_crash(self, monkeypatch):
        monkeypatch.setenv("REPRO_SIM_BACKEND", "trace")
        with pytest.raises(IndexError, match="comb crash"):
            run_testbench(MODULE, MODULE, _fresh_bench())


class TestStrictForcing:
    def test_forced_trace_propagates_the_crash(self, monkeypatch):
        calls = []
        _crash_trace(monkeypatch, calls)
        monkeypatch.setenv("REPRO_SIM_BACKEND", "trace")
        with pytest.raises(RuntimeError, match="trace kernel crash"):
            run_testbench(MODULE, MODULE, BENCH)
