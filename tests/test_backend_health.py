"""Health-based simulation backend degradation.

A crash in a trace kernel must never take a job down when the step-wise
tier can still answer: ``run_testbench`` feeds a circuit breaker and
degrades trace → step-wise, which runs on the interpreter and so shares no
compiled closure with the crashed kernel.  Strict forcing
(``REPRO_SIM_BACKEND=trace``) opts out — a forced tier propagates its crash
and ignores the breaker, because silently answering from another tier would
invalidate the forcing.
"""

import pytest

from repro.sim import testbench as tb
from repro.sim.testbench import (
    FunctionalPoint,
    Testbench,
    backend_health,
    reset_backend_health,
    run_testbench,
)
from repro.verilog.compile_sim import get_kernel
from repro.verilog.parser import parse_verilog

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
def _fresh_health(monkeypatch):
    monkeypatch.setenv("REPRO_SIM_HEALTH_THRESHOLD", "2")
    monkeypatch.delenv("REPRO_SIM_BACKEND", raising=False)
    reset_backend_health()
    yield
    reset_backend_health()


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
        assert backend_health()["trace"]["state"] == "closed"

    def test_breaker_opens_and_skips_the_crashing_tier(self, monkeypatch):
        calls = []
        _crash_trace(monkeypatch, calls)
        for _ in range(2):
            assert run_testbench(MODULE, MODULE, BENCH).passed
        assert backend_health()["trace"]["state"] == "open"
        # Third run: breaker open, the trace tier is not even attempted.
        assert run_testbench(MODULE, MODULE, BENCH).passed
        assert len(calls) == 2

    def test_simulation_errors_are_not_health_evidence(self, monkeypatch):
        def raise_sim_error(dut, reference, testbench):
            from repro.verilog.simulator import SimulationError

            raise SimulationError("semantic problem, not a kernel crash")

        monkeypatch.setattr(tb, "_run_testbench_trace", raise_sim_error)
        from repro.verilog.simulator import SimulationError

        with pytest.raises(SimulationError):
            run_testbench(MODULE, MODULE, BENCH)
        assert backend_health()["trace"]["state"] == "closed"


def _fresh_bench() -> Testbench:
    """A testbench with no memoized reference outputs, so kernels really run."""
    return Testbench(points=list(BENCH.points), observed_outputs=["q"], reset_cycles=0)


@pytest.mark.cache_mutating
class TestKernelClosureCrash:
    """A crash inside the compiled kernel's own ``comb``, which the trace
    kernels call: the step-wise fallback must not run the same closure."""

    @pytest.fixture(autouse=True)
    def _poisoned_comb(self, monkeypatch):
        def boom(state):
            raise IndexError("chaos: comb crash")

        monkeypatch.setattr(get_kernel(MODULE), "comb", boom)

    def test_auto_answers_every_run_from_the_interpreter(self):
        reports = [run_testbench(MODULE, MODULE, _fresh_bench()) for _ in range(4)]
        assert [report.passed for report in reports] == [True] * 4
        health = backend_health()["trace"]
        assert health["state"] == "open" and health["failures"] == 2
        assert health["opens"] == 1

    def test_forced_trace_propagates_the_crash(self, monkeypatch):
        monkeypatch.setenv("REPRO_SIM_BACKEND", "trace")
        with pytest.raises(IndexError, match="comb crash"):
            run_testbench(MODULE, MODULE, _fresh_bench())


class TestStrictForcingBypassesHealth:
    def test_forced_trace_propagates_the_crash(self, monkeypatch):
        calls = []
        _crash_trace(monkeypatch, calls)
        monkeypatch.setenv("REPRO_SIM_BACKEND", "trace")
        with pytest.raises(RuntimeError, match="trace kernel crash"):
            run_testbench(MODULE, MODULE, BENCH)

    def test_forced_trace_ignores_an_open_breaker(self, monkeypatch):
        calls = []
        _crash_trace(monkeypatch, calls)
        for _ in range(2):
            run_testbench(MODULE, MODULE, BENCH)
        assert backend_health()["trace"]["state"] == "open"
        monkeypatch.setenv("REPRO_SIM_BACKEND", "trace")
        with pytest.raises(RuntimeError):
            run_testbench(MODULE, MODULE, BENCH)
        assert len(calls) == 3  # strict forcing attempted the tier anyway


class TestHealthKnobs:
    def test_only_the_trace_tier_has_a_breaker(self):
        assert list(backend_health()) == ["trace"]
        assert backend_health()["trace"]["state"] == "closed"

    def test_zero_threshold_disables_health_tracking(self, monkeypatch):
        monkeypatch.setenv("REPRO_SIM_HEALTH_THRESHOLD", "0")
        reset_backend_health()
        calls = []
        _crash_trace(monkeypatch, calls)
        for _ in range(4):
            assert run_testbench(MODULE, MODULE, BENCH).passed
        assert len(calls) == 4  # never skipped: no breaker in the way
        assert backend_health()["trace"] == {"state": "disabled"}

    def test_success_heals_the_failure_streak(self, monkeypatch):
        calls = []
        _crash_trace(monkeypatch, calls)
        assert run_testbench(MODULE, MODULE, BENCH).passed
        monkeypatch.undo()
        monkeypatch.setenv("REPRO_SIM_HEALTH_THRESHOLD", "2")
        assert run_testbench(MODULE, MODULE, BENCH).passed
        assert backend_health()["trace"]["state"] == "closed"
        assert backend_health()["trace"]["failures"] == 0

    @pytest.mark.parametrize("raw", ["abc", "-1"])
    def test_malformed_threshold_raises_simulation_error(self, monkeypatch, raw):
        from repro.verilog.simulator import SimulationError

        monkeypatch.setenv("REPRO_SIM_HEALTH_THRESHOLD", raw)
        reset_backend_health()
        with pytest.raises(SimulationError, match=f"REPRO_SIM_HEALTH_THRESHOLD.*'{raw}'"):
            backend_health()


PORTLESS = parse_verilog(
    """
module top(input wire [3:0] d, output wire [3:0] r);
  assign r = d;
endmodule
"""
)[0]

class TestHalfOpenProbeIsHandedBack:
    """A tier that runs no kernel must not keep the half-open probe slot.

    With a one-crash threshold and no cooldown, one crash leaves the breaker
    half-open at once.  A job that then takes the probe but runs no kernel
    used to hold the slot for good, locking the tier off for the process.
    """

    @pytest.fixture(autouse=True)
    def _instant_half_open(self, monkeypatch):
        monkeypatch.setenv("REPRO_SIM_HEALTH_THRESHOLD", "1")
        monkeypatch.setattr(tb, "_HEALTH_COOLDOWN", 0.0)
        reset_backend_health()

    def test_ineligible_trace_pairing_keeps_the_trace_tier_alive(self, monkeypatch):
        real = tb._run_testbench_trace
        calls = []

        def crash_once(dut, reference, testbench):
            calls.append(dut.name)
            if len(calls) == 1:
                raise RuntimeError("chaos: trace kernel crash")
            return real(dut, reference, testbench)

        monkeypatch.setattr(tb, "_run_testbench_trace", crash_once)
        assert run_testbench(MODULE, MODULE, BENCH).passed  # crash, answered step-wise
        assert backend_health()["trace"]["opens"] == 1
        # A DUT missing the observed port: the trace tier returns None.
        assert run_testbench(PORTLESS, MODULE, BENCH).runtime_error is not None
        for _ in range(3):
            assert run_testbench(MODULE, MODULE, BENCH).passed
        assert len(calls) == 5  # every later eligible job reached the trace tier
        assert backend_health()["trace"]["state"] == "closed"
