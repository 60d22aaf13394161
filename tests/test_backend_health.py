"""Health-based simulation backend degradation.

A crash in a compiled backend (vector or trace kernels) must never take a
job down when a slower tier can still answer: ``run_testbench`` feeds a
per-backend circuit breaker and degrades vector → trace → stepwise.  Strict
env forcing (``REPRO_TB_BACKEND=vector|trace``) opts out — a forced backend
propagates its crash and ignores the breaker, because silently answering
from another tier would invalidate the forcing.
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
    monkeypatch.delenv("REPRO_TB_BACKEND", raising=False)
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


class TestStrictForcingBypassesHealth:
    def test_forced_trace_propagates_the_crash(self, monkeypatch):
        calls = []
        _crash_trace(monkeypatch, calls)
        monkeypatch.setenv("REPRO_TB_BACKEND", "trace")
        with pytest.raises(RuntimeError, match="trace kernel crash"):
            run_testbench(MODULE, MODULE, BENCH)

    def test_forced_trace_ignores_an_open_breaker(self, monkeypatch):
        calls = []
        _crash_trace(monkeypatch, calls)
        for _ in range(2):
            run_testbench(MODULE, MODULE, BENCH)
        assert backend_health()["trace"]["state"] == "open"
        monkeypatch.setenv("REPRO_TB_BACKEND", "trace")
        with pytest.raises(RuntimeError):
            run_testbench(MODULE, MODULE, BENCH)
        assert len(calls) == 3  # strict forcing attempted the tier anyway


class TestVectorDegradation:
    def test_vector_crash_degrades_to_trace(self, monkeypatch):
        def boom(dut, reference, testbench):
            raise RuntimeError("chaos: vector kernel crash")

        monkeypatch.setattr(tb, "_run_testbench_vector", boom)
        report = run_testbench(MODULE, MODULE, BENCH, backend="vector")
        assert report.passed  # answered by the trace tier
        assert backend_health()["vector"]["state"] == "closed"
        assert run_testbench(MODULE, MODULE, BENCH, backend="vector").passed
        assert backend_health()["vector"]["state"] == "open"


class TestHealthKnobs:
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

REGISTER = """
module top(input wire clock, input wire reset, input wire [7:0] d, output reg [7:0] q);
  always @(posedge clock) begin
    if (reset) q <= 8'd0;
    else q <= d{suffix};
  end
endmodule
"""
SEQ_REF = parse_verilog(REGISTER.format(suffix=""))[0]
SEQ_DUT = parse_verilog(REGISTER.format(suffix=" + 8'd1"))[0]


def _seq_bench() -> Testbench:
    return Testbench(
        points=[FunctionalPoint(inputs={"d": value}, clock_cycles=1) for value in range(4)],
        observed_outputs=["q"],
    )


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

    def test_ineligible_vector_pairing_keeps_the_vector_tier_alive(self, monkeypatch):
        real = tb._run_testbench_vector
        calls = []

        def crash_once(dut, reference, testbench):
            calls.append(dut.name)
            if len(calls) == 1:
                raise RuntimeError("chaos: vector kernel crash")
            return real(dut, reference, testbench)

        monkeypatch.setattr(tb, "_run_testbench_vector", crash_once)
        crashed = run_testbench(SEQ_DUT, SEQ_REF, _seq_bench(), backend="vector")
        assert crashed.failed_points == 4  # answered by the trace tier
        assert backend_health()["vector"]["opens"] == 1
        # A DUT missing the observed port: the vector tier returns None.
        assert run_testbench(PORTLESS, MODULE, BENCH, backend="vector").runtime_error is not None
        for _ in range(3):
            assert not run_testbench(SEQ_DUT, SEQ_REF, _seq_bench(), backend="vector").passed
        assert len(calls) == 5  # every later eligible run reached the vector tier
        assert backend_health()["vector"]["state"] == "closed"
