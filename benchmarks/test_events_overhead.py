"""Benchmark: the event bus must stay off the verification hot path.

The observability layer's contract is that instrumentation is safe to leave
on warm paths permanently: ``publish()`` early-outs when nothing subscribes,
and with a subscriber attached an emission is one bounded-deque enqueue — no
blocking I/O, no serialization.  Two regimes quantify that:

* ``test_warm_verify_with_bus_overhead`` — the warm iteration-k+1 verify loop
  (the hottest served path, same shape as
  ``test_verify_warm_iteration``), instrumented exactly like the generation
  service instruments it (a ``session`` span wrapping a ``tool.simulate``
  span plus a job-completion event), with a live subscriber attached.
  Interleaved A/B rounds against the uninstrumented loop; the median
  overhead is asserted below 5%.
* ``test_publish_throughput`` — raw emission cost: events published per
  second into one subscriber, recorded for the trend history.
"""

from __future__ import annotations

import random
import statistics
import time

from conftest import run_once

from repro.obs import EventBus, span
from repro.problems.registry import build_default_registry
from repro.sim.testbench import FunctionalPoint, Testbench
from repro.toolchain.compiler import ChiselCompiler
from repro.toolchain.simulator import Simulator

POINTS = 4096
ROUNDS = 14
MAX_OVERHEAD = 0.05

REGISTRY = build_default_registry()
PROBLEM = REGISTRY.by_id("alu_w8")
SIMULATOR = Simulator(top="TopModule")

_rng = random.Random(0)
TESTBENCH = Testbench(
    points=[
        FunctionalPoint(
            {port.verilog_name: _rng.getrandbits(port.width) for port in PROBLEM.inputs}
        )
        for _ in range(POINTS)
    ],
    reset_cycles=0,
)


def _revision(index: int) -> str:
    return f"// attempt {index}: reviewer feedback applied\n" + PROBLEM.golden_chisel


def _verify(compiler: ChiselCompiler, index: int) -> None:
    golden = compiler.compile(PROBLEM.golden_chisel)
    candidate = compiler.compile(_revision(index))
    outcome = SIMULATOR.simulate(candidate.verilog, golden.verilog, TESTBENCH)
    assert outcome.success, outcome.error


def test_warm_verify_with_bus_overhead(benchmark):
    compiler = ChiselCompiler(top="TopModule")
    _verify(compiler, 0)  # iteration k fills the Verilog-parse and kernel caches

    bus = EventBus()
    subscription = bus.subscribe(("service", "trace"), maxsize=65536)

    def plain_round(index: int) -> None:
        _verify(compiler, index)

    def instrumented_round(index: int) -> None:
        # The service's per-session emission pattern: spans + completion event.
        with span("session", bus=bus, problem="alu_w8", strategy="rechisel"):
            with span("tool.simulate", bus=bus):
                _verify(compiler, index)
        bus.publish("service.job", "completed", problem="alu_w8")

    def measure() -> tuple[float, float]:
        # Interleave A/B rounds so machine drift hits both loops equally.
        plain, instrumented = [], []
        for index in range(ROUNDS):
            start = time.perf_counter()
            plain_round(1 + index)
            plain.append(time.perf_counter() - start)
            start = time.perf_counter()
            instrumented_round(1 + index)
            instrumented.append(time.perf_counter() - start)
            subscription.pop_all()  # a live (draining) subscriber, like the console
        return statistics.median(plain), statistics.median(instrumented)

    plain_median, instrumented_median = run_once(benchmark, measure)
    overhead = instrumented_median / plain_median - 1.0
    assert overhead < MAX_OVERHEAD, (
        f"event emission added {overhead * 100:.1f}% to the warm verify path "
        f"(plain {plain_median * 1000:.2f} ms, "
        f"instrumented {instrumented_median * 1000:.2f} ms; limit "
        f"{MAX_OVERHEAD * 100:.0f}%)"
    )


def test_publish_throughput(benchmark):
    bus = EventBus()
    subscription = bus.subscribe(("bench",), maxsize=1024)
    count = 50_000

    def run() -> float:
        start = time.perf_counter()
        for index in range(count):
            bus.publish("bench", "tick", index=index)
            if index % 512 == 0:
                subscription.pop_all()
        return time.perf_counter() - start

    elapsed = run_once(benchmark, run)
    rate = count / elapsed
    # Emission is a dict build + deque append; anything below 100k/s means
    # something blocking crept onto the publish path.
    assert rate > 100_000, f"publish rate {rate:,.0f}/s below 100k/s"
