"""Stimulus generators shared by the benchmark problem families."""

from __future__ import annotations

import random
from itertools import product

from repro.problems.base import IoPort
from repro.sim.testbench import FunctionalPoint, Testbench

_EXHAUSTIVE_LIMIT_BITS = 10
_DEFAULT_RANDOM_POINTS = 64
_DEFAULT_SEQUENCE_CYCLES = 48


def combinational_testbench(
    inputs: list[IoPort], rng: random.Random, points: int = _DEFAULT_RANDOM_POINTS
) -> Testbench:
    """Exhaustive stimuli when the input space is small, random otherwise."""
    total_bits = sum(port.width for port in inputs)
    functional_points: list[FunctionalPoint] = []
    if total_bits <= _EXHAUSTIVE_LIMIT_BITS:
        ranges = [range(1 << port.width) for port in inputs]
        for values in product(*ranges):
            stimulus = {port.verilog_name: value for port, value in zip(inputs, values)}
            functional_points.append(FunctionalPoint(stimulus))
    else:
        for _ in range(points):
            stimulus = {
                port.verilog_name: rng.getrandbits(port.width) for port in inputs
            }
            functional_points.append(FunctionalPoint(stimulus))
        # Always include the all-zeros and all-ones corner cases.
        functional_points.append(FunctionalPoint({p.verilog_name: 0 for p in inputs}))
        functional_points.append(
            FunctionalPoint({p.verilog_name: (1 << p.width) - 1 for p in inputs})
        )
    return Testbench(points=functional_points, reset_cycles=0)


def sequential_testbench(
    inputs: list[IoPort],
    rng: random.Random,
    cycles: int = _DEFAULT_SEQUENCE_CYCLES,
    bias: dict[str, float] | None = None,
) -> Testbench:
    """A random input sequence checked every cycle.

    ``bias`` optionally gives per-1-bit-signal probabilities of being high
    (useful for enables that should be mostly asserted).
    """
    bias = bias or {}
    functional_points: list[FunctionalPoint] = []
    for _ in range(cycles):
        stimulus: dict[str, int] = {}
        for port in inputs:
            if port.width == 1 and port.name in bias:
                stimulus[port.verilog_name] = 1 if rng.random() < bias[port.name] else 0
            else:
                stimulus[port.verilog_name] = rng.getrandbits(port.width)
        functional_points.append(FunctionalPoint(stimulus, clock_cycles=1))
    return Testbench(points=functional_points, reset_cycles=2)

