"""The benchmark registry: 216 module-level cases across three suites.

The split mirrors the character of the paper's sources:

* ``verilogeval_s2r`` — mostly combinational spec-to-RTL blocks and small
  arithmetic units;
* ``hdlbits``        — the tutorial-style problems, including the paper's
  ``Vector5`` case study, plus basic sequential elements;
* ``rtllm``          — the larger designs: ALUs, FSMs, arbiters, MACs.

The exact problem count is asserted to 216, the number of valid cases the
paper retains after filtering.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.problems.base import SUITE_HDLBITS, SUITE_RTLLM, SUITE_VERILOGEVAL, Problem
from repro.problems.families import arithmetic, combinational, fsm, memory, sequential

EXPECTED_PROBLEM_COUNT = 216
MEMORY_PROBLEM_COUNT = 10


@dataclass
class ProblemRegistry:
    """An ordered, id-addressable collection of benchmark problems."""

    problems: list[Problem] = field(default_factory=list)

    def __post_init__(self) -> None:
        problems, self.problems = self.problems, []
        self._by_id: dict[str, Problem] = {}
        for problem in problems:
            self.add(problem)

    def add(self, problem: Problem) -> None:
        if problem.problem_id in self._by_id:
            raise ValueError(f"duplicate problem id {problem.problem_id!r}")
        self._by_id[problem.problem_id] = problem
        self.problems.append(problem)

    def by_id(self, problem_id: str) -> Problem:
        return self._by_id[problem_id]

    def by_suite(self, suite: str) -> list[Problem]:
        return [p for p in self.problems if p.suite == suite]

    def __len__(self) -> int:
        return len(self.problems)

    def __iter__(self):
        return iter(self.problems)


def build_default_registry() -> ProblemRegistry:
    """Build the full 216-case benchmark."""
    registry = ProblemRegistry()
    VE, HB, RT = SUITE_VERILOGEVAL, SUITE_HDLBITS, SUITE_RTLLM

    # ------------------------------------------------------------ VerilogEval
    for width in (1, 2, 3, 4, 5, 6, 8, 16, 32):
        registry.add(combinational.passthrough(width, VE))
    for width in (1, 2, 4, 8, 16, 32):
        registry.add(combinational.notgate(width, VE))
    for op in ("and", "or", "xor", "nand", "nor", "xnor"):
        for width in (1, 2, 3, 4, 8, 16):
            registry.add(combinational.gate(op, width, VE))
    for width in (1, 2, 3, 4, 8, 16, 32):
        registry.add(combinational.mux2(width, VE))
    for width in (2, 4, 8, 16):
        registry.add(combinational.mux4(width, VE))
    for width in (2, 3, 4, 5, 6, 8, 16, 32):
        registry.add(combinational.adder(width, VE))
    for width in (4, 6, 8, 16, 32):
        registry.add(combinational.subtractor(width, VE))
    for width in (2, 3, 4, 6, 8, 16, 32):
        registry.add(combinational.comparator(width, VE))
    for bits in (2, 3, 4, 5):
        registry.add(combinational.decoder(bits, VE))
    for size in (4, 8, 16):
        registry.add(combinational.priority_encoder(size, VE))
    for width in (4, 6, 8, 16, 32):
        registry.add(combinational.parity(width, VE))
    for in_width, out_width in ((4, 8), (8, 16), (8, 32), (16, 32)):
        registry.add(combinational.sign_extend(in_width, out_width, VE))
    for width in (4, 8, 16):
        registry.add(combinational.abs_diff(width, VE))
    for width in (4, 8, 16):
        registry.add(combinational.min_max(width, VE))
    for width in (4, 8, 16, 32):
        registry.add(arithmetic.saturating_adder(width, VE))
    for width in (3, 4, 6, 8, 16, 32):
        registry.add(arithmetic.average(width, VE))
    for width in (2, 3, 4, 5, 6, 8, 16):
        registry.add(arithmetic.multiplier(width, VE))
    for width, lo, hi in ((8, 10, 200), (8, 32, 96), (16, 100, 1000)):
        registry.add(arithmetic.clamp(width, lo, hi, VE))
    for width, lanes in ((4, 2), (8, 2), (4, 3), (8, 3)):
        registry.add(arithmetic.dot_product(width, lanes, VE))

    # --------------------------------------------------------------- HDLBits
    registry.add(combinational.vector5(HB))
    for width in (4, 6, 8, 16, 32):
        registry.add(combinational.bit_reverse(width, HB))
    for width in (3, 4, 8, 16):
        registry.add(combinational.popcount(width, HB))
    for width in (4, 8, 16, 32):
        registry.add(combinational.shifter(width, HB))
    registry.add(combinational.byte_swap(HB))
    registry.add(combinational.seven_segment(HB))
    for bits in (3, 5, 7):
        registry.add(combinational.majority(bits, HB))
    registry.add(combinational.ones_complement_checksum(HB))
    for width in (4, 8, 16):
        registry.add(combinational.gray_encoder(width, HB))
    for width in (1, 2, 3, 4, 8, 16, 32):
        registry.add(sequential.dff(width, HB))
    for width in (4, 6, 8, 16, 32):
        registry.add(sequential.register_with_enable(width, HB))
    for width in (2, 3, 4, 5, 6, 8, 16):
        registry.add(sequential.counter(width, HB))
    for width in (4, 8, 16):
        registry.add(sequential.up_down_counter(width, HB))
    registry.add(sequential.edge_detector(HB, falling=False))
    registry.add(sequential.edge_detector(HB, falling=True))
    registry.add(sequential.toggle_ff(HB))
    for pattern in ("101", "110", "1101"):
        registry.add(fsm.sequence_detector(pattern, HB))

    # ----------------------------------------------------------------- RTLLM
    for width in (2, 3, 4):
        registry.add(sequential.saturating_counter(width, RT))
    for width, depth in ((4, 3), (8, 4), (8, 2), (16, 4)):
        registry.add(sequential.shift_register(width, depth, RT))
    for width in (4, 8, 16):
        registry.add(sequential.serial_to_parallel(width, RT))
    for width in (4, 6, 8, 16):
        registry.add(sequential.accumulator(width, RT))
    for width, depth in ((8, 3), (4, 5), (16, 2)):
        registry.add(sequential.delay_line(width, depth, RT))
    for width in (3, 4, 8):
        registry.add(sequential.gray_counter(width, RT))
    for cycles in (2, 3, 5):
        registry.add(sequential.pulse_stretcher(cycles, RT))
    for pattern in ("0110", "1010"):
        registry.add(fsm.sequence_detector(pattern, RT))
    for green, yellow, red in ((3, 1, 2), (4, 2, 3)):
        registry.add(fsm.traffic_light(green, yellow, red, RT))
    for price in (15, 25):
        registry.add(fsm.vending_machine(price, RT))
    registry.add(fsm.round_robin_arbiter(RT))
    for cycles in (3, 4):
        registry.add(fsm.debouncer(cycles, RT))
    for width in (4, 8, 16):
        registry.add(arithmetic.alu(width, RT))
    for width in (4, 8):
        registry.add(arithmetic.mac(width, RT))

    count = len(registry)
    if count != EXPECTED_PROBLEM_COUNT:
        raise AssertionError(
            f"benchmark registry has {count} problems, expected {EXPECTED_PROBLEM_COUNT}"
        )
    return registry


def build_memory_family() -> list[Problem]:
    """The ``memory`` extension family: register files and FIFOs.

    Kept out of :func:`build_default_registry` so the paper's exact 216-case
    benchmark stays intact; :func:`build_extended_registry` appends these for
    sweeps that include the memory language surface (ROADMAP "Scenario
    expansion").
    """
    problems: list[Problem] = []
    for width, depth in ((4, 4), (8, 8), (16, 4)):
        problems.append(memory.register_file(width, depth))
    for width, depth in ((4, 4), (8, 8), (16, 4)):
        problems.append(memory.sync_register_file(width, depth))
    for width, depth in ((4, 4), (8, 4), (8, 8), (16, 8)):
        problems.append(memory.fifo(width, depth))
    if len(problems) != MEMORY_PROBLEM_COUNT:
        raise AssertionError(
            f"memory family has {len(problems)} problems, expected {MEMORY_PROBLEM_COUNT}"
        )
    return problems


def build_extended_registry() -> ProblemRegistry:
    """The paper's 216 cases plus the ``memory`` extension suite.

    Drop-in wherever :func:`build_default_registry` is accepted (e.g.
    ``SweepEngine(registry=build_extended_registry())``), so the memory
    family runs through the standard sweep/campaign path unchanged.
    """
    registry = build_default_registry()
    for problem in build_memory_family():
        registry.add(problem)
    return registry
