"""The run-length trace schedule: runs of equal point shapes, not points.

``_trace_plan`` turns a testbench into a :class:`TraceSchedule` whose
``runs`` are the maximal runs of consecutive points with equal shape
``(input_names, clock_cycles, check)``, plus the flat stimulus in point
order.  The digest, the port check and the trace codegen all read the runs;
these cases pin what each of them must still see.
"""

from __future__ import annotations

import random
from itertools import groupby

import pytest

from repro.sim import testbench as tb
from repro.sim.testbench import FunctionalPoint, Testbench
from repro.verilog import compile_sim
from repro.verilog.analysis import AnalysisError
from repro.verilog.compile_sim import TraceSchedule, compile_trace, get_trace_kernel
from repro.verilog.parser import parse_verilog
from sim_tiers import run_on

ADDER = parse_verilog(
    """
module adder(input [3:0] a, input [3:0] b, output [4:0] y, output [3:0] x);
  assign y = a + b;
  assign x = a ^ b;
endmodule
"""
)[0]

ACCUMULATOR = parse_verilog(
    """
module acc(input clock, input reset, input [3:0] d, output [3:0] q);
  reg [3:0] r;
  always @(posedge clock) begin
    if (reset) r <= 4'd0;
    else r <= r + d;
  end
  assign q = r;
endmodule
"""
)[0]


def _shape(point: FunctionalPoint):
    return (tuple(point.inputs), point.clock_cycles, point.check)


def _random_points(rng: random.Random, count: int) -> list[FunctionalPoint]:
    """Points drawn from a few shapes, in runs of random length.

    Two shapes drive the same inputs in a different order, so they differ
    only in stimulus order.
    """
    shapes = [
        (("a", "b"), 0, True),
        (("b", "a"), 0, True),
        (("a",), 0, True),
        (("a", "b"), 0, False),
        ((), 0, True),
    ]
    points: list[FunctionalPoint] = []
    while len(points) < count:
        names, cycles, check = rng.choice(shapes)
        for _ in range(rng.randint(1, 6)):
            points.append(
                FunctionalPoint(
                    {name: rng.getrandbits(4) for name in names},
                    clock_cycles=cycles,
                    check=check,
                )
            )
    return points[:count]


def _schedule(points, observed=("y", "x"), **options) -> TraceSchedule:
    return tb._trace_plan(Testbench(points=points, **options), tuple(observed))[0]


def _trace_lines(source: str) -> list[str]:
    """The generated trace after its reset preamble, without indentation."""
    lines = [line.strip() for line in source.splitlines()]
    return lines[2:-1]  # drop "def trace(...)", the initial settle and the return


class TestPlan:
    def test_runs_equal_groupby_over_point_shapes(self):
        rng = random.Random(7)
        for count in [0, 1, 2, 5, 40, 200]:
            points = _random_points(rng, count)
            expected = tuple(
                (*shape, len(list(group))) for shape, group in groupby(map(_shape, points))
            )
            assert _schedule(points).runs == expected

    def test_stimulus_is_flat_in_point_order(self):
        points = _random_points(random.Random(8), 120)
        _, stimulus = tb._trace_plan(Testbench(points=points), ("y",))
        assert stimulus == tuple(value for point in points for value in point.inputs.values())

    def test_a_uniform_program_is_one_run(self):
        points = [FunctionalPoint({"a": i % 16, "b": 3}) for i in range(4096)]
        assert _schedule(points).runs == ((("a", "b"), 0, True, 4096),)

    def test_checked_points_come_from_the_runs(self):
        points = _random_points(random.Random(9), 150)
        testbench = Testbench(points=points)
        expected = tuple(index for index, point in enumerate(points) if point.check)
        assert tb._checked_points(testbench, ["y"]) == expected


class TestDigest:
    def test_equal_shapes_with_other_values_share_a_digest_and_kernel(self):
        rng = random.Random(10)
        first = _random_points(rng, 80)
        second = [
            FunctionalPoint({name: rng.getrandbits(4) for name in point.inputs}, point.clock_cycles, point.check)
            for point in first
        ]
        assert [point.inputs for point in first] != [point.inputs for point in second]
        one, two = _schedule(first), _schedule(second)
        assert one.digest == two.digest
        assert get_trace_kernel(ADDER, one) is get_trace_kernel(ADDER, two)

    def test_a_longer_run_changes_the_digest(self):
        point = FunctionalPoint({"a": 1, "b": 2})
        assert _schedule([point] * 4).digest != _schedule([point] * 5).digest

    def test_a_split_run_changes_the_digest(self):
        same = FunctionalPoint({"a": 1, "b": 2})
        other = FunctionalPoint({"a": 1})
        whole = _schedule([same] * 4 + [other])
        split = _schedule([same] * 2 + [other] + [same] * 2)
        assert whole.digest != split.digest
        # The same point count split into two runs of one shape is a
        # different schedule too: it compiles to two loops, not one.
        names, cycles, check, _length = whole.runs[0]
        halves = TraceSchedule(
            whole.clock,
            whole.reset,
            whole.reset_cycles,
            whole.observed,
            ((names, cycles, check, 2), (names, cycles, check, 2), whole.runs[1]),
        )
        assert halves.digest != whole.digest

    def test_run_order_changes_the_digest(self):
        first = FunctionalPoint({"a": 1, "b": 2})
        second = FunctionalPoint({"a": 1})
        assert _schedule([first, first, second]).digest != _schedule([second, first, first]).digest


class TestPortCheck:
    def test_missing_input_in_a_later_run_is_rejected(self):
        points = [FunctionalPoint({"a": 1, "b": 2})] * 3 + [FunctionalPoint({"a": 1, "zz": 3})]
        schedule = _schedule(points)
        assert len(schedule.runs) == 2
        with pytest.raises(AnalysisError, match="no port named 'zz'"):
            compile_trace(ADDER, schedule)
        assert get_trace_kernel(ADDER, schedule) is None
        report = run_on("auto", ADDER, ADDER, Testbench(points=points))
        assert report.runtime_error is not None and "'zz'" in report.runtime_error
        assert report == run_on("interpreter", ADDER, ADDER, Testbench(points=points))

    def test_missing_clock_in_a_later_run_is_rejected(self):
        points = [FunctionalPoint({"a": 1, "b": 2})] * 3 + [FunctionalPoint({"a": 2}, clock_cycles=1)]
        with pytest.raises(AnalysisError, match="no clock port 'clock'"):
            compile_trace(ADDER, _schedule(points))


class TestCodegen:
    def test_a_stable_run_is_one_loop(self):
        points = [FunctionalPoint({"d": 1}, clock_cycles=1)] * 5
        source = compile_trace(ACCUMULATOR, _schedule(points, ("q",))).source
        assert source.count("for x0 in stim[0:5]:") == 1

    def test_an_unstable_run_unrolls_point_by_point(self):
        # With nothing observed a checked point leaves its clock edge's
        # settle pending, so the first point of the run starts settled and
        # the second does not: their bodies differ and the run must unroll.
        points = [FunctionalPoint({}, clock_cycles=1)] * 3
        schedule = _schedule(points, (), reset_cycles=0)
        assert schedule.runs == (((), 1, True, 3),)
        source = compile_trace(ACCUMULATOR, schedule).source
        assert "for _" not in source
        assert _trace_lines(source) == [
            "step(s)",
            "comb(s)",
            "step(s)",
            "comb(s)",
            "step(s)",
        ]

    def test_unrolled_and_rolled_runs_sample_like_the_stepwise_path(self):
        rng = random.Random(11)
        points = [
            FunctionalPoint({"d": rng.getrandbits(4)}, clock_cycles=rng.choice([0, 1, 2]), check=rng.random() < 0.7)
            for _ in range(10)
            for _ in range(rng.randint(1, 5))
        ]
        expected = run_on("interpreter", ACCUMULATOR, ACCUMULATOR, Testbench(points=points))
        assert run_on("trace", ACCUMULATOR, ACCUMULATOR, Testbench(points=points)) == expected

    def test_a_point_with_too_many_cycles_is_rejected(self):
        points = [FunctionalPoint({"d": 1}, clock_cycles=compile_sim._TRACE_LINE_BUDGET + 1)]
        with pytest.raises(AnalysisError, match="generated-code budget"):
            compile_trace(ACCUMULATOR, _schedule(points, ("q",)))

    def test_a_stable_loop_body_over_the_budget_is_rejected(self):
        cycles = compile_sim._TRACE_LINE_BUDGET // 2 + 1  # two lines per cycle
        points = [FunctionalPoint({"d": 1}, clock_cycles=cycles)] * 2
        with pytest.raises(AnalysisError, match="generated-code budget"):
            compile_trace(ACCUMULATOR, _schedule(points, ("q",)))

    def test_an_unrolled_run_over_the_budget_is_rejected(self):
        # One re-rolled loop would be two lines; unrolled, the run is about
        # two lines per point and crosses the budget.
        points = [FunctionalPoint({}, clock_cycles=1)] * (compile_sim._TRACE_LINE_BUDGET // 2 + 1)
        with pytest.raises(AnalysisError, match="generated-code budget"):
            compile_trace(ACCUMULATOR, _schedule(points, (), reset_cycles=0))


class TestTraceRuns:
    @pytest.mark.parametrize("module, observed", [(ADDER, ("y", "x")), (ACCUMULATOR, ("q",))])
    def test_trace_samples_equal_interpreter_samples(self, module, observed):
        """Runs of mixed shapes sample what a step-wise interpreter run reads."""
        from repro.fuzz.differential import _stepwise_samples

        rng = random.Random(12)
        points = _random_points(rng, 90)
        if module is ACCUMULATOR:
            points = [
                FunctionalPoint({"d": value} if point.inputs else {}, clock_cycles=1, check=point.check)
                for point in points
                for value in [sum(point.inputs.values()) % 16]
            ]
        testbench = Testbench(points=points)
        schedule, stimulus = tb._trace_plan(testbench, observed)
        assert len(schedule.runs) > 1
        samples = compile_trace(module, schedule).run(stimulus)
        assert samples == _stepwise_samples(module, testbench, observed)
