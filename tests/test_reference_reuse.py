"""Reference-output reuse and the one-pass output comparison.

Every candidate is checked against the same golden on the same stimulus
program, so the golden's sampled outputs are memoized on the
:class:`Testbench` (keyed by kernel fingerprint and schedule digest)
and a DUT whose kernel *is* the reference's reuses them instead of running.
Reports must not depend on whether the memo hit, and a crashing kernel must
leave nothing memoized.

``_compare_outputs`` finds the mismatching flat indices in one pass; the
per-point loop it replaced is kept here as the oracle.
"""

from __future__ import annotations

import random

import pytest

from repro.sim import testbench as tb
from repro.sim.testbench import (
    FunctionalPoint,
    Mismatch,
    SimulationReport,
    Testbench,
)
from repro.verilog.compile_sim import get_trace_kernel
from repro.verilog.parser import parse_verilog
from sim_tiers import run_many_on, run_on


def _oracle_compare(testbench, observed, dut_out, ref_out) -> SimulationReport:
    """The per-point comparison loop, as it was before the one-pass rewrite."""
    report = SimulationReport(total_points=len(testbench.points))
    cursor = 0
    width = len(observed)
    for index, point in enumerate(testbench.points):
        if not point.check:
            continue
        report.checked_points += 1
        point_failed = False
        for position, signal in enumerate(observed):
            expected = ref_out[cursor + position]
            actual = dut_out[cursor + position]
            if expected != actual:
                point_failed = True
                if len(report.mismatches) < testbench.max_mismatches:
                    report.mismatches.append(
                        Mismatch(index, signal, dict(point.inputs), expected, actual, point.comment)
                    )
        cursor += width
        if point_failed:
            report.failed_points += 1
    return report


def _random_case(rng: random.Random):
    """A random testbench plus two flat output arrays shaped for it."""
    observed = [f"o{i}" for i in range(rng.randint(1, 4))]
    points = [
        FunctionalPoint(
            {"a": rng.getrandbits(8), "b": rng.getrandbits(3)},
            check=rng.random() < 0.8,
            comment=rng.choice(["", "corner"]),
        )
        for _ in range(rng.randint(0, 40))
    ]
    testbench = Testbench(
        points=points,
        observed_outputs=observed,
        max_mismatches=rng.choice([0, 1, 3, 64]),
    )
    samples = sum(point.check for point in points) * len(observed)
    ref_out = [rng.getrandbits(rng.choice([1, 8, 64])) for _ in range(samples)]
    flip = rng.choice([0.0, 0.05, 0.5, 1.0])
    dut_out = [
        value ^ (1 + rng.getrandbits(3)) if rng.random() < flip else value
        for value in ref_out
    ]
    return testbench, observed, dut_out, ref_out


class TestCompareOutputs:
    def test_matches_the_per_point_oracle_on_random_arrays(self):
        rng = random.Random(1234)
        for _ in range(400):
            testbench, observed, dut_out, ref_out = _random_case(rng)
            expected = _oracle_compare(testbench, observed, dut_out, ref_out)
            assert tb._compare_outputs(testbench, observed, dut_out, ref_out) == expected
            # Memoized checked-point indices are reused on a second call.
            assert tb._compare_outputs(testbench, observed, dut_out, ref_out) == expected

    def test_equal_arrays_count_only_checked_points(self):
        points = [FunctionalPoint({"a": i}, check=i % 3 != 0) for i in range(9)]
        testbench = Testbench(points=points, observed_outputs=["x", "y"])
        out = list(range(12))
        for dut_out in (out, list(out)):
            report = tb._compare_outputs(testbench, ["x", "y"], dut_out, out)
            assert report == SimulationReport(total_points=9, checked_points=6)
            assert report == _oracle_compare(testbench, ["x", "y"], dut_out, out)

    def test_cap_keeps_order_and_counts_every_failed_point(self):
        points = [FunctionalPoint({"a": i}, check=i != 1) for i in range(6)]
        testbench = Testbench(points=points, observed_outputs=["x", "y"], max_mismatches=3)
        ref_out = [0] * 10
        dut_out = [1] * 10
        report = tb._compare_outputs(testbench, ["x", "y"], dut_out, ref_out)
        assert report == _oracle_compare(testbench, ["x", "y"], dut_out, ref_out)
        assert report.failed_points == 5 and report.checked_points == 5
        assert [(m.point_index, m.signal) for m in report.mismatches] == [
            (0, "x"),
            (0, "y"),
            (2, "x"),
        ]


# Two references with different output sets, so the default observed list
# (the reference's outputs) differs between them, and a DUT that disagrees
# with both.
REF_A = parse_verilog(
    """
module ref_a(input clock, input reset, input [7:0] d, output reg [7:0] q, output [7:0] r);
  always @(posedge clock) q <= reset ? 8'd0 : d;
  assign r = d ^ 8'h5a;
endmodule
"""
)[0]
REF_B = parse_verilog(
    """
module ref_b(input clock, input reset, input [7:0] d, output reg [7:0] q);
  always @(posedge clock) q <= reset ? 8'd0 : d + 8'd1;
endmodule
"""
)[0]
DUT = parse_verilog(
    """
module dut(input clock, input reset, input [7:0] d, output reg [7:0] q, output [7:0] r);
  always @(posedge clock) q <= reset ? 8'd0 : (d[0] ? d : d + 8'd1);
  assign r = d ^ 8'h5b;
endmodule
"""
)[0]


def _bench() -> Testbench:
    rng = random.Random(7)
    return Testbench(
        points=[
            FunctionalPoint({"d": rng.getrandbits(8)}, clock_cycles=1, check=i % 5 != 4)
            for i in range(40)
        ],
        reset_cycles=1,
        max_mismatches=8,
    )


def _bench_observing(*names: str) -> Testbench:
    testbench = _bench()
    testbench.observed_outputs = list(names)
    return testbench


PAIRS = [(DUT, REF_A), (DUT, REF_B), (REF_A, REF_A), (REF_B, REF_B), (REF_B, REF_A)]


def _memo(testbench: Testbench) -> dict:
    return testbench.__dict__.get("_reference_outputs", {})


@pytest.fixture(autouse=True)
def _auto_backend(monkeypatch):
    monkeypatch.delenv("REPRO_SIM_BACKEND", raising=False)


class TestReferenceMemo:
    def test_reports_equal_on_miss_and_hit(self):
        testbench = _bench()
        oracle = [run_on("interpreter", d, r, _bench()) for d, r in PAIRS]
        assert not oracle[0].passed and not oracle[1].passed and oracle[2].passed
        misses = [run_on("auto", d, r, testbench) for d, r in PAIRS]
        hits = [run_on("auto", d, r, testbench) for d, r in PAIRS]
        assert misses == oracle and hits == oracle
        # One entry per reference: the two observed lists give two digests.
        entries = list(_memo(testbench))
        assert len(entries) == 2 and len({key[1] for key in entries}) == 2

    def test_run_testbenches_equal_on_miss_and_hit(self):
        testbench = _bench()
        oracle = [run_on("interpreter", d, r, _bench()) for d, r in PAIRS]
        jobs = [(d, r, testbench) for d, r in PAIRS] * 2
        assert run_many_on("auto", jobs) == oracle * 2  # miss, then hit
        assert run_many_on("auto", jobs) == oracle * 2  # hit

    def test_memo_is_keyed_by_the_observed_list(self):
        testbench = _bench()
        full = run_on("trace", DUT, REF_A, testbench)
        testbench.observed_outputs = ["q"]
        only_q = run_on("trace", DUT, REF_A, testbench)
        assert only_q == run_on("interpreter", DUT, REF_A, _bench_observing("q"))
        assert only_q != full
        assert len(_memo(testbench)) == 2

    def test_a_dut_sharing_the_reference_kernel_runs_nothing(self, monkeypatch):
        testbench = _bench()
        assert run_on("trace", REF_A, REF_A, testbench).passed
        schedule, _ = tb._trace_plan(testbench, ("q", "r"))
        kernel = get_trace_kernel(REF_A, schedule)

        def boom(_stimulus):
            raise AssertionError("the memoized reference must not run again")

        monkeypatch.setattr(kernel, "run", boom)
        assert run_on("trace", REF_A, REF_A, testbench).passed


def _crash(monkeypatch, kernel) -> None:
    def boom(*_args):
        raise RuntimeError("chaos: kernel crash")

    monkeypatch.setattr(kernel, "run", boom)


class TestCrashesMemoizeNothing:
    def test_trace_crash_degrades_without_memoizing(self, monkeypatch):
        testbench = _bench()
        schedule, _ = tb._trace_plan(testbench, ("q", "r"))
        _crash(monkeypatch, get_trace_kernel(REF_A, schedule))
        report = run_on("auto", DUT, REF_A, testbench)
        assert report == run_on("interpreter", DUT, REF_A, _bench())
        assert _memo(testbench) == {}

    def test_batched_trace_crash_degrades_every_job(self, monkeypatch):
        testbench = _bench()
        schedule, _ = tb._trace_plan(testbench, ("q", "r"))
        _crash(monkeypatch, get_trace_kernel(REF_A, schedule))
        jobs = [(DUT, REF_A, testbench), (REF_A, REF_A, testbench)]
        expected = [run_on("interpreter", d, r, _bench()) for d, r, _ in jobs]
        assert run_many_on("auto", jobs) == expected
        assert _memo(testbench) == {}

    def test_memo_hit_answers_after_crashed_jobs(self, monkeypatch):
        testbench = _bench()
        assert run_many_on("auto", [(REF_A, REF_A, testbench)] * 2)[0].passed
        schedule, _ = tb._trace_plan(testbench, ("q", "r"))
        crashed = _bench()
        with monkeypatch.context() as patch:
            _crash(patch, get_trace_kernel(REF_A, schedule))
            assert run_many_on("auto", [(REF_A, REF_A, crashed)] * 2)[0].passed
        assert _memo(crashed) == {}
        # The reference is memoized on the first testbench: its jobs run no
        # kernel and still pass.
        assert len(_memo(testbench)) == 1
        assert run_many_on("auto", [(REF_A, REF_A, testbench)] * 2)[0].passed
