"""Testbench execution: drive stimuli into DUT and reference, compare outputs.

Two tiers produce bit-identical :class:`SimulationReport`s:

* the **trace** tier compiles the whole stimulus schedule into one
  generated closure per (module, testbench shape) pair
  (:func:`repro.verilog.compile_sim.get_trace_kernel`): stimulus values are
  preprocessed once into a flat array, the reset/drive/settle/tick sequence is
  unrolled, and all sampled outputs come back in a single call — no per-point
  dict or attribute dispatch;
* the **step-wise** tier drives both devices point by point through the
  :class:`DeviceUnderTest` interface, Verilog modules on the interpreter
  (:class:`~repro.verilog.simulator.Simulation`).  It is the semantic oracle,
  the only path for behavioural references and modules outside the compiled
  subset, and the path that reproduces runtime :class:`SimulationError`
  reports exactly.  It runs none of the trace tier's compiled code.

**Backend rules.**  One knob, ``REPRO_SIM_BACKEND``, resolved by one plan
(:func:`_backend_plan`), decides every run:

* ``auto`` (the default) tries trace, then step-wise.  The trace tier falls
  back silently when the pairing is ineligible (behavioural reference,
  module outside the compiled subset, port mismatch, oversized schedule) or
  its kernel crashes.
* ``trace`` is strict: trace answers or raises, and its kernel crashes
  propagate, because a forcing knob that degrades quietly would invalidate
  what the caller forced it for.
* ``interpreter`` runs step-wise only.
* Any other value raises :class:`SimulationError` with the settings row's
  rule.
* A set ``REPRO_TB_*`` or ``REPRO_SIM_*`` variable that no settings row
  declares is a deleted knob: it raises
  :class:`~repro.settings.SettingError` naming it, on the first run of each
  process.  :func:`check_simulator_settings` makes both checks at once, and
  the command-line entry points call it before any work starts.

A crash in ``auto`` is answered step-wise on every run: the step-wise tier
shares no compiled code with the crashed kernel, so no later run depends on
an earlier one.  A :class:`SimulationError` is a semantic error, not a
crash, and propagates from every tier.

:func:`run_testbenches` runs many jobs under one plan, each through its own
tiers, so its reports equal per-job :func:`run_testbench` calls.

**Reference reuse**: the trace tier simulates a reference once per stimulus
program.  Its sampled outputs are memoized on the :class:`Testbench`
(:func:`_reference_outputs`), and a DUT whose cached kernel is the
reference's reuses them instead of running.  Reports are then built by one
comparison pass (:func:`_compare_outputs`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import compress, count, repeat
from operator import floordiv, ne
from typing import Callable, Iterable, NamedTuple, Sequence

from repro import settings
from repro.verilog.compile_sim import TraceSchedule, checked_indices, get_trace_kernel
from repro.verilog.simulator import Simulation, SimulationError, read_setting
from repro.verilog.vast import VModule

#: Knob families the simulator owns.  Only ``REPRO_SIM_BACKEND`` is declared.
_FAMILIES = ("REPRO_TB_", "REPRO_SIM_")

#: Whether this process has scanned the environment for leftover knobs.  The
#: scan reads every variable, so a verdict does not repeat it.
_leftovers_checked = False


def _reject_leftover_knobs() -> None:
    global _leftovers_checked
    settings.reject_undeclared(_FAMILIES)
    _leftovers_checked = True


def check_simulator_settings() -> None:
    """Raise :class:`~repro.settings.SettingError` for a simulator knob the
    first verdict would fail on: a malformed ``REPRO_SIM_BACKEND`` or a
    leftover ``REPRO_TB_*`` / ``REPRO_SIM_*`` export."""
    _reject_leftover_knobs()
    settings.read("REPRO_SIM_BACKEND")


@dataclass(frozen=True)
class FunctionalPoint:
    """One functional point: input stimuli, optional clocking, optional check.

    ``clock_cycles`` positive edges are applied *after* the inputs are driven;
    for purely combinational designs it stays 0 and outputs are compared after
    settling.
    """

    inputs: dict[str, int] = field(default_factory=dict)
    clock_cycles: int = 0
    check: bool = True
    comment: str = ""


@dataclass(frozen=True)
class Mismatch:
    """One failed functional point, formatted for reviewer feedback."""

    point_index: int
    signal: str
    inputs: dict[str, int]
    expected: int
    actual: int
    comment: str = ""

    def render(self) -> str:
        stimuli = ", ".join(f"{name}={value}" for name, value in sorted(self.inputs.items()))
        text = (
            f"functional point #{self.point_index}: output {self.signal} "
            f"expected {self.expected} but got {self.actual} (inputs: {stimuli})"
        )
        if self.comment:
            text += f" [{self.comment}]"
        return text


@dataclass
class SimulationReport:
    """Outcome of running a testbench against a DUT."""

    total_points: int = 0
    checked_points: int = 0
    failed_points: int = 0
    mismatches: list[Mismatch] = field(default_factory=list)
    runtime_error: str | None = None

    @property
    def passed(self) -> bool:
        return self.runtime_error is None and self.failed_points == 0

    def render(self) -> str:
        if self.runtime_error is not None:
            return f"simulation error: {self.runtime_error}"
        if self.passed:
            return f"all {self.checked_points} functional points passed"
        lines = [
            f"{self.failed_points} of {self.checked_points} functional points failed:"
        ]
        for mismatch in self.mismatches[:20]:
            lines.append("  " + mismatch.render())
        if len(self.mismatches) > 20:
            lines.append(f"  ... and {len(self.mismatches) - 20} more mismatches")
        return "\n".join(lines)


@dataclass
class Testbench:
    """A stimulus program shared by the DUT and the reference module."""

    __test__ = False  # not a pytest test class despite the name

    points: list[FunctionalPoint]
    clock: str = "clock"
    reset: str = "reset"
    reset_cycles: int = 1
    observed_outputs: list[str] | None = None
    max_mismatches: int = 64


class DeviceUnderTest:
    """Adapter giving :class:`Simulation` and behavioural models one interface."""

    def drive(self, inputs: dict[str, int]) -> None:
        raise NotImplementedError

    def tick(self, clock: str, cycles: int) -> None:
        raise NotImplementedError

    def reset_pulse(self, reset: str, clock: str, cycles: int) -> None:
        raise NotImplementedError

    def read(self, name: str) -> int:
        raise NotImplementedError

    def output_names(self) -> list[str]:
        raise NotImplementedError

    def flush(self) -> None:
        """Apply any deferred/batched stimulus now.  Default: nothing deferred."""


class VerilogDevice(DeviceUnderTest):
    """A Verilog module running in the cycle-based simulator."""

    def __init__(self, module: VModule):
        self.module = module
        self.simulation = Simulation(module)

    def drive(self, inputs: dict[str, int]) -> None:
        known = {}
        for name, value in inputs.items():
            if self.module.port_named(name) is None:
                raise SimulationError(
                    f"module {self.module.name} has no port named {name!r}; the "
                    "generated module does not match the required I/O contract"
                )
            known[name] = value
        # Defer settling: the next step(), read() or flush() settles once for
        # the batch, in the same state an eager settle would have seen.
        self.simulation.poke_many(known, settle=False)

    def flush(self) -> None:
        self.simulation.flush()

    def tick(self, clock: str, cycles: int) -> None:
        if cycles <= 0:
            return
        if self.module.port_named(clock) is None:
            raise SimulationError(
                f"module {self.module.name} has no clock port {clock!r}"
            )
        self.simulation.step(clock, cycles)

    def reset_pulse(self, reset: str, clock: str, cycles: int) -> None:
        if cycles <= 0 or self.module.port_named(reset) is None:
            return
        # The assertion settle is deferred into step()'s pre-edge settle (same
        # state, so merging is safe for any design).  The post-edge settle and
        # the deassertion settle are kept eager: skipping either would change
        # the settle *sequence*, which is observable for latch-like
        # (path-dependent) combinational logic.
        self.simulation.poke(reset, 1, settle=False)
        self.simulation.step(clock, cycles)
        self.simulation.flush()
        self.simulation.poke(reset, 0)

    def read(self, name: str) -> int:
        if self.module.port_named(name) is None:
            raise SimulationError(
                f"module {self.module.name} has no output port named {name!r}"
            )
        return self.simulation.peek(name)

    def output_names(self) -> list[str]:
        return [p.name for p in self.module.outputs()]


def _trace_plan(testbench: Testbench, observed: tuple[str, ...]):
    """``(TraceSchedule, flat stimulus tuple)`` for this testbench + outputs.

    One pass over the points builds both: the schedule's maximal runs of
    equal point shapes and the stimulus values in point order.  Memoized on
    the testbench instance (stimulus programs are immutable by convention),
    keyed by the observed-output tuple since the default observed list
    depends on the reference device.
    """
    plans = testbench.__dict__.setdefault("_trace_plans", {})
    plan = plans.get(observed)
    if plan is None:
        runs: list[tuple[tuple[str, ...], int, bool, int]] = []
        stimulus: list[int] = []
        extend = stimulus.extend
        shape = None
        length = 0
        for point in testbench.points:
            inputs = point.inputs
            extend(inputs.values())
            current = (tuple(inputs), point.clock_cycles, point.check)
            if current == shape:
                length += 1
                continue
            if length:
                runs.append((*shape, length))
            shape, length = current, 1
        if length:
            runs.append((*shape, length))
        schedule = TraceSchedule(
            clock=testbench.clock,
            reset=testbench.reset,
            reset_cycles=testbench.reset_cycles,
            observed=observed,
            runs=tuple(runs),
        )
        plan = plans[observed] = (schedule, tuple(stimulus))
    return plan


def _trace_plan_for(testbench: Testbench, reference: VModule):
    """``(observed, schedule, stimulus)``: observed defaults to the reference's outputs."""
    observed = testbench.observed_outputs
    if observed is None:
        observed = [port.name for port in reference.outputs()]
    return (observed, *_trace_plan(testbench, tuple(observed)))


def _checked_points(testbench: Testbench, observed: Sequence[str]) -> tuple[int, ...]:
    """Indices of the checked points, read off the schedule's runs.

    Memoized on the testbench: which points are checked does not depend on
    the observed outputs, which only pick the plan the runs come from.
    """
    checked = testbench.__dict__.get("_checked_points")
    if checked is None:
        schedule = _trace_plan(testbench, tuple(observed))[0]
        checked = testbench.__dict__["_checked_points"] = tuple(checked_indices(schedule))
    return checked


def _reference_outputs(testbench: Testbench, kernel, run: Callable[[], object] | None = None):
    """The reference kernel's sampled outputs, memoized on the testbench.

    Every candidate of a sweep, sample or repair iteration is checked against
    the same golden on the same stimulus program, so the golden's outputs are
    simulated once per ``(fingerprint, digest)`` — the key of the kernel
    caches.  On a miss, ``run()`` computes and memoizes them; without ``run``
    a miss returns ``None``.  A raising ``run`` memoizes nothing.
    """
    memo = testbench.__dict__.setdefault("_reference_outputs", {})
    key = (kernel.fingerprint, kernel.digest)
    outputs = memo.get(key)
    if outputs is None and run is not None:
        outputs = memo[key] = run()
    return outputs


def _compare_outputs(
    testbench: Testbench,
    observed: Sequence[str],
    dut_out: Sequence[int],
    ref_out: Sequence[int],
) -> SimulationReport:
    """Build the report from two flat sampled-output arrays (point-major order).

    Samples cover the checked points only, ``len(observed)`` per point.  Equal
    arrays return at once; otherwise one pass finds the mismatching flat
    indices, in point-major order, and only those are mapped back to
    ``(point, signal)``.
    """
    checked = _checked_points(testbench, observed)
    report = SimulationReport(total_points=len(testbench.points), checked_points=len(checked))
    if dut_out is ref_out or dut_out == ref_out:
        return report
    width = len(observed)
    diverging = list(compress(count(), map(ne, ref_out, dut_out)))
    report.failed_points = (
        len(diverging) if width == 1 else len(set(map(floordiv, diverging, repeat(width))))
    )
    points = testbench.points
    for flat in diverging[: max(0, testbench.max_mismatches)]:
        point_index = checked[flat // width]
        point = points[point_index]
        report.mismatches.append(
            Mismatch(
                point_index,
                observed[flat % width],
                dict(point.inputs),
                ref_out[flat],
                dut_out[flat],
                point.comment,
            )
        )
    return report


def _run_testbench_trace(
    dut: VModule, reference: VModule, testbench: Testbench
) -> SimulationReport | None:
    """Trace-compiled run; ``None`` when the pairing needs the step-wise path."""
    observed, schedule, stimulus = _trace_plan_for(testbench, reference)
    dut_kernel = get_trace_kernel(dut, schedule)
    if dut_kernel is None:
        return None
    ref_kernel = get_trace_kernel(reference, schedule)
    if ref_kernel is None:
        return None

    ref_out = _reference_outputs(testbench, ref_kernel, lambda: ref_kernel.run(stimulus))
    dut_out = ref_out if dut_kernel is ref_kernel else dut_kernel.run(stimulus)
    return _compare_outputs(testbench, observed, dut_out, ref_out)


class _BackendPlan(NamedTuple):
    """Which backend tiers a testbench run tries (see the module docstring)."""

    trace: bool  # try the trace tier before step-wise
    strict: bool  # REPRO_SIM_BACKEND=trace: trace answers or raises


def _backend_plan() -> _BackendPlan:
    """Resolve ``REPRO_SIM_BACKEND`` into a plan."""
    if not _leftovers_checked:
        _reject_leftover_knobs()
    name = read_setting("REPRO_SIM_BACKEND")
    return _BackendPlan(name != "interpreter", name == "trace")


def _forced_ineligible(dut, reference) -> SimulationError:
    """The error a strict trace tier raises for a pairing it cannot run."""
    prefix = "REPRO_SIM_BACKEND=trace was forced, but the "
    if isinstance(dut, VModule) and isinstance(reference, VModule):
        return SimulationError(
            f"{prefix}pairing of modules {dut.name!r} and {reference.name!r} is not "
            "trace-eligible (interpreter-only module, port mismatch, or oversized "
            "schedule); unset the variable to allow the step-wise fallback"
        )
    devices = ", ".join(type(device).__name__ for device in (dut, reference))
    return SimulationError(
        f"{prefix}trace backend requires parsed Verilog modules on both sides "
        f"(got {devices}); behavioural references always run step-wise"
    )


def _run_tiers(
    dut: DeviceUnderTest | VModule,
    reference: DeviceUnderTest | VModule,
    testbench: Testbench,
    plan: _BackendPlan,
) -> SimulationReport:
    """Try the trace tier when the plan has it, then step-wise (see the
    module docstring for when a crash or an ineligible pairing raises)."""
    if plan.trace and isinstance(dut, VModule) and isinstance(reference, VModule):
        try:
            report = _run_testbench_trace(dut, reference, testbench)
        except Exception as crash:
            if plan.strict or isinstance(crash, SimulationError):
                raise
            return _run_testbench_stepwise(dut, reference, testbench)
        if report is not None:
            return report
    if plan.strict:
        raise _forced_ineligible(dut, reference)
    return _run_testbench_stepwise(dut, reference, testbench)


def run_testbenches(
    jobs: Iterable[tuple[DeviceUnderTest | VModule, DeviceUnderTest | VModule, Testbench]],
) -> list[SimulationReport]:
    """Run many ``(dut, reference, testbench)`` jobs; reports in job order.

    Equal to :func:`run_testbench` per job: the plan is resolved once and
    every job tries its tiers on its own.  Jobs on one testbench share its
    memoized reference outputs.
    """
    plan = _backend_plan()
    return [
        _run_tiers(dut, reference, testbench, plan)
        for dut, reference, testbench in jobs
    ]


def run_testbench(
    dut: DeviceUnderTest | VModule,
    reference: DeviceUnderTest | VModule,
    testbench: Testbench,
) -> SimulationReport:
    """Run ``testbench`` on both devices and compare outputs point by point.

    ``REPRO_SIM_BACKEND`` picks the tiers to try; see the module docstring.
    """
    return _run_tiers(dut, reference, testbench, _backend_plan())


def _run_testbench_stepwise(
    dut: DeviceUnderTest | VModule,
    reference: DeviceUnderTest | VModule,
    testbench: Testbench,
) -> SimulationReport:
    """The step-wise oracle: drive both devices point by point."""
    if isinstance(dut, VModule):
        dut = VerilogDevice(dut)
    if isinstance(reference, VModule):
        reference = VerilogDevice(reference)

    report = SimulationReport(total_points=len(testbench.points))
    try:
        dut.reset_pulse(testbench.reset, testbench.clock, testbench.reset_cycles)
        reference.reset_pulse(testbench.reset, testbench.clock, testbench.reset_cycles)

        observed = testbench.observed_outputs
        if observed is None:
            observed = reference.output_names()

        for index, point in enumerate(testbench.points):
            dut.drive(point.inputs)
            reference.drive(point.inputs)
            dut.tick(testbench.clock, point.clock_cycles)
            reference.tick(testbench.clock, point.clock_cycles)
            if not point.check:
                # Unchecked points trigger no reads, so force the deferred
                # stimulus to settle before the next point overwrites it
                # (latch-like designs are sensitive to the settle sequence).
                dut.flush()
                reference.flush()
                continue
            report.checked_points += 1
            point_failed = False
            for signal in observed:
                expected = reference.read(signal)
                actual = dut.read(signal)
                if expected != actual:
                    point_failed = True
                    if len(report.mismatches) < testbench.max_mismatches:
                        report.mismatches.append(
                            Mismatch(index, signal, dict(point.inputs), expected, actual, point.comment)
                        )
            if point_failed:
                report.failed_points += 1
    except SimulationError as exc:
        report.runtime_error = str(exc)
    return report
