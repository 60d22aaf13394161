"""Testbench execution: drive stimuli into DUT and reference, compare outputs.

Three backends produce bit-identical :class:`SimulationReport`s:

* the **trace** backend compiles the whole stimulus schedule into one
  generated closure per (module, testbench shape) pair
  (:func:`repro.verilog.compile_sim.get_trace_kernel`): stimulus values are
  preprocessed once into a flat array, the reset/drive/settle/tick sequence is
  unrolled, and all sampled outputs come back in a single call — no per-point
  dict or attribute dispatch;
* the **vector** backend
  (:func:`repro.verilog.compile_vec.get_vec_kernel`) goes one step further:
  NumPy structure-of-arrays kernels with one ``uint64`` lane per execution,
  evaluating every stimulus point of a combinational testbench in one kernel
  call (a sequential testbench steps its points in time on one lane).
  Ineligible pairings (>64-bit contexts, missing NumPy) fall back to
  trace/step-wise;
* the **step-wise** backend drives both devices point by point through the
  :class:`DeviceUnderTest` interface.  It is the semantic oracle, the only
  path for behavioural references and interpreter-fallback modules, and the
  path that reproduces runtime :class:`SimulationError` reports exactly.

**Backend rules.**  One plan (:func:`_backend_plan`) decides every run: the
tiers to try in order, vector → trace → step-wise or a suffix of it.

* ``backend=`` names the first tier (``"vector"``, ``"trace"``,
  ``"stepwise"``); ``"auto"``, the default, starts at trace.  ``None`` reads
  ``REPRO_TB_BACKEND``.  Any other name raises :class:`SimulationError`.
* A tier named by the *argument* falls back silently when the pairing is
  ineligible (behavioural reference, interpreter-only module, port mismatch,
  oversized schedule, >64-bit signals for vector).  A tier forced through
  the *environment* (``REPRO_TB_BACKEND=trace`` or ``=vector``) is strict: it
  answers or raises, and its kernel crashes propagate, because a forcing
  knob that degrades quietly would invalidate what the caller forced it for.
* ``REPRO_SIM_BACKEND=interpreter`` makes ``"auto"`` step-wise only, since
  the trace and vector tiers run compiled kernels.  It changes no named
  tier: under ``backend="vector"`` an ineligible run still falls back to
  trace, then step-wise.
* **Breaker degradation**: kernel-path crashes (exceptions escaping a
  compiled kernel — never mismatch reports or :class:`SimulationError`) feed
  per-tier circuit breakers.  An open breaker (``REPRO_SIM_HEALTH_THRESHOLD``
  consecutive crashes, default 3) skips its tier until the cooldown
  expires, so one poisoned kernel path cannot fail a whole campaign.  A
  half-open breaker admits one probe: a tier that answers closes it, one
  that answers nothing hands the probe back.  Strict tiers bypass their
  breaker.  ``backend_health()`` snapshots the breakers;
  ``reset_backend_health()`` re-arms them (tests).

:func:`run_testbenches` runs many jobs under one plan, each through its own
tiers, so its reports equal per-job :func:`run_testbench` calls.  Candidates
are not batched across jobs: at the batch sizes the service sees, lockstep
vector lanes ran slower than per-job trace kernels.

**Reference reuse**: both kernel tiers simulate a reference once per
stimulus program.  Its sampled outputs are memoized on the
:class:`Testbench` (:func:`_reference_outputs`), and a DUT whose cached kernel
is the reference's reuses them instead of running.  Reports are then built
by one comparison pass (:func:`_compare_outputs`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import compress, count
from operator import ne
from typing import Callable, Iterable, NamedTuple, Sequence

from repro.retry import CircuitBreaker
from repro.verilog.compile_sim import TraceSchedule, get_trace_kernel
from repro.verilog.compile_vec import VecTraceKernel, get_vec_kernel
from repro.verilog.simulator import Simulation, SimulationError, read_setting
from repro.verilog.vast import VModule

_TB_BACKENDS = ("auto", "trace", "stepwise", "vector")
_TIERS = ("vector", "trace", "stepwise")
_HEALTH_COOLDOWN = 5.0

#: Per-backend health breakers (lazily built; ``None`` entries = disabled).
_health: dict[str, CircuitBreaker | None] | None = None


def _health_breakers() -> dict[str, CircuitBreaker | None]:
    global _health
    if _health is None:
        threshold = read_setting("REPRO_SIM_HEALTH_THRESHOLD")
        _health = {
            name: (
                CircuitBreaker(threshold, cooldown=_HEALTH_COOLDOWN, name="sim." + name)
                if threshold is not None
                else None
            )
            for name in ("vector", "trace")
        }
    return _health


def _admit(tier: str, forced: bool) -> bool:
    """Whether kernel tier ``tier`` may run now: a forced tier always may;
    otherwise its breaker decides (claiming the probe slot when half-open)."""
    breaker = _health_breakers()[tier]
    return forced or breaker is None or breaker.allow()


def _settle(tier: str, forced: bool, answered: bool, crash: Exception | None = None) -> None:
    """Report an admitted attempt at ``tier`` to its breaker.

    A ``crash`` re-raises when the tier is forced or the crash is a
    :class:`SimulationError` (a semantic error, not health evidence); any
    other crash counts as a failure.  An answer counts as a success.  An
    attempt that answered nothing hands its probe slot back, so a half-open
    breaker never waits on a probe that ran no kernel.
    """
    breaker = _health_breakers()[tier]
    propagate = crash is not None and (forced or isinstance(crash, SimulationError))
    if breaker is not None:
        if crash is not None and not propagate:
            breaker.record_failure()
        elif answered:
            breaker.record_success()
        elif not forced:
            breaker.release()
    if propagate:
        raise crash


def backend_health() -> dict:
    """Snapshot of the vector/trace health breakers (state, failures, opens)."""
    return {
        name: (breaker.snapshot() if breaker is not None else {"state": "disabled"})
        for name, breaker in _health_breakers().items()
    }


def reset_backend_health() -> None:
    """Re-arm the health breakers (re-reading ``REPRO_SIM_HEALTH_THRESHOLD``)."""
    global _health
    _health = None


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

    Memoized on the testbench instance (stimulus programs are immutable by
    convention), keyed by the observed-output tuple since the default observed
    list depends on the reference device.
    """
    plans = testbench.__dict__.setdefault("_trace_plans", {})
    plan = plans.get(observed)
    if plan is None:
        points: list[tuple[tuple[str, ...], int, bool]] = []
        stimulus: list[int] = []
        for point in testbench.points:
            points.append((tuple(point.inputs), point.clock_cycles, point.check))
            stimulus.extend(point.inputs.values())
        schedule = TraceSchedule(
            clock=testbench.clock,
            reset=testbench.reset,
            reset_cycles=testbench.reset_cycles,
            observed=observed,
            points=tuple(points),
        )
        plan = plans[observed] = (schedule, tuple(stimulus))
    return plan


def _trace_plan_for(testbench: Testbench, reference: VModule):
    """``(observed, schedule, stimulus)``: observed defaults to the reference's outputs."""
    observed = testbench.observed_outputs
    if observed is None:
        observed = [port.name for port in reference.outputs()]
    return (observed, *_trace_plan(testbench, tuple(observed)))


def _checked_points(testbench: Testbench) -> tuple[int, ...]:
    """Indices of the checked points, memoized on the testbench."""
    checked = testbench.__dict__.get("_checked_points")
    if checked is None:
        checked = testbench.__dict__["_checked_points"] = tuple(
            index for index, point in enumerate(testbench.points) if point.check
        )
    return checked


def _reference_outputs(testbench: Testbench, kernel, run: Callable[[], object] | None = None):
    """The reference kernel's sampled outputs, memoized on the testbench.

    Every candidate of a sweep, sample or repair iteration is checked against
    the same golden on the same stimulus program, so the golden's outputs are
    simulated once per ``(fingerprint, digest)`` — the key of the kernel
    caches — and the kernel kind (trace lists and vector arrays are kept
    apart).  On a miss, ``run()`` computes and memoizes them; without ``run``
    a miss returns ``None``.  A raising ``run`` memoizes nothing.
    """
    memo = testbench.__dict__.setdefault("_reference_outputs", {})
    key = (type(kernel).__name__, kernel.fingerprint, kernel.digest)
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
    ``(point, signal)``.  Shared by the trace and vector backends so mismatch
    ordering and ``max_mismatches`` capping are identical by construction.
    """
    checked = _checked_points(testbench)
    report = SimulationReport(total_points=len(testbench.points), checked_points=len(checked))
    if dut_out is ref_out or dut_out == ref_out:
        return report
    width = len(observed)
    diverging = list(compress(count(), map(ne, ref_out, dut_out)))
    report.failed_points = len({flat // width for flat in diverging})
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


def _compare_vec_outputs(
    testbench: Testbench,
    observed: Sequence[str],
    dut_out,
    ref_out,
) -> SimulationReport:
    """:func:`_compare_outputs` over uint64 sample arrays.

    Matching arrays (a passing candidate, or a DUT reusing the reference's
    outputs) are decided by one array comparison; divergent ones are
    compared as lists.
    """
    if dut_out is ref_out or bool((dut_out == ref_out).all()):
        return _compare_outputs(testbench, observed, ref_out, ref_out)
    return _compare_outputs(testbench, observed, dut_out.tolist(), ref_out.tolist())


def _packed_stimulus(testbench: Testbench, kernel: VecTraceKernel, stimulus: tuple):
    """The kernel-ready stimulus matrix, memoized on the testbench.

    Keyed by (fingerprint, digest) — repair iterations re-verify revised
    candidates against the same testbench, so the masked uint64 packing of an
    unchanged stimulus program is reused across calls.
    """
    packs = testbench.__dict__.setdefault("_vec_packs", {})
    key = (kernel.fingerprint, kernel.digest)
    packed = packs.get(key)
    if packed is None:
        packed = packs[key] = kernel.pack([stimulus])
    return packed


def _run_testbench_vector(
    dut: VModule, reference: VModule, testbench: Testbench
) -> SimulationReport | None:
    """Vector-kernel run; ``None`` when the pairing needs a scalar backend."""
    observed, schedule, stimulus = _trace_plan_for(testbench, reference)
    dut_kernel = get_vec_kernel(dut, schedule)
    if dut_kernel is None:
        return None
    ref_kernel = get_vec_kernel(reference, schedule)
    if ref_kernel is None:
        return None
    ref_out = _reference_outputs(
        testbench,
        ref_kernel,
        lambda: ref_kernel.run(_packed_stimulus(testbench, ref_kernel, stimulus))[0],
    )
    if dut_kernel is ref_kernel:  # a structurally identical DUT reuses the outputs
        dut_out = ref_out
    else:
        dut_out = dut_kernel.run(_packed_stimulus(testbench, dut_kernel, stimulus))[0]
    return _compare_vec_outputs(testbench, observed, dut_out, ref_out)


class _BackendPlan(NamedTuple):
    """Which backend tiers a testbench run tries (see the module docstring)."""

    tiers: tuple[str, ...]  # tried in order for every job; a suffix of _TIERS
    strict: bool  # tiers[0] was forced through REPRO_TB_BACKEND: it answers or raises


def _backend_plan(backend: str | None) -> _BackendPlan:
    """Resolve ``backend`` (``None``: ``REPRO_TB_BACKEND``) into a plan."""
    env = read_setting("REPRO_TB_BACKEND")
    name = env if backend is None else backend
    if name not in _TB_BACKENDS:
        raise SimulationError(
            f"unknown testbench backend {name!r}; expected one of {_TB_BACKENDS}"
        )
    strict = backend is None and name in ("trace", "vector")
    if name == "auto":
        interpreter = read_setting("REPRO_SIM_BACKEND") == "interpreter"
        return _BackendPlan(_TIERS[2:] if interpreter else _TIERS[1:], False)
    return _BackendPlan(_TIERS[_TIERS.index(name) :], strict)


#: Why a forced kernel tier refuses a pairing, and the fallback it skips.
_INELIGIBLE = {
    "vector": ("NumPy unavailable, >64-bit signals, interpreter-only module", "scalar fallbacks"),
    "trace": ("interpreter-only module", "step-wise fallback"),
}


def _forced_ineligible(tier: str, dut, reference) -> SimulationError:
    """The error a strict tier raises for a pairing it cannot run."""
    prefix = f"REPRO_TB_BACKEND={tier} was forced, but the "
    if isinstance(dut, VModule) and isinstance(reference, VModule):
        causes, fallback = _INELIGIBLE[tier]
        return SimulationError(
            f"{prefix}pairing of modules {dut.name!r} and {reference.name!r} is not "
            f"{tier}-eligible ({causes}, port mismatch, or oversized schedule); unset "
            f"the variable or use backend='auto' to allow the {fallback}"
        )
    devices = ", ".join(type(device).__name__ for device in (dut, reference))
    return SimulationError(
        f"{prefix}{tier} backend requires parsed Verilog modules on both sides "
        f"(got {devices}); behavioural references always run step-wise"
    )


def _run_tiers(
    dut: DeviceUnderTest | VModule,
    reference: DeviceUnderTest | VModule,
    testbench: Testbench,
    tiers: tuple[str, ...],
    strict: bool,
) -> SimulationReport:
    """Try ``tiers`` in order until one answers; every plan ends step-wise."""
    modules = isinstance(dut, VModule) and isinstance(reference, VModule)
    for tier in tiers[:-1]:
        forced = strict and tier == tiers[0]
        if modules and _admit(tier, forced):
            run = _run_testbench_vector if tier == "vector" else _run_testbench_trace
            try:
                report = run(dut, reference, testbench)
            except Exception as crash:
                _settle(tier, forced, False, crash)
                continue
            _settle(tier, forced, report is not None)
            if report is not None:
                return report
        if forced:
            raise _forced_ineligible(tier, dut, reference)
    return _run_testbench_stepwise(dut, reference, testbench)


def run_testbenches(
    jobs: Iterable[tuple[DeviceUnderTest | VModule, DeviceUnderTest | VModule, Testbench]],
    backend: str | None = None,
) -> list[SimulationReport]:
    """Run many ``(dut, reference, testbench)`` jobs; reports in job order.

    Equal to :func:`run_testbench` per job: ``backend`` is resolved once and
    every job tries the plan's tiers on its own.  Jobs on one testbench share
    its memoized reference outputs.
    """
    plan = _backend_plan(backend)
    return [
        _run_tiers(dut, reference, testbench, plan.tiers, plan.strict)
        for dut, reference, testbench in jobs
    ]


def run_testbench(
    dut: DeviceUnderTest | VModule,
    reference: DeviceUnderTest | VModule,
    testbench: Testbench,
    backend: str | None = None,
) -> SimulationReport:
    """Run ``testbench`` on both devices and compare outputs point by point.

    ``backend`` picks the tiers to try; see the module docstring.
    """
    plan = _backend_plan(backend)
    return _run_tiers(dut, reference, testbench, plan.tiers, plan.strict)


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
