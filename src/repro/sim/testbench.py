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
  evaluating every stimulus point of a combinational testbench — and, through
  :func:`run_testbenches`, every structurally identical candidate of a batch
  in lockstep — in one kernel call.  Ineligible pairings (>64-bit contexts,
  missing NumPy) silently fall back to trace/step-wise;
* the **step-wise** backend drives both devices point by point through the
  :class:`DeviceUnderTest` interface.  It is the semantic oracle, the only
  path for behavioural references and interpreter-fallback modules, and the
  path that reproduces runtime :class:`SimulationError` reports exactly.

Backend selection: ``run_testbench(..., backend=...)`` accepts ``"auto"``
(trace when both devices are eligible — the default), ``"trace"`` /
``"vector"`` (prefer that path, silently falling back when the pairing is
ineligible) and ``"stepwise"``; the environment variable ``REPRO_TB_BACKEND``
overrides the default for ``"auto"`` callers.  Forcing the backend through the
*environment* is stricter than the argument: ``REPRO_TB_BACKEND=trace`` (or
``=vector``) raises :class:`~repro.verilog.simulator.SimulationError` when the
pairing cannot use the forced backend (behavioural reference,
interpreter-only module, oversized schedule, >64-bit signals for vector)
instead of silently falling back — a global forcing knob that degrades
quietly would invalidate whatever measurement or verification the caller
forced it for.  ``REPRO_SIM_BACKEND=interpreter`` also disables the trace and
vector paths under ``"auto"``, since both execute compiled kernels.

**Health-based degradation**: kernel-path crashes (exceptions escaping a
compiled vector/trace kernel — never ordinary mismatch reports or
:class:`SimulationError`) feed per-backend circuit breakers.  Under
``"auto"``, a backend whose breaker trips (``REPRO_SIM_HEALTH_THRESHOLD``
consecutive crashes, default 3) is skipped until its cooldown expires —
vector degrades to trace, trace to step-wise — so a single poisoned kernel
path cannot fail a whole campaign.  Env-forced backends stay strict: with
``REPRO_TB_BACKEND=vector``/``=trace`` a kernel crash propagates instead of
degrading, because a forced backend that silently degrades would invalidate
whatever the caller forced it for.  ``backend_health()`` snapshots the
breakers; ``reset_backend_health()`` re-arms them (tests).

:func:`run_testbenches` is the batched entry point: jobs whose modules share a
structural fingerprint and testbench shape coalesce into one vector-kernel
call (duplicate (candidate, stimulus) rows collapse to a single lane), with
``REPRO_SIM_MAX_LANES`` bounding the lanes per call.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Iterable, Sequence

from repro.retry import CircuitBreaker
from repro.verilog.compile_sim import TraceSchedule, get_trace_kernel
from repro.verilog.compile_vec import VecTraceKernel, get_vec_kernel
from repro.verilog.simulator import Simulation, SimulationError
from repro.verilog.vast import VModule

_TB_BACKEND_ENV = "REPRO_TB_BACKEND"
_TB_BACKENDS = ("auto", "trace", "stepwise", "vector")
_MAX_LANES_ENV = "REPRO_SIM_MAX_LANES"
_DEFAULT_MAX_LANES = 65536
_HEALTH_THRESHOLD_ENV = "REPRO_SIM_HEALTH_THRESHOLD"
_HEALTH_COOLDOWN = 5.0

#: Per-backend health breakers (lazily built; ``None`` entries = disabled).
_health: dict[str, CircuitBreaker | None] | None = None


def _health_breakers() -> dict[str, CircuitBreaker | None]:
    global _health
    if _health is None:
        raw = os.environ.get(_HEALTH_THRESHOLD_ENV, "").strip()
        try:
            threshold = int(raw) if raw else 3
        except ValueError:
            raise SimulationError(
                f"{_HEALTH_THRESHOLD_ENV} must be an integer, got {raw!r}"
            ) from None
        if threshold < 0:
            raise SimulationError(
                f"{_HEALTH_THRESHOLD_ENV} must be >= 0 (0 disables), got {raw!r}"
            )
        _health = {
            name: (
                CircuitBreaker(threshold, cooldown=_HEALTH_COOLDOWN, name="sim." + name)
                if threshold > 0
                else None
            )
            for name in ("vector", "trace")
        }
    return _health


def _health_allows(backend: str) -> bool:
    breaker = _health_breakers().get(backend)
    return breaker is None or breaker.allow()


def _health_failure(backend: str) -> None:
    breaker = _health_breakers().get(backend)
    if breaker is not None:
        breaker.record_failure()


def _health_success(backend: str) -> None:
    breaker = _health_breakers().get(backend)
    if breaker is not None:
        breaker.record_success()


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


def _compare_outputs(
    testbench: Testbench,
    observed: Sequence[str],
    dut_out: Sequence[int],
    ref_out: Sequence[int],
) -> SimulationReport:
    """Build the report from two flat sampled-output arrays (point-major order).

    Shared by the trace and vector backends so mismatch ordering and
    ``max_mismatches`` capping are identical by construction.
    """
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


def _run_testbench_trace(
    dut: VModule, reference: VModule, testbench: Testbench
) -> SimulationReport | None:
    """Trace-compiled run; ``None`` when the pairing needs the step-wise path."""
    observed = testbench.observed_outputs
    if observed is None:
        observed = [port.name for port in reference.outputs()]
    schedule, stimulus = _trace_plan(testbench, tuple(observed))
    dut_kernel = get_trace_kernel(dut, schedule)
    if dut_kernel is None:
        return None
    ref_kernel = get_trace_kernel(reference, schedule)
    if ref_kernel is None:
        return None

    dut_out = dut_kernel.run(stimulus)
    ref_out = ref_kernel.run(stimulus)
    return _compare_outputs(testbench, observed, dut_out, ref_out)


def _compare_vec_outputs(
    testbench: Testbench,
    observed: Sequence[str],
    dut_out,
    ref_out,
) -> SimulationReport:
    """:func:`_compare_outputs` over uint64 sample arrays, fast-pathed.

    Matching arrays (the overwhelmingly common case for a passing candidate,
    and always the case for shared DUT/reference lanes) skip the per-point
    Python loop entirely — with no mismatches the loop can only count checked
    points, which is computed directly.  Divergent arrays take the shared
    slow path so mismatch ordering and capping stay identical by construction.
    """
    if dut_out is ref_out or bool((dut_out == ref_out).all()):
        report = SimulationReport(total_points=len(testbench.points))
        report.checked_points = sum(1 for point in testbench.points if point.check)
        return report
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
    observed = testbench.observed_outputs
    if observed is None:
        observed = [port.name for port in reference.outputs()]
    schedule, stimulus = _trace_plan(testbench, tuple(observed))
    dut_kernel = get_vec_kernel(dut, schedule)
    if dut_kernel is None:
        return None
    ref_kernel = get_vec_kernel(reference, schedule)
    if ref_kernel is None:
        return None
    if ref_kernel is dut_kernel:
        # Structurally identical DUT and reference (same fingerprint hits the
        # same cached kernel): one set of lanes serves both sides.
        dut_out = ref_out = dut_kernel.run(_packed_stimulus(testbench, dut_kernel, stimulus))[0]
    else:
        dut_out = dut_kernel.run(_packed_stimulus(testbench, dut_kernel, stimulus))[0]
        ref_out = ref_kernel.run(_packed_stimulus(testbench, ref_kernel, stimulus))[0]
    return _compare_vec_outputs(testbench, observed, dut_out, ref_out)


def _max_lanes() -> int:
    raw = os.environ.get(_MAX_LANES_ENV, "").strip()
    if raw:
        try:
            value = int(raw)
        except ValueError:
            raise SimulationError(
                f"{_MAX_LANES_ENV} must be an integer, got {raw!r}"
            ) from None
        if value <= 0:
            raise SimulationError(f"{_MAX_LANES_ENV} must be positive, got {raw!r}")
        return value
    return _DEFAULT_MAX_LANES


def _run_vec_group(kernel: VecTraceKernel, rows: list[tuple]) -> list:
    """Run one kernel's deduplicated stimulus rows, chunked by the lane budget."""
    rows_per_chunk = max(1, _max_lanes() // max(1, kernel.lanes_per_row))
    outputs: list = []
    for start in range(0, len(rows), rows_per_chunk):
        matrix = kernel.run(rows[start : start + rows_per_chunk])
        outputs.extend(matrix[i] for i in range(matrix.shape[0]))
    return outputs


def run_testbenches(
    jobs: Iterable[tuple[DeviceUnderTest | VModule, DeviceUnderTest | VModule, Testbench]],
    backend: str | None = None,
) -> list[SimulationReport]:
    """Run many ``(dut, reference, testbench)`` jobs, coalescing same-shape work.

    Jobs whose modules share a structural fingerprint and testbench shape are
    grouped onto one vector kernel and simulated as a single lockstep batch;
    duplicate (module, stimulus) rows — N samples that produced the same
    candidate, or the shared golden reference — collapse to one lane.  Reports
    come back in job order and are bit-identical to per-job
    :func:`run_testbench` results.

    Under ``backend=None``/``"auto"``, a lone sequential job (nothing to
    batch with) keeps the scalar trace path, which is faster at one lane;
    ``backend="vector"`` or ``REPRO_TB_BACKEND=vector`` forces vector
    execution, the latter strictly (ineligible jobs raise).  Ineligible or
    non-batchable jobs fall back to :func:`run_testbench` individually.
    ``REPRO_SIM_MAX_LANES`` caps the lanes evaluated per kernel call; larger
    batches are split into ragged chunks transparently.
    """
    jobs = list(jobs)
    env_backend = os.environ.get(_TB_BACKEND_ENV)
    resolved = backend if backend is not None else env_backend or "auto"
    if resolved not in _TB_BACKENDS:
        raise SimulationError(
            f"unknown testbench backend {resolved!r}; expected one of {_TB_BACKENDS}"
        )
    use_vector = resolved in ("auto", "vector")
    if resolved == "auto" and os.environ.get("REPRO_SIM_BACKEND") == "interpreter":
        use_vector = False
    strict_vector = backend is None and env_backend == "vector"
    if use_vector and not strict_vector and not _health_allows("vector"):
        use_vector = False  # tripped health breaker: degrade the whole batch
    if backend is None:
        fallback_backend = None  # env semantics (incl. strictness) apply per job
    elif resolved == "vector":
        fallback_backend = "auto"
    else:
        fallback_backend = backend

    reports: list[SimulationReport | None] = [None] * len(jobs)
    # Per-kernel groups: id(kernel) -> (kernel, rows, {stimulus: row index}).
    groups: dict[int, tuple[VecTraceKernel, list[tuple], dict[tuple, int]]] = {}
    kernel_jobs: dict[int, int] = {}
    staged: list = []  # (job index, testbench, observed, dut handle, ref handle)

    def enlist(kernel: VecTraceKernel, stimulus: tuple) -> tuple[int, int]:
        key = id(kernel)
        group = groups.get(key)
        if group is None:
            group = groups[key] = (kernel, [], {})
        _kernel, rows, row_index = group
        row = row_index.get(stimulus)
        if row is None:
            row = row_index[stimulus] = len(rows)
            rows.append(stimulus)
        return key, row

    eligible: list = []  # (job index, testbench, observed, stimulus, dut_k, ref_k)
    for index, (dut, reference, testbench) in enumerate(jobs):
        plan = None
        if use_vector and isinstance(dut, VModule) and isinstance(reference, VModule):
            observed = testbench.observed_outputs
            if observed is None:
                observed = [port.name for port in reference.outputs()]
            schedule, stimulus = _trace_plan(testbench, tuple(observed))
            dut_kernel = get_vec_kernel(dut, schedule)
            ref_kernel = (
                get_vec_kernel(reference, schedule) if dut_kernel is not None else None
            )
            if dut_kernel is not None and ref_kernel is not None:
                plan = (index, testbench, observed, stimulus, dut_kernel, ref_kernel)
        if plan is None:
            reports[index] = run_testbench(dut, reference, testbench, fallback_backend)
        else:
            eligible.append(plan)
            kernel_jobs[id(plan[4])] = kernel_jobs.get(id(plan[4]), 0) + 1
            kernel_jobs[id(plan[5])] = kernel_jobs.get(id(plan[5]), 0) + 1

    for index, testbench, observed, stimulus, dut_kernel, ref_kernel in eligible:
        if resolved == "auto":
            # A lone lockstep job has nothing to batch with; the scalar trace
            # is faster at one lane.  Point-lane kernels win even solo.
            def worthwhile(kernel: VecTraceKernel) -> bool:
                return kernel.mode == "points" or kernel_jobs[id(kernel)] > 1

            if not (worthwhile(dut_kernel) and worthwhile(ref_kernel)):
                dut, reference, _tb = jobs[index]
                reports[index] = run_testbench(dut, reference, testbench, "auto")
                continue
        staged.append(
            (index, testbench, observed, enlist(dut_kernel, stimulus), enlist(ref_kernel, stimulus))
        )

    results: dict[int, list | None] = {}
    crashed = False
    for key, (kernel, rows, _) in groups.items():
        try:
            results[key] = _run_vec_group(kernel, rows)
        except SimulationError:
            raise
        except Exception:
            # A crashed kernel group fails its lanes over to the per-job
            # scalar path; strict env forcing propagates the crash instead.
            if strict_vector:
                raise
            _health_failure("vector")
            crashed = True
            results[key] = None
    for index, testbench, observed, (dut_key, dut_row), (ref_key, ref_row) in staged:
        dut_result, ref_result = results[dut_key], results[ref_key]
        if dut_result is None or ref_result is None:
            dut, reference, _tb = jobs[index]
            reports[index] = run_testbench(dut, reference, testbench, fallback_backend)
        else:
            reports[index] = _compare_vec_outputs(
                testbench, observed, dut_result[dut_row], ref_result[ref_row]
            )
    if groups and not crashed:
        _health_success("vector")
    return reports


def run_testbench(
    dut: DeviceUnderTest | VModule,
    reference: DeviceUnderTest | VModule,
    testbench: Testbench,
    backend: str | None = None,
) -> SimulationReport:
    """Run ``testbench`` on both devices and compare outputs point by point."""
    env_backend = os.environ.get(_TB_BACKEND_ENV)
    resolved = backend if backend is not None else env_backend or "auto"
    if resolved not in _TB_BACKENDS:
        raise SimulationError(
            f"unknown testbench backend {resolved!r}; expected one of {_TB_BACKENDS}"
        )
    # Env-forced trace/vector is strict: a silent fallback would quietly
    # invalidate the forcing, so ineligible pairings fail loudly instead.
    strict_trace = backend is None and env_backend == "trace"
    strict_vector = backend is None and env_backend == "vector"
    if resolved == "auto" and os.environ.get("REPRO_SIM_BACKEND") == "interpreter":
        resolved = "stepwise"  # honour the forced-interpreter knob
    if resolved == "vector":
        if isinstance(dut, VModule) and isinstance(reference, VModule):
            report = None
            if strict_vector or _health_allows("vector"):
                try:
                    report = _run_testbench_vector(dut, reference, testbench)
                except SimulationError:
                    raise
                except Exception:
                    # Kernel-path crash: strict env forcing propagates it;
                    # otherwise it feeds the vector health breaker and the
                    # job degrades to the trace tier.
                    if strict_vector:
                        raise
                    _health_failure("vector")
            if report is not None:
                _health_success("vector")
                return report
            if strict_vector:
                raise SimulationError(
                    f"{_TB_BACKEND_ENV}=vector was forced, but the pairing of "
                    f"modules {dut.name!r} and {reference.name!r} is not "
                    "vector-eligible (NumPy unavailable, >64-bit signals, "
                    "interpreter-only module, port mismatch, or oversized "
                    "schedule); unset the variable or use backend='auto' to "
                    "allow the scalar fallbacks"
                )
        elif strict_vector:
            devices = ", ".join(type(device).__name__ for device in (dut, reference))
            raise SimulationError(
                f"{_TB_BACKEND_ENV}=vector was forced, but the vector backend "
                f"requires parsed Verilog modules on both sides (got {devices}); "
                "behavioural references always run step-wise"
            )
        resolved = "auto"  # argument semantics: fall back to trace, then step-wise
    if (
        resolved in ("auto", "trace")
        and isinstance(dut, VModule)
        and isinstance(reference, VModule)
    ):
        report = None
        if strict_trace or _health_allows("trace"):
            try:
                report = _run_testbench_trace(dut, reference, testbench)
            except SimulationError:
                raise
            except Exception:
                # Kernel-path crash: strict forcing propagates, auto feeds
                # the trace health breaker and degrades to step-wise.
                if strict_trace:
                    raise
                _health_failure("trace")
        if report is not None:
            _health_success("trace")
            return report
        if strict_trace:
            raise SimulationError(
                f"{_TB_BACKEND_ENV}=trace was forced, but the pairing of modules "
                f"{dut.name!r} and {reference.name!r} is not trace-eligible "
                "(interpreter-only module, port mismatch, or oversized schedule); "
                "unset the variable or use backend='auto' to allow the step-wise "
                "fallback"
            )
    elif strict_trace:
        devices = ", ".join(type(device).__name__ for device in (dut, reference))
        raise SimulationError(
            f"{_TB_BACKEND_ENV}=trace was forced, but the trace backend requires "
            f"parsed Verilog modules on both sides (got {devices}); behavioural "
            "references always run step-wise"
        )

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
