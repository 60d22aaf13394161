"""Differential conformance engine: one generated design, every seam checked.

For each program the engine asserts agreement at every stage boundary of the
toolchain:

* the source must compile — parse, elaborate, survive the FIRRTL pass
  pipeline and emit (the generator only produces well-typed programs, so any
  compile failure is a frontend or generator bug);
* the emitted Verilog must re-parse through :mod:`repro.verilog.parser`;
* one step-wise interpreter run records the module's sampled outputs and
  must finish without a runtime error;
* the trace tier, called directly so a kernel crash is a finding rather than
  a silent fallback, must reproduce the step-wise report exactly;
* that report compares the module with itself, so the reference's outputs
  are simulated once and reused for the DUT; a deterministic kernel codegen
  bug would pass it.  The trace kernel's flat sampled outputs must therefore
  also equal the interpreter's recorded samples, which checks the compiled
  ``comb``/``step`` closures value by value;
* a warm run (caches populated by every previously checked program — the
  state in which cache-key collisions bite) must equal a cold run from
  cleared caches on a freshly built testbench, both for the emitted Verilog
  and for every simulation report.

Failures carry a ``(kind, stage)`` signature that the shrinker uses as its
preservation predicate.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from repro.caching import (
    clear_registered_caches,
    restore_registered_caches,
    snapshot_registered_caches,
)
from repro.fuzz.config import FuzzConfig
from repro.fuzz.generate import GeneratedProgram
from repro.sim.testbench import (
    FunctionalPoint,
    SimulationReport,
    Testbench,
    VerilogDevice,
    _run_testbench_trace,
    _trace_plan,
)
from repro.toolchain.compiler import ChiselCompiler
from repro.verilog.compile_sim import get_trace_kernel
from repro.verilog.parser import VerilogParseError, parse_verilog
from repro.verilog.simulator import SimulationError
from repro.verilog.vast import VModule

_IMPLICIT_PORTS = ("clock", "reset")


@dataclass(frozen=True)
class ConformanceFailure:
    """One broken seam, with enough detail to reproduce and classify it."""

    kind: str  # "compile" | "reparse" | "backend" | "cache" | "crash"
    stage: str | None
    top: str
    detail: str
    code: str | None = None  # Table II diagnostic class for compile failures

    @property
    def signature(self) -> tuple[str, str | None, str | None]:
        """Failure identity preserved across shrinking steps.

        Compile failures carry their diagnostic class so the shrinker cannot
        morph e.g. a combinational loop (C2) into an uninitialized wire (B3)
        while both fail in the FIRRTL stage.
        """
        return (self.kind, self.stage, self.code)

    def render(self) -> str:
        stage = f"/{self.stage}" if self.stage else ""
        return f"[{self.kind}{stage}] top={self.top}: {self.detail}"


@dataclass
class ConformanceReport:
    """Outcome of pushing one source through every seam of the stack."""

    failures: list[ConformanceFailure] = field(default_factory=list)
    checks: int = 0
    trace_eligible: bool = True

    @property
    def ok(self) -> bool:
        return not self.failures

    def render(self) -> str:
        if self.ok:
            return f"all {self.checks} conformance checks passed"
        return "\n".join(failure.render() for failure in self.failures)


def build_testbench(module: VModule, tb_seed: str, points: int, sequential: bool) -> Testbench:
    """Deterministic random stimulus for every non-implicit input port.

    The first two points are the all-zeros and all-ones corners; the rest are
    uniform random per port width.  Sequential designs get one clock cycle per
    point and a two-cycle reset, mirroring the benchmark testbenches.
    """
    rng = random.Random(tb_seed)
    inputs = [p for p in module.inputs() if p.name not in _IMPLICIT_PORTS]
    cycles = 1 if sequential else 0
    functional_points = [
        FunctionalPoint({p.name: 0 for p in inputs}, clock_cycles=cycles),
        FunctionalPoint({p.name: (1 << p.width) - 1 for p in inputs}, clock_cycles=cycles),
    ]
    for index in range(max(0, points - 2)):
        stimulus = {p.name: rng.getrandbits(p.width) for p in inputs}
        # A sprinkling of unchecked points exercises the deferred-settle flush.
        check = index % 7 != 5
        functional_points.append(
            FunctionalPoint(stimulus, clock_cycles=cycles, check=check)
        )
    return Testbench(points=functional_points, reset_cycles=2 if sequential else 0)


def _stepwise_samples(
    module: VModule, testbench: Testbench, observed: tuple[str, ...]
) -> list[int]:
    """Flat sampled outputs of a step-wise interpreter run, in kernel order.

    Replays the step-wise testbench sequence (reset pulse, then drive, tick
    and, at checked points, read every observed output) on an interpreter
    device, so the result lines up with ``TraceKernel.run``.
    """
    device = VerilogDevice(module)
    device.reset_pulse(testbench.reset, testbench.clock, testbench.reset_cycles)
    samples: list[int] = []
    for point in testbench.points:
        device.drive(point.inputs)
        device.tick(testbench.clock, point.clock_cycles)
        if point.check:
            samples.extend(device.read(signal) for signal in observed)
        else:
            device.flush()
    return samples


def _first_divergence(
    testbench: Testbench, observed: tuple[str, ...], expected: list[int], actual: list[int]
) -> str:
    """Where two flat sample arrays first differ, for a failure's detail."""
    if len(actual) != len(expected):
        return f"{len(actual)} samples, expected {len(expected)}"
    flat = next(i for i, (want, got) in enumerate(zip(expected, actual)) if want != got)
    checked = [index for index, point in enumerate(testbench.points) if point.check]
    return (
        f"functional point #{checked[flat // len(observed)]} output "
        f"{observed[flat % len(observed)]}: {actual[flat]}, expected {expected[flat]}"
    )


def _run_backends(
    module: VModule, testbench: Testbench, top: str, report: ConformanceReport
) -> dict[str, SimulationReport]:
    """Run both testbench tiers and the value check; records divergences on ``report``.

    The interpreter runs once and records its sampled outputs.  The module is
    compared with itself, so the step-wise report is those samples' counts
    with no mismatch; the trace report must equal it, and the trace kernel's
    samples must equal the recorded ones.
    """
    runs: dict[str, SimulationReport] = {}
    observed = tuple(port.name for port in module.outputs())
    stepwise = SimulationReport(
        total_points=len(testbench.points),
        checked_points=sum(point.check for point in testbench.points),
    )
    try:
        expected = _stepwise_samples(module, testbench, observed)
    except SimulationError as exc:
        stepwise.runtime_error = str(exc)
    runs["stepwise"] = stepwise
    report.checks += 1
    if stepwise.runtime_error is not None:
        report.failures.append(
            ConformanceFailure(
                "backend", "stepwise", top, f"runtime error: {stepwise.runtime_error}"
            )
        )
        return runs

    trace = _run_testbench_trace(module, module, testbench)
    if trace is None:
        report.trace_eligible = False
        return runs
    runs["trace"] = trace
    report.checks += 1
    if trace != stepwise:
        report.failures.append(
            ConformanceFailure(
                "backend",
                "trace",
                top,
                f"trace report diverges from step-wise: {trace.render()}",
            )
        )

    schedule, stimulus = _trace_plan(testbench, observed)
    actual = get_trace_kernel(module, schedule).run(stimulus)
    report.checks += 1
    if actual != expected:
        report.failures.append(
            ConformanceFailure(
                "backend",
                "trace-values",
                top,
                f"{_first_divergence(testbench, observed, expected, actual)} "
                "(kernel sampled outputs vs step-wise interpreter)",
            )
        )
    return runs


def check_source(
    source: str,
    tops: tuple[str, ...] = ("TopModule",),
    *,
    tb_seed: str = "fuzz-tb:0",
    points: int = 24,
    sequential: bool = True,
    compiler: ChiselCompiler | None = None,
    check_cold: bool = True,
) -> ConformanceReport:
    """Push ``source`` through every seam; see the module docstring.

    The warm pass runs first against whatever the process-wide caches
    already contain (that is the collision-sensitive state); ``check_cold``
    then clears every registered cache, asserts the cold rerun is
    bit-identical, and restores the accumulated warm state afterwards — so a
    fuzz session keeps growing one shared warm cache across programs and a
    cross-program cache-key collision stays observable.  Callers running
    inside a warm test suite should still isolate with the ``cache_mutating``
    marker (see the repo-root ``conftest.py``): the restored state includes
    this source's artifacts.
    """
    compiler = compiler or ChiselCompiler()
    report = ConformanceReport()

    warm: dict[str, tuple] = {}
    for top in tops:
        try:
            result = compiler.compile(source, top=top)
            if not result.success:
                first = result.diagnostics[0] if result.diagnostics else None
                report.failures.append(
                    ConformanceFailure(
                        "compile",
                        result.stage,
                        top,
                        first.render() if first is not None else "?",
                        code=getattr(first, "code", None),
                    )
                )
                warm[top] = (result, None)
                continue
            report.checks += 1
            try:
                module = parse_verilog(result.verilog)[-1]
            except VerilogParseError as exc:
                report.failures.append(
                    ConformanceFailure("reparse", None, top, str(exc))
                )
                warm[top] = (result, None)
                continue
            report.checks += 1
            testbench = build_testbench(module, f"{tb_seed}:{top}", points, sequential)
            runs = _run_backends(module, testbench, top, report)
            warm[top] = (result, runs)
        except Exception as exc:  # noqa: BLE001 — a crash is a finding, not an abort
            report.failures.append(ConformanceFailure("crash", None, top, repr(exc)))
            warm[top] = (None, None)

    if not check_cold:
        return report

    # The cold phase destroys the accumulated warm state, which is the very
    # state the next program's warm pass must run against (cross-program
    # cache-key collisions are only observable there) — snapshot it now and
    # restore it once the cold comparisons are done.
    warm_snapshot = snapshot_registered_caches()
    try:
        cold_compiler = ChiselCompiler(cached=False)
        for top in tops:
            warm_result, warm_runs = warm[top]
            if warm_result is None:
                continue
            try:
                # Clear per top, not once per program: sibling tops of one
                # source must each get a genuinely cold run, or a cache-key
                # collision between them would make warm and cold agree on
                # the wrong output.
                clear_registered_caches()
                cold = cold_compiler.compile(source, top=top)
                report.checks += 1
                if (
                    cold.success != warm_result.success
                    or cold.verilog != warm_result.verilog
                    or cold.stage != warm_result.stage
                    or cold.render_feedback() != warm_result.render_feedback()
                ):
                    report.failures.append(
                        ConformanceFailure(
                            "cache",
                            "compile",
                            top,
                            "cold compile differs from warm compile "
                            f"(warm stage={warm_result.stage}, cold stage={cold.stage})",
                        )
                    )
                    continue
                if not cold.success or warm_runs is None:
                    continue
                module = parse_verilog(cold.verilog)[-1]
                # A fresh testbench from the same seed: the warm one carries
                # the per-testbench memos (trace plans, reference outputs)
                # that would make this run warm.
                cold_tb = build_testbench(module, f"{tb_seed}:{top}", points, sequential)
                cold_report = ConformanceReport()
                cold_runs = _run_backends(module, cold_tb, top, cold_report)
                report.checks += 1
                for name, warm_run in warm_runs.items():
                    if cold_runs.get(name) != warm_run:
                        report.failures.append(
                            ConformanceFailure(
                                "cache",
                                f"sim:{name}",
                                top,
                                "cold simulation report diverges from warm run "
                                f"({name}): {cold_runs.get(name).render() if cold_runs.get(name) else 'missing'}",
                            )
                        )
                # Backend divergences that only show up cold are findings too.
                report.failures.extend(cold_report.failures)
            except Exception as exc:  # noqa: BLE001
                report.failures.append(
                    ConformanceFailure("crash", "cold", top, repr(exc))
                )
    finally:
        restore_registered_caches(warm_snapshot)
    return report


def check_program(
    program: GeneratedProgram,
    config: FuzzConfig,
    compiler: ChiselCompiler | None = None,
    check_cold: bool = True,
) -> ConformanceReport:
    """Conformance-check one generated program."""
    return check_source(
        program.source,
        program.tops,
        tb_seed=f"fuzz-tb:{program.seed}:{program.index}",
        points=config.points,
        sequential=program.sequential,
        compiler=compiler,
        check_cold=check_cold,
    )
