"""Simulator facade: run a compiled DUT against a reference on a testbench.

Parsed module lists are memoized by source hash: the same DUT and reference
text recur across samples, iterations and experiment sweeps, and sharing the
parsed (immutable-by-convention) AST also lets the compiled-kernel cache in
:mod:`repro.verilog.compile_sim` hit without re-fingerprinting new objects.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.caching import LruCache, get_or_compute, text_key
from repro.sim.testbench import (
    DeviceUnderTest,
    SimulationReport,
    Testbench,
    run_testbench,
    run_testbenches,
)
from repro.verilog.parser import VerilogParseError, parse_verilog
from repro.verilog.vast import VModule

_parse_cache: LruCache[list[VModule]] = LruCache(256, name="verilog_parse")


def parse_verilog_cached(source: str) -> list[VModule]:
    """parse_verilog with an LRU memo keyed by source hash.

    The simulator and the Verilog baselines' syntax checks share it.  Parse
    failures are cached too and re-raised on hit.
    """
    return get_or_compute(
        _parse_cache,
        text_key(source),
        lambda: parse_verilog(source),
        cache_exceptions=(VerilogParseError,),
    )


def clear_parse_cache() -> None:
    _parse_cache.clear()


@dataclass
class SimulationOutcome:
    """Outcome of the Simulator step: parseability of the DUT plus the report."""

    success: bool
    report: SimulationReport | None = None
    error: str | None = None

    def render_feedback(self) -> str:
        if self.error is not None:
            return f"simulation could not start: {self.error}"
        assert self.report is not None
        return self.report.render()


@dataclass(frozen=True)
class SimulateRequest:
    """A deferred :meth:`Simulator.simulate` call.

    Attached to a simulate :class:`~repro.core.session.ToolCall` as its
    ``batch`` payload so executors and the service can collect requests from
    many concurrent sessions into one :meth:`Simulator.simulate_many` call.
    ``run()`` is the sequential equivalent used when nothing batches.
    """

    simulator: "Simulator"
    dut_verilog: str
    reference: object
    testbench: Testbench

    def run(self) -> SimulationOutcome:
        return self.simulator.simulate(self.dut_verilog, self.reference, self.testbench)


class Simulator:
    """Functional simulation of a DUT Verilog module against a reference.

    The reference may be a :class:`VModule` (e.g. golden Verilog compiled from
    the golden Chisel solution), Verilog source text, or any
    :class:`~repro.sim.testbench.DeviceUnderTest` (behavioural model).
    """

    def __init__(self, top: str | None = None):
        self.top = top

    def simulate(
        self,
        dut_verilog: str,
        reference: VModule | str | DeviceUnderTest,
        testbench: Testbench,
    ) -> SimulationOutcome:
        prepared = self._prepare(dut_verilog, reference)
        if isinstance(prepared, SimulationOutcome):
            return prepared
        dut_module, reference = prepared
        report = run_testbench(dut_module, reference, testbench)
        return SimulationOutcome(report.passed, report=report)

    def simulate_many(
        self,
        items: list[tuple[str, VModule | str | DeviceUnderTest, Testbench]],
    ) -> list[SimulationOutcome]:
        """Many :meth:`simulate` calls in one: outcome ``i`` equals
        ``simulate(*items[i])`` bit for bit.

        Parse errors become per-item error outcomes; the remaining items run
        through one :func:`~repro.sim.testbench.run_testbenches` call.
        """
        outcomes: list[SimulationOutcome | None] = [None] * len(items)
        jobs: list[tuple[VModule, DeviceUnderTest | VModule, Testbench]] = []
        positions: list[int] = []
        for index, (dut_verilog, reference, testbench) in enumerate(items):
            prepared = self._prepare(dut_verilog, reference)
            if isinstance(prepared, SimulationOutcome):
                outcomes[index] = prepared
            else:
                jobs.append((prepared[0], prepared[1], testbench))
                positions.append(index)
        for index, report in zip(positions, run_testbenches(jobs)):
            outcomes[index] = SimulationOutcome(report.passed, report=report)
        return outcomes

    def _prepare(
        self, dut_verilog: str, reference: VModule | str | DeviceUnderTest
    ) -> tuple[VModule, DeviceUnderTest | VModule] | SimulationOutcome:
        """Parse/select the DUT (and a textual reference); errors become outcomes."""
        try:
            dut_module = self._select_module(parse_verilog_cached(dut_verilog))
        except VerilogParseError as exc:
            return SimulationOutcome(False, error=f"DUT Verilog could not be parsed: {exc}")
        except (ValueError, IndexError) as exc:
            return SimulationOutcome(False, error=str(exc))

        if isinstance(reference, str):
            try:
                reference = self._select_module(parse_verilog_cached(reference))
            except VerilogParseError as exc:
                return SimulationOutcome(False, error=f"reference Verilog could not be parsed: {exc}")

        return dut_module, reference

    def _select_module(self, modules: list[VModule]) -> VModule:
        if not modules:
            raise ValueError("no Verilog module definitions found")
        if self.top is not None:
            for module in modules:
                if module.name == self.top:
                    return module
        return modules[-1]
