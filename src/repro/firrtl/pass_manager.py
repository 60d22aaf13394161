"""Pass manager: run the FIRRTL pipeline and collect diagnostics.

The pipeline is uncached: ``ChiselCompiler`` memoizes whole compile results
by source text instead.  Passes never mutate their input circuit.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.diagnostics import DiagnosticList
from repro.firrtl import ir
from repro.firrtl.passes import (
    CheckCombLoops,
    CheckInitialization,
    InferResets,
    InferWidths,
    LowerTypes,
)
from repro.firrtl.passes.base import Pass


@dataclass
class PassResult:
    """Outcome of running a pass pipeline."""

    circuit: ir.Circuit
    diagnostics: DiagnosticList = field(default_factory=DiagnosticList)

    @property
    def ok(self) -> bool:
        return not self.diagnostics.has_errors


class PassManager:
    """Run a sequence of passes, stopping after the first pass that errors.

    Stopping early mirrors the real toolchain: later passes assume invariants
    established by earlier ones (e.g. width inference assumes ground types),
    and the compiler feedback the Reviewer sees is the first batch of errors.
    """

    def __init__(self, passes: list[Pass] | None = None):
        self.passes = passes if passes is not None else default_passes()

    def run(self, circuit: ir.Circuit) -> PassResult:
        diagnostics = DiagnosticList()
        current = circuit
        for pass_ in self.passes:
            current = pass_.run(current, diagnostics)
            if diagnostics.has_errors:
                break
        return PassResult(current, diagnostics)

    def run_cached(self, circuit: ir.Circuit) -> PassResult:
        """Uncached :meth:`run`, kept as the benchmark's layer boundary."""
        return self.run(circuit)


def default_passes() -> list[Pass]:
    return [
        InferResets(),
        LowerTypes(),
        InferWidths(),
        CheckInitialization(),
        CheckCombLoops(),
    ]


def run_default_pipeline(circuit: ir.Circuit) -> PassResult:
    """Run the default pass pipeline on ``circuit``."""
    return PassManager().run(circuit)
