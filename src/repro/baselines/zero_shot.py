"""Zero-shot baseline: one generation, no reflection (Table I, Fig. 1).

Supports both target languages so the Chisel-vs-Verilog comparison of the
paper's motivation section can be reproduced with the same machinery.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.generator import Generator
from repro.core.session import LLMCall, Session, ToolCall, drive
from repro.llm.client import ChatClient
from repro.problems.base import Problem
from repro.toolchain.compiler import ChiselCompiler
from repro.toolchain.simulator import SimulateRequest, Simulator, parse_verilog_cached
# parse_verilog stays importable here: perfbench/tracing.py wraps it by name.
from repro.verilog.parser import VerilogParseError, parse_verilog  # noqa: F401


@dataclass
class ZeroShotOutcome:
    """Result of a single zero-shot attempt on one problem."""

    success: bool
    outcome: str  # "success", "syntax" or "functional"
    code: str


class ZeroShotRunner:
    """Generate once, compile, simulate, classify the error.

    ``compiler``/``simulator`` may be shared across runners (the sweep engine's
    worker context does this so compile/parse caches persist across samples).
    """

    def __init__(
        self,
        client: ChatClient | None,
        language: str = "chisel",
        compiler: ChiselCompiler | None = None,
        simulator: Simulator | None = None,
    ):
        self.client = client
        self.language = language
        self.generator = Generator(client, language=language)
        self.compiler = compiler or ChiselCompiler(top="TopModule")
        self.simulator = simulator or Simulator(top="TopModule")

    def run(self, problem: Problem, reference_verilog: str, seed_suffix: str = "") -> ZeroShotOutcome:
        return drive(self.session(problem, reference_verilog), self.client)

    def session(self, problem: Problem, reference_verilog: str) -> Session:
        """The zero-shot attempt as a step-wise generator (see :mod:`repro.core.session`)."""
        spec = problem.spec_text()
        response = yield LLMCall(self.generator.generation_messages(spec, problem.problem_id), "generate")
        code = self.generator.parse(response)

        if self.language == "chisel":
            compiled = yield ToolCall(lambda: self.compiler.compile(code), "compile")
            if not compiled.success:
                return ZeroShotOutcome(False, "syntax", code)
            dut_verilog = compiled.verilog or ""
        else:
            parse_ok = yield ToolCall(lambda: _parses(code), "parse")
            if not parse_ok:
                return ZeroShotOutcome(False, "syntax", code)
            dut_verilog = code

        # Built only for a candidate that reaches simulation; each build seeds
        # its own generator, so skipping it for a syntax failure moves nothing.
        testbench = problem.build_testbench()
        request = SimulateRequest(self.simulator, dut_verilog, reference_verilog, testbench)
        outcome = yield ToolCall(request.run, "simulate", batch=request)
        if outcome.success:
            return ZeroShotOutcome(True, "success", code)
        return ZeroShotOutcome(False, "functional", code)


def _parses(code: str) -> bool:
    try:
        parse_verilog_cached(code)
    except VerilogParseError:
        return False
    return True
