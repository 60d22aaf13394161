"""AutoChip-style baseline: direct Verilog generation with raw feedback loops.

AutoChip (Thakur et al., DAC'24) feeds compiler/simulator output straight back
to the generating LLM without a separate Reviewer, Inspector, trace or escape
mechanism.  This implementation mirrors that structure so Table IV compares
ReChisel (Chisel + reflection agents) against a faithful simpler loop on
Verilog.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.generator import Generator
from repro.core.session import LLMCall, Session, ToolCall, drive
from repro.llm.client import ChatClient
from repro.problems.base import Problem
from repro.sim.testbench import Testbench
from repro.toolchain.simulator import SimulateRequest, Simulator, parse_verilog_cached
# parse_verilog stays importable here: perfbench/tracing.py wraps it by name.
from repro.verilog.parser import VerilogParseError, parse_verilog  # noqa: F401


@dataclass
class AutoChipResult:
    """Outcome of one AutoChip run (records mirror :class:`ReChiselResult`)."""

    success: bool
    success_iteration: int | None
    outcomes: list[str] = field(default_factory=list)  # per-iteration "success"/"syntax"/"functional"
    final_code: str | None = None

    def success_by(self, iteration_cap: int) -> bool:
        return self.success_iteration is not None and self.success_iteration <= iteration_cap

    def to_payload(self) -> dict:
        """Compact JSON-serializable form for the sweep result store."""
        return {
            "success": self.success,
            "success_iteration": self.success_iteration,
            "outcomes": list(self.outcomes),
        }

    @classmethod
    def from_payload(cls, payload: dict) -> "AutoChipResult":
        """Rehydrate a stored result (``final_code`` is not restored)."""
        return cls(
            success=bool(payload["success"]),
            success_iteration=payload["success_iteration"],
            outcomes=[str(outcome) for outcome in payload["outcomes"]],
        )


class AutoChip:
    """Direct Verilog generation with feedback-only reflection."""

    def __init__(self, client: ChatClient | None, max_iterations: int = 10, simulator: Simulator | None = None):
        self.client = client
        self.max_iterations = max_iterations
        self.generator = Generator(client, language="verilog")
        self.simulator = simulator or Simulator(top="TopModule")

    def run(self, problem: Problem, reference_verilog: str, testbench: Testbench | None = None) -> AutoChipResult:
        return drive(self.session(problem, reference_verilog, testbench), self.client)

    def session(
        self, problem: Problem, reference_verilog: str, testbench: Testbench | None = None
    ) -> Session:
        """The AutoChip loop as a step-wise generator (see :mod:`repro.core.session`)."""
        spec = problem.spec_text()
        testbench = testbench or problem.build_testbench()
        result = AutoChipResult(success=False, success_iteration=None)

        response = yield LLMCall(self.generator.generation_messages(spec, problem.problem_id), "generate")
        code = self.generator.parse(response)
        outcome, feedback = yield from self._evaluate_steps(code, reference_verilog, testbench)
        result.outcomes.append(outcome)
        result.final_code = code
        if outcome == "success":
            result.success, result.success_iteration = True, 0
            return result

        for iteration in range(1, self.max_iterations + 1):
            # AutoChip's "revision plan" is simply the raw tool feedback.
            response = yield LLMCall(
                self.generator.revision_messages(spec, code, feedback, problem.problem_id), "revise"
            )
            code = self.generator.parse(response)
            outcome, feedback = yield from self._evaluate_steps(code, reference_verilog, testbench)
            result.outcomes.append(outcome)
            result.final_code = code
            if outcome == "success":
                result.success, result.success_iteration = True, iteration
                break
        return result

    def _evaluate_steps(self, code: str, reference_verilog: str, testbench: Testbench):
        error = yield ToolCall(lambda: _parse_error(code), "parse")
        if error is not None:
            return "syntax", f"Verilog compilation failed: {error}"
        request = SimulateRequest(self.simulator, code, reference_verilog, testbench)
        outcome = yield ToolCall(request.run, "simulate", batch=request)
        if outcome.success:
            return "success", "all tests passed"
        return "functional", outcome.render_feedback()


def _parse_error(code: str) -> str | None:
    try:
        parse_verilog_cached(code)
    except VerilogParseError as exc:
        return str(exc)
    return None
