"""Synthetic LLM backend.

The backend stands in for the commercial LLM APIs the paper uses.  It speaks
the same text-in / text-out protocol as a real model (so the agents in
:mod:`repro.core` are unchanged) but produces its Chisel/Verilog attempts by
fault-injection against the benchmark's golden solutions:

* an initial generation is the golden solution with probability equal to the
  model's calibrated zero-shot success rate, otherwise it carries one or two
  injected faults (syntax faults from the Table II catalogue, functional
  faults from the problem definition);
* a revision repairs each remaining fault with the profile's per-iteration
  fix probability; failed repairs are either *futile edits* (same error —
  the non-progress loops of §IV-C) or switch to a different fault; functional
  fixes occasionally reintroduce a syntax fault (the Fig. 7 effect);
* the escape notice in the prompt boosts the fix probability, modelling the
  fresh perspective the escape mechanism buys.

Because every attempt is real Chisel/Verilog text, the toolchain, testbench,
feedback formatting, trace and escape machinery all operate on genuine data.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from repro.llm import prompts
from repro.llm.client import ChatMessage
from repro.llm.profiles import ModelProfile
from repro.llm.verilog_faults import VERILOG_FAULTS_BY_ID, applicable_verilog_faults
from repro.problems.base import Problem
from repro.problems.mutations import SYNTAX_FAULTS_BY_ID, applicable_syntax_faults
from repro.problems.registry import ProblemRegistry
from repro.toolchain.compiler import ChiselCompiler


@dataclass(frozen=True)
class FaultRef:
    """A reference to one injected fault in an attempt."""

    kind: str  # "syntax", "functional", "vsyntax", "vfunctional"
    fault_id: str

    @property
    def is_syntax(self) -> bool:
        return self.kind in ("syntax", "vsyntax")


@dataclass
class AttemptState:
    """Bookkeeping for one emitted code attempt."""

    problem_id: str
    language: str
    faults: list[FaultRef] = field(default_factory=list)
    revision: int = 0


class SyntheticChiselLLM:
    """A profile-driven synthetic LLM implementing the ChatClient protocol."""

    def __init__(
        self,
        registry: ProblemRegistry,
        profile: ModelProfile,
        seed: int = 0,
        compiler: ChiselCompiler | None = None,
        golden_verilog_cache: dict[str, str] | None = None,
    ):
        self.registry = registry
        self.profile = profile
        self.rng = random.Random(seed)
        self.compiler = compiler or ChiselCompiler(top="TopModule")
        # The golden-Verilog cache may be shared across clients (the experiment
        # harness does this) so each golden solution is compiled only once.
        self._golden_verilog = golden_verilog_cache if golden_verilog_cache is not None else {}
        self._states: dict[str, AttemptState] = {}
        self.generation_count = 0
        self.revision_count = 0

    # ----------------------------------------------------------------- client

    def complete(self, messages: list[ChatMessage]) -> str:
        system = messages[0].content if messages else ""
        user = messages[-1].content if messages else ""

        if system == prompts.INSPECTOR_SYSTEM:
            return self._answer_loop_check(user)
        if system == prompts.REVIEWER_SYSTEM:
            return self._write_revision_plan(user)
        return self._generate_code(user)

    # --------------------------------------------------------------- inspector

    def _answer_loop_check(self, user: str) -> str:
        sections = user.split("signature:")
        if len(sections) >= 3:
            previous = sections[1].split("Current error")[0].strip()
            current = sections[2].split("Do these")[0].strip()
            return "YES" if previous == current else "NO"
        return "NO"

    # ---------------------------------------------------------------- reviewer

    def _write_revision_plan(self, user: str) -> str:
        feedback = _section(user, prompts.SECTION_FEEDBACK)
        lines = [line.strip() for line in feedback.splitlines() if line.strip()]
        plan: list[str] = []
        index = 1
        for line in lines:
            if line.startswith("[error]") or line.startswith("functional point"):
                plan.append(f"Error {index}:")
                plan.append(f"  Location: {line[:160]}")
                plan.append("  Root Cause: the generated code violates the behaviour or typing rule reported above.")
                plan.append("  Solution: rewrite the offending construct following the cited rule and the common-error guidance.")
                index += 1
        if not plan:
            plan.append("No actionable errors were reported; regenerate the module from the specification.")
        return "\n".join(plan)

    # --------------------------------------------------------------- generator

    def _generate_code(self, user: str) -> str:
        language = "verilog" if prompts.TARGET_VERILOG in user else "chisel"
        case_id = _case_id(user)
        problem = self._problem_for(case_id)
        fence = "verilog" if language == "verilog" else "scala"

        if problem is None:
            # Without a benchmark case to key on the synthetic backend cannot
            # fabricate a meaningful design; return an empty module skeleton.
            return f"```{fence}\n// unknown benchmark case\n```"

        if prompts.SECTION_REVISION_PLAN in user:
            self.revision_count += 1
            code = self._revise(user, problem, language)
        else:
            self.generation_count += 1
            code = self._initial_attempt(problem, language)
        return f"```{fence}\n{code}\n```"

    # ------------------------------------------------------------ attempt flow

    def _initial_attempt(self, problem: Problem, language: str) -> str:
        baseline = (
            self.profile.verilog_baseline_success
            if language == "verilog"
            else self.profile.chisel_baseline_success
        )
        if self.rng.random() < baseline:
            return self._register(self._golden(problem, language), problem, language, [])

        faults: list[FaultRef] = []
        first_kind = (
            "syntax" if self.rng.random() < self.profile.syntax_error_share else "functional"
        )
        first = self._sample_fault(problem, language, first_kind, exclude=[])
        if first is not None:
            faults.append(first)
        if self.rng.random() < self.profile.two_fault_prob:
            other_kind = "functional" if first_kind == "syntax" else "syntax"
            second = self._sample_fault(problem, language, other_kind, exclude=faults)
            if second is not None:
                faults.append(second)
        if not faults:
            return self._register(self._golden(problem, language), problem, language, [])
        code = self._build_code(problem, language, faults, revision=0)
        return self._register(code, problem, language, faults)

    def _revise(self, user: str, problem: Problem, language: str) -> str:
        previous_code = prompts.extract_code_block(_section(user, prompts.SECTION_PREVIOUS_CODE))
        escaped = prompts.ESCAPE_NOTICE in user
        state = self._states.get(previous_code.strip())
        if state is None:
            # Unknown previous code (e.g. a hand-written attempt): restart.
            return self._initial_attempt(problem, language)

        boost = self.profile.escape_boost if escaped else 1.0
        remaining: list[FaultRef] = []
        for fault in state.faults:
            kind = "syntax" if fault.is_syntax else "functional"
            fix_probability = min(0.97, self.profile.fix_probability(kind, language) * boost)
            if self.rng.random() < fix_probability:
                # Fault repaired.  Functional repairs occasionally reintroduce a
                # syntax error (Fig. 7).
                if kind == "functional" and self.rng.random() < self.profile.regression_prob:
                    regression = self._sample_fault(problem, language, "syntax", exclude=remaining)
                    if regression is not None:
                        remaining.append(regression)
                continue
            if self.rng.random() < self.profile.loop_prob:
                remaining.append(fault)  # futile edit: same error persists
                continue
            alternative = self._sample_fault(
                problem, language, kind, exclude=remaining + [fault]
            )
            remaining.append(alternative if alternative is not None else fault)

        revision = state.revision + 1
        if not remaining:
            return self._register(self._golden(problem, language), problem, language, [])
        code = self._build_code(problem, language, remaining, revision)
        return self._register(code, problem, language, remaining, revision)

    # ----------------------------------------------------------------- helpers

    def _problem_for(self, case_id: str | None) -> Problem | None:
        if case_id is None:
            return None
        try:
            return self.registry.by_id(case_id)
        except KeyError:
            return None

    def _golden(self, problem: Problem, language: str) -> str:
        if language == "chisel":
            return problem.golden_chisel
        if problem.problem_id not in self._golden_verilog:
            result = self.compiler.compile(problem.golden_chisel)
            if not result.success or result.verilog is None:
                raise RuntimeError(
                    f"golden Chisel for {problem.problem_id} does not compile: "
                    f"{result.render_feedback()}"
                )
            self._golden_verilog[problem.problem_id] = result.verilog
        return self._golden_verilog[problem.problem_id]

    def _sample_fault(
        self, problem: Problem, language: str, kind: str, exclude: list[FaultRef]
    ) -> FaultRef | None:
        excluded_ids = {fault.fault_id for fault in exclude}
        if language == "verilog":
            golden = self._golden(problem, "verilog")
            verilog_kind = "syntax" if kind == "syntax" else "functional"
            candidates = [
                FaultRef("v" + verilog_kind, fault.fault_id)
                for fault in applicable_verilog_faults(golden, verilog_kind)
                if fault.fault_id not in excluded_ids
            ]
        elif kind == "syntax":
            candidates = [
                FaultRef("syntax", fault.fault_id)
                for fault in applicable_syntax_faults(problem.golden_chisel, problem)
                if fault.fault_id not in excluded_ids
            ]
        else:
            candidates = [
                FaultRef("functional", fault.fault_id)
                for fault in problem.functional_faults
                if fault.applies_to(problem.golden_chisel) and fault.fault_id not in excluded_ids
            ]
        if not candidates:
            return None
        return self.rng.choice(candidates)

    def _build_code(
        self, problem: Problem, language: str, faults: list[FaultRef], revision: int
    ) -> str:
        code = self._golden(problem, language)
        ordered = sorted(faults, key=lambda fault: 0 if fault.kind in ("functional", "vfunctional") else 1)
        for fault in ordered:
            if fault.kind == "functional":
                text_fault = next(
                    f for f in problem.functional_faults if f.fault_id == fault.fault_id
                )
                if text_fault.applies_to(code):
                    code = text_fault.apply(code)
            elif fault.kind == "syntax":
                injector = SYNTAX_FAULTS_BY_ID[fault.fault_id]
                if injector.applies(code, problem):
                    code = injector.apply(code, problem)
            else:
                verilog_fault = VERILOG_FAULTS_BY_ID[fault.fault_id]
                if verilog_fault.applies(code):
                    code = verilog_fault.apply(code)
        if revision > 0:
            code = code.rstrip("\n") + f"\n// revision {revision}\n"
        return code

    def _register(
        self,
        code: str,
        problem: Problem,
        language: str,
        faults: list[FaultRef],
        revision: int = 0,
    ) -> str:
        self._states[code.strip()] = AttemptState(problem.problem_id, language, list(faults), revision)
        return code


# ---------------------------------------------------------------------------
# Prompt parsing helpers
# ---------------------------------------------------------------------------


def _section(text: str, header: str) -> str:
    """Return the body of a ``## header`` section (up to the next ``## ``)."""
    start = text.find(header)
    if start < 0:
        return ""
    start += len(header)
    end = text.find("\n## ", start)
    return text[start:end] if end >= 0 else text[start:]


def _case_id(text: str) -> str | None:
    marker = prompts.CASE_MARKER
    index = text.find(marker)
    if index < 0:
        return None
    line_end = text.find("\n", index)
    value = text[index + len(marker): line_end if line_end >= 0 else None]
    return value.strip() or None
