"""Fig. 7: syntax vs functional error proportions across reflection iterations.

The paper reports the mix for GPT-4o under Pass@1: at each iteration, what
fraction of all (case, sample) runs is still failing with a syntax error, and
what fraction with a functional error.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.experiments.config import ExperimentConfig
from repro.experiments.reporting import render_table
from repro.experiments.runner import EvaluationHarness, ReflectionCase, harness_for
from repro.llm.profiles import GPT4O
from repro.metrics.errors import ErrorBreakdown, per_iteration_error_mix

# Paper's Fig. 7 series for GPT-4o (syntax %, functional %) per iteration 0..10.
PAPER_FIG7_SYNTAX = [54.9, 43.2, 37.1, 31.9, 29.1, 26.8, 24.9, 23.9, 23.9, 23.5, 22.5]
PAPER_FIG7_FUNCTIONAL = [31.9, 23.0, 23.0, 20.2, 17.4, 19.7, 12.2, 19.7, 12.2, 16.9, 9.9]


@dataclass
class Fig7Result:
    model: str
    mixes: list[ErrorBreakdown] = field(default_factory=list)

    def render(self) -> str:
        rows = []
        for iteration, mix in enumerate(self.mixes):
            paper_syntax = (
                f" ({PAPER_FIG7_SYNTAX[iteration]:.1f})" if iteration < len(PAPER_FIG7_SYNTAX) else ""
            )
            paper_functional = (
                f" ({PAPER_FIG7_FUNCTIONAL[iteration]:.1f})"
                if iteration < len(PAPER_FIG7_FUNCTIONAL)
                else ""
            )
            rows.append(
                [
                    str(iteration),
                    f"{mix.syntax:.1f}{paper_syntax}",
                    f"{mix.functional:.1f}{paper_functional}",
                    f"{mix.success:.1f}",
                ]
            )
        return render_table(
            ["Iteration", "Syntax %", "Functional %", "Success %"],
            rows,
            title=f"Fig. 7 — error mix per iteration, {self.model}; measured (paper)",
        )


def run(
    config: ExperimentConfig | None = None,
    harness: EvaluationHarness | None = None,
    rechisel_cases: list[ReflectionCase] | None = None,
    model: str = GPT4O,
) -> Fig7Result:
    config = config or ExperimentConfig.from_environment()
    with harness_for(config, harness) as harness:
        cases = rechisel_cases if rechisel_cases is not None else harness.run_rechisel(model)
        outcome_lists = [
            [result.outcome_at(i) for i in range(config.max_iterations + 1)]
            for case in cases
            for result in case.results
        ]
        mixes = per_iteration_error_mix(outcome_lists, config.max_iterations)
        return Fig7Result(model=model, mixes=mixes)
