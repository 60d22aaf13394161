"""Fig. 1: proportion of error types in zero-shot generated Chisel code."""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.experiments.config import ExperimentConfig
from repro.experiments.reporting import render_table
from repro.experiments.runner import EvaluationHarness, harness_for
from repro.llm.profiles import CLAUDE_HAIKU, CLAUDE_SONNET, GPT4_TURBO, GPT4O, GPT4O_MINI
from repro.metrics.errors import ErrorBreakdown, error_breakdown

# Paper's Fig. 1: (syntax %, functional %, success %).
PAPER_FIG1 = {
    GPT4_TURBO: (39.7, 15.7, 44.6),
    GPT4O: (32.0, 21.5, 46.4),
    GPT4O_MINI: (85.4, 3.1, 11.5),
    CLAUDE_SONNET: (61.2, 7.7, 31.0),
    CLAUDE_HAIKU: (62.9, 7.0, 30.1),
}


@dataclass
class Fig1Result:
    breakdowns: dict[str, ErrorBreakdown] = field(default_factory=dict)

    def render(self) -> str:
        rows = []
        for model, breakdown in self.breakdowns.items():
            paper = PAPER_FIG1.get(model)
            rows.append(
                [
                    model,
                    f"{breakdown.syntax:.1f}" + (f" ({paper[0]:.1f})" if paper else ""),
                    f"{breakdown.functional:.1f}" + (f" ({paper[1]:.1f})" if paper else ""),
                    f"{breakdown.success:.1f}" + (f" ({paper[2]:.1f})" if paper else ""),
                ]
            )
        return render_table(
            ["Model", "Syntax %", "Functional %", "Success %"],
            rows,
            title="Fig. 1 — zero-shot Chisel error-type proportions; measured (paper)",
        )


def run(config: ExperimentConfig | None = None, harness: EvaluationHarness | None = None) -> Fig1Result:
    config = config or ExperimentConfig.from_environment()
    with harness_for(config, harness) as harness:
        result = Fig1Result()
        for model in config.models:
            cases = harness.run_zero_shot(model, "chisel")
            outcomes = [outcome for case in cases for outcome in case.outcomes]
            result.breakdowns[model] = error_breakdown(outcomes)
        return result
