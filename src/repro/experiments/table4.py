"""Table IV: ReChisel (Chisel) vs AutoChip (direct Verilog) at n = 10."""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.experiments.config import ExperimentConfig
from repro.experiments.reporting import fmt_pair, render_table
from repro.experiments.runner import AutoChipCase, EvaluationHarness, ReflectionCase, harness_for
from repro.llm.profiles import CLAUDE_SONNET, GPT4_TURBO, GPT4O
from repro.metrics.passk import aggregate_pass_at_k

PASS_KS = (1, 5, 10)

# Paper's Table IV: model -> {k: (rechisel, autochip)}.
PAPER_TABLE4 = {
    GPT4_TURBO: {1: (73.24, 79.81), 5: (83.10, 87.79), 10: (85.92, 89.20)},
    GPT4O: {1: (77.46, 78.40), 5: (85.45, 84.51), 10: (88.73, 87.79)},
    CLAUDE_SONNET: {1: (84.98, 91.08), 5: (92.49, 96.71), 10: (93.43, 97.65)},
}


@dataclass
class Table4Result:
    rechisel: dict[str, dict[int, float]] = field(default_factory=dict)
    autochip: dict[str, dict[int, float]] = field(default_factory=dict)
    raw_rechisel: dict[str, list[ReflectionCase]] = field(default_factory=dict)
    raw_autochip: dict[str, list[AutoChipCase]] = field(default_factory=dict)

    def render(self) -> str:
        rows = []
        for k in PASS_KS:
            for model in self.rechisel:
                paper = PAPER_TABLE4.get(model, {}).get(k)
                rows.append(
                    [
                        f"Pass@{k}",
                        model,
                        fmt_pair(self.rechisel[model][k], paper[0] if paper else None),
                        fmt_pair(self.autochip[model][k], paper[1] if paper else None),
                    ]
                )
        return render_table(
            ["Metric", "Model", "ReChisel", "AutoChip"],
            rows,
            title="Table IV — ReChisel vs AutoChip at n=10; measured (paper)",
        )


def run(
    config: ExperimentConfig | None = None,
    harness: EvaluationHarness | None = None,
    rechisel_cases: dict[str, list[ReflectionCase]] | None = None,
) -> Table4Result:
    config = config or ExperimentConfig.from_environment()
    with harness_for(config, harness) as harness:
        result = Table4Result()
        samples = config.samples_per_case
        cap = config.max_iterations
        for model in config.autochip_models:
            reflection = (
                rechisel_cases[model]
                if rechisel_cases is not None and model in rechisel_cases
                else harness.run_rechisel(model)
            )
            autochip = harness.run_autochip(model)
            result.raw_rechisel[model] = reflection
            result.raw_autochip[model] = autochip
            result.rechisel[model] = {
                k: aggregate_pass_at_k([(samples, c.pass_count_at(cap)) for c in reflection], k)
                for k in PASS_KS
            }
            result.autochip[model] = {
                k: aggregate_pass_at_k([(samples, c.pass_count_at(cap)) for c in autochip], k)
                for k in PASS_KS
            }
        return result
