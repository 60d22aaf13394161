"""Table III: ReChisel success rates at iteration caps n in {0, 1, 5, 10}."""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.experiments.config import ExperimentConfig
from repro.experiments.reporting import fmt_pair, render_table
from repro.experiments.runner import EvaluationHarness, ReflectionCase, harness_for
from repro.llm.profiles import CLAUDE_HAIKU, CLAUDE_SONNET, GPT4_TURBO, GPT4O, GPT4O_MINI
from repro.metrics.passk import aggregate_pass_at_k

ITERATION_CAPS = (0, 1, 5, 10)
PASS_KS = (1, 5, 10)

# Paper's Table III: model -> {k: {n: value}}.
PAPER_TABLE3 = {
    GPT4_TURBO: {
        1: {0: 45.54, 1: 52.11, 5: 67.61, 10: 73.24},
        5: {0: 61.97, 1: 68.54, 5: 80.28, 10: 83.10},
        10: {0: 66.20, 1: 72.77, 5: 84.04, 10: 85.92},
    },
    GPT4O: {
        1: {0: 45.07, 1: 56.81, 5: 73.24, 10: 77.46},
        5: {0: 65.26, 1: 75.59, 5: 83.10, 10: 85.45},
        10: {0: 70.89, 1: 79.81, 5: 85.92, 10: 88.73},
    },
    GPT4O_MINI: {
        1: {0: 11.27, 1: 16.43, 5: 31.46, 10: 40.38},
        5: {0: 28.64, 1: 37.56, 5: 54.93, 10: 62.91},
        10: {0: 36.62, 1: 45.54, 5: 61.03, 10: 67.61},
    },
    CLAUDE_SONNET: {
        1: {0: 33.33, 1: 63.38, 5: 80.28, 10: 84.98},
        5: {0: 52.58, 1: 77.46, 5: 91.08, 10: 92.49},
        10: {0: 59.62, 1: 83.10, 5: 92.02, 10: 93.43},
    },
    CLAUDE_HAIKU: {
        1: {0: 26.29, 1: 56.34, 5: 79.81, 10: 84.51},
        5: {0: 52.11, 1: 76.53, 5: 90.14, 10: 91.08},
        10: {0: 58.69, 1: 82.63, 5: 91.55, 10: 92.96},
    },
}


def pass_rate(cases: list[ReflectionCase], samples: int, k: int, iteration_cap: int) -> float:
    counts = [(samples, case.pass_count_at(iteration_cap)) for case in cases]
    return aggregate_pass_at_k(counts, k)


@dataclass
class Table3Result:
    # rates[model][k][n] -> success rate %
    rates: dict[str, dict[int, dict[int, float]]] = field(default_factory=dict)
    raw: dict[str, list[ReflectionCase]] = field(default_factory=dict)
    samples_per_case: int = 10

    def render(self) -> str:
        rows = []
        for k in PASS_KS:
            for model, per_k in self.rates.items():
                cells = [f"Pass@{k}", model]
                for cap in ITERATION_CAPS:
                    paper = PAPER_TABLE3.get(model, {}).get(k, {}).get(cap)
                    cells.append(fmt_pair(per_k[k][cap], paper))
                rows.append(cells)
        headers = ["Metric", "Model"] + [f"n={cap}" for cap in ITERATION_CAPS]
        return render_table(
            headers, rows, title="Table III — ReChisel success rate; measured (paper)"
        )


def run(config: ExperimentConfig | None = None, harness: EvaluationHarness | None = None) -> Table3Result:
    config = config or ExperimentConfig.from_environment()
    with harness_for(config, harness) as harness:
        result = Table3Result(samples_per_case=config.samples_per_case)
        for model in config.models:
            cases = harness.run_rechisel(model)
            result.raw[model] = cases
            result.rates[model] = {
                k: {
                    cap: pass_rate(cases, config.samples_per_case, k, cap)
                    for cap in ITERATION_CAPS
                }
                for k in PASS_KS
            }
        return result
