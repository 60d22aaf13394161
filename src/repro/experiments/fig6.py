"""Fig. 6: success rate as a function of the reflection-iteration cap."""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.experiments.config import ExperimentConfig
from repro.experiments.reporting import render_table
from repro.experiments.runner import EvaluationHarness, ReflectionCase, harness_for
from repro.experiments.table3 import PASS_KS, pass_rate


@dataclass
class Fig6Result:
    """``series[model][k]`` is the success-rate curve over n = 0..max_iterations."""

    series: dict[str, dict[int, list[float]]] = field(default_factory=dict)
    max_iterations: int = 10

    def render(self) -> str:
        headers = ["Model", "Metric"] + [f"n={n}" for n in range(self.max_iterations + 1)]
        rows = []
        for model, per_k in self.series.items():
            for k in PASS_KS:
                rows.append([model, f"Pass@{k}"] + [f"{value:.1f}" for value in per_k[k]])
        return render_table(headers, rows, title="Fig. 6 — success rate vs number of iterations")


def run(
    config: ExperimentConfig | None = None,
    harness: EvaluationHarness | None = None,
    rechisel_cases: dict[str, list[ReflectionCase]] | None = None,
) -> Fig6Result:
    config = config or ExperimentConfig.from_environment()
    with harness_for(config, harness) as harness:
        result = Fig6Result(max_iterations=config.max_iterations)
        for model in config.models:
            cases = (
                rechisel_cases[model]
                if rechisel_cases is not None and model in rechisel_cases
                else harness.run_rechisel(model)
            )
            result.series[model] = {
                k: [
                    pass_rate(cases, config.samples_per_case, k, cap)
                    for cap in range(config.max_iterations + 1)
                ]
                for k in PASS_KS
            }
        return result
