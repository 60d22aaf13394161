"""Table I: LLM baseline capabilities, Chisel vs Verilog (zero-shot Pass@k)."""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.experiments.config import ExperimentConfig
from repro.experiments.reporting import fmt_pair, render_table
from repro.experiments.runner import EvaluationHarness, ZeroShotCase, harness_for
from repro.llm.profiles import CLAUDE_HAIKU, CLAUDE_SONNET, GPT4_TURBO, GPT4O, GPT4O_MINI
from repro.metrics.passk import aggregate_pass_at_k

# Paper's Table I: model -> (chisel, verilog) per k.
PAPER_TABLE1 = {
    GPT4_TURBO: {1: (45.54, 67.61), 5: (61.97, 77.46), 10: (66.20, 81.22)},
    GPT4O: {1: (45.07, 69.48), 5: (65.26, 75.59), 10: (70.89, 77.46)},
    GPT4O_MINI: {1: (11.27, 59.15), 5: (28.64, 69.48), 10: (36.62, 72.30)},
    CLAUDE_SONNET: {1: (33.33, 77.93), 5: (52.58, 82.16), 10: (59.62, 84.04)},
    CLAUDE_HAIKU: {1: (26.29, 75.59), 5: (54.46, 83.57), 10: (58.69, 84.04)},
}

PASS_KS = (1, 5, 10)


@dataclass
class Table1Row:
    model: str
    chisel: dict[int, float]
    verilog: dict[int, float]


@dataclass
class Table1Result:
    rows: list[Table1Row] = field(default_factory=list)
    raw: dict[str, dict[str, list[ZeroShotCase]]] = field(default_factory=dict)

    def render(self) -> str:
        headers = ["Model"]
        for k in PASS_KS:
            headers += [f"CHS pass@{k}", f"VRL pass@{k}"]
        table_rows = []
        for row in self.rows:
            cells = [row.model]
            for k in PASS_KS:
                paper = PAPER_TABLE1.get(row.model, {}).get(k)
                cells.append(fmt_pair(row.chisel[k], paper[0] if paper else None))
                cells.append(fmt_pair(row.verilog[k], paper[1] if paper else None))
            table_rows.append(cells)
        return render_table(
            headers,
            table_rows,
            title="Table I — zero-shot baseline, Chisel vs Verilog; measured (paper)",
        )


def _pass_rates(cases: list[ZeroShotCase], samples: int) -> dict[int, float]:
    counts = [(samples, case.pass_count) for case in cases]
    return {k: aggregate_pass_at_k(counts, k) for k in PASS_KS}


def run(config: ExperimentConfig | None = None, harness: EvaluationHarness | None = None) -> Table1Result:
    config = config or ExperimentConfig.from_environment()
    with harness_for(config, harness) as harness:
        result = Table1Result()
        for model in config.models:
            chisel_cases = harness.run_zero_shot(model, "chisel")
            verilog_cases = harness.run_zero_shot(model, "verilog")
            result.raw[model] = {"chisel": chisel_cases, "verilog": verilog_cases}
            result.rows.append(
                Table1Row(
                    model,
                    _pass_rates(chisel_cases, config.samples_per_case),
                    _pass_rates(verilog_cases, config.samples_per_case),
                )
            )
        return result
