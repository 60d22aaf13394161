"""Tests for the metrics and the experiment runners (quick-scale)."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.experiments import fig1, fig6, fig7, fig8_case_study, table1, table2, table3, table4
from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import EvaluationHarness
from repro.llm.profiles import CLAUDE_SONNET, GPT4O, GPT4O_MINI, GPT4_TURBO
from repro.metrics.errors import error_breakdown, per_iteration_error_mix
from repro.metrics.passk import aggregate_pass_at_k, pass_at_k

TINY = ExperimentConfig(
    samples_per_case=2,
    max_iterations=6,
    max_cases=10,
    models=(CLAUDE_SONNET, GPT4O_MINI),
    autochip_models=(CLAUDE_SONNET,),
    seed=0,
)
HARNESS = EvaluationHarness(TINY)


def teardown_module():
    HARNESS.close()


class TestPassAtK:
    def test_known_values(self):
        assert pass_at_k(10, 10, 1) == pytest.approx(1.0)
        assert pass_at_k(10, 0, 1) == pytest.approx(0.0)
        assert pass_at_k(10, 5, 1) == pytest.approx(0.5)
        assert pass_at_k(2, 1, 2) == pytest.approx(1.0)

    def test_k_larger_than_n_is_clamped(self):
        assert pass_at_k(3, 1, 10) == pytest.approx(1.0)

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            pass_at_k(0, 0, 1)
        with pytest.raises(ValueError):
            pass_at_k(5, 6, 1)
        with pytest.raises(ValueError):
            pass_at_k(5, 1, 0)

    @given(st.integers(1, 20), st.integers(0, 20), st.integers(1, 20))
    def test_bounds_and_monotonicity_in_k(self, n, c, k):
        c = min(c, n)
        value = pass_at_k(n, c, k)
        assert 0.0 <= value <= 1.0
        if k < n:
            assert pass_at_k(n, c, k + 1) >= value - 1e-12

    @given(st.integers(1, 20), st.integers(0, 19), st.integers(1, 10))
    def test_monotonicity_in_c(self, n, c, k):
        c = min(c, n - 1)
        assert pass_at_k(n, c + 1, k) >= pass_at_k(n, c, k)

    def test_aggregate_is_percentage(self):
        value = aggregate_pass_at_k([(10, 5), (10, 10)], 1)
        assert value == pytest.approx(75.0)
        assert aggregate_pass_at_k([], 1) == 0.0


class TestErrorMetrics:
    def test_breakdown_sums_to_hundred(self):
        breakdown = error_breakdown(["syntax", "functional", "success", "success"])
        assert breakdown.syntax + breakdown.functional + breakdown.success == pytest.approx(100.0)

    def test_empty_breakdown(self):
        breakdown = error_breakdown([])
        assert breakdown.syntax == breakdown.functional == breakdown.success == 0.0

    def test_per_iteration_mix_holds_final_state(self):
        runs = [["syntax", "functional", "success"], ["syntax", "syntax", "syntax"]]
        mixes = per_iteration_error_mix(runs, 4)
        assert len(mixes) == 5
        assert mixes[0].syntax == pytest.approx(100.0)
        assert mixes[4].success == pytest.approx(50.0)


class TestExperimentRunners:
    """Quick-scale smoke runs of every table/figure runner (shared harness)."""

    @pytest.fixture(scope="class")
    def table3_result(self):
        return table3.run(TINY, HARNESS)

    def test_table1_rows_and_shape(self):
        result = table1.run(TINY, HARNESS)
        assert len(result.rows) == len(TINY.models)
        for row in result.rows:
            # Chisel zero-shot never beats Verilog zero-shot for the same model.
            assert row.chisel[1] <= row.verilog[1] + 15.0
            assert 0.0 <= row.chisel[1] <= 100.0
        assert "Table I" in result.render()

    def test_fig1_breakdowns(self):
        result = fig1.run(TINY, HARNESS)
        for model in TINY.models:
            breakdown = result.breakdowns[model]
            total = breakdown.syntax + breakdown.functional + breakdown.success
            assert total == pytest.approx(100.0, abs=0.5)
        mini = result.breakdowns[GPT4O_MINI]
        sonnet = result.breakdowns[CLAUDE_SONNET]
        assert mini.success < sonnet.success

    def test_table2_reproduces_compilable_rows(self):
        result = table2.run()
        reproduced = {row.entry.code for row in result.rows if row.reproduced}
        assert {"A1", "A2", "A3", "B1", "B2", "B3", "B5", "B6", "B7", "C2"} <= reproduced
        assert "Table II" in result.render()

    def test_table3_reflection_improves_over_baseline(self, table3_result):
        for model in TINY.models:
            rates = table3_result.rates[model][1]
            assert rates[table3.ITERATION_CAPS[-1]] >= rates[0]
        assert "Table III" in table3_result.render()

    def test_table3_sonnet_beats_mini(self, table3_result):
        cap = table3.ITERATION_CAPS[-1]
        assert (
            table3_result.rates[CLAUDE_SONNET][1][cap]
            > table3_result.rates[GPT4O_MINI][1][cap]
        )

    def test_fig6_curves_are_monotone(self, table3_result):
        result = fig6.run(TINY, HARNESS, rechisel_cases=table3_result.raw)
        for model in TINY.models:
            curve = result.series[model][1]
            assert all(b >= a - 1e-9 for a, b in zip(curve, curve[1:]))
        assert "Fig. 6" in result.render()

    def test_fig7_error_mix_shrinks(self, table3_result):
        result = fig7.run(TINY, HARNESS, rechisel_cases=table3_result.raw[CLAUDE_SONNET], model=CLAUDE_SONNET)
        first, last = result.mixes[0], result.mixes[-1]
        assert last.syntax + last.functional <= first.syntax + first.functional
        assert "Fig. 7" in result.render()

    def test_table4_compares_three_columns(self, table3_result):
        result = table4.run(TINY, HARNESS, rechisel_cases=table3_result.raw)
        assert CLAUDE_SONNET in result.rechisel
        assert CLAUDE_SONNET in result.autochip
        assert "AutoChip" in result.render()

    def test_fig8_case_study_matches_paper_trajectory(self):
        result = fig8_case_study.run()
        outcomes = [step.outcome for step in result.steps]
        assert outcomes == ["syntax", "syntax", "functional", "success"]
        assert result.result is not None and result.result.success_iteration == 3
        assert "Vector5" in result.render()

    def test_config_quick_vs_paper_scale(self):
        assert ExperimentConfig.quick().max_cases is not None
        assert ExperimentConfig.paper_scale().max_cases is None
        assert ExperimentConfig.paper_scale().samples_per_case == 10

    def test_harness_problem_subsetting(self):
        subset = HARNESS.problems()
        assert len(subset) == TINY.max_cases
        # The stratified subset is deterministic and spans all three suites.
        assert [p.problem_id for p in subset] == [p.problem_id for p in HARNESS.problems()]
        assert {p.suite for p in subset} == {p.suite for p in HARNESS.registry}
        full = EvaluationHarness(ExperimentConfig.paper_scale())
        assert len(full.problems()) == 216
