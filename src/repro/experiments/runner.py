"""Shared evaluation machinery for the experiment runners.

:class:`EvaluationHarness` keeps its historical sweep API (``run_zero_shot`` /
``run_rechisel`` / ``run_autochip``) but no longer owns any loops: each sweep
is decomposed into :class:`~repro.experiments.work.WorkUnit`\\ s and handed to
the :class:`~repro.experiments.engine.SweepEngine`, which memoizes, persists
and (for ``config.jobs > 1``) parallelizes them.  Overlapping sweeps across
experiments — Table III, Table IV, Fig. 6, Fig. 7 and the ablations all need
ReChisel runs — therefore share work automatically.
"""

from __future__ import annotations

import re
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Iterator

from repro.baselines.autochip import AutoChipResult
from repro.core.rechisel import ReChiselResult
from repro.experiments.config import ExperimentConfig
from repro.experiments.engine import SweepEngine, chunk_by_case
from repro.experiments.strategies import (
    AutoChipStrategy,
    ReChiselStrategy,
    Strategy,
    ZeroShotStrategy,
)
from repro.experiments.work import WorkUnit
from repro.problems.base import Problem
from repro.problems.registry import ProblemRegistry
from repro.toolchain.compiler import ChiselCompiler


@dataclass
class ZeroShotCase:
    """Zero-shot sample outcomes for one case ("success"/"syntax"/"functional")."""

    problem_id: str
    outcomes: list[str] = field(default_factory=list)

    @property
    def pass_count(self) -> int:
        return sum(1 for outcome in self.outcomes if outcome == "success")


@dataclass
class ReflectionCase:
    """Reflection-run results for one case (one entry per sample)."""

    problem_id: str
    results: list[ReChiselResult] = field(default_factory=list)

    def pass_count_at(self, iteration_cap: int) -> int:
        return sum(1 for result in self.results if result.success_by(iteration_cap))


@dataclass
class AutoChipCase:
    problem_id: str
    results: list[AutoChipResult] = field(default_factory=list)

    def pass_count_at(self, iteration_cap: int) -> int:
        return sum(1 for result in self.results if result.success_by(iteration_cap))


def problem_family(problem: Problem) -> str:
    """The problem's family: its suite plus the id with parameters stripped.

    ``alu_w4``/``alu_w8`` are one family; ``sequence_detector_101`` in HDLBits
    and ``sequence_detector_0110`` in RTLLM are distinct (different suites).
    """
    return f"{problem.suite}:{re.sub(r'[0-9]+', '', problem.problem_id)}"


def _largest_remainder_quotas(sizes: dict[str, int], budget: int) -> dict[str, int]:
    """Apportion ``budget`` across groups proportionally to their sizes.

    Largest-remainder method: every group's quota is within one of its exact
    proportional share.  Ties break on group insertion order (deterministic).
    """
    total = sum(sizes.values())
    shares = {group: size * budget / total for group, size in sizes.items()}
    quotas = {group: int(share) for group, share in shares.items()}
    position = {group: order for order, group in enumerate(sizes)}
    by_remainder = sorted(sizes, key=lambda group: (quotas[group] - shares[group], position[group]))
    for group in by_remainder[: budget - sum(quotas.values())]:
        quotas[group] += 1
    return quotas


def stratified_subset(problems: list[Problem], max_cases: int) -> list[Problem]:
    """A deterministic ``max_cases``-sized subset, stratified per family.

    Two-level apportionment: the budget splits across suites first (so even a
    tiny subset touches every suite), then across problem families within each
    suite, both by largest remainder; within a family the picks are evenly
    strided.  Output preserves the original problem order.
    """
    suites: dict[str, dict[str, list[int]]] = {}
    for index, problem in enumerate(problems):
        families = suites.setdefault(problem.suite, {})
        families.setdefault(problem_family(problem), []).append(index)

    suite_sizes = {
        suite: sum(len(members) for members in families.values())
        for suite, families in suites.items()
    }
    suite_quotas = _largest_remainder_quotas(suite_sizes, max_cases)

    chosen: list[int] = []
    for suite, families in suites.items():
        family_sizes = {family: len(members) for family, members in families.items()}
        family_quotas = _largest_remainder_quotas(family_sizes, suite_quotas[suite])
        for family, members in families.items():
            quota = family_quotas[family]
            chosen.extend(members[(pick * len(members)) // quota] for pick in range(quota))
    return [problems[index] for index in sorted(chosen)]


class EvaluationHarness:
    """Runs the baseline / ReChisel / AutoChip sweeps behind every experiment."""

    def __init__(
        self,
        config: ExperimentConfig,
        registry: ProblemRegistry | None = None,
        engine: SweepEngine | None = None,
    ):
        self.config = config
        self.engine = engine or SweepEngine(config, registry=registry)
        self.registry = self.engine.registry

    def close(self) -> None:
        """Shut the engine's worker processes down and release its store."""
        self.engine.close()

    def __enter__(self) -> "EvaluationHarness":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    @property
    def compiler(self) -> ChiselCompiler:
        """The serial worker context's compiler (shared caches, back-compat)."""
        return self.engine.context.compiler

    # ----------------------------------------------------------------- inputs

    def problems(self) -> list[Problem]:
        problems = list(self.registry)
        if self.config.max_cases is not None and self.config.max_cases < len(problems):
            problems = stratified_subset(problems, self.config.max_cases)
        return problems

    def reference_verilog(self, problem: Problem) -> str:
        return self.engine.context.reference_verilog(problem)

    # ------------------------------------------------------------------ sweeps

    def _sweep(self, strategy: Strategy, model: str) -> list[tuple[Problem, list[object]]]:
        """Decompose one sweep into units, run them, rehydrate per-case results."""
        problems = self.problems()
        knobs = strategy.knob_items()
        max_iterations = self.config.max_iterations if strategy.name != "zero_shot" else 0
        units = [
            WorkUnit(
                strategy=strategy.name,
                model=model,
                problem_id=problem.problem_id,
                case_index=case_index,
                sample=sample,
                seed=self.config.seed,
                max_iterations=max_iterations,
                knobs=knobs,
            )
            for case_index, problem in enumerate(problems)
            for sample in range(self.config.samples_per_case)
        ]
        payloads = self.engine.run(units)
        grouped = chunk_by_case(payloads, self.config.samples_per_case)
        return [
            (problem, [strategy.rehydrate(payload) for payload in case_payloads])
            for problem, case_payloads in zip(problems, grouped)
        ]

    def run_zero_shot(self, model: str, language: str) -> list[ZeroShotCase]:
        """Zero-shot sweep: ``samples_per_case`` independent attempts per case."""
        return [
            ZeroShotCase(problem.problem_id, outcomes=list(outcomes))
            for problem, outcomes in self._sweep(ZeroShotStrategy(language), model)
        ]

    def run_rechisel(
        self,
        model: str,
        enable_escape: bool = True,
        use_knowledge: bool = True,
        feedback_detail: str = "full",
    ) -> list[ReflectionCase]:
        """Full ReChisel sweep with the configured iteration cap."""
        strategy = ReChiselStrategy(
            enable_escape=enable_escape,
            use_knowledge=use_knowledge,
            feedback_detail=feedback_detail,
        )
        return [
            ReflectionCase(problem.problem_id, results=list(results))
            for problem, results in self._sweep(strategy, model)
        ]

    def run_autochip(self, model: str) -> list[AutoChipCase]:
        """AutoChip sweep (direct Verilog generation with feedback)."""
        return [
            AutoChipCase(problem.problem_id, results=list(results))
            for problem, results in self._sweep(AutoChipStrategy(), model)
        ]


@contextmanager
def harness_for(
    config: ExperimentConfig, harness: EvaluationHarness | None = None
) -> Iterator[EvaluationHarness]:
    """``harness`` as given, or a new one for ``config`` that closes on exit.

    An experiment's ``run()`` takes its caller's harness, whose warm process
    pool serves the caller's next experiment too; a harness it builds itself
    is closed when the experiment returns, so no pool outlives its owner.
    """
    if harness is not None:
        yield harness
        return
    with EvaluationHarness(config) as owned:
        yield owned
