"""Shared fixtures for the benchmark harness.

Each benchmark regenerates one of the paper's tables or figures.  By default
the quick-scale configuration is used so ``pytest benchmarks/ --benchmark-only``
finishes in a few minutes; set ``REPRO_FULL_EVAL=1`` to run the paper-scale
sweep (216 cases x 10 samples x 10 iterations), as recorded in EXPERIMENTS.md.
"""

import os
import sys

import pytest

_SRC = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
if _SRC not in sys.path:
    sys.path.insert(0, _SRC)

from repro.experiments.config import ExperimentConfig  # noqa: E402
from repro.experiments.runner import EvaluationHarness  # noqa: E402


@pytest.fixture(scope="session")
def config() -> ExperimentConfig:
    return ExperimentConfig.from_environment()


@pytest.fixture(scope="session")
def harness(config) -> EvaluationHarness:
    with EvaluationHarness(config) as harness:
        yield harness


def run_once(benchmark, function, *args, **kwargs):
    """Run an experiment exactly once under pytest-benchmark timing."""
    return benchmark.pedantic(function, args=args, kwargs=kwargs, rounds=1, iterations=1)
