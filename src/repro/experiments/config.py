"""Experiment configuration: paper-scale vs quick-scale evaluation."""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro import settings
from repro.llm.profiles import AUTOCHIP_MODELS, PAPER_MODELS


@dataclass
class ExperimentConfig:
    """Knobs shared by every experiment runner.

    The paper evaluates 216 cases x 10 samples x 5 models with up to 10
    reflection iterations.  That scale runs in tens of minutes on a laptop
    with this pure-Python toolchain, so the default configuration used by the
    benchmark suite is a scaled-down subset; set the ``REPRO_FULL_EVAL=1``
    environment variable (or call :meth:`paper_scale`) to reproduce the full
    runs, as recorded in EXPERIMENTS.md.

    ``jobs`` selects the sweep executor (``REPRO_JOBS``).  It defaults to the
    number of CPUs this process may run on, and >1 fans units out over a
    process pool of that many workers: memory is then the parent plus one
    worker per CPU, each with its own caches.  ``jobs=1`` runs every work unit
    in-process; results are bit-identical either way.  ``store_path`` points
    the engine at a persistent append-only result store
    (``REPRO_RESULT_STORE``) so repeated and overlapping sweeps reuse
    completed work units and interrupted runs resume; ``None`` disables
    persistence (in-process memoization across sweeps still applies).  See
    EXPERIMENTS.md for the store format.
    """

    samples_per_case: int = 10
    max_iterations: int = 10
    max_cases: int | None = None
    models: tuple[str, ...] = PAPER_MODELS
    autochip_models: tuple[str, ...] = AUTOCHIP_MODELS
    seed: int = 0
    jobs: int = settings.SETTINGS["REPRO_JOBS"].default
    store_path: str | None = None

    @classmethod
    def paper_scale(cls) -> "ExperimentConfig":
        return cls()

    @classmethod
    def quick(cls) -> "ExperimentConfig":
        """A fast configuration for smoke tests and pytest-benchmark runs."""
        return cls(samples_per_case=2, max_iterations=10, max_cases=36)

    @classmethod
    def from_environment(cls) -> "ExperimentConfig":
        config = cls.paper_scale() if settings.read("REPRO_FULL_EVAL") else cls.quick()
        return replace(
            config,
            **settings.overrides(
                jobs="REPRO_JOBS",
                store_path="REPRO_RESULT_STORE",
            ),
        )
