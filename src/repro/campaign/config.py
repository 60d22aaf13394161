"""Configuration for the campaign orchestrator.

The run bounds (``chunk_size``, ``deadline``, ``llm_budget``, ``throttle``)
are set by the CLI's flags (``--chunk``, ``--deadline``, ``--budget``,
``--throttle``) or in code.  Only the store path, the retry count and the
checkpoint cadence, which no flag covers, are also read from the environment
(``REPRO_CAMPAIGN_STORE``, ``_RETRIES``, ``_CHECKPOINT_EVERY``); see
EXPERIMENTS.md.  The circuit breaker around the LLM path is configured
separately through ``REPRO_BREAKER_*``
(:meth:`repro.retry.CircuitBreaker.from_environment`).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro import settings
from repro.retry import BackoffPolicy


@dataclass
class CampaignConfig:
    """Knobs of one :class:`~repro.campaign.orchestrator.CampaignOrchestrator`.

    ``store_path`` locates the campaign's append-only
    :class:`~repro.experiments.store.ResultStore` — unit results, stage
    frontiers and manifest checkpoints all persist there, which is what makes
    a SIGKILLed campaign resumable.  ``chunk_size`` is the checkpoint
    granularity: the orchestrator runs units through the engine in chunks of
    this many, re-evaluating deadline/budget/drain between chunks
    (``chunk_size=1`` stops at true work-unit granularity).

    ``deadline`` bounds the run's wall clock in seconds (``None`` = no
    bound); ``llm_budget`` bounds LLM completions the campaign may spend
    across *all* resumes (``None`` = unbounded) — spend is checkpointed, so a
    resumed campaign keeps paying from the same purse.  ``unit_retries``
    bounds chunk-level retries after transport-classified failures, cooled
    down by ``retry_backoff``.  ``throttle`` sleeps that many seconds between
    chunks (chaos tests use it to widen kill windows).
    """

    store_path: str | None = None
    chunk_size: int = 4
    deadline: float | None = None
    llm_budget: int | None = None
    unit_retries: int = 2
    retry_backoff: BackoffPolicy = BackoffPolicy(base=0.05, cap=1.0)
    checkpoint_every: int = 1
    throttle: float = 0.0

    def __post_init__(self) -> None:
        if self.chunk_size < 1:
            raise ValueError("chunk_size must be >= 1")
        if self.deadline is not None and self.deadline <= 0:
            raise ValueError("deadline must be > 0 or None")
        if self.llm_budget is not None and self.llm_budget < 0:
            raise ValueError("llm_budget must be >= 0 or None")
        if self.unit_retries < 0:
            raise ValueError("unit_retries must be >= 0")
        if self.checkpoint_every < 1:
            raise ValueError("checkpoint_every must be >= 1")

    @classmethod
    def from_environment(cls, base: "CampaignConfig | None" = None) -> "CampaignConfig":
        """``base`` (default: the defaults) with the set ``REPRO_CAMPAIGN_*``
        knobs applied.

        A set ``REPRO_CAMPAIGN_*`` variable that no row of the settings table
        declares (a deleted knob) raises :class:`~repro.settings.SettingError`.
        """
        settings.reject_undeclared("REPRO_CAMPAIGN_")
        config = replace(
            base or cls(),
            **settings.overrides(
                unit_retries="REPRO_CAMPAIGN_RETRIES",
                checkpoint_every="REPRO_CAMPAIGN_CHECKPOINT_EVERY",
            ),
        )
        if config.store_path is None:
            # An explicit REPRO_CAMPAIGN_STORE (``off`` included) wins over
            # the shared REPRO_RESULT_STORE.
            config.store_path = settings.read(
                "REPRO_CAMPAIGN_STORE", settings.read("REPRO_RESULT_STORE")
            )
        return config
