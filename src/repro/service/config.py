"""Configuration for the async generation service.

Every knob is also settable from the environment (``REPRO_SERVICE_*``), so
deployments tune the service without code changes; see EXPERIMENTS.md for
the catalogue.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from repro import settings
from repro.retry import RetryPolicy


@dataclass
class ServiceConfig:
    """Knobs of the :class:`~repro.service.service.GenerationService`.

    ``max_in_flight`` bounds concurrently executing sessions (the worker
    count); ``queue_limit`` bounds the job queue — ``submit`` awaits when it
    is full, which is the service's backpressure.  ``rate_limit`` (LLM
    requests per second, ``None`` for no limit) and ``retry`` parameterize the
    :class:`~repro.llm.dispatch.BatchingDispatcher`.  Compile/simulate steps
    run on the event loop's thread in FIFO order, so there is no tool pool to
    size.  ``store_path`` points the result cache at a persistent
    :class:`~repro.experiments.store.ResultStore` shared with the sweep
    engine, so specs already swept are served without any LLM traffic;
    ``memo_size`` bounds the in-process payload memo in front of it.

    ``request_timeout`` bounds each LLM dispatch attempt in seconds
    (``None`` disables the bound); timed-out attempts are retried like
    transport errors and counted as ``timeouts`` in the dispatcher's metrics
    registry (``dispatcher.snapshot()["timeouts"]``).

    ``sim_batch_window`` / ``sim_max_batch`` parameterize simulate-call
    micro-batching: simulate tool steps from concurrent sessions collect for
    up to ``sim_batch_window`` seconds (or until ``sim_max_batch`` are
    pending) and run as one :meth:`Simulator.simulate_many` call on the tool
    queue.  ``sim_max_batch <= 1`` disables batching (each simulate runs alone).

    ``drain_timeout`` bounds how long ``close(drain=True)`` waits for
    in-flight and queued jobs to finish before tearing the service down
    anyway (graceful shutdown with a hard edge); ``0`` waits indefinitely.

    ``breaker`` optionally installs a :class:`repro.retry.CircuitBreaker`
    around the dispatcher's transport attempts (build one with
    ``CircuitBreaker.from_environment()``), and ``llm_budget`` any object
    with ``charge(n)`` — e.g. a :class:`repro.campaign.budget.Budget` —
    charged once per LLM request; both default off.
    """

    max_in_flight: int = 32
    queue_limit: int = 128
    rate_limit: float | None = None
    retry: RetryPolicy = field(default_factory=RetryPolicy)
    store_path: str | None = None
    memo_size: int = 8192
    request_timeout: float | None = None
    sim_batch_window: float = 0.0
    sim_max_batch: int = 16
    drain_timeout: float = 30.0
    breaker: object | None = None
    llm_budget: object | None = None

    def __post_init__(self) -> None:
        if self.max_in_flight < 1:
            raise ValueError("max_in_flight must be >= 1")
        if self.queue_limit < 1:
            raise ValueError("queue_limit must be >= 1")
        if self.request_timeout is not None and self.request_timeout <= 0:
            raise ValueError("request_timeout must be > 0 or None")
        if self.sim_batch_window < 0:
            raise ValueError("sim_batch_window must be >= 0")
        if self.drain_timeout < 0:
            raise ValueError("drain_timeout must be >= 0")

    @classmethod
    def from_environment(cls) -> "ServiceConfig":
        """The defaults with every set ``REPRO_SERVICE_*`` knob applied.

        A set ``REPRO_SERVICE_*`` variable that no row of the settings table
        declares (a deleted knob) raises :class:`~repro.settings.SettingError`.
        """
        settings.reject_undeclared("REPRO_SERVICE_")
        return replace(
            cls(),
            **settings.overrides(
                max_in_flight="REPRO_SERVICE_MAX_INFLIGHT",
                rate_limit="REPRO_SERVICE_RATE_LIMIT",
                queue_limit="REPRO_SERVICE_QUEUE_LIMIT",
                request_timeout="REPRO_SERVICE_REQUEST_TIMEOUT",
                sim_batch_window="REPRO_SERVICE_SIM_BATCH_WINDOW",
                sim_max_batch="REPRO_SERVICE_SIM_MAX_BATCH",
                drain_timeout="REPRO_SERVICE_DRAIN_TIMEOUT",
                store_path="REPRO_RESULT_STORE",
            ),
        )
