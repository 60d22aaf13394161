"""Configuration for the supervised generation fleet.

Every knob is also settable from the environment (``REPRO_FLEET_*``) so
deployments tune the fleet without code changes; see EXPERIMENTS.md for the
catalogue.  Timeouts are in seconds.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro import settings
from repro.retry import BackoffPolicy


@dataclass(frozen=True)
class FleetConfig:
    """Knobs of the :class:`~repro.fleet.supervisor.FleetSupervisor`.

    ``workers`` sizes the fleet.  A worker whose heartbeat is older than
    ``heartbeat_interval * heartbeat_misses`` is declared nonresponsive and
    SIGKILLed; a job leased longer than ``lease_timeout`` kills its worker the
    same way (both re-queue the worker's in-flight leases).  Crashed workers
    restart after ``restart_backoff * 2**(restarts - 1)`` seconds (capped at
    ``restart_backoff_max``) and are permanently evicted after
    ``max_restarts`` restarts; when every slot is evicted the supervisor
    degrades to executing jobs in-process.  A job whose execution has killed
    ``poison_threshold`` workers is quarantined: it runs in-process instead of
    taking down a third worker.

    ``start_method`` picks the multiprocessing start method; ``fork`` (the
    default where available) gives workers the parent's warm imports.
    """

    workers: int = 4
    heartbeat_interval: float = 0.5
    heartbeat_misses: int = 6
    lease_timeout: float = 120.0
    restart_backoff: float = 0.1
    restart_backoff_max: float = 5.0
    max_restarts: int = 5
    poison_threshold: int = 2
    start_method: str | None = None
    ring_replicas: int = 64
    #: Max jobs leased to one worker at a time; overflow walks the ring to the
    #: next worker (bounds pipe backlog and smooths a skewed hash).
    max_backlog: int = 8

    def __post_init__(self) -> None:
        if self.workers < 1:
            raise ValueError("workers must be >= 1")
        if self.heartbeat_interval <= 0:
            raise ValueError("heartbeat_interval must be > 0")
        if self.heartbeat_misses < 1:
            raise ValueError("heartbeat_misses must be >= 1")
        if self.lease_timeout <= 0:
            raise ValueError("lease_timeout must be > 0")
        if self.poison_threshold < 1:
            raise ValueError("poison_threshold must be >= 1")

    @property
    def heartbeat_timeout(self) -> float:
        return self.heartbeat_interval * self.heartbeat_misses

    @property
    def tick(self) -> float:
        """The supervisor pump's poll timeout: responsive but not spinning."""
        return max(0.005, min(0.05, self.heartbeat_interval / 4.0))

    @property
    def backoff(self) -> BackoffPolicy:
        """The restart cooldown as a shared :class:`repro.retry.BackoffPolicy`."""
        return BackoffPolicy(base=self.restart_backoff, cap=self.restart_backoff_max)

    def backoff_delay(self, restarts: int) -> float:
        """Seconds to cool down before restart number ``restarts`` (1-based)."""
        return self.backoff.delay(restarts)

    @classmethod
    def from_environment(cls, base: "FleetConfig | None" = None) -> "FleetConfig":
        """``base`` (default ``FleetConfig()``) overridden by ``REPRO_FLEET_*``."""
        return replace(
            base or cls(),
            **settings.overrides(
                workers="REPRO_FLEET_WORKERS",
                heartbeat_interval="REPRO_FLEET_HEARTBEAT",
                heartbeat_misses="REPRO_FLEET_HEARTBEAT_MISSES",
                lease_timeout="REPRO_FLEET_LEASE_TIMEOUT",
                restart_backoff="REPRO_FLEET_BACKOFF",
                restart_backoff_max="REPRO_FLEET_BACKOFF_MAX",
                max_restarts="REPRO_FLEET_MAX_RESTARTS",
                poison_threshold="REPRO_FLEET_POISON_THRESHOLD",
                start_method="REPRO_FLEET_START_METHOD",
            ),
        )
