"""Unified retry, backoff and circuit-breaking primitives.

Every layer that tries again later shares one vocabulary:

* :class:`BackoffPolicy` — deterministic capped exponential backoff (the
  campaign's chunk-retry cooldown);
* :class:`RetryPolicy` — capped exponential backoff with multiplicative
  jitter (the dispatcher's retry schedule); jitter draws from a caller-owned
  ``random.Random``, so a seeded RNG makes whole retry schedules
  reproducible (:func:`seeded_rng` derives one from any JSON-able parts);
* :class:`CircuitBreaker` — a thread-safe closed/open/half-open breaker that
  publishes ``llm.breaker`` (or ``<name>.breaker``) lifecycle events;
* transport-fault taxonomy (:class:`TransportError` and friends) +
  :func:`is_transport_fault`, so retry loops across the stack classify
  failures the same way;
* :func:`emit_retry` — every retry in the system announces itself as a
  ``retry.attempt`` event on the bus, tagged with its source layer.

Everything here is dependency-free (stdlib, :mod:`repro.obs` and the leaf
:mod:`repro.settings`) so any layer may import it without cycles.
"""

from __future__ import annotations

import hashlib
import json
import random
import threading
import time
from dataclasses import dataclass

from repro import settings

#: Breaker states (string-valued so snapshots serialize naturally).
CLOSED = "closed"
OPEN = "open"
HALF_OPEN = "half-open"


# --------------------------------------------------------------------- faults


class TransportError(RuntimeError):
    """A transient transport-level failure (the connection, not the answer)."""


class TransportTimeout(TransportError):
    """A transport attempt exceeded its time bound."""


class HttpError(TransportError):
    """An HTTP-level provider failure (5xx burst, rate-limit storm, ...)."""

    def __init__(self, status: int, message: str = ""):
        super().__init__(message or f"provider returned HTTP {status}")
        self.status = status


class MalformedResponseError(TransportError):
    """The provider answered, but with bytes no session should ever see.

    Treated as a transport fault: the only safe reaction is to retry the
    request, never to hand garbage to a session (which would silently change
    results instead of failing loudly).
    """


class BreakerOpenError(RuntimeError):
    """A request was rejected because the circuit breaker is open.

    Deliberately *not* a :class:`TransportError`: breaker rejections are
    back-pressure, not new evidence of transport failure, and must never be
    fed back into ``record_failure``.
    """


def is_transport_fault(exc: BaseException) -> bool:
    """Classify an exception as transient-transport (retry-worthy) or not."""
    return isinstance(exc, (TransportError, TimeoutError, ConnectionError))


# -------------------------------------------------------------------- backoff


@dataclass(frozen=True)
class BackoffPolicy:
    """Deterministic capped exponential backoff.

    ``delay(k)`` for attempt ``k`` (1-based) is ``base * factor**(k-1)``
    capped at ``cap``, so every layer cools down the same way.
    """

    base: float = 0.1
    factor: float = 2.0
    cap: float = 5.0

    def delay(self, attempt: int) -> float:
        return min(self.cap, self.base * (self.factor ** max(0, attempt - 1)))


@dataclass(frozen=True)
class RetryPolicy:
    """Capped exponential backoff with multiplicative jitter.

    ``attempts`` counts *retries* after the first try.  The delay before
    retry ``k`` (1-based) is ``base_delay * 2**(k-1)`` capped at
    ``max_delay``, scaled by a uniform factor in ``[1 - jitter/2, 1 + jitter/2]``
    so synchronized failures don't retry in lockstep.
    """

    attempts: int = 3
    base_delay: float = 0.05
    max_delay: float = 2.0
    jitter: float = 0.5

    def delay(self, attempt: int, rng: random.Random) -> float:
        base = min(self.max_delay, self.base_delay * (2 ** (attempt - 1)))
        return base * (1.0 - self.jitter / 2.0 + rng.random() * self.jitter)


def seeded_rng(*parts: object) -> random.Random:
    """A ``random.Random`` deterministically seeded from ``parts``.

    The seed is a stable hash of the JSON form of ``parts``, so retry jitter
    (and chaos fault schedules) replay identically across runs and platforms.
    """
    canonical = json.dumps(parts, sort_keys=True, separators=(",", ":"), default=str)
    digest = hashlib.sha256(canonical.encode("utf-8")).digest()
    return random.Random(int.from_bytes(digest[:8], "big"))


def emit_retry(bus, source: str, attempt: int, reason: str, delay: float) -> None:
    """Publish one ``retry.attempt`` event (no-op without subscribers)."""
    if bus is not None and bus.active:
        bus.publish(
            "retry",
            "attempt",
            source=source,
            attempt=attempt,
            reason=reason,
            delay=round(delay, 4),
        )


# -------------------------------------------------------------------- breaker


class CircuitBreaker:
    """A thread-safe closed/open/half-open circuit breaker.

    ``threshold`` consecutive recorded failures open the breaker: ``allow()``
    rejects every caller for ``cooldown`` seconds, after which the breaker
    goes half-open and admits up to ``probes`` concurrent probe requests.  A
    probe success closes the breaker; a probe failure re-opens it for another
    cooldown.
    State transitions publish ``<name>.breaker`` events (``open`` /
    ``half-open`` / ``close``) when a bus is attached, and rejections are
    counted in the snapshot so operators can see shed load.

    Safe to share between asyncio code and threads: every transition happens
    under one lock, and ``clock`` is injectable for deterministic tests.
    """

    def __init__(
        self,
        threshold: int = 5,
        cooldown: float = 1.0,
        probes: int = 1,
        *,
        name: str = "llm",
        bus=None,
        clock=time.monotonic,
    ):
        if threshold < 1:
            raise ValueError("threshold must be >= 1")
        if cooldown < 0:
            raise ValueError("cooldown must be >= 0")
        if probes < 1:
            raise ValueError("probes must be >= 1")
        self.threshold = threshold
        self.cooldown = cooldown
        self.probes = probes
        self.name = name
        self.bus = bus
        self._clock = clock
        self._lock = threading.Lock()
        self._state = CLOSED
        self._failures = 0
        self._opened_at: float | None = None
        self._probes_in_flight = 0
        self._stats = {"opens": 0, "rejections": 0, "probes": 0}

    # Internal: callers hold self._lock.
    def _publish(self, transition: str) -> None:
        if self.bus is not None and self.bus.active:
            self.bus.publish(
                self.name + ".breaker",
                transition,
                state=self._state,
                failures=self._failures,
                opens=self._stats["opens"],
                rejections=self._stats["rejections"],
            )

    @property
    def state(self) -> str:
        with self._lock:
            self._maybe_half_open_locked()
            return self._state

    def _maybe_half_open_locked(self) -> None:
        if self._state == OPEN and self._opened_at is not None:
            if self._clock() - self._opened_at >= self.cooldown:
                self._state = HALF_OPEN
                self._probes_in_flight = 0
                self._publish("half-open")

    def allow(self) -> bool:
        """Whether a request may proceed right now (claims a probe slot when
        half-open)."""
        with self._lock:
            self._maybe_half_open_locked()
            if self._state == CLOSED:
                return True
            if self._state == HALF_OPEN and self._probes_in_flight < self.probes:
                self._probes_in_flight += 1
                self._stats["probes"] += 1
                return True
            self._stats["rejections"] += 1
            self._publish("reject")
            return False

    def record_success(self) -> None:
        with self._lock:
            self._failures = 0
            if self._state != CLOSED:
                self._state = CLOSED
                self._opened_at = None
                self._probes_in_flight = 0
                self._publish("close")

    def record_failure(self) -> None:
        with self._lock:
            self._failures += 1
            was = self._state
            if was == HALF_OPEN or (was == CLOSED and self._failures >= self.threshold):
                self._state = OPEN
                self._opened_at = self._clock()
                self._probes_in_flight = 0
                self._stats["opens"] += 1
                self._publish("open")

    def snapshot(self) -> dict:
        with self._lock:
            self._maybe_half_open_locked()
            return {
                "name": self.name,
                "state": self._state,
                "failures": self._failures,
                "threshold": self.threshold,
                "cooldown": self.cooldown,
                **self._stats,
            }

    @classmethod
    def from_environment(
        cls, *, name: str = "llm", bus=None, default_threshold: int = 5
    ) -> "CircuitBreaker | None":
        """Build a breaker from ``REPRO_BREAKER_*``; threshold 0 disables it."""
        threshold = settings.read("REPRO_BREAKER_THRESHOLD", default_threshold)
        if threshold is None:
            return None
        return cls(
            threshold,
            settings.read("REPRO_BREAKER_COOLDOWN"),
            settings.read("REPRO_BREAKER_PROBES"),
            name=name,
            bus=bus,
        )
