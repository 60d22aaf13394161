"""Chaos injection across the stack: seeded, bounded, bit-identity-safe.

The chaos matrix exercises every resilience mechanism the campaign
orchestrator composes, one fault class at a time:

* **LLM transport** — :class:`FaultyClient` wraps a session's chat client and
  raises :class:`~repro.retry.TransportTimeout` / 503
  :class:`~repro.retry.HttpError` bursts / raw
  :class:`~repro.retry.MalformedResponseError` on a seeded schedule.  Faults
  raise *before* delegating, so the wrapped synthetic client's RNG never
  advances on a faulted attempt — a retried unit replays bit-identically,
  which is the invariant every chaos test asserts;
* **store** — :class:`FlakyStore` turns a seeded fraction of ``put`` /
  ``put_meta`` calls into ``ENOSPC`` :class:`OSError`\\ s (ride them out with
  :class:`~repro.campaign.checkpoint.ResilientStore`), and
  :func:`tear_store_tail` appends a torn half-record to a store's active tail
  the way a crash mid-``write`` would (the store truncates it on reopen);
* **event bus** — :func:`overload_bus` attaches a pathological one-slot
  subscriber to every topic, forcing the full routing + drop path on every
  publish (observability overload must never perturb results);
* **orchestrator** — no helpers needed here: orchestrator kills are real
  SIGKILLs delivered by the resume tests.

Fault schedules draw from :func:`repro.retry.seeded_rng`, so a given seed
produces the same fault pattern every run; ``limit`` bounds total injections
so bounded-retry campaigns always eventually converge.
"""

from __future__ import annotations

import errno
import os
import threading

from repro.retry import (
    HttpError,
    MalformedResponseError,
    TransportTimeout,
    seeded_rng,
)

FAULT_TIMEOUT = "timeout"
FAULT_HTTP = "http"
FAULT_MALFORMED = "malformed"
FAULT_KINDS = (FAULT_TIMEOUT, FAULT_HTTP, FAULT_MALFORMED)


def raise_fault(kind: str) -> None:
    """Raise the transport exception for one fault kind."""
    if kind == FAULT_TIMEOUT:
        raise TransportTimeout("chaos: injected transport timeout")
    if kind == FAULT_HTTP:
        raise HttpError(503, "chaos: injected 5xx burst")
    if kind == FAULT_MALFORMED:
        raise MalformedResponseError("chaos: injected malformed response body")
    raise ValueError(f"unknown fault kind {kind!r}")


class FaultPlan:
    """A seeded, shared, bounded schedule of LLM transport faults.

    One plan is shared by every :class:`FaultyClient` in a campaign: each
    ``complete`` call advances a process-wide call counter and the plan's RNG
    decides whether (and which) fault fires.  ``rate`` is the per-call fault
    probability, ``limit`` caps total injections (``None`` = unbounded) so a
    retried call eventually gets through, and ``seed`` makes the whole
    schedule reproducible.
    """

    def __init__(
        self,
        rate: float = 0.3,
        kinds: tuple[str, ...] = FAULT_KINDS,
        seed: int = 0,
        limit: int | None = None,
    ):
        if not 0.0 <= rate <= 1.0:
            raise ValueError("rate must be in [0, 1]")
        for kind in kinds:
            if kind not in FAULT_KINDS:
                raise ValueError(f"unknown fault kind {kind!r}")
        self.rate = rate
        self.kinds = tuple(kinds)
        self.limit = limit
        self._rng = seeded_rng("chaos-llm", seed, list(kinds), rate)
        self._lock = threading.Lock()
        self.calls = 0
        self.injected = 0

    def next_fault(self) -> str | None:
        """The fault to inject for the next call, or ``None`` to pass through."""
        with self._lock:
            self.calls += 1
            if self.limit is not None and self.injected >= self.limit:
                return None
            if not self.kinds or self._rng.random() >= self.rate:
                return None
            self.injected += 1
            return self.kinds[self._rng.randrange(len(self.kinds))]

    def snapshot(self) -> dict:
        with self._lock:
            return {"calls": self.calls, "injected": self.injected, "rate": self.rate}


class FaultyClient:
    """A chat client wrapper that injects transport faults before delegating.

    The fault check precedes the inner call: a faulted attempt leaves the
    wrapped client's RNG untouched, so the eventual successful retry produces
    exactly the payload a fault-free run would have.
    """

    def __init__(self, inner, plan: FaultPlan):
        self.inner = inner
        self.plan = plan

    def complete(self, messages):
        kind = self.plan.next_fault()
        if kind is not None:
            raise_fault(kind)
        return self.inner.complete(messages)


def chaos_middleware(plan: FaultPlan):
    """A ``client_middleware`` for the orchestrator: wrap every session client."""

    def middleware(client, unit):
        return FaultyClient(client, plan)

    return middleware


class FlakyStore:
    """A store wrapper that fails a seeded fraction of writes with ENOSPC.

    Reads always succeed (a full disk still serves reads); writes raise
    ``OSError(ENOSPC)`` per the seeded schedule.  Compose under
    :class:`~repro.campaign.checkpoint.ResilientStore` —
    ``ResilientStore(FlakyStore(store))`` — to assert campaigns ride out disk
    faults without losing or reordering results.
    """

    def __init__(
        self,
        inner,
        rate: float = 0.3,
        seed: int = 0,
        limit: int | None = None,
    ):
        if not 0.0 <= rate <= 1.0:
            raise ValueError("rate must be in [0, 1]")
        self.inner = inner
        self.rate = rate
        self.limit = limit
        self._rng = seeded_rng("chaos-store", seed, rate)
        self._lock = threading.Lock()
        self.injected = 0

    def _maybe_fail(self) -> None:
        with self._lock:
            if self.limit is not None and self.injected >= self.limit:
                return
            if self._rng.random() < self.rate:
                self.injected += 1
                raise OSError(errno.ENOSPC, "chaos: no space left on device")

    def put(self, fingerprint, unit, payload) -> None:
        self._maybe_fail()
        self.inner.put(fingerprint, unit, payload)

    def put_meta(self, key, payload) -> None:
        self._maybe_fail()
        self.inner.put_meta(key, payload)

    def __contains__(self, fingerprint) -> bool:
        return fingerprint in self.inner

    def __getattr__(self, name):
        return getattr(self.inner, name)


def tear_store_tail(path: str, garbage: bytes = b'{"v": 1, "fp": "torn') -> bool:
    """Append a torn (newline-less) half-record to a store's active tail.

    Simulates a crash mid-``write(2)``: the next :class:`ResultStore` to open
    the directory must truncate the torn line and carry on.  Returns ``True``
    if a tail file existed to tear.
    """
    tail = os.path.join(path, "tail.jsonl")
    if not os.path.exists(tail):
        return False
    with open(tail, "ab") as handle:
        handle.write(garbage)
        handle.flush()
        os.fsync(handle.fileno())
    return True


def overload_bus(bus, maxsize: int = 1):
    """Attach a pathological catch-all subscriber (returns the subscription).

    Every publish now pays full routing into a one-slot queue that drops
    almost everything — the event-bus-overload chaos mode.  Unsubscribe (or
    let the test fixture's bus die) to restore the fast path.
    """
    return bus.subscribe("*", maxsize=maxsize, name="chaos-overload")
