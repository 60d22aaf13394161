"""Deadlines, budgets and cooperative cancellation for campaigns.

These are the cooperative-control primitives the orchestrator threads down
the stack: a :class:`Budget` charges LLM calls wherever they happen (the
inline path meters through :class:`MeteredClient`; the async service path
hands the same object to the :class:`~repro.llm.dispatch.BatchingDispatcher`,
which duck-types it via ``charge``), a :class:`Deadline` turns wall-clock
expiry into an exception at every check point, and a :class:`CancelToken`
carries drain/shutdown requests from signal handlers into the campaign loop.

All three are thread-safe: signal handlers, asyncio callbacks and worker
threads may touch them concurrently.
"""

from __future__ import annotations

import threading
import time


class BudgetExceeded(RuntimeError):
    """The campaign's LLM-call budget is spent."""


class DeadlineExceeded(RuntimeError):
    """The campaign's wall-clock deadline has passed."""


class CampaignCancelled(RuntimeError):
    """Cooperative cancellation (drain/SIGTERM) was requested."""


class Budget:
    """A thread-safe spend counter with a hard limit.

    ``charge(n)`` atomically spends ``n`` units or raises
    :class:`BudgetExceeded` *without* spending, so a rejected charge never
    leaks budget.  ``limit=None`` means unbounded (charges are still
    counted, which is how campaigns report LLM spend).  ``spent`` may be
    seeded at construction: resumed campaigns restore it from the manifest
    so the purse spans resumes.
    """

    def __init__(self, limit: int | None = None, spent: int = 0):
        if limit is not None and limit < 0:
            raise ValueError("limit must be >= 0 or None")
        self.limit = limit
        self._spent = max(0, int(spent))
        self._lock = threading.Lock()

    @property
    def spent(self) -> int:
        with self._lock:
            return self._spent

    def remaining(self) -> int | None:
        with self._lock:
            if self.limit is None:
                return None
            return max(0, self.limit - self._spent)

    def charge(self, amount: int = 1) -> None:
        with self._lock:
            if self.limit is not None and self._spent + amount > self.limit:
                raise BudgetExceeded(
                    f"LLM budget exhausted: {self._spent}/{self.limit} spent, "
                    f"refused charge of {amount}"
                )
            self._spent += amount

    def snapshot(self) -> dict:
        with self._lock:
            return {"spent": self._spent, "limit": self.limit}


class Deadline:
    """A wall-clock bound with a monotonic (injectable) clock.

    ``seconds=None`` never expires.  ``check()`` raises
    :class:`DeadlineExceeded` once the bound passes — call it at every
    cooperative checkpoint.
    """

    def __init__(self, seconds: float | None, clock=time.monotonic):
        self.seconds = seconds
        self._clock = clock
        self._started = clock()

    def remaining(self) -> float | None:
        if self.seconds is None:
            return None
        return self.seconds - (self._clock() - self._started)

    def expired(self) -> bool:
        remaining = self.remaining()
        return remaining is not None and remaining <= 0

    def check(self) -> None:
        if self.expired():
            raise DeadlineExceeded(f"campaign deadline of {self.seconds}s passed")


class CancelToken:
    """A sticky cancellation flag with a reason.

    Signal handlers ``set()`` it; the campaign loop ``check()``s it between
    chunks and unwinds through :class:`CampaignCancelled` to the drain path.
    """

    def __init__(self):
        # Reentrant, unlike threading.Event's lock: a signal handler's set()
        # runs on the thread it interrupts, which may hold the lock inside
        # wait(); a plain Lock deadlocks the process there.
        self._cond = threading.Condition(threading.RLock())
        self._set = False
        self._reason = ""

    def set(self, reason: str = "cancelled") -> None:
        with self._cond:
            if not self._set:
                self._reason = reason
                self._set = True
                self._cond.notify_all()

    @property
    def is_set(self) -> bool:
        return self._set

    @property
    def reason(self) -> str:
        return self._reason

    def check(self) -> None:
        if self._set:
            raise CampaignCancelled(self._reason or "cancelled")

    def wait(self, timeout: float) -> bool:
        with self._cond:
            if not self._set:
                self._cond.wait(timeout)
            return self._set


class MeteredClient:
    """Wrap a chat client with deadline + budget enforcement per completion.

    The checks run *before* delegating, so a refused call never advances the
    inner client's RNG — a retried unit therefore replays bit-identically.
    Only ``complete`` is metered; the session protocol calls nothing else.
    """

    def __init__(self, inner, budget: Budget | None = None, deadline: Deadline | None = None):
        self.inner = inner
        self.budget = budget
        self.deadline = deadline

    def complete(self, messages):
        if self.deadline is not None:
            self.deadline.check()
        if self.budget is not None:
            self.budget.charge(1)
        return self.inner.complete(messages)
