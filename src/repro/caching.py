"""Bounded LRU caches, the cache registry and content fingerprints.

Every memoization layer in the toolchain — whole Chisel compile results,
Verilog parsing, compiled simulation kernels and trace-compiled testbenches
— shares :class:`LruCache` so the eviction policy and hit/miss accounting live in one
place.  Caches constructed with a ``name`` self-register in a process-wide
registry; :func:`cache_stats` aggregates hits/misses/size per name (summing
across instances) and is what ``GenerationService.snapshot()`` surfaces as
``ServiceSnapshot.caches``.  The lexer's per-token location table is a
C-level ``functools.lru_cache`` registered through :class:`InternTable`.

Cached values are shared between callers: treat them as immutable.
"""

from __future__ import annotations

import functools
import hashlib
import json
import threading
import weakref
from collections import OrderedDict
from typing import Generic, TypeVar

V = TypeVar("V")

_SENTINEL = object()


def text_key(*parts: str | None) -> str:
    """Stable cache key for one or more text fragments (e.g. source + top)."""
    digest = hashlib.sha256()
    for part in parts:
        digest.update(b"\x00" if part is None else part.encode())
        digest.update(b"\x1f")
    return digest.hexdigest()


def stable_fingerprint(document: object) -> str:
    """Content fingerprint of a JSON-serializable document.

    Keys are sorted and separators fixed so the digest is independent of dict
    insertion order and Python version.  Used by the sweep result store to key
    work units by their full configuration.
    """
    canonical = json.dumps(document, sort_keys=True, separators=(",", ":"), default=str)
    return hashlib.sha256(canonical.encode()).hexdigest()


def get_or_compute(cache, key: str, compute, cache_exceptions: tuple = ()):
    """Shared memo pattern: lookup, compute on miss, replay failures.

    Exceptions of the listed types are cached as values and re-raised on both
    the miss and every subsequent hit (the same faulty candidate recurs
    constantly across samples and repair iterations); anything else
    propagates uncached.
    """
    cached = cache.get(key, _SENTINEL)
    if cached is not _SENTINEL:
        if cache_exceptions and isinstance(cached, cache_exceptions):
            raise cached
        return cached
    try:
        value = compute()
    except cache_exceptions as exc:
        cache.put(key, exc)
        raise
    return cache.put(key, value)


# ---------------------------------------------------------------------------
# Cache registry
# ---------------------------------------------------------------------------

_registry: dict[str, list[weakref.ref]] = {}
_registry_lock = threading.Lock()


def register_cache(name: str, cache: "LruCache") -> "LruCache":
    """Track ``cache`` under ``name`` for :func:`cache_stats` aggregation."""
    with _registry_lock:
        _registry.setdefault(name, []).append(weakref.ref(cache))
    return cache


def _live_caches() -> dict[str, list["LruCache"]]:
    with _registry_lock:
        live: dict[str, list[LruCache]] = {}
        for name, refs in _registry.items():
            instances = [cache for ref in refs if (cache := ref()) is not None]
            refs[:] = [weakref.ref(cache) for cache in instances]
            if instances:
                live[name] = instances
        return live


def cache_stats() -> dict[str, dict[str, int]]:
    """Hit/miss/size counters for every registered cache, aggregated by name.

    Covers the whole verification engine: ``chisel_compile`` (whole compile
    results by source text), ``chisel_tokens`` (the same by token stream),
    ``chisel_lines`` (lexed lines), ``chisel_locations`` (interned token
    locations), ``verilog_parse``, ``sim_kernel`` and ``sim_trace``.
    """
    stats: dict[str, dict[str, int]] = {}
    for name, instances in sorted(_live_caches().items()):
        stats[name] = {
            "hits": sum(cache.stats["hits"] for cache in instances),
            "misses": sum(cache.stats["misses"] for cache in instances),
            "size": sum(len(cache) for cache in instances),
            "instances": len(instances),
        }
    return stats


def clear_registered_caches() -> None:
    """Empty every registered cache and reset its counters (cold-start helper).

    Benchmarks use this to force deterministic cold runs; note it clears the
    *registered* caches only.  The per-testbench memos in
    :mod:`repro.sim.testbench` live on the ``Testbench`` object and stay valid:
    ``_trace_plans`` (the run-length schedule and flat stimulus per
    observed-output tuple), ``_checked_points`` (indices of the checked
    points, read off the schedule's runs) and ``_reference_outputs`` (the
    reference kernel's sampled outputs per fingerprint and schedule digest).
    A truly cold run needs a freshly built testbench.
    """
    for instances in _live_caches().values():
        for cache in instances:
            cache.clear()
    publish_cache_stats(name="cleared")


def publish_cache_stats(bus=None, name: str = "snapshot") -> None:
    """Publish one ``cache.stats`` event carrying :func:`cache_stats`.

    The caches are too hot to instrument per lookup; instead consumers
    (the generation service after each completed job, the console on demand)
    publish aggregate snapshots.  A no-op unless the bus has subscribers, so
    it is safe anywhere.
    """
    if bus is None:
        from repro.obs.events import get_bus

        bus = get_bus()
    if bus.active:
        bus.publish("cache.stats", name, caches=cache_stats())


def snapshot_registered_caches() -> list[tuple[object, object]]:
    """Capture the contents and counters of every registered cache.

    Used by test isolation (see the repo-root ``conftest.py``): a test that clears or
    cold-starts the global caches runs between :func:`snapshot_registered_caches`
    and :func:`restore_registered_caches`, so the rest of the suite keeps its
    warm state regardless of test ordering.  The snapshot holds strong
    references to the cache instances, so keep it short-lived.
    """
    return [
        (cache, cache.snapshot())
        for instances in _live_caches().values()
        for cache in instances
    ]


def restore_registered_caches(snapshot: list[tuple[object, object]]) -> None:
    """Put every snapshotted cache back exactly as captured.

    Caches registered after the snapshot was taken are left untouched (they
    did not exist before the test, so there is no prior state to restore).
    An :class:`InternTable` gets its counters back and keeps its entries.
    """
    for cache, state in snapshot:
        cache.restore(state)


class InternTable:
    """A ``functools.lru_cache`` over a constructor, in the cache registry.

    :attr:`intern` is the C-level ``lru_cache`` wrapper itself, so a lookup
    per token pays nothing for the registration: :func:`cache_stats` reads
    its counters from ``cache_info()`` and :func:`clear_registered_caches`
    empties it with ``cache_clear()``.  Interned values are immutable and
    equal to a fresh construction, and an ``lru_cache`` can neither list nor
    re-insert its entries, so a snapshot keeps the counters only.
    """

    def __init__(self, make, max_size: int, name: str):
        self.intern = functools.lru_cache(maxsize=max_size)(make)
        self._hidden = (0, 0)  # hits and misses that restore() took back
        register_cache(name, self)

    @property
    def stats(self) -> dict[str, int]:
        info = self.intern.cache_info()
        return {"hits": info.hits - self._hidden[0], "misses": info.misses - self._hidden[1]}

    def __len__(self) -> int:
        return self.intern.cache_info().currsize

    def clear(self) -> None:
        self.intern.cache_clear()
        self._hidden = (0, 0)

    def snapshot(self) -> dict[str, int]:
        return self.stats

    def restore(self, stats: dict[str, int]) -> None:
        info = self.intern.cache_info()
        self._hidden = (info.hits - stats["hits"], info.misses - stats["misses"])


class LruCache(Generic[V]):
    """Bounded insertion-refreshing cache with hit/miss counters.

    ``max_size`` of 0 (or ``None``) disables storage entirely: every lookup
    misses and :meth:`put` is a no-op.  A ``name`` registers the instance for
    :func:`cache_stats` aggregation.

    Thread-safe: lookups and insertions are lock-guarded, so a blocking
    client run on a :class:`~repro.llm.dispatch.SyncClientAdapter`'s executor
    may share these caches with the event loop.  The caches memoize pure
    functions, so contention only ever costs time — but the guard keeps
    eviction bookkeeping consistent under interleaving.
    """

    def __init__(self, max_size: int | None, name: str | None = None):
        self.max_size = max_size or 0
        self.name = name
        self._data: OrderedDict[str, V] = OrderedDict()
        self.stats = {"hits": 0, "misses": 0}
        self._lock = threading.Lock()
        if name is not None:
            register_cache(name, self)

    def __len__(self) -> int:
        return len(self._data)

    def __contains__(self, key: str) -> bool:
        return key in self._data

    def get(self, key: str, default: V | None = None) -> V | None:
        # The hottest call in a warm sweep: an explicit acquire/release costs
        # about half of a ``with`` block on the lock.
        lock = self._lock
        lock.acquire()
        try:
            value = self._data.get(key, _SENTINEL)
            if value is _SENTINEL:
                self.stats["misses"] += 1
                return default
            self.stats["hits"] += 1
            self._data.move_to_end(key)
            return value  # type: ignore[return-value]
        finally:
            lock.release()

    def put(self, key: str, value: V) -> V:
        with self._lock:
            if self.max_size:
                self._data[key] = value
                while len(self._data) > self.max_size:
                    self._data.popitem(last=False)
            return value

    def clear(self) -> None:
        with self._lock:
            self._data.clear()
            self.stats.update(hits=0, misses=0)

    def snapshot(self) -> tuple[OrderedDict, dict[str, int]]:
        with self._lock:
            return OrderedDict(self._data), dict(self.stats)

    def restore(self, state: tuple[OrderedDict, dict[str, int]]) -> None:
        data, stats = state
        with self._lock:
            self._data.clear()
            self._data.update(data)
            self.stats.update(stats)
