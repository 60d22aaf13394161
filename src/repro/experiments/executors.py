"""Pluggable executors: run a batch of work units serially or across processes.

Both executors expose the same streaming protocol —
``run_stream(units)`` yields ``(index, payload)`` as units finish — so the
engine can persist results to the store the moment they exist (which is what
makes interrupted paper-scale sweeps resumable).  Units are independent and
self-seeding, so the two executors are bit-identical by construction; a tier-1
test asserts it.

The parallel executor uses a ``ProcessPoolExecutor`` whose workers each build
one :class:`~repro.experiments.work.WorkerContext` (problem registry, compiler
memo, golden-Verilog cache, compiled-sim kernel cache) on first use and reuse
it for every unit they run.  The ``fork`` start method is preferred where
available so workers don't pay module re-import costs.  A worker that dies
mid-batch fails that batch loudly (``BrokenProcessPool``); the executor then
drops the broken pool, and the next batch starts a fresh one.
"""

from __future__ import annotations

import multiprocessing
from concurrent.futures import ProcessPoolExecutor, as_completed
from concurrent.futures.process import BrokenProcessPool
from typing import Iterable, Iterator

from repro.experiments.strategies import execute_unit
from repro.experiments.work import WorkerContext, WorkUnit


class SerialExecutor:
    """Run every unit in-process against one shared worker context."""

    jobs = 1

    def __init__(self, context: WorkerContext | None = None):
        self.context = context or WorkerContext()

    def run_stream(self, units: Iterable[WorkUnit]) -> Iterator[tuple[int, dict]]:
        for index, unit in enumerate(units):
            yield index, execute_unit(self.context, unit)


# Per-process context for pool workers; built lazily so both the initializer
# path and a re-used warm worker end up with exactly one context.
_WORKER_CONTEXT: WorkerContext | None = None


def _init_worker() -> None:
    global _WORKER_CONTEXT
    _WORKER_CONTEXT = WorkerContext()


def _execute_in_worker(unit: WorkUnit) -> dict:
    global _WORKER_CONTEXT
    if _WORKER_CONTEXT is None:  # pragma: no cover - initializer normally ran
        _WORKER_CONTEXT = WorkerContext()
    return execute_unit(_WORKER_CONTEXT, unit)


def _pool_context() -> multiprocessing.context.BaseContext:
    if "fork" in multiprocessing.get_all_start_methods():
        return multiprocessing.get_context("fork")
    return multiprocessing.get_context()


class ParallelExecutor:
    """Fan units out over a process pool; results stream back as they finish.

    The pool is created lazily and *kept alive across batches*, so workers
    build their :class:`~repro.experiments.work.WorkerContext` (registry,
    compiler memo, golden-Verilog cache, kernel cache) once and stay warm for
    every subsequent sweep — a multi-experiment run pays one cold start, not
    one per ``run()``.  Call :meth:`shutdown` (or rely on interpreter exit)
    to release the workers.

    Requires units resolvable against the *default* problem registry (workers
    rebuild it; custom registries hold arbitrary closures and don't cross
    process boundaries).  The engine falls back to :class:`SerialExecutor`
    when a custom registry is in play.
    """

    def __init__(self, jobs: int):
        if jobs < 1:
            raise ValueError("jobs must be >= 1")
        self.jobs = jobs
        self._pool: ProcessPoolExecutor | None = None

    def _ensure_pool(self) -> ProcessPoolExecutor:
        if self._pool is None:
            self._pool = ProcessPoolExecutor(
                max_workers=self.jobs, mp_context=_pool_context(), initializer=_init_worker
            )
        return self._pool

    def run_stream(self, units: Iterable[WorkUnit]) -> Iterator[tuple[int, dict]]:
        units = list(units)
        if not units:
            return
        pool = self._ensure_pool()
        futures: dict = {}
        try:
            for i, unit in enumerate(units):
                futures[pool.submit(_execute_in_worker, unit)] = i
            for future in as_completed(futures):
                yield futures[future], future.result()
        except BrokenProcessPool:
            # A dead worker breaks the pool for good; drop it so the next
            # batch gets a fresh one instead of failing the same way.
            self.shutdown()
            raise
        finally:
            # If the consumer abandons the stream (error, early exit), don't
            # leave queued units running in the still-alive pool.
            for future in futures:
                future.cancel()

    def shutdown(self) -> None:
        if self._pool is not None:
            self._pool.shutdown()
            self._pool = None
