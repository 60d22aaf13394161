"""The sweep execution engine: memoized, stored, serial-or-parallel unit runs.

:class:`SweepEngine` is the single entry point every sweep goes through.  For
each batch of :class:`~repro.experiments.work.WorkUnit`\\ s it

1. resolves each unit's content fingerprint,
2. satisfies what it can from the in-process memo (overlapping sweeps inside
   one run — Table III vs Fig. 6 vs Table IV, or an experiment rerun — cost
   nothing), then from the optional persistent
   :class:`~repro.experiments.store.ResultStore`,
3. executes only the remaining units through the configured executor
   (:class:`~repro.experiments.executors.SerialExecutor`, or the process-pool
   :class:`~repro.experiments.executors.ParallelExecutor` when
   ``config.jobs > 1``, the default on a multi-CPU host), streaming each
   result into the memo and store the moment it completes.

``stats`` counts executed units and memo/store hits cumulatively, which is
what the warm-store and resume tests assert against.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

from repro.experiments.config import ExperimentConfig
from repro.experiments.executors import ParallelExecutor, SerialExecutor
from repro.experiments.store import ResultStore
from repro.experiments.work import WorkerContext, WorkUnit
from repro.obs import EventBus, get_bus, span
from repro.problems.registry import ProblemRegistry


@dataclass
class SweepStats:
    """Cumulative accounting of how the engine satisfied its units."""

    executed: int = 0
    memo_hits: int = 0
    store_hits: int = 0

    @property
    def total(self) -> int:
        return self.executed + self.memo_hits + self.store_hits


class SweepEngine:
    """Executes work units with memoization, persistence and parallelism."""

    def __init__(
        self,
        config: ExperimentConfig,
        registry: ProblemRegistry | None = None,
        store: ResultStore | None = None,
        executor: SerialExecutor | ParallelExecutor | None = None,
        bus: EventBus | None = None,
    ):
        self.config = config
        #: Structured event bus: batch spans and per-unit progress events are
        #: published here (no-ops while nothing subscribes).
        self.bus = bus if bus is not None else get_bus()
        # A custom registry cannot be rebuilt inside pool workers, so it pins
        # the engine to the serial executor.
        self._custom_registry = registry is not None
        self.context = WorkerContext(registry=registry)
        # Close only stores this engine opened itself: a caller-supplied
        # store (the campaign orchestrator shares one across engine and
        # checkpoint log) outlives any single engine.
        self._owns_store = store is None and bool(config.store_path)
        if store is None and config.store_path:
            store = ResultStore(config.store_path)
        self.store = store
        self._executor = executor
        self._parallel: ParallelExecutor | None = None
        self._memo: dict[str, dict] = {}
        self.stats = SweepStats()
        #: Optional per-unit completion callback ``(done, total)``; invoked
        #: for every unit of a batch as it resolves (memo hit, store hit or
        #: execution), in resolution order.  Used by ``--progress``.
        self.progress: Callable[[int, int], None] | None = None

    @property
    def registry(self) -> ProblemRegistry:
        return self.context.registry

    def fingerprint(self, unit: WorkUnit) -> str:
        return self.context.fingerprint(unit)

    # -------------------------------------------------------------------- run

    def run(self, units: Iterable[WorkUnit]) -> list[dict]:
        """Run a batch of units, returning payloads in submission order."""
        units = list(units)
        total = len(units)
        done = 0
        results: list[dict | None] = [None] * len(units)
        pending: list[tuple[WorkUnit, str]] = []
        pending_indices: dict[str, list[int]] = {}

        for index, unit in enumerate(units):
            fingerprint = self.fingerprint(unit)
            payload = self._memo.get(fingerprint)
            if payload is not None:
                self.stats.memo_hits += 1
                results[index] = payload
                done = self._report_progress(done, total)
                continue
            if self.store is not None:
                payload = self.store.get(fingerprint)
                if payload is not None:
                    self.stats.store_hits += 1
                    self._memo[fingerprint] = payload
                    results[index] = payload
                    done = self._report_progress(done, total)
                    continue
            if fingerprint in pending_indices:
                # Duplicate unit within one batch: execute once, fill both.
                pending_indices[fingerprint].append(index)
                continue
            pending_indices[fingerprint] = [index]
            pending.append((unit, fingerprint))

        if pending:
            executor = self._select_executor(len(pending))
            batch = [unit for unit, _ in pending]
            with span(
                "sweep.batch",
                bus=self.bus,
                units=total,
                pending=len(pending),
                executor=type(executor).__name__,
            ):
                for position, payload in executor.run_stream(batch):
                    unit, fingerprint = pending[position]
                    self._memo[fingerprint] = payload
                    if self.store is not None:
                        self.store.put(fingerprint, unit, payload)
                    for index in pending_indices[fingerprint]:
                        results[index] = payload
                        done = self._report_progress(done, total)
                    self.stats.executed += 1

        return results  # type: ignore[return-value]

    def _report_progress(self, done: int, total: int) -> int:
        done += 1
        if self.progress is not None:
            self.progress(done, total)
        if self.bus.active:
            self.bus.publish("sweep.progress", "unit", done=done, total=total)
        return done

    # ---------------------------------------------------------------- helpers

    def _select_executor(self, pending_count: int):
        if self._executor is not None:
            return self._executor
        jobs = getattr(self.config, "jobs", 1) or 1
        if jobs > 1 and pending_count > 1 and not self._custom_registry:
            # One long-lived executor: its process pool (and every worker's
            # caches) stays warm across all of this engine's sweeps.
            if self._parallel is None:
                self._parallel = ParallelExecutor(jobs)
            return self._parallel
        return SerialExecutor(self.context)

    def close(self) -> None:
        """Release the store's file handles (if owned) and worker processes."""
        if self.store is not None and self._owns_store:
            self.store.close()
        if self._parallel is not None:
            self._parallel.shutdown()
            self._parallel = None


def chunk_by_case(payloads: Sequence[dict], samples_per_case: int) -> list[list[dict]]:
    """Regroup a flat case-major payload list into per-case sample lists."""
    return [
        list(payloads[start : start + samples_per_case])
        for start in range(0, len(payloads), samples_per_case)
    ]
