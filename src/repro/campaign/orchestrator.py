"""The fault-tolerant campaign orchestrator.

A campaign runs its stages (generate → fuzz by default) over the existing
sweep machinery **crash-only**: every completed work unit is durable in the
append-only result store the moment it finishes, the campaign manifest
checkpoints as versioned meta records in the same store, and the
orchestrator may be SIGKILLed at any instant — ``--resume`` (or simply
re-running the same spec against the same store) replays zero completed
units and converges to results bit-identical to an uninterrupted run.  The
chaos matrix in ``tests/test_campaign_chaos.py`` asserts exactly that for
LLM-transport, store, event-bus and orchestrator faults.

Two stage kinds exist, each with its own resume frontier:

* ``sweep`` — the frontier is the result store itself: completed units are
  store hits on resume;
* ``fuzz`` — per-program frontier markers (store meta records) carry each
  program's conformance result, so resumed fuzz stages skip finished
  programs exactly like sweeps skip stored units.

Each stage result is ``{"digest", "total", "executed", "reused", ...}``:
``digest`` is the stage's deterministic content digest (the chaos matrix
asserts these match fault-free runs bit-for-bit) and ``executed``/``reused``
is the zero-recompute evidence the resume tests assert on.

Control is cooperative throughout.  Between every chunk of work units the
orchestrator re-evaluates the world:

* **deadline / budget** — wall-clock deadlines raise at the next check;
  LLM-call budgets are charged inside the session's metered client, so an
  exhausted purse stops the campaign mid-stage with everything already
  completed safely persisted;
* **circuit breaking** — transport-classified failures feed a shared
  :class:`~repro.retry.CircuitBreaker`; while it is open the campaign waits
  out the cooldown instead of hammering a failing provider, and half-open
  probes close it on recovery;
* **drain** — SIGTERM (or :meth:`request_drain`) sets the cancel token; the
  campaign finishes its current chunk, checkpoints a ``drained`` manifest
  and exits cleanly.

Units run in-process on one :class:`SerialExecutor`: only this process can
meter the budget and deadline, so no unit runs where its LLM calls would
escape them.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.campaign.budget import (
    Budget,
    BudgetExceeded,
    CampaignCancelled,
    CancelToken,
    Deadline,
    DeadlineExceeded,
    MeteredClient,
)
from repro.campaign.checkpoint import (
    CheckpointLog,
    ResilientStore,
    frontier_key,
    payload_digest,
)
from repro.campaign.config import CampaignConfig
from repro.campaign.spec import KIND_SWEEP, CampaignSpec, StageSpec, sweep_units
from repro.experiments.config import ExperimentConfig
from repro.experiments.engine import SweepEngine
from repro.experiments.executors import SerialExecutor
from repro.experiments.store import ResultStore
from repro.experiments.work import WorkerContext
from repro.obs import get_bus
from repro.retry import CircuitBreaker, emit_retry, is_transport_fault

#: Campaign / stage status values (persisted in manifests).
RUNNING = "running"
COMPLETE = "complete"
DRAINED = "drained"
FAILED = "failed"
STOPPED_DEADLINE = "deadline-exceeded"
STOPPED_BUDGET = "budget-exhausted"


class _CampaignContext(WorkerContext):
    """A worker context whose clients are metered (budget/deadline) and may
    be wrapped by chaos middleware — the campaign's seam into every session."""

    def __init__(
        self,
        budget: Budget | None,
        deadline: Deadline | None,
        client_middleware=None,
        registry=None,
    ):
        super().__init__(registry=registry)
        self._budget = budget
        self._deadline = deadline
        self._middleware = client_middleware

    def client_for(self, unit):
        client = MeteredClient(super().client_for(unit), self._budget, self._deadline)
        if self._middleware is not None:
            # Middleware wraps *outside* the meter: an injected transport
            # fault raises before the budget is charged or the inner client's
            # RNG advances, so retries stay bit-identical and spend-identical.
            client = self._middleware(client, unit)
        return client


@dataclass
class StageState:
    """Per-stage progress as persisted in the manifest."""

    name: str
    kind: str
    status: str = "pending"
    result: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {"name": self.name, "kind": self.kind, "status": self.status, "result": self.result}

    @classmethod
    def from_dict(cls, document: dict) -> "StageState":
        return cls(
            name=str(document["name"]),
            kind=str(document["kind"]),
            status=str(document.get("status", "pending")),
            result=dict(document.get("result", {})),
        )


@dataclass
class CampaignResult:
    """What one orchestrator run (fresh or resumed) produced."""

    campaign_id: str
    status: str
    stages: list[dict]
    #: Units actually executed / satisfied from memo+store *by this run* —
    #: the zero-replay evidence the resume tests assert on (per-stage numbers
    #: are historical: a reused stage reports what its original run did).
    executed: int = 0
    reused: int = 0
    llm_spent: int = 0
    llm_limit: int | None = None
    breaker: dict = field(default_factory=dict)
    checkpoint_seq: int = 0
    resumed: bool = False
    error: str = ""

    def to_dict(self) -> dict:
        return {
            "campaign": self.campaign_id,
            "status": self.status,
            "stages": self.stages,
            "executed": self.executed,
            "reused": self.reused,
            "llm_spent": self.llm_spent,
            "llm_limit": self.llm_limit,
            "breaker": self.breaker,
            "checkpoint_seq": self.checkpoint_seq,
            "resumed": self.resumed,
            "error": self.error,
        }

    def stage(self, name: str) -> dict:
        for stage in self.stages:
            if stage["name"] == name:
                return stage
        raise KeyError(name)


class CampaignOrchestrator:
    """Run one :class:`CampaignSpec` to completion, drain or checkpointed stop."""

    def __init__(
        self,
        spec: CampaignSpec,
        config: CampaignConfig | None = None,
        *,
        store=None,
        registry=None,
        bus=None,
        breaker: CircuitBreaker | None = None,
        client_middleware=None,
        store_wrapper=ResilientStore,
    ):
        self.spec = spec
        self.config = config or CampaignConfig()
        self.campaign_id = spec.campaign_id
        self.bus = bus if bus is not None else get_bus()
        self._owns_store = store is None
        if store is None:
            if not self.config.store_path:
                raise ValueError(
                    "campaigns need a persistent store: set CampaignConfig.store_path "
                    "or REPRO_CAMPAIGN_STORE"
                )
            store = ResultStore(self.config.store_path)
        # Campaigns ride out transient disk faults by default: failed puts
        # buffer in memory and land as soon as the fault clears.
        self.store = store_wrapper(store) if store_wrapper is not None else store
        self.checkpoints = CheckpointLog(self.store, self.campaign_id)
        self.breaker = (
            breaker
            if breaker is not None
            else CircuitBreaker.from_environment(name="llm", bus=self.bus)
        )

        manifest = self.checkpoints.load_latest()
        self._resumed = manifest is not None
        spent = int(manifest.get("llm_spent", 0)) if manifest else 0
        self.budget = Budget(self.config.llm_budget, spent=spent)
        self.deadline = Deadline(self.config.deadline)
        self.cancel = CancelToken()
        self._chunks_run = 0
        self._status = str(manifest.get("status", RUNNING)) if manifest else RUNNING
        self._stages: dict[str, StageState] = {}
        recorded = {
            entry["name"]: StageState.from_dict(entry)
            for entry in (manifest.get("stages", []) if manifest else [])
        }
        for stage in spec.stages:
            self._stages[stage.name] = recorded.get(
                stage.name, StageState(stage.name, stage.kind)
            )
            # A stage mid-flight when the previous run died resumes from its
            # store frontier; only "complete" survives as a terminal state.
            if self._stages[stage.name].status != COMPLETE:
                self._stages[stage.name].status = "pending"

        self._context = _CampaignContext(
            self.budget, self.deadline, client_middleware, registry=registry
        )
        self.engine = SweepEngine(
            ExperimentConfig(store_path=None),
            registry=registry,
            store=self.store,
            executor=SerialExecutor(self._context),
            bus=self.bus,
        )

    # ----------------------------------------------------------------- control

    def request_drain(self, reason: str = "drain-requested") -> None:
        """Cooperatively stop: checkpoint after the current chunk and exit.

        Safe to call from signal handlers and other threads.
        """
        self._publish("drain", reason=reason)
        self.cancel.set(reason)

    # -------------------------------------------------------------------- run

    def run(self) -> CampaignResult:
        self._publish("start", resumed=self._resumed, stages=len(self.spec.stages))
        status = COMPLETE
        error = ""
        try:
            if self._status == COMPLETE:
                # Whole campaign already finished in a previous run: nothing
                # to execute, report the recorded stages verbatim.
                return self._finish(COMPLETE)
            self._status = RUNNING
            self._save_checkpoint()
            for stage in self.spec.stages:
                state = self._stages[stage.name]
                if state.status == COMPLETE:
                    self._publish("stage", stage=stage.name, status="reused")
                    continue
                state.status = RUNNING
                self._publish("stage", stage=stage.name, status=RUNNING)
                self._save_checkpoint()
                if stage.kind == KIND_SWEEP:
                    state.result = self._run_sweep(stage)
                else:
                    state.result = self._run_fuzz(stage)
                state.status = COMPLETE
                self._publish("stage", stage=stage.name, status=COMPLETE)
                self._save_checkpoint()
        except CampaignCancelled as exc:
            status, error = DRAINED, str(exc)
        except DeadlineExceeded as exc:
            status, error = STOPPED_DEADLINE, str(exc)
        except BudgetExceeded as exc:
            status, error = STOPPED_BUDGET, str(exc)
        except Exception as exc:
            status, error = FAILED, f"{type(exc).__name__}: {exc}"
            self._finish(status, error)
            raise
        return self._finish(status, error)

    def _finish(self, status: str, error: str = "") -> CampaignResult:
        for state in self._stages.values():
            if state.status == RUNNING:
                state.status = "pending"  # resumes from the frontier next run
        self._status = status
        self._save_checkpoint(status=status, error=error)
        self._publish("complete", status=status)
        result = self._result(status, error)
        self.close()
        return result

    def close(self) -> None:
        self.engine.close()
        if hasattr(self.store, "flush"):
            self.store.flush()
        if self._owns_store:
            self.store.close()

    def _result(self, status: str, error: str = "") -> CampaignResult:
        return CampaignResult(
            campaign_id=self.campaign_id,
            status=status,
            stages=[self._stages[stage.name].to_dict() for stage in self.spec.stages],
            executed=self.engine.stats.executed,
            reused=self.engine.stats.memo_hits + self.engine.stats.store_hits,
            llm_spent=self.budget.spent,
            llm_limit=self.budget.limit,
            breaker=self.breaker.snapshot() if self.breaker is not None else {},
            checkpoint_seq=self.checkpoints.seq,
            resumed=self._resumed,
            error=error,
        )

    # ------------------------------------------------------------------ stages

    def _run_sweep(self, stage: StageSpec) -> dict:
        units = sweep_units(stage, self.spec.seed)
        stats = self.engine.stats
        executed_before = stats.executed
        reused_before = stats.memo_hits + stats.store_hits
        payloads: list[dict] = []
        size = self.config.chunk_size
        for start in range(0, len(units), size):
            payloads.extend(self._run_chunk(units[start : start + size]))
            self._publish(
                "progress", stage=stage.name, done=len(payloads), total=len(units)
            )
        return {
            "digest": payload_digest(payloads),
            "total": len(units),
            "executed": stats.executed - executed_before,
            "reused": stats.memo_hits + stats.store_hits - reused_before,
        }

    def _run_fuzz(self, stage: StageSpec) -> dict:
        """Differential-conformance sweep over generated programs, one
        frontier marker per program."""
        from repro.fuzz import FuzzConfig, check_program, generate_program

        programs = int(stage.params.get("programs", 3))
        config = FuzzConfig(
            seed=int(stage.params.get("seed", self.spec.seed)),
            iterations=programs,
            points=int(stage.params.get("points", 8)),
            max_statements=int(stage.params.get("max_statements", 4)),
            shrink_failures=False,
        )
        results: list[dict] = []
        executed = 0
        for index in range(programs):
            key = frontier_key(self.campaign_id, stage.name, f"{index:06d}")
            outcome = self.store.get_meta(key)
            if outcome is None:
                self._tick()
                report = check_program(generate_program(config, index), config)
                outcome = {
                    "index": index,
                    "ok": report.ok,
                    "checks": report.checks,
                    "failures": sorted(failure.render() for failure in report.failures),
                }
                self.store.put_meta(key, outcome)
                executed += 1
            results.append(outcome)
            self._publish("progress", stage=stage.name, done=index + 1, total=programs)
        return {
            "digest": payload_digest(results),
            "total": programs,
            "executed": executed,
            "reused": programs - executed,
            "ok": sum(1 for result in results if result.get("ok")),
        }

    # -------------------------------------------------------------- chunk loop

    def _run_chunk(self, units) -> list[dict]:
        attempt = 0
        while True:
            self._tick()
            self._wait_for_breaker()
            try:
                payloads = self.engine.run(units)
            except (BudgetExceeded, DeadlineExceeded, CampaignCancelled):
                raise
            except Exception as exc:
                if is_transport_fault(exc) and self.breaker is not None:
                    self.breaker.record_failure()
                attempt += 1
                if attempt > self.config.unit_retries or not is_transport_fault(exc):
                    raise
                delay = self.config.retry_backoff.delay(attempt)
                emit_retry(self.bus, "campaign", attempt, type(exc).__name__, delay)
                self.cancel.wait(delay)
            else:
                if self.breaker is not None:
                    self.breaker.record_success()
                self._chunks_run += 1
                if self._chunks_run % self.config.checkpoint_every == 0:
                    self._save_checkpoint()
                return payloads

    def _wait_for_breaker(self) -> None:
        """Park while the circuit breaker is open (deadline/drain aware)."""
        if self.breaker is None:
            return
        while not self.breaker.allow():
            self.cancel.check()
            self.deadline.check()
            self.cancel.wait(min(0.02, max(self.breaker.cooldown, 0.001)))

    def _tick(self) -> None:
        """The cooperative checkpoint between work chunks."""
        self.cancel.check()
        self.deadline.check()
        if self.config.throttle > 0:
            self.cancel.wait(self.config.throttle)

    # ------------------------------------------------------------- persistence

    def _save_checkpoint(self, status: str | None = None, error: str = "") -> None:
        manifest = {
            "campaign": self.campaign_id,
            "spec": self.spec.to_dict(),
            "status": status or self._status,
            "stages": [state.to_dict() for state in self._stages.values()],
            "llm_spent": self.budget.spent,
            "llm_limit": self.budget.limit,
            "error": error,
        }
        seq = self.checkpoints.save(manifest)
        if hasattr(self.store, "flush"):
            self.store.flush()
        self._publish("checkpoint", seq=seq, status=manifest["status"])
        self._publish(
            "budget",
            spent=self.budget.spent,
            limit=self.budget.limit,
            remaining=self.budget.remaining(),
            deadline_remaining=(
                round(self.deadline.remaining(), 3)
                if self.deadline.remaining() is not None
                else None
            ),
        )

    # -------------------------------------------------------------------- bus

    def _publish(self, name: str, **attrs) -> None:
        if self.bus.active:
            self.bus.publish("campaign", name, campaign=self.campaign_id, **attrs)

    # ------------------------------------------------------------------ resume

    @classmethod
    def resume(
        cls,
        campaign_id: str,
        config: CampaignConfig,
        **kwargs,
    ) -> "CampaignOrchestrator":
        """Rebuild an orchestrator from a checkpointed manifest by id."""
        if not config.store_path:
            raise ValueError("resume needs CampaignConfig.store_path")
        store = ResultStore(config.store_path)
        try:
            manifest = CheckpointLog(store, campaign_id).load_latest()
        finally:
            store.close()
        if manifest is None:
            raise KeyError(f"no checkpointed campaign {campaign_id!r} in {config.store_path}")
        spec = CampaignSpec.from_dict(manifest["spec"])
        if spec.campaign_id != campaign_id:
            raise ValueError(
                f"manifest spec hashes to {spec.campaign_id}, not {campaign_id}"
            )
        return cls(spec, config, **kwargs)
