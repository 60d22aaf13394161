"""Pinned serving counts for one fixed workload.

The service and its dispatcher count job states, cache tiers, session steps
and dispatch outcomes.  The values below were computed with the per-owner
counter objects that the metrics registries replaced, and must not change:
the workload is fixed, every session is deterministically seeded, and
nothing pinned here depends on thread timing.  Dispatcher ``batches`` and
the number of simulate batches do depend on it, so they are not pinned.

The workload:

* a first wave whose duplicates arrive while their twins still run
  (coalesced hits), with one job whose client raises and one whose client
  never answers inside ``request_timeout`` (both failed);
* a second wave of the same distinct specs on the same service (memo hits);
* a fresh service over the same store path (store hits) plus one new spec.
"""

import asyncio

from repro.experiments.work import WorkerContext, WorkUnit
from repro.llm.dispatch import RetryPolicy
from repro.service import GenerationService, ServiceConfig

RECHISEL_KNOBS = (
    ("enable_escape", True),
    ("feedback_detail", "full"),
    ("use_knowledge", True),
)
ZERO_SHOT_KNOBS = (("language", "chisel"),)


def rechisel(problem: str, case: int, sample: int, model: str = "GPT-4o mini") -> WorkUnit:
    return WorkUnit("rechisel", model, problem, case, sample, 0, 6, RECHISEL_KNOBS)


DISTINCT = [
    rechisel("alu_w4", 0, 2),
    rechisel("counter_w4", 1, 2, "Claude 3.5 Sonnet"),
    WorkUnit("zero_shot", "Claude 3.5 Sonnet", "alu_w4", 0, 0, 0, 0, ZERO_SHOT_KNOBS),
]
RAISES = rechisel("alu_w4", 0, 7)
WEDGED = rechisel("counter_w4", 1, 7)
FIRST_WAVE = [DISTINCT[0], DISTINCT[1], DISTINCT[0], DISTINCT[2], DISTINCT[1], RAISES, WEDGED]
NEW_SPEC = rechisel("counter_w4", 1, 2)


class RaisingClient:
    def complete(self, messages):
        raise ValueError("provider rejected the request")


class WedgedClient:
    async def complete(self, messages):
        await asyncio.sleep(60)


def config(store_path) -> ServiceConfig:
    # Enough workers that every first-wave job is dequeued before any
    # finishes, so each duplicate meets its twin still in flight.
    return ServiceConfig(
        max_in_flight=8,
        store_path=str(store_path),
        retry=RetryPolicy(attempts=1, base_delay=0.001),
        request_timeout=0.05,
    )


def counts(snapshot) -> dict:
    fields = (
        "submitted", "completed", "failed", "memo_hits", "store_hits", "coalesced_hits",
        "llm_calls", "tool_calls", "in_flight", "sim_batched_requests",
    )
    dispatch = (
        "requests", "retries", "failures", "timeouts", "cancelled",
        "breaker_rejections", "budget_rejections",
    )
    values = {name: getattr(snapshot, name) for name in fields}
    values.update({f"dispatch.{name}": snapshot.dispatcher[name] for name in dispatch})
    return values


def serve_workload(store_path):
    context = WorkerContext()

    def client_for(unit):
        if unit == RAISES:
            return RaisingClient()
        if unit == WEDGED:
            return WedgedClient()
        return context.client_for(unit)

    async def first_service():
        service = GenerationService(config(store_path), context=context, client_factory=client_for)
        async with service:
            outcomes = await asyncio.gather(
                *(service.submit(unit) for unit in FIRST_WAVE), return_exceptions=True
            )
            replay = await service.run(DISTINCT)
        return outcomes, replay, service.snapshot()

    async def second_service():
        service = GenerationService(config(store_path), context=context, client_factory=client_for)
        async with service:
            payloads = await service.run(DISTINCT + [NEW_SPEC])
        return payloads, service.snapshot()

    outcomes, replay, first = asyncio.run(first_service())
    payloads, second = asyncio.run(second_service())
    return outcomes, replay, first, payloads, second


FIRST_COUNTS = {
    "submitted": 10,
    "completed": 8,
    "failed": 2,
    "memo_hits": 3,
    "store_hits": 0,
    "coalesced_hits": 2,
    "llm_calls": 27,
    "tool_calls": 28,
    "in_flight": 0,
    "sim_batched_requests": 9,
    "dispatch.requests": 27,
    "dispatch.retries": 2,
    "dispatch.failures": 2,
    "dispatch.timeouts": 2,
    "dispatch.cancelled": 0,
    "dispatch.breaker_rejections": 0,
    "dispatch.budget_rejections": 0,
}

SECOND_COUNTS = {
    "submitted": 4,
    "completed": 4,
    "failed": 0,
    "memo_hits": 0,
    "store_hits": 3,
    "coalesced_hits": 0,
    "llm_calls": 13,
    "tool_calls": 13,
    "in_flight": 0,
    "sim_batched_requests": 5,
    "dispatch.requests": 13,
    "dispatch.retries": 0,
    "dispatch.failures": 0,
    "dispatch.timeouts": 0,
    "dispatch.cancelled": 0,
    "dispatch.breaker_rejections": 0,
    "dispatch.budget_rejections": 0,
}


def test_serving_counts_are_pinned(tmp_path):
    outcomes, replay, first, payloads, second = serve_workload(tmp_path / "store")
    assert isinstance(outcomes[5], ValueError)
    assert isinstance(outcomes[6], TimeoutError)
    assert outcomes[0] is outcomes[2] and outcomes[1] is outcomes[4]
    assert replay == outcomes[:2] + [outcomes[3]]
    assert payloads[:3] == replay
    assert counts(first) == FIRST_COUNTS
    assert counts(second) == SECOND_COUNTS
