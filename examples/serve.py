#!/usr/bin/env python
"""Demo of the async generation service: N synthetic clients, one event loop.

Usage:
    python examples/serve.py                       # 64 jobs, concurrency 32
    python examples/serve.py --jobs 200 --concurrency 64 --latency 0.02
    python examples/serve.py --rate-limit 100

Synthesizes a mixed workload (zero-shot, ReChisel and AutoChip sessions over
several models and benchmark problems), serves it through
:class:`repro.service.GenerationService` with a latency-simulating client
(modelling provider round-trips), then replays a wave of duplicate specs to
show the fingerprint result cache serving repeats with zero LLM calls.

The ``REPRO_SERVICE_*`` environment knobs (see EXPERIMENTS.md) provide the
defaults; command-line flags override them and accept the same values as
their knobs.  A malformed or out-of-range flag, or a bad or leftover
``REPRO_SERVICE_*`` variable, exits with status 2 and names it.
"""

import argparse
import asyncio
import os
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro import settings
from repro.experiments.work import WorkerContext, WorkUnit
from repro.llm.dispatch import LatencyClient
from repro.llm.profiles import PAPER_MODELS
from repro.service import GenerationService, ServiceConfig

STRATEGIES = (
    ("zero_shot", (("language", "chisel"),), 0),
    ("zero_shot", (("language", "verilog"),), 0),
    ("rechisel", (("enable_escape", True), ("feedback_detail", "full"), ("use_knowledge", True)), 10),
    ("autochip", (), 10),
)


def synth_workload(context: WorkerContext, jobs: int) -> list[WorkUnit]:
    """A deterministic mixed workload of ``jobs`` units."""
    problems = list(context.registry)
    units = []
    for index in range(jobs):
        strategy, knobs, max_iterations = STRATEGIES[index % len(STRATEGIES)]
        problem = problems[index % len(problems)]
        units.append(
            WorkUnit(
                strategy=strategy,
                model=PAPER_MODELS[index % len(PAPER_MODELS)],
                problem_id=problem.problem_id,
                case_index=index % len(problems),
                sample=index // len(problems),
                seed=0,
                max_iterations=max_iterations,
                knobs=knobs,
            )
        )
    return units


async def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    try:
        config = ServiceConfig.from_environment()
    except settings.SettingError as error:
        parser.error(str(error))
    parser.add_argument(
        "--jobs",
        type=settings.arg_type("--jobs", kind=int, low=1),
        default=64,
        help="synthetic client jobs to submit",
    )
    parser.add_argument(
        "--concurrency",
        type=settings.arg_type("--concurrency", "REPRO_SERVICE_MAX_INFLIGHT"),
        default=config.max_in_flight,
        help="max in-flight sessions",
    )
    parser.add_argument(
        "--latency",
        type=settings.arg_type("--latency", kind=float, low=0),
        default=0.02,
        help="simulated LLM round-trip (s)",
    )
    parser.add_argument(
        "--rate-limit",
        type=settings.arg_type("--rate-limit", "REPRO_SERVICE_RATE_LIMIT"),
        default=config.rate_limit,
        help="LLM requests per second (0: unlimited)",
    )
    parser.add_argument("--store", default=None, help="persistent result store path")
    args = parser.parse_args()

    config.max_in_flight = args.concurrency
    config.rate_limit = args.rate_limit
    if args.store is not None:
        config.store_path = args.store

    context = WorkerContext()
    units = synth_workload(context, args.jobs)
    service = GenerationService(
        config,
        context=context,
        client_factory=lambda unit: LatencyClient(context.client_for(unit), args.latency),
    )

    print(
        f"Serving {len(units)} jobs at concurrency {config.max_in_flight} "
        f"(simulated LLM latency {args.latency * 1000:.0f} ms, "
        f"rate limit {config.rate_limit or 'off'})\n"
    )

    async with service:
        start = time.perf_counter()
        payloads = await service.run(units)
        elapsed = time.perf_counter() - start
        successes = sum(1 for payload in payloads if payload.get("success") or payload.get("outcome") == "success")
        print(f"cold wave: {len(payloads)} sessions in {elapsed:.2f}s "
              f"({len(payloads) / elapsed:.1f} sessions/s, {successes} successful)")
        print(service.snapshot().render())

        # A second wave of identical specs: served entirely from the result
        # cache — queue, workers and job counts advance, LLM traffic does not.
        before = service.snapshot().llm_calls
        start = time.perf_counter()
        replay = await service.run(units)
        elapsed = time.perf_counter() - start
        assert replay == payloads
        warm = service.snapshot()
        new_calls = warm.llm_calls - before
        print(
            f"\nwarm wave: {len(replay)} sessions in {elapsed:.2f}s — "
            f"{new_calls} new LLM calls (cache hits {warm.cache_hits})"
        )
        assert new_calls == 0, f"the warm wave made {new_calls} LLM calls"


if __name__ == "__main__":
    asyncio.run(main())
