"""Benchmark: generation-service throughput vs serial session execution.

The service exists to overlap LLM round-trip latency across sessions, so the
benchmark models that latency explicitly: every completion waits
``LATENCY`` seconds (``time.sleep`` for the serial baseline,
``asyncio.sleep`` — overlappable — for the service) before the synthetic
backend answers.  Three regimes are recorded into ``BENCH_toolchain.json``
by ``python benchmarks/run_benchmarks.py``:

* ``test_service_serial_latency`` — the baseline: every session driven to
  completion one after another, paying the full latency serially;
* ``test_service_concurrent_32`` — the same workload through the service at
  concurrency 32; asserted bit-identical to the serial payloads and at least
  5x the serial throughput.  Serial and service runs are interleaved in
  pairs and the median per-pair ratio is compared, so one slow round on a
  shared host cannot decide the gate; the recorded timing is one further
  service run;
* ``test_service_warm_cache`` — a repeat wave against a persistent result
  store; asserted to issue zero new LLM requests.
"""

import statistics
import time

from conftest import run_once

from repro.core.session import drive
from repro.experiments.strategies import strategy_from_unit
from repro.experiments.work import WorkerContext, WorkUnit
from repro.llm.dispatch import LatencyClient
from repro.service import ServiceConfig, serve_units

LATENCY = 0.015  # simulated LLM round-trip, seconds
CONCURRENCY = 32
N_JOBS = 64
MIN_SPEEDUP = 5.0
SPEEDUP_PAIRS = 3
MODELS = ("GPT-4o", "Claude 3.5 Sonnet")


class SleepClient:
    """Blocking latency-simulating client (the serial twin of LatencyClient)."""

    def __init__(self, inner, latency):
        self.inner = inner
        self.latency = latency

    def complete(self, messages):
        time.sleep(self.latency)
        return self.inner.complete(messages)


def _units(context):
    problems = list(context.registry)[:16]
    return [
        WorkUnit(
            strategy="zero_shot",
            model=MODELS[index % len(MODELS)],
            problem_id=problems[index % len(problems)].problem_id,
            case_index=index % len(problems),
            sample=index // len(problems),
            seed=0,
            max_iterations=0,
            knobs=(("language", "chisel"),),
        )
        for index in range(N_JOBS)
    ]


def _run_serial():
    context = WorkerContext()
    units = _units(context)
    start = time.perf_counter()
    payloads = []
    for unit in units:
        client = SleepClient(context.client_for(unit), LATENCY)
        session = strategy_from_unit(unit).session(context, unit, client)
        payloads.append(drive(session, client))
    return payloads, time.perf_counter() - start


def _run_service(store_path=None):
    context = WorkerContext()
    units = _units(context)
    start = time.perf_counter()
    payloads, snapshot = serve_units(
        units,
        ServiceConfig(max_in_flight=CONCURRENCY, store_path=store_path),
        context=context,
        client_factory=lambda unit: LatencyClient(context.client_for(unit), LATENCY),
    )
    return payloads, snapshot, time.perf_counter() - start


def test_service_serial_latency(benchmark):
    payloads, _ = run_once(benchmark, _run_serial)
    assert len(payloads) == N_JOBS


def test_service_concurrent_32(benchmark):
    speedups = []
    for _ in range(SPEEDUP_PAIRS):
        serial_payloads, serial_elapsed = _run_serial()
        payloads, snapshot, elapsed = _run_service()
        assert payloads == serial_payloads  # bit-identical under concurrency
        assert snapshot.failed == 0
        speedups.append(serial_elapsed / elapsed)

    payloads, snapshot, _ = run_once(benchmark, _run_service)
    assert payloads == serial_payloads
    speedup = statistics.median(speedups)
    assert speedup >= MIN_SPEEDUP, (
        f"median service speedup {speedup:.1f}x below {MIN_SPEEDUP}x over "
        f"{SPEEDUP_PAIRS} interleaved pairs ({', '.join(f'{s:.1f}x' for s in speedups)})"
    )


def test_service_warm_cache(benchmark, tmp_path):
    store_path = str(tmp_path / "service-results.jsonl")
    cold_payloads, cold_snapshot, _ = _run_service(store_path)
    assert cold_snapshot.dispatcher["requests"] > 0

    payloads, snapshot, _ = run_once(benchmark, _run_service, store_path)
    assert payloads == cold_payloads
    assert snapshot.dispatcher["requests"] == 0  # repeats cost no LLM calls
    assert snapshot.store_hits == N_JOBS
