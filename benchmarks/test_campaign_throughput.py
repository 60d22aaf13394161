"""Benchmark: campaign orchestration overhead and resume speed.

Recorded into ``BENCH_toolchain.json`` by ``python benchmarks/run_benchmarks.py``:

* ``test_campaign_cold_end_to_end`` — the default quick campaign (generate →
  fuzz) run cold through the orchestrator into a fresh checkpointed store;
  the resilience machinery (chunked scheduling, budget metering, manifest
  checkpoints) rides on top of the same sweep engine the other benchmarks
  time, so this is the end-to-end price of fault tolerance;
* ``test_campaign_warm_resume`` — re-running the identical campaign against
  its completed store must replay zero work units and finish in a small
  fraction of the cold time (the store is the frontier; resume cost is
  manifest loading plus digest verification).  Cold runs (each into a fresh
  store) and warm re-runs are interleaved and their medians compared, so
  one slow round on a shared host cannot decide the gate; the recorded
  timing is one further warm run;
* ``test_checkpoint_save_cost`` — one versioned manifest save through
  :class:`~repro.campaign.checkpoint.CheckpointLog`, amortized over a burst;
  checkpoints happen per chunk, so they must stay far below unit cost.
"""

import statistics
import time

from conftest import run_once

from repro.campaign.checkpoint import CheckpointLog
from repro.campaign.config import CampaignConfig
from repro.campaign.orchestrator import CampaignOrchestrator
from repro.campaign.spec import default_campaign
from repro.experiments.store import ResultStore

SPEC = default_campaign(samples=1, fuzz_programs=2)

#: Warm resume does no generation, no simulation and no fuzzing; even with
#: store open/close and digest verification it must beat cold by this factor.
MIN_RESUME_SPEEDUP = 2.0
#: Interleaved cold/warm pairs behind the resume gate.
RESUME_ROUNDS = 5

CHECKPOINT_BURST = 50


def _run_campaign(store_path: str):
    config = CampaignConfig(store_path=store_path, chunk_size=4)
    return CampaignOrchestrator(SPEC, config).run()


def test_campaign_cold_end_to_end(benchmark, tmp_path):
    result = run_once(benchmark, _run_campaign, str(tmp_path / "cold"))
    assert result.status == "complete"
    assert result.executed > 0


def _timed_campaign(store_path: str):
    started = time.perf_counter()
    result = _run_campaign(store_path)
    assert result.status == "complete"
    return time.perf_counter() - started, result


def test_campaign_warm_resume(benchmark, tmp_path):
    warm_store = str(tmp_path / "warm")
    _timed_campaign(warm_store)
    cold_times, warm_times = [], []
    for index in range(RESUME_ROUNDS):
        elapsed, cold = _timed_campaign(str(tmp_path / f"cold-{index}"))
        assert cold.executed > 0
        cold_times.append(elapsed)
        elapsed, warm = _timed_campaign(warm_store)
        assert warm.resumed is True
        assert warm.executed == 0
        warm_times.append(elapsed)

    warm = run_once(benchmark, _run_campaign, warm_store)
    assert warm.executed == 0
    cold_elapsed = statistics.median(cold_times)
    warm_elapsed = statistics.median(warm_times)
    assert warm_elapsed * MIN_RESUME_SPEEDUP < cold_elapsed, (
        f"median warm resume {warm_elapsed:.3f}s vs cold {cold_elapsed:.3f}s "
        f"over {RESUME_ROUNDS} interleaved pairs; expected at least {MIN_RESUME_SPEEDUP}x"
    )


def test_checkpoint_save_cost(benchmark, tmp_path):
    store = ResultStore(str(tmp_path / "ckpt"))
    log = CheckpointLog(store, "bench")
    manifest = {
        "campaign": "bench",
        "status": "running",
        "stages": [{"name": f"stage-{i}", "status": "pending"} for i in range(4)],
        "llm_spent": 0,
    }

    def burst():
        for _ in range(CHECKPOINT_BURST):
            log.save(dict(manifest))

    try:
        run_once(benchmark, burst)
        assert log.load_latest()["seq"] >= CHECKPOINT_BURST
    finally:
        store.close()
