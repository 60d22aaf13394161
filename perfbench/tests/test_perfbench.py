"""Tests of the benchmark's own machinery: generators, span arithmetic, tail rule."""

from __future__ import annotations

import asyncio
import gc
import os
import sys
import time

import pytest

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

from common import (  # noqa: E402
    REFERENCE_JOB_S,
    BenchmarkError,
    HostSpeed,
    check_tail,
    percentile,
    reference_job,
    samples_beyond,
)
from tracing import (  # noqa: E402
    UNIT_LAYER,
    Span,
    Tracer,
    covered_length,
    install_layers,
    install_service_hooks,
    self_times,
    unattributed_fraction,
)
from workloads import deep_candidates, serve_jobs, sweep_batches  # noqa: E402

from repro.problems.registry import build_default_registry  # noqa: E402


@pytest.fixture(scope="module")
def problems():
    return list(build_default_registry())


# ----------------------------------------------------------------- generators


def test_sweep_batches_are_deterministic_per_seed():
    assert sweep_batches("rechisel-sweep", 1, 10, 216) == sweep_batches("rechisel-sweep", 1, 10, 216)
    assert sweep_batches("rechisel-sweep", 1, 10, 216) != sweep_batches("rechisel-sweep", 2, 10, 216)


def test_sweep_batches_cover_every_case_each_seed():
    for label, model, picks in sweep_batches("rechisel-sweep", 7, 10, 216):
        if label != "rechisel":
            continue
        cases = [case for case, _sample in picks]
        assert sorted(set(cases)) == list(range(216)), model
        assert len(set(picks)) == len(picks)  # distinct samples per case


def test_serve_jobs_are_deterministic_and_repeat_about_a_tenth():
    jobs = serve_jobs(3, 10, 216)
    assert jobs == serve_jobs(3, 10, 216)
    assert jobs != serve_jobs(4, 10, 216)
    dues = [due for due, *_ in jobs]
    assert dues == sorted(dues)
    repeats = len(jobs) - len({tuple(job[1:]) for job in jobs})
    assert 0.05 < repeats / len(jobs) < 0.15


def test_deep_candidates_are_deterministic_per_seed(problems):
    first = deep_candidates(5, 10, problems)
    assert first == deep_candidates(5, 10, problems)
    assert first != deep_candidates(6, 10, problems)
    goldens = [entry for entry in first if entry[1] == "golden"]
    assert len(goldens) == len(problems)


# ------------------------------------------------------------ span arithmetic


def _span(span_id, parent, name, start, end):
    return Span(span_id, parent, name, start, end, None, True)


def test_self_time_subtracts_nested_children():
    spans = [
        _span(1, 0, "unit", 0.0, 10.0),
        _span(2, 1, "compile", 1.0, 4.0),
        _span(3, 2, "parse", 1.5, 2.5),
        _span(4, 1, "simulate", 5.0, 9.0),
        _span(5, 4, "kernel", 5.0, 6.0),
        _span(6, 4, "kernel", 8.0, 9.0),
    ]
    own = self_times(spans)
    assert own["unit"] == pytest.approx(3.0)
    assert own["compile"] == pytest.approx(2.0)
    assert own["parse"] == pytest.approx(1.0)
    assert own["simulate"] == pytest.approx(2.0)
    assert own["kernel"] == pytest.approx(2.0)
    assert sum(own.values()) == pytest.approx(10.0)


def test_overlapping_children_count_once():
    # Two tool steps of one served job overlap (different threads).
    spans = [
        _span(1, 0, "job", 0.0, 10.0),
        _span(2, 1, "tool", 2.0, 6.0),
        _span(3, 1, "tool", 4.0, 8.0),
        _span(4, 1, "llm", 9.0, 12.0),  # runs past its parent's end
    ]
    assert self_times(spans)["job"] == pytest.approx(10.0 - 6.0 - 1.0)
    assert covered_length([(2.0, 6.0), (4.0, 8.0)], 0.0, 5.0) == pytest.approx(3.0)


def test_unattributed_fraction_of_the_window():
    spans = [_span(1, 0, "a", 0.0, 2.0), _span(2, 0, "b", 3.0, 4.0), _span(3, 2, "c", 3.5, 3.8)]
    assert unattributed_fraction(spans, 0.0, 5.0) == pytest.approx(2.0 / 5.0)


def test_tracer_wraps_records_parents_and_restores():
    class Layer:
        def outer(self):
            return self.inner() + 1

        def inner(self):
            return 1

    tracer = Tracer()
    original = Layer.__dict__["inner"]
    tracer.patch(Layer, "outer", tracer.wrap("outer", Layer.__dict__["outer"], unit_of=lambda _self: "u1"))
    tracer.patch(Layer, "inner", tracer.wrap("inner", original))
    assert Layer().outer() == 2
    tracer.restore()
    assert Layer.__dict__["inner"] is original
    inner, outer = tracer.spans
    assert (inner.name, outer.name) == ("inner", "outer")
    assert inner.parent_id == outer.span_id and outer.parent_id == 0
    assert inner.unit == outer.unit == "u1"


def test_served_unit_self_time_excludes_tool_and_simulation_waits():
    from repro.experiments.strategies import ReChiselStrategy
    from repro.experiments.work import WorkerContext, WorkUnit
    from repro.llm.dispatch import LatencyClient
    from repro.llm.profiles import PAPER_MODELS
    from repro.service import GenerationService, ServiceConfig

    context = WorkerContext()
    problem = next(iter(context.registry))
    unit = WorkUnit("rechisel", PAPER_MODELS[0], problem.problem_id, 0, 0, 0, 10,
                    ReChiselStrategy().knob_items())
    # Each simulation waits 50 ms in the batcher before it runs.
    service = GenerationService(
        ServiceConfig(sim_batch_window=0.05),
        context=context,
        client_factory=lambda unit: LatencyClient(context.client_for(unit), 0.0),
    )

    async def serve():
        async with service:
            # The single tool thread is busy for 300 ms, so the job's first
            # tool step waits in its queue.
            blocker = asyncio.get_running_loop().run_in_executor(service._tools, time.sleep, 0.3)
            await service.submit(unit)
            await blocker

    tracer = Tracer()
    install_layers(tracer)
    install_service_hooks(tracer)
    try:
        asyncio.run(serve())
    finally:
        tracer.restore()

    (job,) = [span for span in tracer.spans if span.name == UNIT_LAYER]
    below = [span for span in tracer.spans if span.parent_id == job.span_id]
    queued = max(span.end - span.start for span in below if span.name == "service.tool.wait")
    assert queued > 0.25
    assert any(span.end - span.start >= 0.05 for span in below if span.name == "service.sim.wait")
    assert job.end - job.start > 0.35
    assert self_times(tracer.spans)[UNIT_LAYER] < 0.05
    assert tracer.steps["simulate"] >= 1


# ----------------------------------------------------------------- host speed


def test_host_speed_scales_by_the_median_sample():
    speed = HostSpeed()
    speed.samples = [REFERENCE_JOB_S / 2, REFERENCE_JOB_S / 2, REFERENCE_JOB_S * 4]
    # The host ran twice as fast as the reference: a second measured is two
    # seconds at the reference speed.
    assert speed.factor() == pytest.approx(2.0)


def test_reference_job_leaves_the_collector_alone():
    gc.collect()
    before = gc.get_count()[0]
    reference_job()
    assert gc.get_count()[0] - before < 10


# ------------------------------------------------------------------ tail rule


def test_run_errors_out_with_fewer_than_ten_samples_beyond_p90():
    with pytest.raises(BenchmarkError):
        check_tail(99)
    check_tail(100)
    assert samples_beyond(100, 0.9) == 10
    assert samples_beyond(99, 0.9) == 9


def test_nearest_rank_percentile():
    values = list(range(1, 101))
    assert percentile(values, 0.5) == 50
    assert percentile(values, 0.9) == 90
