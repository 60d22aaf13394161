"""The three workloads: seeded input generators, set-up and timed runners.

Generators depend only on ``(seed, seconds)`` and the problem list, so the
same seed gives the same inputs.  Work per run is fixed by those two values,
not by the clock, so every count repeats exactly between runs of one seed;
it is sized to take about ``seconds`` on a 2-core host.

``repro`` is imported inside the set-up functions, never at module level:
the set-up time a run reports includes those imports.
"""

from __future__ import annotations

import asyncio
import dataclasses
import os
import random
import resource
import shutil
import sys
import tempfile
import time
import traceback

from common import OUT_DIR, HostSpeed, digest_at, load_reference, payload_digest, percentile

#: Run length the input sizes below are calibrated for.
NOMINAL_SECONDS = 10.0

# Sweeps: units of the paper-scale sweeps (seed 0, up to 10 iterations),
# drawn from the first SWEEP_SAMPLES samples of each case, which the
# references pin.  A run takes, per (strategy, model), ``per_case`` seeded
# samples of every case, so each seed sees the whole problem mix.
SWEEP_SEED = 0
SWEEP_SAMPLES = 5
MAX_ITERATIONS = 10
# Most units take a few milliseconds, some tens.  The latency distribution is
# steepest among the fast units, where a small shift moves the median by a
# third, so the mix is mostly ReChisel units and the median falls among them.
SWEEP_PLANS = {
    "rechisel-sweep": (("zero_shot:chisel", 0.2), ("rechisel", 1)),
}
SWEEP_REFERENCE = "sweeps.json"

# Deep verify: every golden and functional mutant, plus one syntax mutant for
# a quarter of the problems, against one of two deep stimulus programs.
# Syntax mutants fail in a millisecond or two; with one for every problem they
# would be a third of the candidates and the median would sit on the steep
# edge between them and the simulated ones.
DEEP_POINTS = 4096
DEEP_VARIANTS = 2
DEEP_SYNTAX_SHARE = 0.25
DEEP_REFERENCE = "deep_verify.json"

# Open-loop serving: Poisson arrivals of ReChisel jobs.  The repository's own
# serving examples submit all jobs at once, so there is no arrival rate to
# copy.  One CPU second of the service serves about 50 of these jobs on the
# 2-core host the benchmark was built on; 20 jobs/s keeps it about 40% busy,
# so a job's verdict time is mostly its own LLM calls and tool steps, plus
# some queueing.  At 40 jobs/s the service is 70-80% busy and queueing alone
# moved p50 by a quarter between seeds.  The latency is the default of
# examples/serve.py (benchmarks/test_service_throughput.py uses 15 ms).
SERVE_RATE = 20.0  # jobs per second
SERVE_LLM_LATENCY = 0.020  # seconds injected before every LLM answer
# About half of the distinct jobs settle in one iteration, within about 50 ms,
# and the rest need a second, 80 ms or more, with next to nothing in between.
# With a fifth of the jobs repeats (mostly memo hits, near 0 ms), the median
# fell into that gap and jumped between 49 and 87 ms from seed to seed; with a
# tenth it sits among the two-iteration jobs.
SERVE_REPEAT = 0.1  # share of jobs that repeat an earlier job
SERVE_DRAIN_S = 120.0  # give up on jobs unfinished this long after the last arrival

#: A sweep or deep-verify round samples the host's speed after this many units.
#: Serving does not: its CPU work comes in short bursts between waits, and
#: scaling its CPU time by samples taken on the event loop, or before and
#: after the round, tripled the spread of jobs per CPU second between rounds
#: (0.12 to 0.41) instead of narrowing it.
PROBE_EVERY = 10


# ---------------------------------------------------------------------------
# Input generators
# ---------------------------------------------------------------------------


def strategy_for(label: str):
    """``(strategy, models)`` behind a sweep label such as ``zero_shot:chisel``."""
    from repro.experiments.strategies import ReChiselStrategy, ZeroShotStrategy
    from repro.llm.profiles import PAPER_MODELS

    if label == "zero_shot:chisel":
        return ZeroShotStrategy("chisel"), PAPER_MODELS
    if label == "rechisel":
        return ReChiselStrategy(), PAPER_MODELS
    raise ValueError(f"unknown sweep {label!r}")


def sweep_batches(
    workload: str, seed: int, seconds: float, n_cases: int
) -> list[tuple[str, str, list[tuple[int, int]]]]:
    """``(label, model, [(case, sample), ...])`` per sweep batch, in run order.

    Which sample of each case runs is the same for every seed: a sample can
    take one iteration or ten, so drawing samples per seed moves throughput
    by more than 10%.  Batches run in the plan's order, as the experiments
    run them; the order of batches decides which sweep finds the candidates
    another one already compiled.  The seed sets the order of the units
    within each batch, and with it what the caches hold when each unit runs.
    """
    picks_rng = random.Random(f"{workload}/picks")
    batches = []
    for label, per_case in SWEEP_PLANS[workload]:
        _strategy, models = strategy_for(label)
        count = max(1, round(n_cases * per_case * seconds / NOMINAL_SECONDS))
        count = min(count, n_cases * SWEEP_SAMPLES)
        reps = -(-count // n_cases)
        for model in models:
            order = picks_rng.sample(range(n_cases), n_cases)
            samples = {case: picks_rng.sample(range(SWEEP_SAMPLES), reps) for case in order}
            picks = sorted(
                (order[k % n_cases], samples[order[k % n_cases]][k // n_cases])
                for k in range(count)
            )
            batches.append((label, model, picks))
    rng = random.Random(f"{workload}/{seed}")
    for _label, _model, picks in batches:
        rng.shuffle(picks)
    return batches


def sweep_units(label: str, model: str, picks, problem_ids: list[str]) -> list:
    from repro.experiments.work import WorkUnit

    strategy, _models = strategy_for(label)
    max_iterations = 0 if strategy.name == "zero_shot" else MAX_ITERATIONS
    knobs = strategy.knob_items()
    return [
        WorkUnit(
            strategy=strategy.name,
            model=model,
            problem_id=problem_ids[case],
            case_index=case,
            sample=sample,
            seed=SWEEP_SEED,
            max_iterations=max_iterations,
            knobs=knobs,
        )
        for case, sample in picks
    ]


def serve_jobs(seed: int, seconds: float, n_cases: int) -> list[tuple[float, str, int, int]]:
    """``(due offset s, model, case, sample)`` per job, in arrival order."""
    from repro.llm.profiles import PAPER_MODELS

    rng = random.Random(f"serve-open-loop/{seed}")
    count = max(1, round(SERVE_RATE * seconds))
    # A Poisson process on [0, seconds) with ``count`` arrivals: given their
    # number, the arrival times are sorted uniform draws.
    dues = sorted(rng.uniform(0.0, seconds) for _ in range(count))
    repeats = set(rng.sample(range(1, count), min(count - 1, round(count * SERVE_REPEAT))))

    # The distinct jobs are the same for every seed: models in turn, distinct
    # cases, fixed samples.  Their service times spread widely (one iteration
    # or ten), so drawing them per seed would move the latency percentiles
    # more than queueing does.  The seed sets their order.
    specs_rng = random.Random("serve-open-loop/specs")
    cases = specs_rng.sample(range(n_cases), n_cases)
    specs = [
        (PAPER_MODELS[i % len(PAPER_MODELS)], cases[i % n_cases], specs_rng.randrange(SWEEP_SAMPLES))
        for i in range(count - len(repeats))
    ]
    rng.shuffle(specs)

    # A repeat asks again for any earlier job: a memo hit if that job is done,
    # a coalesced wait on it if it is still running.
    jobs: list[tuple[float, str, int, int]] = []
    fresh = iter(specs)
    for position, due in enumerate(dues):
        if position in repeats:
            _, *spec = jobs[rng.randrange(len(jobs))]
        else:
            spec = next(fresh)
        jobs.append((due, *spec))
    return jobs


def deep_candidates(seed: int, seconds: float, problems: list) -> list[tuple[int, str, int]]:
    """``(problem index, candidate name, stimulus variant)`` in verification order.

    Which problems run, which get a syntax mutant, and which one, is the same
    for every seed: problems differ in size, and some syntax mutants fail in
    the parser while others fail only in the FIRRTL passes.  The seed sets the
    stimulus variants, the problem order and the candidate order within each
    problem; one deep stimulus program is alive at a time.
    """
    from repro.problems.mutations import applicable_syntax_faults

    picks_rng = random.Random("deep-verify/picks")
    count = max(1, round(len(problems) * min(1.0, seconds / NOMINAL_SECONDS)))
    subset = picks_rng.sample(range(len(problems)), count)
    with_syntax = set(picks_rng.sample(range(len(problems)), round(len(problems) * DEEP_SYNTAX_SHARE)))
    chosen = {}
    for index, problem in enumerate(problems):
        syntax = [
            f"syntax:{fault.fault_id}"
            for fault in applicable_syntax_faults(problem.golden_chisel, problem)
        ]
        chosen[index] = (
            ["golden"]
            + [f"functional:{fault.fault_id}" for fault in problem.functional_faults]
            + (picks_rng.sample(syntax, 1) if index in with_syntax and syntax else [])
        )

    rng = random.Random(f"deep-verify/{seed}")
    candidates = []
    for index in rng.sample(subset, count):
        variant = rng.randrange(DEEP_VARIANTS)
        names = chosen[index]
        rng.shuffle(names)
        candidates.extend((index, name, variant) for name in names)
    return candidates


def deep_universe(problem) -> list[str]:
    """Every candidate name deep verify can draw for ``problem``."""
    from repro.problems.mutations import applicable_syntax_faults

    return (
        ["golden"]
        + [f"functional:{fault.fault_id}" for fault in problem.functional_faults]
        + [
            f"syntax:{fault.fault_id}"
            for fault in applicable_syntax_faults(problem.golden_chisel, problem)
        ]
    )


def candidate_source(problem, name: str) -> str:
    from repro.problems.mutations import SYNTAX_FAULTS_BY_ID

    if name == "golden":
        return problem.golden_chisel
    kind, fault_id = name.split(":", 1)
    if kind == "functional":
        fault = next(f for f in problem.functional_faults if f.fault_id == fault_id)
        return fault.apply(problem.golden_chisel)
    return SYNTAX_FAULTS_BY_ID[fault_id].apply(problem.golden_chisel, problem)


def deep_testbench(problem, variant: int):
    """A ``DEEP_POINTS``-long stimulus program: the problem's own seeded programs, chained.

    Calls ``testbench_builder`` directly rather than ``Problem.build_testbench``, so
    building these inputs is not counted as the program's testbench layer.
    """
    first = None
    points: list = []
    build = 0
    while len(points) < DEEP_POINTS:
        testbench = problem.testbench_builder(random.Random((variant + 1) * 100_000 + build))
        build += 1
        first = first or testbench
        points.extend(testbench.points)
    return dataclasses.replace(first, points=points[:DEEP_POINTS])


def candidate_verdict(compiler, simulator, source: str, golden_verilog: str, testbench) -> dict:
    """Compile one candidate and, if it compiles, simulate it against the golden."""
    result = compiler.compile(source)
    verdict = {
        "compiled": result.success,
        "stage": result.stage,
        "codes": sorted(str(diagnostic.code) for diagnostic in result.errors),
    }
    if result.success:
        outcome = simulator.simulate(result.verilog, golden_verilog, testbench)
        verdict["passed"] = outcome.success
        verdict["report"] = outcome.render_feedback()
    return verdict


# ---------------------------------------------------------------------------
# Set-up: imports plus the program's entry objects
# ---------------------------------------------------------------------------


def _scratch_dir() -> str:
    OUT_DIR.mkdir(exist_ok=True)
    return tempfile.mkdtemp(prefix="store-", dir=OUT_DIR)


def setup(workload: str) -> dict:
    if workload in SWEEP_PLANS:
        from repro.experiments.config import ExperimentConfig
        from repro.experiments.runner import EvaluationHarness

        # A fresh result store in a scratch directory, as run_experiments.py
        # keeps one by default.
        scratch = _scratch_dir()
        config = dataclasses.replace(
            ExperimentConfig.paper_scale(), store_path=os.path.join(scratch, "results")
        )
        return {"harness": EvaluationHarness(config), "scratch": scratch}
    if workload == "deep-verify":
        from repro.problems.registry import build_default_registry
        from repro.toolchain.compiler import ChiselCompiler
        from repro.toolchain.simulator import Simulator

        return {
            "registry": build_default_registry(),
            "compiler": ChiselCompiler(top="TopModule"),
            "simulator": Simulator(top="TopModule"),
        }
    if workload == "serve-open-loop":
        from repro.experiments.work import WorkerContext
        from repro.llm.dispatch import LatencyClient
        from repro.service import GenerationService, ServiceConfig

        context = WorkerContext()
        service = GenerationService(
            ServiceConfig(),
            context=context,
            client_factory=lambda unit: LatencyClient(context.client_for(unit), SERVE_LLM_LATENCY),
        )
        return {"service": service, "context": context}
    raise ValueError(f"unknown workload {workload!r}")


def teardown(objects: dict) -> None:
    harness = objects.get("harness")
    if harness is not None:
        harness.engine.close()
    if "scratch" in objects:
        shutil.rmtree(objects["scratch"], ignore_errors=True)


# ---------------------------------------------------------------------------
# Timed runners
# ---------------------------------------------------------------------------


def _summary(latencies_ms: list[float], attempted: int, failed: int, wrong: int,
             busy_s: float, window: tuple[float, float], host_speed: float | None) -> dict:
    """Round figures from timings scaled to the reference speed, if ``host_speed`` is given."""
    done = attempted - failed
    return {
        "attempted": attempted,
        "failed": failed,
        "wrong": wrong,
        "busy_s": busy_s,
        "units_per_s": done / busy_s if busy_s > 0 else 0.0,
        "latency_count": len(latencies_ms),
        "verdict_p50_ms": percentile(latencies_ms, 0.5) if latencies_ms else 0.0,
        "verdict_p90_ms": percentile(latencies_ms, 0.9) if latencies_ms else 0.0,
        "verdict_mean_ms": sum(latencies_ms) / len(latencies_ms) if latencies_ms else 0.0,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "window": window,
        "host_speed": host_speed,
    }


def run_sweep(workload: str, seed: int, seconds: float, objects: dict, tracer=None) -> dict:
    harness = objects["harness"]
    problem_ids = [problem.problem_id for problem in harness.registry]
    batches = [
        (label, model, picks, sweep_units(label, model, picks, problem_ids))
        for label, model, picks in sweep_batches(workload, seed, seconds, len(problem_ids))
    ]
    reference = load_reference(SWEEP_REFERENCE)
    if tracer is not None:
        from tracing import UNIT_LAYER

        tracer.patch_entry_point(
            "repro.experiments.executors",
            "execute_unit",
            UNIT_LAYER,
            unit_of=lambda _context, unit: f"{unit.strategy}/{unit.model}/{unit.problem_id}/{unit.sample}",
        )

    speed = HostSpeed()
    probe = speed.sample if tracer is None else tracer.wrap("perfbench.host_speed", speed.sample)
    latencies: list[float] = []
    resumed = 0.0

    def progress(_done: int, _total: int) -> None:
        # A unit's time runs from the end of the previous callback, so the
        # speed samples taken here are in no unit's time.
        nonlocal resumed
        latencies.append((time.perf_counter() - resumed) * 1000.0)
        if len(latencies) % PROBE_EVERY == 0:
            probe()
        resumed = time.perf_counter()

    harness.engine.progress = progress
    results: list[tuple[str, str, list, list | None]] = []
    failed = 0
    busy_s = 0.0
    start = time.perf_counter()
    for label, model, picks, units in batches:
        begin = resumed = time.perf_counter()
        try:
            payloads = harness.engine.run(units)
        except Exception:
            traceback.print_exc(file=sys.stderr)
            failed += len(units)
            payloads = None
        busy_s += time.perf_counter() - begin
        results.append((label, model, picks, payloads))
    end = time.perf_counter()
    busy_s -= speed.spent_s
    speed.sample()  # at least one sample, however short the round

    wrong = 0
    attempted = 0
    for label, model, picks, payloads in results:
        attempted += len(picks)
        if payloads is None:
            continue
        digests = reference[f"{label}|{model}"]
        for (case, sample), payload in zip(picks, payloads):
            if payload_digest(payload) != digest_at(digests, case * SWEEP_SAMPLES + sample):
                wrong += 1
    factor = speed.factor()
    return _summary([latency * factor for latency in latencies], attempted, failed, wrong,
                    busy_s * factor, (start, end), factor)


def run_deep_verify(seed: int, seconds: float, objects: dict, tracer=None) -> dict:
    compiler, simulator = objects["compiler"], objects["simulator"]
    problems = list(objects["registry"])
    candidates = deep_candidates(seed, seconds, problems)
    sources = [candidate_source(problems[index], name) for index, name, _variant in candidates]
    reference = load_reference(DEEP_REFERENCE)
    golden: dict[int, str] = {}

    def verify(index: int, source: str, testbench) -> dict:
        reference_verilog = golden.get(index)
        if reference_verilog is None:
            reference_verilog = golden[index] = compiler.compile(problems[index].golden_chisel).verilog
        return candidate_verdict(compiler, simulator, source, reference_verilog, testbench)

    # One deep stimulus program is built (untimed) per problem, just before
    # its candidates, so only one is alive at a time.
    build_inputs = deep_testbench
    if tracer is not None:
        from tracing import UNIT_LAYER

        verify = tracer.wrap(UNIT_LAYER, verify, unit_of=lambda index, *_: problems[index].problem_id)
        build_inputs = tracer.wrap("perfbench.inputs", deep_testbench)

    speed = HostSpeed()
    probe = speed.sample if tracer is None else tracer.wrap("perfbench.host_speed", speed.sample)
    latencies: list[float] = []
    verdicts: list[dict | None] = []
    failed = 0
    testbench, built_for = None, None
    start = time.perf_counter()
    for position, ((index, _name, variant), source) in enumerate(zip(candidates, sources)):
        if position % PROBE_EVERY == 0:
            probe()
        if built_for != index:
            testbench, built_for = build_inputs(problems[index], variant), index
        begin = time.perf_counter()
        try:
            verdicts.append(verify(index, source, testbench))
        except Exception:
            traceback.print_exc(file=sys.stderr)
            failed += 1
            verdicts.append(None)
            continue
        latencies.append((time.perf_counter() - begin) * 1000.0)
    end = time.perf_counter()

    wrong = 0
    for (index, name, variant), verdict in zip(candidates, verdicts):
        problem = problems[index]
        expected = digest_at(
            reference[problem.problem_id][variant], deep_universe(problem).index(name)
        )
        if verdict is not None and payload_digest(verdict) != expected:
            wrong += 1
    factor = speed.factor()
    latencies = [latency * factor for latency in latencies]
    return _summary(latencies, len(candidates), failed, wrong, sum(latencies) / 1000.0,
                    (start, end), factor)


def run_serve(seed: int, seconds: float, objects: dict, tracer=None) -> dict:
    from repro.experiments.strategies import ReChiselStrategy
    from repro.experiments.work import WorkUnit

    service, context = objects["service"], objects["context"]
    problem_ids = [problem.problem_id for problem in context.registry]
    knobs = ReChiselStrategy().knob_items()
    jobs = []
    for due, model, case, sample in serve_jobs(seed, seconds, len(problem_ids)):
        unit = WorkUnit(
            "rechisel", model, problem_ids[case], case, sample, SWEEP_SEED, MAX_ITERATIONS, knobs
        )
        jobs.append((due, unit, (model, case, sample)))
    reference = load_reference(SWEEP_REFERENCE)

    async def serve() -> dict:
        async with service:
            async def one(unit, due: float):
                payload = await service.submit(unit)
                return payload, time.perf_counter() - due

            tasks = []
            late_max = 0.0
            start = time.perf_counter() + 0.05
            cpu_start = time.process_time()
            for offset, unit, _key in jobs:
                due = start + offset
                delay = due - time.perf_counter()
                if delay > 0:
                    await asyncio.sleep(delay)
                late_max = max(late_max, time.perf_counter() - due)
                tasks.append(asyncio.create_task(one(unit, due)))
            _done, pending = await asyncio.wait(tasks, timeout=SERVE_DRAIN_S)
            for task in pending:
                task.cancel()
            end = time.perf_counter()
            cpu_s = time.process_time() - cpu_start
            if pending:
                await asyncio.gather(*pending, return_exceptions=True)
        return {"tasks": tasks, "late_max": late_max, "start": start, "end": end, "cpu_s": cpu_s}

    outcome = asyncio.run(serve())
    latencies: list[float] = []
    failed = wrong = 0
    for (_due, _unit, (model, case, sample)), task in zip(jobs, outcome["tasks"]):
        if task.cancelled() or task.exception() is not None:
            failed += 1
            continue
        payload, latency = task.result()
        latencies.append(latency * 1000.0)
        expected = digest_at(reference[f"rechisel|{model}"], case * SWEEP_SAMPLES + sample)
        if payload_digest(payload) != expected:
            wrong += 1
    # The arrival rate is fixed by the schedule, so jobs per wall second would
    # only echo it.  Jobs per CPU second of the serving process is a figure
    # the program sets: the rate one core could sustain if nothing waited.
    # Neither it nor the verdict times are scaled to the reference speed (see
    # PROBE_EVERY); most of a served job's time is injected LLM latency.
    summary = _summary(
        latencies, len(jobs), failed, wrong, outcome["cpu_s"], (outcome["start"], outcome["end"]), None
    )
    snapshot = service.snapshot()
    summary["late_max_ms"] = outcome["late_max"] * 1000.0
    summary["sim_batch_size"] = (
        snapshot.sim_batched_requests / snapshot.sim_batches if snapshot.sim_batches else 0.0
    )
    return summary


def run(workload: str, seed: int, seconds: float, objects: dict, tracer=None) -> dict:
    if workload in SWEEP_PLANS:
        return run_sweep(workload, seed, seconds, objects, tracer)
    if workload == "deep-verify":
        return run_deep_verify(seed, seconds, objects, tracer)
    return run_serve(seed, seconds, objects, tracer)
