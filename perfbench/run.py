#!/usr/bin/env python3
"""The repository benchmark: ReChisel sweeps, deep verification and serving.

    python3 perfbench/run.py                       # all three workloads, default seed
    python3 perfbench/run.py --workload rechisel-sweep --seed 3 --seconds 24 --trace 0

Each workload runs in fresh processes (``worker.py``) with ``REPRO_*``
variables scrubbed; the benchmark refuses to start if any is set.  With
``--trace 0`` a run reports the end-to-end metrics: set-up time, units per
second, verdict latency p50/p90 and peak RSS, each the median over
``ROUNDS`` fresh processes that repeat the same inputs, and the failed and
wrong fractions.  Sweep and deep-verify timings are scaled to a reference
host speed (``common.HostSpeed``).  With ``--trace 1`` it runs one round
untraced and then traced, and reports per-layer calls, self time, cache hit
ratios and waits, the tracing overhead and the share of wall time no span
covers.  Every output is checked against ``references/``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code is
nonzero if an output was wrong, a unit failed, or the run could not
measure what it reports.  See ``README.md`` beside this file.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import statistics
import subprocess
import sys
import time

from common import (
    BENCH_DIR,
    OUT_DIR,
    ROOT,
    SRC_DIR,
    WORKLOADS,
    BenchmarkError,
    check_tail,
    host_fingerprint,
    repro_variables,
    worker_environment,
)

DEFAULT_SEED = 0
DEFAULT_SECONDS = 24
#: Fresh processes that only set up, beyond the rounds; ``setup_s`` is the
#: median set-up time of these and of every round.
SETUP_REPEATS = 3
#: A run repeats its workload in this many fresh processes (rounds), each
#: given an equal share of the run's seconds and the same inputs, and reports
#: the median of the rounds, so one round caught by a change of host speed
#: that the speed samples miss does not move the result.  A serving round
#: stays long enough for its queue to build up.
ROUNDS = {"rechisel-sweep": 6, "deep-verify": 6, "serve-open-loop": 3}
ROUND_METRICS = ("units_per_s", "verdict_p50_ms", "verdict_p90_ms", "peak_rss_mb")
#: Everything one invocation starts must finish within this many seconds.
RUN_BUDGET_S = 170.0


END_TO_END_UNITS = {
    "setup_s": "s",
    "units_per_s": "1/s",
    "verdict_p50_ms": "ms",
    "verdict_p90_ms": "ms",
    "peak_rss_mb": "MB",
}


def _worker(workload: str, seed: int, seconds: float, deadline: float, *flags: str) -> dict:
    """Run ``worker.py`` in a fresh process and parse its JSON result line."""
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchmarkError("out of time before every measurement ran")
    command = [
        sys.executable,
        str(BENCH_DIR / "worker.py"),
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(seconds),
        *flags,
    ]
    try:
        completed = subprocess.run(
            command, cwd=ROOT, env=worker_environment(), stdout=subprocess.PIPE,
            text=True, timeout=remaining,
        )
    except subprocess.TimeoutExpired:
        raise BenchmarkError(f"{workload} worker did not finish in time") from None
    lines = completed.stdout.strip().splitlines()
    if completed.returncode != 0 or not lines:
        raise BenchmarkError(f"{workload} worker failed with exit code {completed.returncode}")
    return json.loads(lines[-1])


def measure(workload: str, seed: int, seconds: float, trace: bool, deadline: float) -> dict:
    """One benchmark run: ``{attempted, failed, wrong, metrics, ...}``."""
    round_s = seconds / ROUNDS[workload]
    if not trace:
        setups = [
            _worker(workload, seed, round_s, deadline, "--setup-only")["setup_s"]
            for _ in range(SETUP_REPEATS)
        ]
        rounds = [_worker(workload, seed, round_s, deadline) for _ in range(ROUNDS[workload])]
        for result in rounds:
            check_tail(result["latency_count"])
        setups += [result["setup_s"] for result in rounds]
        values = {"setup_s": statistics.median(setups)}
        for name in ROUND_METRICS:
            values[name] = statistics.median(result[name] for result in rounds)
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END_UNITS.items()}
        result = {
            count: sum(result[count] for result in rounds)
            for count in ("attempted", "failed", "wrong", "busy_s")
        }
        speeds = [result["host_speed"] for result in rounds]
        result["host_speed"] = None if None in speeds else statistics.median(speeds)
    else:
        from tracing import per_layer_specs

        # One untraced and one traced round, each the size of an end-to-end round.
        plain = _worker(workload, seed, round_s, deadline)
        result = _worker(workload, seed, round_s, deadline, "--trace")
        values = dict(result["layers"])
        values["trace.overhead_frac"] = result["verdict_mean_ms"] / plain["verdict_mean_ms"] - 1.0
        values["service.sim_batch.size"] = result.get("sim_batch_size", 0.0)
        values["loadgen.late_max_ms"] = result.get("late_max_ms", 0.0)
        metrics = {
            name: {"value": values[name], "unit": unit}
            for name, (unit, _better) in per_layer_specs().items()
        }
        for count in ("attempted", "failed", "wrong"):
            result[count] += plain[count]
        result["busy_s"] += plain["busy_s"]
        speeds = [plain["host_speed"], result["host_speed"]]
        result["host_speed"] = None if None in speeds else statistics.median(speeds)
    result["metrics"] = metrics
    return result


def report(workload: str, seed: int, result: dict, host: dict) -> None:
    attempted, failed, wrong = result["attempted"], result["failed"], result["wrong"]
    print(f"== {workload} (seed {seed}): {attempted} units, {result['busy_s']:.2f} s busy")
    if result["host_speed"] is not None:
        print(f"  timings scaled to the reference speed; the host ran at "
              f"{result['host_speed']:.3f} times it")
    for name, metric in result["metrics"].items():
        print(f"  {name:<34} {metric['value']:>14.6g} {metric['unit']}")
    print(f"  {'failed_frac':<34} {failed / attempted:>14.6g} ratio")
    print(f"  {'wrong_frac':<34} {wrong / attempted:>14.6g} ratio")
    OUT_DIR.mkdir(exist_ok=True)
    record = {"workload": workload, "host": host, **{k: v for k, v in result.items() if k != "window"}}
    with open(OUT_DIR / "results.jsonl", "a") as handle:
        handle.write(json.dumps(record) + "\n")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS, help="one workload (default: all three)")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=DEFAULT_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    knobs = repro_variables(dict(os.environ))
    if knobs:
        print(f"error: unset {', '.join(knobs)}; the benchmark measures the default "
              "configuration and refuses REPRO_* overrides", file=sys.stderr)
        return 2
    if not (SRC_DIR / "repro" / "experiments").is_dir():
        print(f"error: no program to measure: {SRC_DIR / 'repro'} is missing", file=sys.stderr)
        return 2
    if args.seconds < 1:
        print("error: --seconds must be at least 1", file=sys.stderr)
        return 2

    # Byte-compile the program and the benchmark up front, so set-up time
    # measures imports as a user's repeated runs see them, whether or not
    # the environment lets Python write bytecode itself
    # (PYTHONDONTWRITEBYTECODE); compiling from source took twice as long.
    for directory in (SRC_DIR, BENCH_DIR):
        if not compileall.compile_dir(str(directory), quiet=1):
            print(f"error: {directory} does not compile", file=sys.stderr)
            return 2

    host = host_fingerprint(args.seed)
    print("host: " + json.dumps(host))
    selected = [args.workload] if args.workload else list(WORKLOADS)
    deadline = time.monotonic() + RUN_BUDGET_S * len(selected)
    results = []
    for workload in selected:
        try:
            result = measure(workload, args.seed, args.seconds, bool(args.trace), deadline)
        except BenchmarkError as exc:
            print(f"error: {workload}: {exc}", file=sys.stderr)
            return 1
        report(workload, args.seed, result, host)
        results.append(result)

    attempted = sum(result["attempted"] for result in results)
    failed = sum(result["failed"] for result in results)
    wrong = sum(result["wrong"] for result in results)
    summary = {"correct": wrong == 0, "attempted": attempted, "failed": failed}
    if len(results) == 1:
        summary["metrics"] = results[0]["metrics"]
    else:
        summary["metrics"] = {
            f"{workload}.{name}": metric
            for workload, result in zip(selected, results)
            for name, metric in result["metrics"].items()
        }
    print(json.dumps(summary))
    return 0 if wrong == 0 and failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
