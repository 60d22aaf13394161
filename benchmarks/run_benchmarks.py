#!/usr/bin/env python
"""Run the toolchain + sweep benchmarks and write ``BENCH_toolchain.json``.

Usage::

    python benchmarks/run_benchmarks.py [output.json] [--check-trend]

Covers the raw toolchain throughput (compile + simulate one case), the
Chisel frontend (lex + parse of registry candidates, asserted ≥1.5x the
character-at-a-time reference frontend), the batched verification engine
(cold candidate, warm iteration-k+1 and trace vs step-wise testbench
backends, with asserted minimum speedups), the
vectorized simulation backend (deep-verify speedup over the scalar trace
kernels), the
sweep-engine throughput (quick-scale Table I sweep: serial vs parallel
executors, cold vs warm result store, O(1) result-store lookups), the
generation-service throughput
(serial latency baseline vs concurrency-32 service vs warm result cache),
the differential-fuzzing engine (generated programs conformance-checked per
second) and the campaign orchestrator (cold end-to-end campaign, warm
zero-replay resume and per-checkpoint manifest cost).
The output is pytest-benchmark's JSON
format (one entry per benchmark with min/mean/stddev/rounds), written to
``BENCH_toolchain.json`` at the repo root by default.  Commit-over-commit
comparisons then only need to diff that file; run it alongside the tier-1
suite when touching the simulator, the Verilog frontend, the toolchain
facades or the sweep engine.

Each successful run also appends one timestamped line to
``BENCH_history.jsonl`` at the repo root — benchmark name to mean/min
seconds, keyed by UTC time and the current commit (``<id>-dirty`` when the
tree has uncommitted changes) — so the perf trajectory
is a queryable trend, not just the latest snapshot.  ``--check-trend`` then
compares the two most recent snapshots per benchmark (see
``bench_trend.py``) and exits nonzero when any mean slowed by more than 20%.
"""

from __future__ import annotations

import datetime
import json
import os
import subprocess
import sys

import pytest


def _git(root: str, *args: str) -> str | None:
    try:
        out = subprocess.run(
            ["git", *args], cwd=root, capture_output=True, text=True, timeout=10
        )
    except OSError:
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def _current_commit(root: str) -> str | None:
    """The short id of ``HEAD``, suffixed ``-dirty`` when the tree has changes.

    A run of uncommitted code must not be recorded under its parent's id.
    """
    commit = _git(root, "rev-parse", "--short", "HEAD")
    if not commit:
        return None
    return commit + "-dirty" if _git(root, "status", "--porcelain") else commit


def append_history(root: str, results_path: str, history_path: str | None = None) -> None:
    """Append one timestamped snapshot line per run to ``BENCH_history.jsonl``."""
    with open(results_path, "r", encoding="utf-8") as handle:
        results = json.load(handle)
    snapshot = {
        "timestamp": datetime.datetime.now(datetime.timezone.utc).isoformat(
            timespec="seconds"
        ),
        "commit": _current_commit(root),
        "benchmarks": {
            entry["name"]: {
                "mean": entry["stats"]["mean"],
                "min": entry["stats"]["min"],
                "rounds": entry["stats"]["rounds"],
            }
            for entry in results.get("benchmarks", [])
        },
    }
    path = history_path or os.path.join(root, "BENCH_history.jsonl")
    with open(path, "a", encoding="utf-8") as handle:
        handle.write(json.dumps(snapshot, sort_keys=True) + "\n")


def main(argv: list[str]) -> int:
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    args = list(argv[1:])
    check_trend_after = "--check-trend" in args
    if check_trend_after:
        args.remove("--check-trend")
    output = args[0] if args else os.path.join(root, "BENCH_toolchain.json")
    src = os.path.join(root, "src")
    sys.path.insert(0, src)
    os.environ["PYTHONPATH"] = src + os.pathsep + os.environ.get("PYTHONPATH", "")
    status = pytest.main(
        [
            os.path.join(root, "benchmarks", "test_toolchain_throughput.py"),
            os.path.join(root, "benchmarks", "test_chisel_frontend_throughput.py"),
            os.path.join(root, "benchmarks", "test_verify_throughput.py"),
            os.path.join(root, "benchmarks", "test_vector_throughput.py"),
            os.path.join(root, "benchmarks", "test_sweep_throughput.py"),
            os.path.join(root, "benchmarks", "test_service_throughput.py"),
            os.path.join(root, "benchmarks", "test_fuzz_throughput.py"),
            os.path.join(root, "benchmarks", "test_campaign_throughput.py"),
            os.path.join(root, "benchmarks", "test_events_overhead.py"),
            "--benchmark-only",
            f"--benchmark-json={output}",
            "-q",
        ]
    )
    if status == 0:
        append_history(root, output)
        if check_trend_after:
            from bench_trend import check_trend

            if check_trend(os.path.join(root, "BENCH_history.jsonl")):
                return 1
    return status


if __name__ == "__main__":
    raise SystemExit(main(sys.argv))
