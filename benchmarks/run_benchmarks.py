#!/usr/bin/env python
"""Run the toolchain + sweep benchmarks and write ``BENCH_toolchain.json``.

Usage::

    python benchmarks/run_benchmarks.py [output.json]

Covers the raw toolchain throughput (compile + simulate one case), the
Chisel frontend (lex + parse of registry candidates, asserted ≥1.5x the
character-at-a-time reference frontend), Chisel lexing (registry
candidates and one-line revisions, with the line memo bypassed, cold and
warm, no gate), Verilog parsing (the Verilog
parse digest's corpus, no gate), trace codegen and trace-kernel runs
(registry goldens, no gate), the batched verification engine
(cold candidate, warm iteration-k+1 and trace vs step-wise testbench
backends, with asserted minimum speedups), the
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
"""

from __future__ import annotations

import os
import sys

import pytest


def main(argv: list[str]) -> int:
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    args = list(argv[1:])
    output = args[0] if args else os.path.join(root, "BENCH_toolchain.json")
    src = os.path.join(root, "src")
    sys.path.insert(0, src)
    os.environ["PYTHONPATH"] = src + os.pathsep + os.environ.get("PYTHONPATH", "")
    return pytest.main(
        [
            os.path.join(root, "benchmarks", "test_toolchain_throughput.py"),
            os.path.join(root, "benchmarks", "test_chisel_frontend_throughput.py"),
            os.path.join(root, "benchmarks", "test_chisel_lex_throughput.py"),
            os.path.join(root, "benchmarks", "test_verilog_parse_throughput.py"),
            os.path.join(root, "benchmarks", "test_trace_codegen_throughput.py"),
            os.path.join(root, "benchmarks", "test_verify_throughput.py"),
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


if __name__ == "__main__":
    raise SystemExit(main(sys.argv))
