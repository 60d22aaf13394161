"""Benchmark: Verilog parsing throughput (lex + parse, no parse cache).

Every candidate the toolchain simulates, and every Verilog attempt of the
AutoChip baseline, is read by :func:`~repro.verilog.parser.parse_verilog`
on a miss of the toolchain's parse cache.  This parses the corpus that
``tests/test_verilog_parse_digest.py`` pins (emitted Verilog of the compile
digest's cases, Verilog faults of every golden and the lexer edges) with
``parse_verilog`` directly, which bypasses every cache, and records the pass
into ``BENCH_toolchain.json`` via ``python benchmarks/run_benchmarks.py``
beside the Chisel frontend.  It asserts no speed: it is a ledger entry.
"""

from __future__ import annotations

import os
import sys

from repro.verilog.parser import VerilogParseError, parse_verilog

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "tests"))
from test_verilog_parse_digest import verilog_corpus  # noqa: E402

TEXTS = verilog_corpus()


def _parse_all() -> None:
    for text in TEXTS:
        try:
            parse_verilog(text)
        except VerilogParseError:
            pass


def test_verilog_parse_throughput(benchmark):
    benchmark.pedantic(_parse_all, rounds=5, iterations=1)
