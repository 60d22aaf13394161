"""Benchmark: Chisel frontend throughput (lex + parse, no parse cache).

Every ReChisel revision is a new source text, so the lexer runs on every
iteration; the parser runs on every revision whose token stream the
compiler's ``chisel_tokens`` tier has not seen, which is any revision that
moves a token.  This lexes and parses a fixed third of the registry's
goldens, functional mutants and syntax mutants with
:func:`~repro.chisel.parser.parse_source` (which bypasses every cache),
recording one pass into ``BENCH_toolchain.json`` via
``python benchmarks/run_benchmarks.py``.  It then times the same sources
through the character-at-a-time reference frontend kept in
``tests/chisel_reference.py``, interleaving the rounds so a change of host
speed hits both sides, and asserts the frontend stays ≥1.5x faster (about
2.5x when it was written; on a 2-CPU host with Python 3.11, 3.1x before the
parser dispatched on token tags and 5.1x after: 149 ms against 765 ms for
the 811 sources, best of 5).
"""

from __future__ import annotations

import os
import sys
import time

from conftest import run_once

from repro.chisel.parser import parse_source
from repro.diagnostics import ChiselError

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "tests"))
from chisel_reference import reference_parse_source, registry_sources  # noqa: E402

ROUNDS = 3
MIN_SPEEDUP = 1.5
SOURCES = registry_sources()[::3]


def _parse_all(parse) -> float:
    start = time.perf_counter()
    for source in SOURCES:
        try:
            parse(source)
        except ChiselError:
            pass
    return time.perf_counter() - start


def test_chisel_frontend_throughput(benchmark):
    run_once(benchmark, _parse_all, parse_source)
    frontend, reference = [], []
    for _ in range(ROUNDS):
        reference.append(_parse_all(reference_parse_source))
        frontend.append(_parse_all(parse_source))
    speedup = min(reference) / min(frontend)
    assert speedup >= MIN_SPEEDUP, (
        f"Chisel frontend speedup {speedup:.2f}x below {MIN_SPEEDUP}x over the reference "
        f"({min(reference) * 1000:.0f} ms vs {min(frontend) * 1000:.0f} ms "
        f"for {len(SOURCES)} sources)"
    )
