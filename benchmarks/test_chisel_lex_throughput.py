"""Benchmark: Chisel lexing throughput, with and without the line memo.

The reflection loop revises a candidate a few lines at a time, so
:func:`~repro.chisel.lexer.tokenize` memoizes lexed lines in the
``chisel_lines`` cache.  This lexes a fixed mix of registry candidates (the
third of them that ``test_chisel_frontend_throughput.py`` parses) each
followed by a revision that rewrites one of its lines, three ways: without
the memo (``cached=False``, as the uncached compiler and ``parse_source``
lex), with the memo cleared before every round (a revision then hits the
lines of its original), and with the memo warm.  It records the rounds into
``BENCH_toolchain.json`` via ``python benchmarks/run_benchmarks.py`` and
asserts no speed: it is a ledger entry.
"""

from __future__ import annotations

import os
import sys

import pytest

from repro.caching import clear_registered_caches
from repro.chisel.lexer import tokenize
from repro.diagnostics import ChiselError

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "tests"))
from chisel_reference import registry_sources  # noqa: E402


def _revised(source: str) -> str:
    """``source`` with a comment appended to its middle line."""
    lines = source.split("\n")
    middle = len(lines) // 2
    lines[middle] += " // revised"
    return "\n".join(lines)


SOURCES = [text for source in registry_sources()[::3] for text in (source, _revised(source))]


def _lex_all(cached: bool) -> None:
    for source in SOURCES:
        try:
            tokenize(source, cached=cached)
        except ChiselError:
            pass


@pytest.mark.cache_mutating
@pytest.mark.parametrize("memo", ["uncached", "cold", "warm"])
def test_chisel_lex_throughput(benchmark, memo):
    if memo == "warm":
        _lex_all(True)
    setup = clear_registered_caches if memo == "cold" else None
    benchmark.pedantic(_lex_all, args=(memo != "uncached",), setup=setup, rounds=5, iterations=1)
