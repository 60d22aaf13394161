"""Pin what ``ChiselCompiler`` reports for a fixed candidate set.

The Reviewer reads the compiler's stage, its rendered feedback and the
emitted Verilog; this suite hashes exactly those three for every case into
one sha256 digest, so a change to the compile pipeline or its caching that
claims to keep behaviour has to keep these bytes.

Case set, in order: for every registry problem its golden, each functional
mutant that still compiles and each applicable syntax mutant (all at
``TopModule``), then every ``tests/data/fuzz_corpus.jsonl`` program at each of
its tops.

The cold digest compiles every case with an uncached compiler after clearing
every registered cache.  The warm digest compiles the same sequence through
the process-wide compile cache, hashing the cache hit of each case's second
compile, and must not differ: a hit replays the result of the very same
source text, coordinates included.

The token-twin digest compiles two twins of each case, each with a different
line comment on the case's first blank line.  That leaves the token stream
unchanged, so the second twin is a text-tier miss answered by the
``chisel_tokens`` tier with the first twin's result, and hashing it must give
the same digest: comments reach neither a diagnostic nor the Verilog.
"""

from __future__ import annotations

import hashlib
import os

import pytest

from repro.caching import cache_stats, clear_registered_caches
from repro.chisel.lexer import tokenize
from repro.fuzz import load_corpus_entries
from repro.problems.mutations import applicable_syntax_faults
from repro.problems.registry import build_default_registry
from repro.toolchain.compiler import ChiselCompiler

CORPUS_PATH = os.path.join(os.path.dirname(__file__), "data", "fuzz_corpus.jsonl")

#: Computed with the staged-cache compiler, before its stage caches were removed.
EXPECTED = "c2ae7bde1e4133bf066818ad818ad761d906553cffb58e368c7f2c94f5c6098d"
EXPECTED_CASES = 2522


def _cases() -> list[tuple[str, str]]:
    """``(top, source)`` for every case in the pinned set, in order."""
    probe = ChiselCompiler(top="TopModule", cached=False)
    cases = []
    for problem in build_default_registry():
        golden = problem.golden_chisel
        cases.append(("TopModule", golden))
        for fault in problem.functional_faults:
            if fault.applies_to(golden):
                mutant = fault.apply(golden)
                if probe.compile(mutant).success:
                    cases.append(("TopModule", mutant))
        for fault in applicable_syntax_faults(golden, problem):
            cases.append(("TopModule", fault.apply(golden, problem)))
    for entry in load_corpus_entries(CORPUS_PATH):
        for top in entry.tops:
            cases.append((top, entry.source))
    return cases


def _update(digest, result) -> None:
    for part in (result.stage, result.render_feedback(), result.verilog or ""):
        digest.update(part.encode())
        digest.update(b"\0")


@pytest.fixture(scope="module")
def cases():
    return _cases()


@pytest.mark.cache_mutating
def test_cold_compile_digest(cases):
    compiler = ChiselCompiler(cached=False)
    digest = hashlib.sha256()
    for top, source in cases:
        clear_registered_caches()
        _update(digest, compiler.compile(source, top=top))
    assert len(cases) == EXPECTED_CASES
    assert digest.hexdigest() == EXPECTED


@pytest.mark.cache_mutating
def test_warm_compile_digest(cases):
    compiler = ChiselCompiler()
    digest = hashlib.sha256()
    for top, source in cases:
        first = compiler.compile(source, top=top)
        again = compiler.compile(source, top=top)
        assert again is first
        _update(digest, again)
    assert digest.hexdigest() == EXPECTED


def _twin(source: str, mark: str) -> str:
    """``source`` with a line comment on its first blank line."""
    blank = source.index("\n\n") + 1
    return source[:blank] + f"// token twin {mark}" + source[blank:]


@pytest.mark.cache_mutating
def test_token_twin_compile_digest(cases):
    clear_registered_caches()
    compiler = ChiselCompiler()
    digest = hashlib.sha256()
    seen = set()
    for top, source in cases:
        first, second = _twin(source, "a"), _twin(source, "b")
        assert tokenize(second) == tokenize(source)
        before = cache_stats()["chisel_tokens"]["hits"]
        result = compiler.compile(first, top=top)
        twin = compiler.compile(second, top=top)
        if (top, source) not in seen:  # a repeated case replays its own text
            assert cache_stats()["chisel_tokens"]["hits"] == before + 1
            seen.add((top, source))
        assert twin is result
        _update(digest, twin)
    assert digest.hexdigest() == EXPECTED
