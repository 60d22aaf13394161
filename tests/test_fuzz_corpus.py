"""Replay the committed fuzz corpus as a parameterized regression suite.

``tests/data/fuzz_corpus.jsonl`` holds interesting survivors found by
``python -m repro.fuzz`` (feature-diverse generated designs that passed every
conformance seam when they were committed).  Each entry is replayed through
the full differential engine — compile, Verilog re-parse, interpreter vs
compiled vs trace backends, warm vs cold caches — so any semantic
drift in the simulator, the FIRRTL passes or the caches fails here with a
one-line repro before it ships.
"""

from __future__ import annotations

import os

import pytest

from repro.fuzz import load_corpus_entries, replay_entry

CORPUS_PATH = os.path.join(os.path.dirname(__file__), "data", "fuzz_corpus.jsonl")
ENTRIES = load_corpus_entries(CORPUS_PATH)
SURVIVORS = [entry for entry in ENTRIES if entry.kind == "survivor"]


def test_corpus_is_populated():
    """The committed corpus must stay a meaningful regression net."""
    assert len(SURVIVORS) >= 50
    features = set()
    for entry in SURVIVORS:
        features.update(entry.features)
    assert len(features) >= 8  # diverse, not 50 copies of the same shape


@pytest.mark.cache_mutating
@pytest.mark.parametrize(
    "entry",
    SURVIVORS,
    ids=[f"seed{entry.seed}_idx{entry.index}" for entry in SURVIVORS],
)
def test_corpus_survivor_still_conforms(entry):
    report = replay_entry(entry, points=8)
    assert report.ok, (
        f"corpus regression ({entry.kind}, seed={entry.seed}, index={entry.index}, "
        f"features={','.join(entry.features)}):\n{report.render()}\n{entry.source}"
    )
