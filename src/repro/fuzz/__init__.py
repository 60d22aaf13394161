"""Differential fuzzing subsystem: generative RTL corpus + conformance engine.

``python -m repro.fuzz --seed 0 --n 500`` generates 500 random-but-well-typed
Chisel programs and pushes each through every seam of the toolchain —
compile, Verilog re-parse, step-wise interpreter vs trace-compiled
simulation, warm vs cold caches — shrinking and persisting anything that
diverges.  See README.md "Fuzzing & conformance" and ``python -m repro.fuzz
--help`` for the flags.
"""

from repro.fuzz.config import ALL_FEATURES, FuzzConfig, parse_feature_mask
from repro.fuzz.corpus import CorpusEntry, CorpusStore, load_corpus_entries
from repro.fuzz.differential import (
    ConformanceFailure,
    ConformanceReport,
    build_testbench,
    check_program,
    check_source,
)
from repro.fuzz.generate import GeneratedProgram, generate_program
from repro.fuzz.session import (
    FuzzFinding,
    SessionResult,
    replay_entry,
    run_session,
    shrink_failure,
)
from repro.fuzz.shrink import count_significant_lines, shrink

__all__ = [
    "ALL_FEATURES",
    "ConformanceFailure",
    "ConformanceReport",
    "CorpusEntry",
    "CorpusStore",
    "FuzzConfig",
    "FuzzFinding",
    "GeneratedProgram",
    "SessionResult",
    "build_testbench",
    "check_program",
    "check_source",
    "count_significant_lines",
    "generate_program",
    "load_corpus_entries",
    "parse_feature_mask",
    "replay_entry",
    "run_session",
    "shrink",
    "shrink_failure",
]
