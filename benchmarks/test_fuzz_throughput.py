"""Fuzz-session throughput: generated programs conformance-checked per second.

Each program compiles cold and warm, re-parses its Verilog and, per top and
pass, runs the interpreter once and the trace tier, so this benchmark tracks
the end-to-end cost of the differential engine — regressions here make the
CI fuzz smoke job (and any long adversarial session) proportionally slower.
"""

from __future__ import annotations

import pytest

from conftest import run_once

from repro.fuzz import FuzzConfig, run_session

_PROGRAMS = 25


@pytest.mark.cache_mutating
def test_fuzz_session_throughput(benchmark):
    config = FuzzConfig(seed=0, iterations=_PROGRAMS, points=12)
    result = run_once(benchmark, run_session, config)
    assert result.ok, result.render()
    assert result.programs == _PROGRAMS
