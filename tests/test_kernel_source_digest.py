"""Pin the generated kernel source of the simulator codegen.

The ``compile_sim`` kernels are generated Python source; the simulators run
exactly that text.  This suite hashes every generated ``.source`` string over
a fixed design set into two sha256 digests — comb/step kernel and trace — so
a codegen refactor that claims to keep behaviour has to keep these bytes.  A build that raises :class:`AnalysisError` contributes the
exception type and message instead, so the fallback decisions are pinned too.

Design set: every registry golden and every applicable, compilable functional
mutant (traced against the problem's own testbench), plus every compilable
survivor of ``tests/data/fuzz_corpus.jsonl`` at its ``TopModule`` top
(traced against the fuzz conformance testbench).

The non-blocking snapshot order used to follow set iteration, i.e.
``PYTHONHASHSEED``; a subprocess test pins that the source no longer does.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys

import pytest

from repro.fuzz import load_corpus_entries
from repro.fuzz.differential import build_testbench
from repro.problems.registry import build_default_registry
from repro.sim.testbench import _trace_plan
from repro.toolchain.compiler import ChiselCompiler
from repro.verilog.analysis import AnalysisError
from repro.verilog.compile_sim import compile_kernel, compile_trace
from repro.verilog.parser import parse_verilog

CORPUS_PATH = os.path.join(os.path.dirname(__file__), "data", "fuzz_corpus.jsonl")

#: ``kernel`` was computed from the codegen before the scalar and lane
#: lowerings were merged; ``trace`` since re-rolled loops run on locals with
#: the comb and step passes inlined.
EXPECTED = {
    "kernel": "cab11c4e7e52e3cd18c5c826f163f5b193f69f3689f7bcb47e1d753be2cf32e2",
    "trace": "f43da775892b8f9ea9034a8553d1b5b12f1dcbf87b734421ca08e6846c2488b0",
}


def _cases():
    """``(module, schedule)`` for every design in the pinned set, in order."""
    compiler = ChiselCompiler(top="TopModule")
    for problem in build_default_registry():
        testbench = problem.build_testbench()
        sources = [problem.golden_chisel] + [
            fault.apply(problem.golden_chisel)
            for fault in problem.functional_faults
            if fault.applies_to(problem.golden_chisel)
        ]
        for source in sources:
            result = compiler.compile(source)
            if not result.success:
                continue
            module = parse_verilog(result.verilog)[-1]
            observed = tuple(port.name for port in module.outputs())
            yield module, _trace_plan(testbench, observed)[0]
    for entry in load_corpus_entries(CORPUS_PATH):
        if entry.kind != "survivor":
            continue
        result = compiler.compile(entry.source)
        if not result.success:
            continue
        module = parse_verilog(result.verilog)[-1]
        testbench = build_testbench(
            module, f"fuzz-tb:{entry.seed}:{entry.index}:TopModule", 8, entry.sequential
        )
        observed = tuple(port.name for port in module.outputs())
        yield module, _trace_plan(testbench, observed)[0]


def _record(digest, build):
    """Hash ``build().source``, or the AnalysisError it raises; returns the build."""
    try:
        built = build()
        text = built.source
    except AnalysisError as exc:
        built = None
        text = f"{type(exc).__name__}: {exc}"
    digest.update(text.encode())
    digest.update(b"\0")
    return built


def _digests() -> tuple[dict[str, str], int]:
    digests = {name: hashlib.sha256() for name in EXPECTED}
    modules = 0
    for module, schedule in _cases():
        modules += 1
        kernel = _record(digests["kernel"], lambda: compile_kernel(module))
        _record(digests["trace"], lambda: compile_trace(module, schedule, kernel))
    return {name: digest.hexdigest() for name, digest in digests.items()}, modules


@pytest.fixture(scope="module")
def computed():
    return _digests()


def test_design_set_size(computed):
    _, modules = computed
    assert modules == 447 + 68


@pytest.mark.parametrize("name", ["kernel", "trace"])
def test_scalar_source_digest(computed, name):
    assert computed[0][name] == EXPECTED[name]


SHIFT_CHAIN = """
module m(input clock, input [3:0] d, output [3:0] q);
  reg [3:0] qa;
  reg [3:0] qb;
  reg [3:0] qc;
  reg [3:0] qd;
  always @(posedge clock) begin
    qa <= d;
    qb <= qa;
    qc <= qb;
    qd <= qc;
  end
  assign q = qd;
endmodule
"""

_SOURCE_SCRIPT = """
import json, sys
from repro.verilog.compile_sim import compile_kernel
from repro.verilog.parser import parse_verilog
module = parse_verilog(sys.stdin.read())[0]
print(json.dumps([compile_kernel(module).source]))
"""


def _sources_under_hash_seed(seed: str) -> list[str]:
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONHASHSEED=seed)
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    out = subprocess.run(
        [sys.executable, "-c", _SOURCE_SCRIPT],
        input=SHIFT_CHAIN,
        capture_output=True,
        text=True,
        env=env,
        check=True,
    )
    return json.loads(out.stdout)


def test_nonblocking_snapshot_order_ignores_hash_seed():
    """A block with several non-blocking targets compiles to the same source
    whatever ``PYTHONHASHSEED`` orders its target set."""
    assert _sources_under_hash_seed("1") == _sources_under_hash_seed("2")
