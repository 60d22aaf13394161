"""Pinned backend resolution for ``run_testbench`` and ``run_testbenches``.

Every value of ``REPRO_SIM_BACKEND`` and every pairing is run through both
entry points (the batched one with one job and with two identical jobs).
The trace runner is wrapped to record when it answered; a run that raises
records the exception type and message instead.  Each outcome must equal its
row of the committed table ``tests/data/backend_plan.json`` (one test per
row, so a drift names the row), so a refactor of backend selection,
strictness or fallback cannot change which tier runs.

Each outcome reads ``<tiers> <reports>``:

* ``<tiers>`` lists, in call order, the trace runs that returned a report,
  joined by ``+``; ``-`` means none did, so every job ran step-wise;
* ``<reports>`` has one letter per job: ``P`` passed, ``F`` mismatched,
  ``E`` runtime error.

Regenerate the table (only for an intended change of behaviour) with
``PYTHONPATH=src python tests/test_backend_plan.py --write``.
"""

from __future__ import annotations

import itertools
import json
import sys
from pathlib import Path

import pytest

from repro.sim import testbench as tb
from repro.sim.reference import BehavioralDevice
from repro.sim.testbench import (
    FunctionalPoint,
    Testbench,
    reset_backend_health,
    run_testbench,
    run_testbenches,
)
from repro.verilog.parser import parse_verilog

TABLE = Path(__file__).parent / "data" / "backend_plan.json"

SIM_ENVS = ("auto", "trace", "interpreter")
ENTRIES = ("run_testbench", "run_testbenches[1]", "run_testbenches[2]")


def _module(text: str):
    return parse_verilog(text)[0]


COMB_REF = _module(
    """
module top(input wire [3:0] a, input wire [3:0] b, output wire [3:0] y);
  assign y = a + b;
endmodule
"""
)
COMB_DUT = _module(
    """
module top(input wire [3:0] a, input wire [3:0] b, output wire [3:0] y);
  assign y = a - b;
endmodule
"""
)
PORT_DUT = _module(
    """
module top(input wire [3:0] a, input wire [3:0] b, output wire [3:0] z);
  assign z = a + b;
endmodule
"""
)
SEQ_REF = _module(
    """
module top(input wire clock, input wire reset, input wire en,
           input wire [7:0] d, output reg [7:0] q);
  always @(posedge clock) begin
    if (reset) q <= 8'd0;
    else if (en) q <= d;
  end
endmodule
"""
)
SEQ_DUT = _module(
    """
module top(input wire clock, input wire reset, input wire en,
           input wire [7:0] d, output reg [7:0] q);
  always @(posedge clock) begin
    if (reset) q <= 8'd0;
    else q <= d;
  end
endmodule
"""
)
WIDE_REF = _module(
    """
module top(input wire [79:0] a, output wire [79:0] y);
  assign y = a + 80'd1;
endmodule
"""
)
WIDE_DUT = _module(
    """
module top(input wire [79:0] a, output wire [79:0] y);
  assign y = a + 80'd2;
endmodule
"""
)


def _comb_bench() -> Testbench:
    return Testbench(
        points=[
            FunctionalPoint(inputs={"a": a, "b": b}) for a, b in ((0, 0), (1, 2), (7, 3), (15, 15))
        ],
        observed_outputs=["y"],
        reset_cycles=0,
    )


def _seq_bench() -> Testbench:
    return Testbench(
        points=[
            FunctionalPoint(inputs={"en": en, "d": d}, clock_cycles=1)
            for en, d in ((1, 5), (0, 9), (1, 200), (0, 1))
        ],
        observed_outputs=["q"],
    )


def _wide_bench() -> Testbench:
    return Testbench(
        points=[FunctionalPoint(inputs={"a": a}) for a in (0, 1, (1 << 79) + 5)],
        observed_outputs=["y"],
        reset_cycles=0,
    )


def _behavioral_adder() -> BehavioralDevice:
    return BehavioralDevice({"y": 4}, lambda inputs, state: {"y": inputs["a"] + inputs["b"]})


# name -> () -> (dut, reference, testbench); a fresh testbench per run keeps
# the reference-output memo of one case from answering for another.
PAIRINGS = {
    "comb": lambda: (COMB_DUT, COMB_REF, _comb_bench()),
    "seq": lambda: (SEQ_DUT, SEQ_REF, _seq_bench()),
    "port": lambda: (PORT_DUT, COMB_REF, _comb_bench()),
    "behavioral": lambda: (COMB_DUT, _behavioral_adder(), _comb_bench()),
    "wide": lambda: (WIDE_DUT, WIDE_REF, _wide_bench()),
}


def _letter(report) -> str:
    if report.runtime_error is not None:
        return "E"
    return "P" if report.passed else "F"


def _outcome(entry: str, pairing: str) -> str:
    tiers: list[str] = []

    def answering(name, runner):
        def wrapped(*args):
            result = runner(*args)
            if result is not None:
                tiers.append(name)
            return result

        return wrapped

    dut, reference, testbench = PAIRINGS[pairing]()
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(tb, "_run_testbench_trace", answering("trace", tb._run_testbench_trace))
        try:
            if entry == "run_testbench":
                reports = [run_testbench(dut, reference, testbench)]
            else:
                copies = int(entry[-2])
                reports = run_testbenches([(dut, reference, testbench)] * copies)
        except Exception as exc:  # noqa: BLE001 - the exception is the outcome
            return f"raise {type(exc).__name__}: {exc}"
    return f"{'+'.join(tiers) or '-'} {''.join(map(_letter, reports))}"


def _key(entry, sim_env, pairing) -> str:
    return f"{entry} REPRO_SIM_BACKEND={sim_env} {pairing}"


def _outcomes(monkeypatch, sim_env) -> dict[str, str]:
    outcomes = {}
    for entry, pairing in itertools.product(ENTRIES, PAIRINGS):
        monkeypatch.setenv("REPRO_SIM_BACKEND", sim_env)
        reset_backend_health()
        outcomes[_key(entry, sim_env, pairing)] = _outcome(entry, pairing)
    reset_backend_health()
    return outcomes


@pytest.fixture(scope="module")
def expected() -> dict[str, str]:
    return json.loads(TABLE.read_text())


@pytest.mark.parametrize("pairing", PAIRINGS)
@pytest.mark.parametrize("entry", ENTRIES)
@pytest.mark.parametrize("sim_env", SIM_ENVS)
def test_backend_resolution_matches_pinned_table(monkeypatch, expected, sim_env, entry, pairing):
    monkeypatch.delenv("REPRO_SIM_HEALTH_THRESHOLD", raising=False)
    monkeypatch.setenv("REPRO_SIM_BACKEND", sim_env)
    reset_backend_health()
    try:
        actual = _outcome(entry, pairing)
    finally:
        reset_backend_health()
    assert actual == expected[_key(entry, sim_env, pairing)]


def test_table_covers_every_combination(expected):
    keys = {
        _key(entry, sim_env, pairing)
        for entry, sim_env, pairing in itertools.product(ENTRIES, SIM_ENVS, PAIRINGS)
    }
    assert set(expected) == keys


def test_one_job_batch_resolves_like_a_single_run(expected):
    """``run_testbenches`` is ``run_testbench`` per job: same tiers, same reports."""
    single = {key: outcome for key, outcome in expected.items() if key.startswith("run_testbench ")}
    assert single
    for key, outcome in single.items():
        assert expected[key.replace("run_testbench ", "run_testbenches[1] ", 1)] == outcome, key


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit(__doc__)
    table = {}
    with pytest.MonkeyPatch.context() as patch:
        for sim_env in SIM_ENVS:
            table.update(_outcomes(patch, sim_env))
    TABLE.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
