"""Pin what ``parse_verilog`` returns for a fixed set of Verilog texts.

The simulator, the AutoChip baseline and the Table I Verilog column all read
modules through :func:`~repro.verilog.parser.parse_verilog`; this suite hashes
``repr`` of the parsed modules, or the ``VerilogParseError`` message, of every
text into one sha256 digest, so a change to the Verilog lexer or parser that
claims to keep behaviour has to keep these bytes.

Corpus, in order and without repeats: the emitted Verilog of every compiling
case of ``tests/test_compile_digest.py``, each applicable Verilog fault
(:mod:`repro.llm.verilog_faults`) applied to each registry golden's Verilog,
then the hand-written lexer edges in :data:`EDGES`.  No text contains ``===``
or ``!==``, which the lexer once split into ``==``/``!=`` and ``=``.
"""

from __future__ import annotations

import hashlib

from test_compile_digest import _cases

from repro.llm.verilog_faults import applicable_verilog_faults
from repro.problems.registry import build_default_registry
from repro.toolchain.compiler import ChiselCompiler
from repro.verilog.parser import VerilogParseError, parse_verilog

#: Computed with the lexer that matched blanks and comments as tokens of their own.
EXPECTED = "e2c6994a5fc0af1abfc4eeb9e02f40873162fa90b789eb8af8725bdc40b60932"
EXPECTED_TEXTS = 1419

_MODULE = "module m(input [7:0] a, output [7:0] y);\n{body}\nendmodule\n"

# Line numbers after multi-line comments and blanks, an illegal character
# after a block comment, an unterminated ``/*`` (it lexes as ``/`` and ``*``),
# sized literals with blanks (and a newline) before the quote, and blanks or
# comments at the end of the text.
EDGES = [
    _MODULE.format(body="/* one\n two\n three */ `define X"),
    _MODULE.format(body="  assign y = a; // done\n\n  #"),
    _MODULE.format(body="  assign y = a; /* never closed"),
    _MODULE.format(body="  assign y = a;\n/* never closed\n\n"),
    _MODULE.format(body="  assign y = 8 'h3;"),
    _MODULE.format(body="  assign y = 8\n'h3 +;"),
    _MODULE.format(body="  assign y = 'sd5 + 8'b1010_x0z?;"),
    _MODULE.format(body="  assign y = a;") + "  \n\t\n",
    _MODULE.format(body="  assign y = a;") + "// trailing\n/* block\n */",
    _MODULE.format(body="  assign y = a;") + "/* trailing, never closed",
    "module m(input a, output y);\n\n  assign y = a;\n\n",
    "",
    " \n\t",
]


def verilog_corpus() -> list[str]:
    """Every text of the pinned set, in order, each once."""
    compiler = ChiselCompiler()
    texts: list[str] = []
    for top, source in _cases():
        result = compiler.compile(source, top=top)
        if result.success and result.verilog is not None:
            texts.append(result.verilog)
    for problem in build_default_registry():
        golden = compiler.compile(problem.golden_chisel).verilog
        texts.extend(fault.apply(golden) for fault in applicable_verilog_faults(golden))
    texts.extend(EDGES)
    return list(dict.fromkeys(texts))


def _outcome(text: str) -> str:
    try:
        return repr(parse_verilog(text))
    except VerilogParseError as exc:
        return f"VerilogParseError: {exc}"


def test_verilog_parse_digest():
    texts = verilog_corpus()
    assert not [text for text in texts if "===" in text or "!==" in text]
    digest = hashlib.sha256()
    for text in texts:
        digest.update(text.encode())
        digest.update(b"\0")
        digest.update(_outcome(text).encode())
        digest.update(b"\0")
    assert len(texts) == EXPECTED_TEXTS
    assert digest.hexdigest() == EXPECTED
