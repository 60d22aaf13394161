"""Chisel-subset frontend: lexer, parser, AST and elaborator.

The frontend accepts a constrained but realistic subset of Chisel 3 (Scala
embedded), mirroring what the paper's LLMs emit for module-level problems:
``Module``/``RawModule`` classes, ``IO(new Bundle {...})`` port declarations,
``UInt``/``SInt``/``Bool``/``Vec`` types, ``Wire``/``WireDefault``/``Reg``/
``RegInit``/``RegNext`` state elements, ``when``/``elsewhen``/``otherwise``,
``switch``/``is``, Scala ``val``/``var``/``for``/``if`` (resolved at
elaboration time), ``Mux``, ``Cat``, ``Fill``, ``VecInit`` and the usual
operator set.  Elaboration executes the Scala-level program and produces a
FIRRTL circuit (:mod:`repro.firrtl`), raising Chisel-style diagnostics for the
error classes catalogued in Table II of the paper.
"""

from repro.chisel.elaborator import elaborate
from repro.chisel.lexer import Token, TokenKind, tokenize
from repro.chisel.parser import Parser, parse_source
from repro.diagnostics import ChiselError, Diagnostic, Severity

__all__ = [
    "ChiselError",
    "Diagnostic",
    "Severity",
    "Token",
    "TokenKind",
    "tokenize",
    "Parser",
    "parse_source",
    "elaborate",
]
