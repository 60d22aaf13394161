"""ChiselCompiler: Chisel source text → Verilog text + diagnostics.

Bundles the whole frontend (lex → parse → elaborate → FIRRTL passes → emit)
behind one call, the way the paper's Compiler step wraps ``sbt``/firtool.
Every failure mode is reported as a list of
:class:`~repro.diagnostics.Diagnostic` so the Reviewer can consume a uniform
error list regardless of which stage failed.

Each distinct source is compiled once, in two process-wide tiers shared by
every compiler instance and inherited by forked workers:

* ``chisel_compile`` holds the whole :class:`CompileResult` by exact source
  text (and top); a compile makes exactly one lookup here.
* On a miss the source is lexed once, reusing the lines the lexer's
  ``chisel_lines`` memo has seen.  A LEX failure is cached by text only.
  Otherwise ``chisel_tokens`` is looked up by the source with every comment
  blanked plus the comment spans, a key that determines the token stream,
  EOF coordinates included.  Comments reach neither a diagnostic nor the
  Verilog, so a revision that only rewrites a comment in place (the
  reflection loop's ``// revision N`` marker) shares the result without
  running the parser.  A revision that moves any token misses and runs the
  stages, which are uncached, so diagnostics always carry the candidate's
  own source coordinates.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.caching import LruCache, text_key
from repro.diagnostics import ChiselError, Diagnostic
from repro.chisel.elaborator import elaborate
from repro.chisel.lexer import Token, blank_comments, tokenize
from repro.chisel.parser import parse_source_cached
from repro.firrtl import ir
from repro.firrtl.pass_manager import PassManager
from repro.verilog.emitter import EmitterError, emit_verilog


def _emit_cached(circuit: ir.Circuit) -> str:
    """Uncached :func:`emit_verilog`, kept as the benchmark's layer boundary."""
    return emit_verilog(circuit)


# Compilation stages, reported so experiments can attribute errors.
STAGE_PARSE = "parse"
STAGE_ELABORATE = "elaborate"
STAGE_FIRRTL = "firrtl"
STAGE_EMIT = "emit"
STAGE_OK = "ok"


@dataclass
class CompileResult:
    """Outcome of compiling one Chisel source string."""

    success: bool
    verilog: str | None = None
    diagnostics: list[Diagnostic] = field(default_factory=list)
    stage: str = STAGE_OK

    @property
    def errors(self) -> list[Diagnostic]:
        return list(self.diagnostics)

    def render_feedback(self) -> str:
        """Render diagnostics the way sbt prints a failed compile."""
        if self.success:
            return "[success] Compilation succeeded"
        lines = [d.render() for d in self.diagnostics]
        lines.append("[error] (Compile / compileIncremental) Compilation failed")
        return "\n".join(lines)


#: Compile results by exact (top, source) text, shared by every compiler.
_compile_cache: LruCache[CompileResult] = LruCache(1024, name="chisel_compile")
#: The same results by (top, comment-blanked source, comment spans).
_token_cache: LruCache[CompileResult] = LruCache(1024, name="chisel_tokens")


class ChiselCompiler:
    """Compile Chisel source text to Verilog.

    Parameters
    ----------
    top:
        Optional top-module class name.  When omitted, the last class extending
        ``Module`` in the source is elaborated (matching how the benchmark
        specs name a single ``TopModule``).
    cached:
        Whether to go through the process-wide caches: the two compile tiers
        and the lexer's per-line ``chisel_lines`` memo.  ``False`` compiles
        every call from scratch and lexes every line.  Compilation is a pure
        function of the source text, and identical candidate Chisel recurs
        constantly across samples and iterations in the paper-scale sweeps,
        so hits are common.  Cached :class:`CompileResult` objects are shared
        — treat them as immutable.
    """

    def __init__(self, top: str | None = None, cached: bool = True):
        self.top = top
        self.cached = cached
        self.pass_manager = PassManager()

    def compile(self, source: str, top: str | None = None) -> CompileResult:
        top = top if top is not None else self.top
        if not self.cached:
            try:
                tokens = tokenize(source, cached=False)
            except ChiselError as exc:
                return _parse_failure(exc.diagnostic)
            return self._compile(tokens, top)
        key = text_key(top, source)
        result = _compile_cache.get(key)
        if result is not None:
            return result
        comments: list[tuple[int, int]] = []
        try:
            tokens = tokenize(source, comments=comments)
        except ChiselError as exc:
            return _compile_cache.put(key, _parse_failure(exc.diagnostic))
        token_key = text_key(top, blank_comments(source, comments), repr(comments))
        result = _token_cache.get(token_key)
        if result is None:
            result = _token_cache.put(token_key, self._compile(tokens, top))
        return _compile_cache.put(key, result)

    def _compile(self, tokens: list[Token], top: str | None) -> CompileResult:
        try:
            program = parse_source_cached(tokens)
        except ChiselError as exc:
            return _parse_failure(exc.diagnostic)
        except RecursionError:
            return _parse_failure(Diagnostic("source is too deeply nested to parse", code="PARSE"))

        try:
            circuit = elaborate(program, top)
        except ChiselError as exc:
            return CompileResult(False, diagnostics=[exc.diagnostic], stage=STAGE_ELABORATE)

        result = self.pass_manager.run_cached(circuit)
        if not result.ok:
            return CompileResult(False, diagnostics=list(result.diagnostics), stage=STAGE_FIRRTL)

        try:
            verilog = _emit_cached(result.circuit)
        except EmitterError as exc:
            return CompileResult(
                False, diagnostics=[Diagnostic(str(exc), code="EMIT")], stage=STAGE_EMIT
            )

        return CompileResult(True, verilog=verilog, stage=STAGE_OK)


def _parse_failure(diagnostic: Diagnostic) -> CompileResult:
    return CompileResult(False, diagnostics=[diagnostic], stage=STAGE_PARSE)
