"""The Chisel frontend agrees with the character-at-a-time reference.

``tests/chisel_reference.py`` keeps the lexer and the parser (one method per
binary precedence level) that the master-regex lexer and the
precedence-climbing parser replaced.  Token streams, comment spans, ASTs and
diagnostics must match it on every registry candidate, on the fuzz corpus and
on random Chisel-ish text, with the lexer's ``chisel_lines`` memo bypassed,
cleared, warm and filled by other sources.  The one intended difference:
integer literals are ASCII only, so a non-ASCII digit such as ``²`` is an
illegal character instead of an integer token.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chisel_reference import ReferenceParser, frontend_corpus, reference_tokenize
from repro.caching import cache_stats, clear_registered_caches
from repro.chisel.lexer import blank_comments, tokenize
from repro.chisel.parser import Parser, parse_source
from repro.diagnostics import ChiselError
from repro.toolchain.compiler import STAGE_OK, STAGE_PARSE, ChiselCompiler

CORPUS = frontend_corpus()


def _outcome(function, *args):
    try:
        return ("ok", function(*args))
    except ChiselError as exc:
        return ("error", exc.diagnostic)


def _lexed(lex, source: str, **options):
    """Tokens and comment spans of ``source``, or the first diagnostic."""
    comments: list[tuple[int, int]] = []
    try:
        return ("ok", lex(source, comments=comments, **options), comments)
    except ChiselError as exc:
        return ("error", exc.diagnostic)


def assert_frontends_agree(source: str) -> None:
    """Same tokens (kind, text, line, column), comment spans, AST and diagnostics.

    The lexer runs without the line memo, with it as it stands and with every
    line of ``source`` memoized.
    """
    reference = _lexed(reference_tokenize, source)
    assert _lexed(tokenize, source, cached=False) == reference
    assert _lexed(tokenize, source) == reference
    assert _lexed(tokenize, source) == reference
    if reference[0] == "ok":
        program = _outcome(Parser(reference[1]).parse_program)
        reference_program = _outcome(ReferenceParser(reference[1]).parse_program)
        assert program == reference_program


@pytest.mark.cache_mutating
def test_frontend_matches_reference_on_corpus():
    """Every source alone after the memo is cleared, then again after the
    memo was filled by the whole corpus in a shuffled order."""
    assert len(CORPUS) > 2000
    mismatches = []
    for source in CORPUS:
        clear_registered_caches()
        try:
            assert_frontends_agree(source)
        except AssertionError:
            mismatches.append(source)
    assert not mismatches, mismatches[0]
    for source in random.Random(0).sample(CORPUS, len(CORPUS)):
        _lexed(tokenize, source)
    lookups = cache_stats()["chisel_lines"]
    mismatches = [
        source
        for source in CORPUS
        if _lexed(tokenize, source) != _lexed(reference_tokenize, source)
    ]
    assert not mismatches, mismatches[0]
    assert cache_stats()["chisel_lines"]["hits"] > lookups["hits"]


# Fragments that exercise every lexer branch and its edges: operators that
# share prefixes, ``_``/``$`` identifiers, escapes, unterminated strings and
# comments, ``\r``/tab/newline handling, hex with and without digits, and
# non-ASCII letters.  Non-ASCII digits are left out (the intended difference).
_FRAGMENTS = [
    *"<>=/!+-*%&|^~#:;.,(){}[]@_$\"\\' \t\r\n",
    "<->", "===", "=/=", ":=", "=>", "<-", "+&", "-%", "##", "&&", "||", "<<",
    "//", "/*", "*/", '\\"', "\\n", "\\t", "\\\\",
    "0", "7", "10", "0x", "0xF_f", "0X", "1_000", ".U", ".W", "(8.W)",
    "a", "io", "x1", "_tmp", "$1", "é", "λ", "Ωmega", "ß",
    "val ", "var ", "class ", "extends ", "Module", "when", ".otherwise", ".elsewhen",
    "if ", "else ", "for ", "until", "to", "min", "new ", "Bundle", "switch", "is",
]  # fmt: skip


@settings(max_examples=400, deadline=None)
@given(st.lists(st.sampled_from(_FRAGMENTS), max_size=30).map("".join))
def test_frontend_matches_reference_on_random_text(source):
    assert_frontends_agree(source)


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.sampled_from(_FRAGMENTS), max_size=12).map("".join),
    st.lists(st.sampled_from(_FRAGMENTS), max_size=12).map("".join),
)
def test_frontend_matches_reference_inside_a_module(head, tail):
    source = f"class T extends Module {{\n  val x = {head}\n  {tail}\n}}\n"
    assert_frontends_agree(source)


# Edges of the one-match-per-token lexer, which folds leading blanks into the
# following token's match: blanks at EOF and before an error, comment markers
# inside strings, comments that end the source or span lines, and ``:`` next
# to ``:=``.
_LEXER_EDGES = [
    "val x = 1   ",
    "val x = 1 \t\r ",
    "val x = 1\n  \n\t",
    "   ",
    "",
    "val x = 1  #",
    "val x =\t\t`",
    "  \n  \t#",
    'val s = "a // not a comment"',
    'val s = "/* nor this */" // but this is',
    'val s = "a\\"// comment" + 1',
    "val x = /* never closed",
    "val x = 1 /* never closed\n still open",
    "val x = 1 /* one */ /* two",
    "/* a\nb\n\nc */ val x = 1\n/*\n*/val y = 2",
    "val x = 1 /* spans\n lines */ + 2\nval y = 3",
    "a := b\nc : d\ne :: f\ng :== h\ni:=j:k",
    "val x: UInt = 1.U\nx:=y",
    # Line memo edges: a string that spans lines, CRLF line ends, a last line
    # with and without a newline, runs of blank and comment-only lines (one
    # NEWLINE each), and the same line text at two line numbers.
    'val s = "two\nlines" + x\nval t = "a\n\nb"\n',
    "val x = 1\r\nval y = 2\r\n\r\nval z = x\r\n",
    "val x = 1\nval y = 2",
    "val x = 1\nval y = 2\n",
    "val x = 1\n\n  \n// one\n\t// two\n/* three */\n\nval y = 2\n\n\n",
    "\n\n// only comments\n\n",
    "val x = 1\nval x = 1\n  val x = 1\nval x = 1",
]


@pytest.mark.parametrize("source", _LEXER_EDGES)
def test_lexer_edges_match_reference(source):
    assert_frontends_agree(source)


@pytest.mark.parametrize(
    "source, message, column",
    [
        ("val x = 1  #", "illegal character '#' in source", 12),
        ("  \t #", "illegal character '#' in source", 5),
        ("val x = /* never closed", "unterminated block comment", 9),
        ('val s =  "open', "unterminated string literal", 10),
    ],
)
def test_lex_errors_point_past_the_blanks(source, message, column):
    with pytest.raises(ChiselError) as info:
        tokenize(source)
    assert info.value.diagnostic.message == message
    assert info.value.diagnostic.location.column == column


@pytest.mark.parametrize(
    "source",
    [
        "val x = 1\nval y = 2\nval z = 1  #",
        "val x = 1\n\n// note\nval s =  \"open",
        "val x = 1 // c\r\n/* never closed",
        "val x = 1\nval y = 2 /* spans\n lines */ + 1\nval z = 2²",
    ],
)
def test_lex_error_after_memoized_lines_matches_reference(source):
    tokenize(source[: source.rindex("\n") + 1])  # memoizes every line before the last
    diagnostic = _lexed(tokenize, source)
    assert diagnostic[0] == "error"
    assert diagnostic == _lexed(tokenize, source, cached=False)
    if "²" not in source:  # the reference takes a non-ASCII digit for a digit
        assert diagnostic == _lexed(reference_tokenize, source)


@pytest.mark.parametrize(
    "grown",
    ["val x = 1 /* a\n b */ y", 'val s = "a\nb"', "/* a\n*/", "val x = 1 /* a\n b */ + 2\n"],
)
def test_a_line_whose_newline_a_comment_or_string_spans_is_not_memoized(grown):
    """The first line of a chunk that grows past its newline is never a memo
    entry, so a source that goes on differently after it lexes afresh."""
    for source in (grown, grown + "\nval z = 2", grown + " + 3", grown[: grown.index("\n") + 1]):
        assert _lexed(tokenize, source) == _lexed(reference_tokenize, source), source


@pytest.mark.cache_mutating
def test_a_one_line_revision_lexes_one_line():
    source = CORPUS[0]
    tokenize(source)
    revised = source.replace("\n", "\n// revised\n", 1)
    before = cache_stats()["chisel_lines"]
    assert _lexed(tokenize, revised) == _lexed(tokenize, revised, cached=False)
    after = cache_stats()["chisel_lines"]
    # The inserted line misses and shifts every later line to a new key.
    assert after["misses"] - before["misses"] == source.count("\n") + 1
    revised = source.replace("\n", " // revised\n", 1)
    before = after
    tokenize(revised)
    after = cache_stats()["chisel_lines"]
    assert after["misses"] - before["misses"] == 1
    assert after["hits"] - before["hits"] == source.count("\n")


def test_comment_spans_are_recorded_in_source_order():
    source = 'val s = "// no" // one\n/* two\n */ x'
    comments = []
    tokenize(source, comments=comments)
    assert [source[start:end] for start, end in comments] == ["// one", "/* two\n */"]
    assert blank_comments(source, comments) == 'val s = "// no"       \n      \n    x'


@pytest.mark.parametrize("source", ["val x = 2²", "val x = 1²", "val y = ٣"])
def test_non_ascii_digits_are_illegal_characters(source):
    column = next(i for i, ch in enumerate(source) if ch.isdigit() and not ch.isascii()) + 1
    with pytest.raises(ChiselError) as info:
        tokenize(source)
    assert info.value.diagnostic.code == "LEX"
    assert info.value.diagnostic.message.startswith("illegal character")
    assert info.value.diagnostic.location.column == column


def test_non_ascii_letters_and_digits_continue_identifiers():
    tokens = tokenize("val λx² = é1")
    assert [t.text for t in tokens[:4]] == ["val", "λx²", "=", "é1"]


_MODULE = """class TopModule extends Module {{
  val io = IO(new Bundle {{ val out = Output(UInt(8.W)) }})
  io.out := {value}
}}
"""


@pytest.mark.parametrize(
    "literal, message, column",
    [
        ("0x.U", "malformed integer literal '0x'", 13),
        ("0x_.U", "malformed integer literal '0x_'", 13),
        ("0xG.U", "malformed integer literal '0x'", 13),
        ("2².U", "illegal character '²' in source", 14),
    ],
)
def test_malformed_integer_literals_are_parse_diagnostics(literal, message, column):
    source = _MODULE.format(value=literal)
    lines = cache_stats()["chisel_lines"]
    result = ChiselCompiler(cached=False).compile(source)
    with pytest.raises(ChiselError):
        parse_source(source)
    assert cache_stats()["chisel_lines"] == lines  # the uncached frontends skip the memo
    assert not result.success and result.stage == STAGE_PARSE
    diagnostic = result.diagnostics[0]
    assert diagnostic.message == message
    assert (diagnostic.location.line, diagnostic.location.column) == (3, column)


@pytest.mark.parametrize("depth", [40, 3000])
def test_deeply_nested_expression_compiles_or_reports_parse(depth):
    value = "(" * depth + "1.U" + " + 1.U)" * depth
    result = ChiselCompiler(cached=False).compile(_MODULE.format(value=value))
    if result.success:
        assert result.stage == STAGE_OK
    else:
        assert result.stage == STAGE_PARSE
        assert result.diagnostics[0].message == "source is too deeply nested to parse"
    if depth == 40:
        assert result.success, result.render_feedback()
