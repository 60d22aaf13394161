"""Lexer for the Chisel/Scala subset.

Produces a flat token stream; the parser is newline-sensitive (Scala statement
separation), so NEWLINE tokens are emitted for line breaks that can terminate
a statement.

One compiled master regex with a named group per token class scans the
source; line and column come from the offset of the current line's start.
Integer literals are ASCII ``[0-9]`` only (a non-ASCII digit is an illegal
character), while identifiers follow Unicode ``isalpha``/``isalnum`` rules.

The candidates of one problem differ in a few lines, so :func:`tokenize`
memoizes each lexed line by (line number, text, file) in the bounded
``chisel_lines`` cache and scans only the lines it has not seen.
"""

from __future__ import annotations

import enum
import re
from typing import NamedTuple

from repro.caching import InternTable, LruCache
from repro.diagnostics import ChiselError, SourceLocation


class TokenKind(enum.Enum):
    IDENT = "ident"
    INTEGER = "integer"
    STRING = "string"
    OPERATOR = "operator"
    PUNCT = "punct"
    KEYWORD = "keyword"
    NEWLINE = "newline"
    EOF = "eof"


KEYWORDS = {
    "class",
    "object",
    "extends",
    "with",
    "val",
    "var",
    "def",
    "new",
    "if",
    "else",
    "for",
    "while",
    "yield",
    "import",
    "package",
    "true",
    "false",
    "null",
    "override",
    "private",
    "protected",
    "implicit",
    "lazy",
    "case",
    "match",
    "return",
}

# Multi-character operators, longest first so maximal munch works.
_OPERATORS = [
    "<->",
    "<>",
    "===",
    "=/=",
    ":=",
    "=>",
    "<-",
    "->",
    "+&",
    "-&",
    "+%",
    "-%",
    "+=",
    "-=",
    "*=",
    "/=",
    "&=",
    "|=",
    "^=",
    "##",
    "==",
    "!=",
    "<=",
    ">=",
    "<<",
    ">>",
    "&&",
    "||",
    "=",
    "+",
    "-",
    "*",
    "/",
    "%",
    "<",
    ">",
    "&",
    "|",
    "^",
    "~",
    "!",
]

_PUNCT = "(){}[].,:;@"

# One match per token: the leading blanks are folded into each match, so they
# cost no iteration of their own.  They are possessive, so a trailing run is
# never backtracked into and re-read as an ``illegal`` character, and the
# final empty alternative ends the scan at the end of the source after any
# such run.  Alternatives are tried in order, so comments win over ``/``, the
# quote fallbacks only match where a complete string/comment does not, and an
# identifier is never taken for an operator.  ``ident`` accepts any word
# character; the tokenizer rejects a non-letter start such as ``²``.
_TOKEN_RE = re.compile(
    r"[ \t\r]*+(?:"
    r"(?P<newline>\n)"
    r"|(?P<comment>//[^\n]*|/\*.*?\*/)"
    r"|(?P<open_comment>/\*)"
    r'|(?P<string>"[^"\\]*(?:\\.[^"\\]*)*")'
    r'|(?P<open_string>")'
    r"|(?P<integer>0[xX][0-9a-fA-F_]*|[0-9][0-9_]*)"
    r"|(?P<ident>[\w$]+)"
    r"|(?P<operator>" + "|".join(map(re.escape, _OPERATORS)) + ")"
    r"|(?P<punct>[" + re.escape(_PUNCT) + "])"
    r"|(?P<illegal>.)"
    r"|\Z)",
    re.DOTALL,
)

# Enum member lookups are slow enough to show per token, so the loop reads
# these module constants instead.
_IDENT, _KEYWORD, _OPERATOR = TokenKind.IDENT, TokenKind.KEYWORD, TokenKind.OPERATOR
_NEWLINE, _STRING, _EOF = TokenKind.NEWLINE, TokenKind.STRING, TokenKind.EOF
_KIND_OF_GROUP = {
    "integer": TokenKind.INTEGER,
    "operator": TokenKind.OPERATOR,
    "punct": TokenKind.PUNCT,
}
_LEX_ERRORS = {
    "open_comment": "unterminated block comment",
    "open_string": "unterminated string literal",
}
_ESCAPE_RE = re.compile(r"\\(.)", re.DOTALL)
_ESCAPES = {"n": "\n", "t": "\t"}
_NOT_NEWLINE_RE = re.compile(r"[^\n]")


def _unescape(match: re.Match) -> str:
    escaped = match.group(1)
    return _ESCAPES.get(escaped, escaped)


class Token(NamedTuple):
    kind: TokenKind
    text: str
    location: SourceLocation

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Token({self.kind.value}, {self.text!r}, {self.location})"


# Token positions repeat across sources (the candidates of one problem share
# their layout), so locations are interned: a parse then allocates one object
# per token instead of two, which also cuts the garbage collections a sweep
# runs.  SourceLocation is frozen, so a shared instance is indistinguishable
# from a fresh one.  The table is registered as ``chisel_locations``, and
# ``_location`` is its C-level lookup.
_locations = InternTable(SourceLocation, 4096, name="chisel_locations")
_location = _locations.intern


#: Lexed lines by (line number, line text including its newline, file): the
#: line's tokens but the NEWLINE, its comment spans relative to the line start,
#: and its line-end NEWLINE token (the EOF token for a last line without one).
#: The reflection loop revises a candidate a few lines at a time, so the
#: sources of one sweep share almost all their lines: one seed-0
#: ``rechisel-sweep`` round (12 s of inputs) looks up 68,570 lines holding
#: 1,979 distinct keys, and a ``deep-verify`` round 6,734 holding 793.  The
#: bound keeps a whole round, at about 1.5 KB per entry.
_LINE_MEMO_SIZE = 2048
_LineEntry = tuple[tuple[Token, ...], tuple[tuple[int, int], ...], Token]
_line_memo: LruCache[_LineEntry] = LruCache(_LINE_MEMO_SIZE, name="chisel_lines")


def tokenize(
    source: str,
    file: str = "Main.scala",
    comments: list[tuple[int, int]] | None = None,
    cached: bool = True,
) -> list[Token]:
    """Tokenise Chisel/Scala ``source`` into a list ending with an EOF token.

    When ``comments`` is given, the ``(start, end)`` offsets of every comment
    are appended to it in source order (see :func:`blank_comments`).

    With ``cached`` the source is lexed in chunks cut at every newline outside
    a block comment or a string.  Every match of a chunk ends inside it, so
    its tokens depend only on its text, its first line number and ``file``:
    each line is looked up in the ``chisel_lines`` memo, and the scan resumes
    only at a miss, for one chunk, which is then memoized if it is that one
    line.  ``cached=False`` scans the whole source in one pass.  Both give the
    same tokens, comment spans and first error.
    """
    memo = _line_memo if cached else None
    tokens: list[Token] = []
    append = tokens.append
    spans = comments if comments is not None else []
    new_token = tuple.__new__
    size = len(source)
    pos = 0  # where the scan resumes: the start of a line
    line = 1
    after_newline = True  # no NEWLINE before the first token or after another
    while True:
        if memo is not None:
            while True:
                line_end = source.find("\n", pos) + 1 or size
                key = (line, source[pos:line_end], file)
                hit = memo.get(key)
                if hit is None:
                    break
                line_tokens, line_spans, last = hit
                if line_tokens:
                    tokens += line_tokens
                    after_newline = False
                if line_spans:
                    spans += [(pos + start, pos + end) for start, end in line_spans]
                if last.kind is _EOF:
                    append(last)
                    return tokens
                if not after_newline:
                    append(last)
                    after_newline = True
                line += 1
                pos = line_end
            first_token, first_span = len(tokens), len(spans)
        line_start = pos
        for match in _TOKEN_RE.finditer(source, pos):
            group = match.lastgroup
            if group is None:  # the end of the source, after any trailing blanks
                location = _location(line, size - line_start + 1, file)
                last = new_token(Token, (_EOF, "", location))
                # A chunk that reaches the end without a newline match is the
                # looked-up line if no newline follows ``pos``.
                if memo is not None and line_end == size:
                    memo.put(key, _line_entry(tokens, first_token, spans, first_span, pos, last))
                append(last)
                return tokens
            start, end = match.span(group)
            text = source[start:end]
            location = _location(line, start - line_start + 1, file)
            if group == "ident":
                if text in KEYWORDS:
                    kind = _KEYWORD
                elif text == "_":
                    kind = _OPERATOR
                elif text[0].isalpha() or text[0] in "_$":
                    kind = _IDENT
                else:
                    raise ChiselError.at(
                        f"illegal character {text[0]!r} in source", location, code="LEX"
                    )
            elif group in _KIND_OF_GROUP:
                kind = _KIND_OF_GROUP[group]
            elif group == "newline":
                line += 1
                line_start = end
                if memo is not None:
                    last = new_token(Token, (_NEWLINE, text, location))
                    # The chunk grew past the looked-up line when a block
                    # comment or a string spans its newline; then no lookup
                    # ever asks for it.
                    if end == line_end:
                        memo.put(key, _line_entry(tokens, first_token, spans, first_span, pos, last))
                    if not after_newline:
                        append(last)
                        after_newline = True
                    pos = end
                    break
                if after_newline:
                    continue
                kind = _NEWLINE
            elif group == "comment" or group == "string":
                breaks = text.count("\n")
                if breaks:
                    line += breaks
                    line_start = start + text.rindex("\n") + 1
                if group == "comment":
                    spans.append((start, end))
                    continue
                kind = _STRING
                text = text[1:-1]
                if "\\" in text:
                    text = _ESCAPE_RE.sub(_unescape, text)
            else:
                message = _LEX_ERRORS.get(group) or f"illegal character {text!r} in source"
                raise ChiselError.at(message, location, code="LEX")
            append(new_token(Token, (kind, text, location)))
            after_newline = kind is _NEWLINE


def _line_entry(
    tokens: list[Token], first_token: int, spans: list[tuple[int, int]], first_span: int,
    pos: int, last: Token,
) -> _LineEntry:
    """The memo entry of the line at ``pos``, whose tokens and spans start at the given indices."""
    relative = tuple((start - pos, end - pos) for start, end in spans[first_span:])
    return tuple(tokens[first_token:]), relative, last


def blank_comments(source: str, comments: list[tuple[int, int]]) -> str:
    """``source`` with every non-newline character of each comment blanked.

    Together with the comment spans :func:`tokenize` recorded, the result
    determines the token stream: outside the spans the text is unchanged, and
    the newlines kept inside block comments keep every later line number.
    """
    if not comments:
        return source
    pieces = []
    last = 0
    for start, end in comments:
        pieces.append(source[last:start])
        pieces.append(_NOT_NEWLINE_RE.sub(" ", source[start:end]))
        last = end
    pieces.append(source[last:])
    return "".join(pieces)
