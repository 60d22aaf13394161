"""Lexer for the Chisel/Scala subset.

Produces a flat token stream; the parser is newline-sensitive (Scala statement
separation), so NEWLINE tokens are emitted for line breaks that can terminate
a statement.

One compiled master regex with a named group per token class scans the
source; line and column come from the offset of the current line's start.
Integer literals are ASCII ``[0-9]`` only (a non-ASCII digit is an illegal
character), while identifiers follow Unicode ``isalpha``/``isalnum`` rules.
"""

from __future__ import annotations

import enum
import functools
import re
from typing import NamedTuple

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
_NEWLINE, _STRING = TokenKind.NEWLINE, TokenKind.STRING
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
# from a fresh one.
_location = functools.lru_cache(maxsize=4096)(SourceLocation)


def tokenize(
    source: str, file: str = "Main.scala", comments: list[tuple[int, int]] | None = None
) -> list[Token]:
    """Tokenise Chisel/Scala ``source`` into a list ending with an EOF token.

    When ``comments`` is given, the ``(start, end)`` offsets of every comment
    are appended to it in source order (see :func:`blank_comments`).
    """
    tokens: list[Token] = []
    append = tokens.append
    new_token = tuple.__new__
    line = 1
    line_start = 0
    after_newline = True  # no NEWLINE before the first token or after another
    for match in _TOKEN_RE.finditer(source):
        group = match.lastgroup
        if group is None:  # the end of the source, after any trailing blanks
            break
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
            if after_newline:
                continue
            kind = _NEWLINE
        elif group == "comment" or group == "string":
            breaks = text.count("\n")
            if breaks:
                line += breaks
                line_start = start + text.rindex("\n") + 1
            if group == "comment":
                if comments is not None:
                    comments.append((start, end))
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
    location = _location(line, len(source) - line_start + 1, file)
    append(new_token(Token, (TokenKind.EOF, "", location)))
    return tokens


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
