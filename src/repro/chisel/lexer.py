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
from dataclasses import dataclass

from repro.chisel.diagnostics import ChiselError, SourceLocation


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

# Alternatives are tried in order, so comments win over ``/``, the quote
# fallbacks only match where a complete string/comment does not, and an
# identifier is never taken for an operator.  ``ident`` accepts any word
# character; the tokenizer rejects a non-letter start such as ``²``.
_TOKEN_RE = re.compile(
    r"(?P<newline>\n)"
    r"|(?P<ws>[ \t\r]+)"
    r"|(?P<comment>//[^\n]*|/\*.*?\*/)"
    r"|(?P<open_comment>/\*)"
    r'|(?P<string>"[^"\\]*(?:\\.[^"\\]*)*")'
    r'|(?P<open_string>")'
    r"|(?P<integer>0[xX][0-9a-fA-F_]*|[0-9][0-9_]*)"
    r"|(?P<ident>[\w$]+)"
    r"|(?P<operator>" + "|".join(map(re.escape, _OPERATORS)) + ")"
    r"|(?P<punct>[" + re.escape(_PUNCT) + "])"
    r"|(?P<illegal>.)",
    re.DOTALL,
)

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


def _unescape(match: re.Match) -> str:
    escaped = match.group(1)
    return _ESCAPES.get(escaped, escaped)


@dataclass(frozen=True)
class Token:
    kind: TokenKind
    text: str
    location: SourceLocation

    def is_op(self, *ops: str) -> bool:
        return self.kind is TokenKind.OPERATOR and self.text in ops

    def is_punct(self, *puncts: str) -> bool:
        return self.kind is TokenKind.PUNCT and self.text in puncts

    def is_keyword(self, *words: str) -> bool:
        return self.kind is TokenKind.KEYWORD and self.text in words

    def is_ident(self, *names: str) -> bool:
        if self.kind is not TokenKind.IDENT:
            return False
        return not names or self.text in names

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Token({self.kind.value}, {self.text!r}, {self.location})"


# Token positions repeat across sources (the candidates of one problem share
# their layout), so locations are interned: a parse then allocates one object
# per token instead of two, which also cuts the garbage collections a sweep
# runs.  SourceLocation is frozen, so a shared instance is indistinguishable
# from a fresh one.
_location = functools.lru_cache(maxsize=4096)(SourceLocation)


def tokenize(source: str, file: str = "Main.scala") -> list[Token]:
    """Tokenise Chisel/Scala ``source`` into a list ending with an EOF token."""
    tokens: list[Token] = []
    append = tokens.append
    line = 1
    line_start = 0
    after_newline = True  # no NEWLINE before the first token or after another
    for match in _TOKEN_RE.finditer(source):
        group = match.lastgroup
        if group == "ws":
            continue
        start = match.start()
        location = _location(line, start - line_start + 1, file)
        text = match.group()
        if group == "newline":
            line += 1
            line_start = start + 1
            if after_newline:
                continue
            kind = TokenKind.NEWLINE
        elif group == "ident":
            if text in KEYWORDS:
                kind = TokenKind.KEYWORD
            elif text == "_":
                kind = TokenKind.OPERATOR
            elif text[0].isalpha() or text[0] in "_$":
                kind = TokenKind.IDENT
            else:
                raise ChiselError.at(
                    f"illegal character {text[0]!r} in source", location, code="LEX"
                )
        elif group in _KIND_OF_GROUP:
            kind = _KIND_OF_GROUP[group]
        elif group == "comment" or group == "string":
            breaks = text.count("\n")
            if breaks:
                line += breaks
                line_start = start + text.rindex("\n") + 1
            if group == "comment":
                continue
            kind = TokenKind.STRING
            text = _ESCAPE_RE.sub(_unescape, text[1:-1])
        else:
            message = _LEX_ERRORS.get(group) or f"illegal character {text!r} in source"
            raise ChiselError.at(message, location, code="LEX")
        append(Token(kind, text, location))
        after_newline = kind is TokenKind.NEWLINE
    append(Token(TokenKind.EOF, "", _location(line, len(source) - line_start + 1, file)))
    return tokens
