"""Reference Chisel frontend: the character-at-a-time lexer and ladder parser.

Test-only oracle for :mod:`repro.chisel.lexer` and :mod:`repro.chisel.parser`.
It is the frontend as it was before the master-regex lexer and the
precedence-climbing parser replaced it, kept so the equivalence tests can
check token streams, ASTs and diagnostics against it, and so the frontend
throughput benchmark has a baseline to beat.  Two bug fixes made alongside
are applied here too, so they are not reported as differences: truncated
input stops the bracket-skipping loops with a PARSE diagnostic instead of
spinning at EOF, and a malformed integer literal such as ``0x.U`` is a PARSE
diagnostic instead of a ``ValueError``.  The placeholder-lambda helpers and
the operator sets are shared with :mod:`repro.chisel.parser`.  The parser
here reads the kind/text predicates of :class:`ReferenceToken`; the
frontend's parser dispatches on token tags and its ``Token`` has none.
"""

from __future__ import annotations

import json
import os

from repro.chisel import ast
from repro.chisel.lexer import KEYWORDS, Token, TokenKind
from repro.chisel.parser import (
    _NAMED_INFIX,
    _UNARY_OPS,
    _count_placeholders,
    _replace_placeholders,
)
from repro.diagnostics import ChiselError, SourceLocation

_OPERATORS = [
    "<->", "<>", "===", "=/=", ":=", "=>", "<-", "->", "+&", "-&", "+%", "-%",
    "+=", "-=", "*=", "/=", "&=", "|=", "^=", "##", "==", "!=", "<=", ">=",
    "<<", ">>", "&&", "||", "=", "+", "-", "*", "/", "%", "<", ">", "&", "|",
    "^", "~", "!", "_",
]  # fmt: skip

_PUNCT = "(){}[].,:;@"


class ReferenceToken(Token):
    """A :class:`~repro.chisel.lexer.Token` with the predicates this parser reads.

    It compares equal to the frontend's token of the same kind, text and
    location (both are plain tuples).
    """

    __slots__ = ()

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


class ReferenceLexer:
    """Tokenise Chisel/Scala source text one character at a time.

    ``comments`` collects the ``(start, end)`` offsets of every comment lexed.
    """

    def __init__(self, source: str, file: str = "Main.scala"):
        self.source = source
        self.file = file
        self.pos = 0
        self.line = 1
        self.column = 1
        self.comments: list[tuple[int, int]] = []

    def _location(self) -> SourceLocation:
        return SourceLocation(self.line, self.column, self.file)

    def _peek(self, offset: int = 0) -> str:
        index = self.pos + offset
        if index >= len(self.source):
            return ""
        return self.source[index]

    def _advance(self, count: int = 1) -> str:
        text = self.source[self.pos : self.pos + count]
        for ch in text:
            if ch == "\n":
                self.line += 1
                self.column = 1
            else:
                self.column += 1
        self.pos += count
        return text

    def tokenize(self) -> list[Token]:
        tokens: list[Token] = []
        while self.pos < len(self.source):
            ch = self._peek()
            if ch == "\n":
                loc = self._location()
                self._advance()
                if tokens and tokens[-1].kind is not TokenKind.NEWLINE:
                    tokens.append(ReferenceToken(TokenKind.NEWLINE, "\n", loc))
                continue
            if ch in " \t\r":
                self._advance()
                continue
            if ch == "/" and self._peek(1) == "/":
                start = self.pos
                while self.pos < len(self.source) and self._peek() != "\n":
                    self._advance()
                self.comments.append((start, self.pos))
                continue
            if ch == "/" and self._peek(1) == "*":
                self._lex_block_comment()
                continue
            if ch == '"':
                tokens.append(self._lex_string())
                continue
            if ch.isdigit():
                tokens.append(self._lex_number())
                continue
            if ch.isalpha() or ch == "_" or ch == "$":
                tokens.append(self._lex_ident())
                continue
            op = self._match_operator()
            if op is not None:
                tokens.append(op)
                continue
            if ch in _PUNCT:
                loc = self._location()
                self._advance()
                tokens.append(ReferenceToken(TokenKind.PUNCT, ch, loc))
                continue
            raise ChiselError.at(
                f"illegal character {ch!r} in source", self._location(), code="LEX"
            )
        tokens.append(ReferenceToken(TokenKind.EOF, "", self._location()))
        return tokens

    def _lex_block_comment(self) -> None:
        start = self._location()
        offset = self.pos
        self._advance(2)
        while self.pos < len(self.source):
            if self._peek() == "*" and self._peek(1) == "/":
                self._advance(2)
                self.comments.append((offset, self.pos))
                return
            self._advance()
        raise ChiselError.at("unterminated block comment", start, code="LEX")

    def _lex_string(self) -> Token:
        loc = self._location()
        self._advance()  # opening quote
        chars: list[str] = []
        while True:
            ch = self._peek()
            if ch == "":
                raise ChiselError.at("unterminated string literal", loc, code="LEX")
            if ch == '"':
                self._advance()
                break
            if ch == "\\":
                self._advance()
                escaped = self._advance()
                mapping = {"n": "\n", "t": "\t", '"': '"', "\\": "\\"}
                chars.append(mapping.get(escaped, escaped))
                continue
            chars.append(self._advance())
        return ReferenceToken(TokenKind.STRING, "".join(chars), loc)

    def _lex_number(self) -> Token:
        loc = self._location()
        chars: list[str] = []
        if self._peek() == "0" and self._peek(1) in "xX":
            chars.append(self._advance())
            chars.append(self._advance())
            while self._peek() and (self._peek() in "0123456789abcdefABCDEF_"):
                chars.append(self._advance())
        else:
            while self._peek() and (self._peek().isdigit() or self._peek() == "_"):
                chars.append(self._advance())
        return ReferenceToken(TokenKind.INTEGER, "".join(chars), loc)

    def _lex_ident(self) -> Token:
        loc = self._location()
        chars: list[str] = []
        while self._peek() and (self._peek().isalnum() or self._peek() in "_$"):
            chars.append(self._advance())
        text = "".join(chars)
        if text == "_":
            return ReferenceToken(TokenKind.OPERATOR, "_", loc)
        kind = TokenKind.KEYWORD if text in KEYWORDS else TokenKind.IDENT
        return ReferenceToken(kind, text, loc)

    def _match_operator(self) -> Token | None:
        loc = self._location()
        for op in _OPERATORS:
            if self.source.startswith(op, self.pos):
                self._advance(len(op))
                return ReferenceToken(TokenKind.OPERATOR, op, loc)
        return None


class ReferenceParser:
    """The recursive-descent parser with one method per binary precedence level."""

    def __init__(self, tokens: list[Token]):
        self.tokens = tokens
        self.pos = 0
        self._placeholder_counter = 0

    # ------------------------------------------------------------------ utils

    def _peek(self, offset: int = 0) -> Token:
        index = min(self.pos + offset, len(self.tokens) - 1)
        return self.tokens[index]

    def _peek_skipping_newlines(self, offset: int = 0) -> Token:
        index = self.pos
        skipped = 0
        while index < len(self.tokens):
            token = self.tokens[index]
            if token.kind is TokenKind.NEWLINE:
                index += 1
                continue
            if skipped == offset:
                return token
            skipped += 1
            index += 1
        return self.tokens[-1]

    def _advance(self) -> Token:
        token = self.tokens[self.pos]
        if self.pos < len(self.tokens) - 1:
            self.pos += 1
        return token

    def _advance_before_eof(self, context: str) -> Token:
        if self._peek().kind is TokenKind.EOF:
            raise self._error(f"unexpected end of file in {context}")
        return self._advance()

    def _skip_newlines(self) -> None:
        while self._peek().kind is TokenKind.NEWLINE or self._peek().is_punct(";"):
            self._advance()

    def _error(self, message: str, token: Token | None = None) -> ChiselError:
        token = token or self._peek()
        return ChiselError.at(message, token.location, code="PARSE")

    def _expect_punct(self, punct: str) -> Token:
        token = self._peek()
        if not token.is_punct(punct):
            raise self._error(f"expected {punct!r} but found {token.text!r}")
        return self._advance()

    def _expect_op(self, op: str) -> Token:
        token = self._peek()
        if not token.is_op(op):
            raise self._error(f"expected {op!r} but found {token.text!r}")
        return self._advance()

    def _expect_ident(self) -> Token:
        token = self._peek()
        if token.kind is not TokenKind.IDENT:
            raise self._error(f"expected identifier but found {token.text!r}")
        return self._advance()

    # ------------------------------------------------------------- top level

    def parse_program(self) -> ast.Program:
        imports: list[str] = []
        classes: list[ast.ClassDef] = []
        start = self._peek().location
        self._skip_newlines()
        while self._peek().kind is not TokenKind.EOF:
            token = self._peek()
            if token.is_keyword("import"):
                imports.append(self._parse_import())
            elif token.is_keyword("package"):
                self._skip_line()
            elif token.is_keyword("class"):
                classes.append(self._parse_class())
            elif token.is_keyword("object"):
                classes.append(self._parse_object())
            else:
                raise self._error(
                    f"expected class or import at top level but found {token.text!r}"
                )
            self._skip_newlines()
        return ast.Program(start, imports, classes)

    def _skip_line(self) -> None:
        while self._peek().kind not in (TokenKind.NEWLINE, TokenKind.EOF):
            self._advance()

    def _parse_import(self) -> str:
        self._advance()  # import
        parts: list[str] = []
        while self._peek().kind not in (TokenKind.NEWLINE, TokenKind.EOF):
            parts.append(self._advance().text)
        return "".join(parts)

    def _parse_class(self) -> ast.ClassDef:
        loc = self._advance().location  # class
        name = self._expect_ident().text
        params: list[ast.Param] = []
        if self._peek().is_punct("("):
            params = self._parse_param_list()
        parents: list[str] = []
        if self._peek().is_keyword("extends"):
            self._advance()
            parents.append(self._parse_type_name())
            while self._peek().is_keyword("with"):
                self._advance()
                parents.append(self._parse_type_name())
        body: list[ast.Stmt] = []
        self._skip_newlines()
        if self._peek().is_punct("{"):
            body = self._parse_block()
        return ast.ClassDef(loc, name, params, parents, body)

    def _parse_object(self) -> ast.ClassDef:
        loc = self._advance().location  # object
        name = self._expect_ident().text
        parents: list[str] = []
        if self._peek().is_keyword("extends"):
            self._advance()
            parents.append(self._parse_type_name())
        self._skip_newlines()
        body: list[ast.Stmt] = []
        if self._peek().is_punct("{"):
            body = self._parse_block()
        return ast.ClassDef(loc, name, [], parents, body)

    def _parse_type_name(self) -> str:
        name = self._expect_ident().text
        # Constructor arguments on the parent (``extends Module``) and type
        # parameters are accepted and discarded.
        if self._peek().is_punct("("):
            depth = 0
            while True:
                token = self._advance_before_eof("parent arguments")
                if token.is_punct("("):
                    depth += 1
                elif token.is_punct(")"):
                    depth -= 1
                    if depth == 0:
                        break
        return name

    def _parse_param_list(self) -> list[ast.Param]:
        self._expect_punct("(")
        params: list[ast.Param] = []
        self._skip_newlines()
        while not self._peek().is_punct(")"):
            while self._peek().is_keyword("val", "var", "implicit", "override"):
                self._advance()
            name = self._expect_ident().text
            type_annotation = None
            default = None
            if self._peek().is_punct(":"):
                self._advance()
                type_annotation = self._parse_type_annotation()
            if self._peek().is_op("="):
                self._advance()
                default = self.parse_expression()
            params.append(ast.Param(name, type_annotation, default))
            if self._peek().is_punct(","):
                self._advance()
                self._skip_newlines()
        self._expect_punct(")")
        return params

    def _parse_type_annotation(self) -> str:
        parts: list[str] = [self._expect_ident().text]
        if self._peek().is_punct("["):
            depth = 0
            while True:
                token = self._advance_before_eof("type arguments")
                parts.append(token.text)
                if token.is_punct("["):
                    depth += 1
                elif token.is_punct("]"):
                    depth -= 1
                    if depth == 0:
                        break
        return "".join(parts)

    # ------------------------------------------------------------ statements

    def _parse_block(self) -> list[ast.Stmt]:
        self._expect_punct("{")
        stmts: list[ast.Stmt] = []
        self._skip_newlines()
        while not self._peek().is_punct("}"):
            if self._peek().kind is TokenKind.EOF:
                raise self._error("unexpected end of file inside block (missing '}')")
            stmts.append(self.parse_statement())
            self._skip_newlines()
        self._expect_punct("}")
        return stmts

    def parse_statement(self) -> ast.Stmt:
        self._skip_newlines()
        token = self._peek()
        if token.is_keyword("val", "var", "lazy"):
            return self._parse_val_def()
        if token.is_keyword("for"):
            return self._parse_for()
        if token.is_keyword("if"):
            return self._parse_if_statement()
        if token.is_keyword("import"):
            self._parse_import()
            return ast.ExprStmt(token.location, ast.BoolLit(token.location, True))
        if token.is_keyword("def"):
            raise ChiselError.at(
                "method definitions (def) are not supported inside modules in this "
                "Chisel subset; inline the logic instead",
                token.location,
                code="PARSE",
            )
        if token.is_ident("when"):
            return self._parse_when()
        if token.is_ident("switch"):
            return self._parse_switch()
        if token.is_ident("withClock", "withReset", "withClockAndReset"):
            return self._parse_with_clock()
        return self._parse_expression_statement()

    def _parse_with_clock(self) -> ast.Stmt:
        token = self._advance()
        self._expect_punct("(")
        first = self.parse_expression()
        second = None
        if self._peek().is_punct(","):
            self._advance()
            second = self.parse_expression()
        self._expect_punct(")")
        self._skip_newlines()
        body = self._parse_block_or_single()
        if token.text == "withClock":
            return ast.WithClockStmt(token.location, first, None, body)
        if token.text == "withReset":
            return ast.WithClockStmt(token.location, None, first, body)
        return ast.WithClockStmt(token.location, first, second, body)

    def _parse_val_def(self) -> ast.Stmt:
        first = self._advance()
        mutable = first.text == "var"
        if first.text == "lazy":
            self._advance()  # val
        name_token = self._expect_ident()
        type_annotation = None
        if self._peek().is_punct(":"):
            self._advance()
            type_annotation = self._parse_type_annotation()
        self._expect_op("=")
        value = self.parse_expression()
        return ast.ValDef(first.location, name_token.text, value, mutable, type_annotation)

    def _parse_for(self) -> ast.Stmt:
        loc = self._advance().location  # for
        self._expect_punct("(")
        variable = self._expect_ident().text
        self._expect_op("<-")
        iterable = self.parse_expression()
        self._expect_punct(")")
        self._skip_newlines()
        body = self._parse_block_or_single()
        return ast.ForStmt(loc, variable, iterable, body)

    def _parse_if_statement(self) -> ast.Stmt:
        loc = self._advance().location  # if
        self._expect_punct("(")
        condition = self.parse_expression()
        self._expect_punct(")")
        self._skip_newlines()
        then_body = self._parse_block_or_single()
        else_body: list[ast.Stmt] = []
        if self._peek_skipping_newlines().is_keyword("else"):
            self._skip_newlines()
            self._advance()
            self._skip_newlines()
            if self._peek().is_keyword("if"):
                else_body = [self._parse_if_statement()]
            else:
                else_body = self._parse_block_or_single()
        return ast.IfStmt(loc, condition, then_body, else_body)

    def _parse_block_or_single(self) -> list[ast.Stmt]:
        if self._peek().is_punct("{"):
            return self._parse_block()
        return [self.parse_statement()]

    def _parse_when(self) -> ast.Stmt:
        loc = self._peek().location
        branches: list[ast.WhenBranch] = []
        self._advance()  # when
        self._expect_punct("(")
        condition = self.parse_expression()
        self._expect_punct(")")
        self._skip_newlines()
        body = self._parse_block()
        branches.append(ast.WhenBranch(condition, body))
        while True:
            next_token = self._peek_skipping_newlines()
            if not next_token.is_punct("."):
                break
            follow = self._peek_after_dot()
            if follow not in ("elsewhen", "otherwise"):
                break
            self._skip_newlines()
            self._advance()  # '.'
            keyword = self._advance().text
            if keyword == "elsewhen":
                self._expect_punct("(")
                cond = self.parse_expression()
                self._expect_punct(")")
                self._skip_newlines()
                branches.append(ast.WhenBranch(cond, self._parse_block()))
            else:  # otherwise
                if self._peek().is_punct("("):
                    # ``.otherwise() { ... }`` is not valid Chisel; surface it
                    # as a parse error the same way scalac would.
                    raise self._error(
                        "otherwise does not take arguments", self._peek()
                    )
                self._skip_newlines()
                branches.append(ast.WhenBranch(None, self._parse_block()))
                break
        return ast.WhenStmt(loc, branches)

    def _peek_after_dot(self) -> str:
        index = self.pos
        while index < len(self.tokens) and self.tokens[index].kind is TokenKind.NEWLINE:
            index += 1
        if index < len(self.tokens) and self.tokens[index].is_punct("."):
            index += 1
            if index < len(self.tokens):
                return self.tokens[index].text
        return ""

    def _parse_switch(self) -> ast.Stmt:
        loc = self._advance().location  # switch
        self._expect_punct("(")
        subject = self.parse_expression()
        self._expect_punct(")")
        self._skip_newlines()
        if not self._peek().is_punct("{") and not self._peek().is_punct("("):
            raise self._error("expected '{' after switch(...)")
        open_punct = self._advance().text
        close_punct = "}" if open_punct == "{" else ")"
        cases: list[ast.SwitchCase] = []
        self._skip_newlines()
        while not self._peek().is_punct(close_punct):
            if self._peek().kind is TokenKind.EOF:
                raise self._error("unexpected end of file inside switch block")
            cases.append(self._parse_switch_case())
            self._skip_newlines()
        self._advance()  # closing punct
        return ast.SwitchStmt(loc, subject, cases)

    def _parse_switch_case(self) -> ast.SwitchCase:
        token = self._peek()
        if token.kind not in (TokenKind.IDENT, TokenKind.KEYWORD) and not token.is_op("_"):
            raise self._error(
                f"expected 'is(...)' clause inside switch but found {token.text!r}"
            )
        keyword = self._advance().text
        patterns: list[ast.Expr] = []
        if self._peek().is_punct("("):
            self._advance()
            while not self._peek().is_punct(")"):
                patterns.append(self.parse_expression())
                if self._peek().is_punct(","):
                    self._advance()
            self._expect_punct(")")
        self._skip_newlines()
        body: list[ast.Stmt] = []
        if self._peek().is_punct("{"):
            body = self._parse_block()
        return ast.SwitchCase(keyword, patterns, body, token.location)

    def _parse_expression_statement(self) -> ast.Stmt:
        loc = self._peek().location
        expr = self.parse_expression()
        token = self._peek()
        if token.is_op(":="):
            self._advance()
            value = self.parse_expression()
            return ast.Connect(loc, expr, value)
        if token.is_op("<>", "<->"):
            self._advance()
            value = self.parse_expression()
            return ast.BulkConnect(loc, expr, value)
        if token.is_op("="):
            self._advance()
            value = self.parse_expression()
            return ast.Assign(loc, expr, value)
        if token.is_op("+=", "-=", "*=", "/=", "&=", "|=", "^="):
            self._advance()
            value = self.parse_expression()
            combined = ast.BinaryOp(token.location, token.text[0], expr, value)
            return ast.Assign(loc, expr, combined)
        return ast.ExprStmt(loc, expr)

    # ----------------------------------------------------------- expressions

    def parse_expression(self) -> ast.Expr:
        return self._parse_named_infix()

    def _parse_named_infix(self) -> ast.Expr:
        left = self._parse_or()
        while self._peek().is_ident(*_NAMED_INFIX):
            op = self._advance().text
            right = self._parse_or()
            left = ast.BinaryOp(left.location, op, left, right)
        return left

    def _parse_or(self) -> ast.Expr:
        left = self._parse_and()
        while self._peek().is_op("||"):
            loc = self._advance().location
            right = self._parse_and()
            left = ast.BinaryOp(loc, "||", left, right)
        return left

    def _parse_and(self) -> ast.Expr:
        left = self._parse_bitor()
        while self._peek().is_op("&&"):
            loc = self._advance().location
            right = self._parse_bitor()
            left = ast.BinaryOp(loc, "&&", left, right)
        return left

    def _parse_bitor(self) -> ast.Expr:
        left = self._parse_bitxor()
        while self._peek().is_op("|"):
            loc = self._advance().location
            right = self._parse_bitxor()
            left = ast.BinaryOp(loc, "|", left, right)
        return left

    def _parse_bitxor(self) -> ast.Expr:
        left = self._parse_bitand()
        while self._peek().is_op("^"):
            loc = self._advance().location
            right = self._parse_bitand()
            left = ast.BinaryOp(loc, "^", left, right)
        return left

    def _parse_bitand(self) -> ast.Expr:
        left = self._parse_equality()
        while self._peek().is_op("&"):
            loc = self._advance().location
            right = self._parse_equality()
            left = ast.BinaryOp(loc, "&", left, right)
        return left

    def _parse_equality(self) -> ast.Expr:
        left = self._parse_relational()
        while self._peek().is_op("===", "=/=", "==", "!="):
            op = self._advance()
            right = self._parse_relational()
            left = ast.BinaryOp(op.location, op.text, left, right)
        return left

    def _parse_relational(self) -> ast.Expr:
        left = self._parse_shift()
        while self._peek().is_op("<", ">", "<=", ">="):
            op = self._advance()
            right = self._parse_shift()
            left = ast.BinaryOp(op.location, op.text, left, right)
        return left

    def _parse_shift(self) -> ast.Expr:
        left = self._parse_cat()
        while self._peek().is_op("<<", ">>"):
            op = self._advance()
            right = self._parse_cat()
            left = ast.BinaryOp(op.location, op.text, left, right)
        return left

    def _parse_cat(self) -> ast.Expr:
        left = self._parse_additive()
        while self._peek().is_op("##"):
            op = self._advance()
            right = self._parse_additive()
            left = ast.BinaryOp(op.location, "##", left, right)
        return left

    def _parse_additive(self) -> ast.Expr:
        left = self._parse_multiplicative()
        while self._peek().is_op("+", "-", "+&", "-&", "+%", "-%"):
            op = self._advance()
            right = self._parse_multiplicative()
            left = ast.BinaryOp(op.location, op.text, left, right)
        return left

    def _parse_multiplicative(self) -> ast.Expr:
        left = self._parse_unary()
        while self._peek().is_op("*", "/", "%"):
            op = self._advance()
            right = self._parse_unary()
            left = ast.BinaryOp(op.location, op.text, left, right)
        return left

    def _parse_unary(self) -> ast.Expr:
        token = self._peek()
        if token.is_op(*_UNARY_OPS):
            self._advance()
            operand = self._parse_unary()
            return ast.UnaryOp(token.location, token.text, operand)
        return self._parse_postfix()

    def _parse_postfix(self) -> ast.Expr:
        expr = self._parse_primary()
        while True:
            token = self._peek()
            if token.is_punct("."):
                follow = self._peek(1)
                if follow.text in ("elsewhen", "otherwise"):
                    break
                self._advance()
                name_token = self._peek()
                if name_token.kind not in (TokenKind.IDENT, TokenKind.KEYWORD):
                    raise self._error("expected member name after '.'")
                self._advance()
                expr = self._finish_member(expr, name_token.text, name_token.location)
                continue
            if token.is_punct("("):
                args = self._parse_args()
                expr = ast.Apply(token.location, expr, args)
                continue
            # Method-chain continuation across a line break: only when the
            # next non-newline token is '.' followed by a member name.
            if token.kind is TokenKind.NEWLINE and self._peek_after_dot() not in (
                "",
                "elsewhen",
                "otherwise",
            ):
                next_real = self._peek_skipping_newlines()
                if next_real.is_punct("."):
                    self._skip_newlines()
                    continue
            break
        return expr

    def _finish_member(self, target: ast.Expr, name: str, loc: SourceLocation) -> ast.Expr:
        type_args: list[str] = []
        if self._peek().is_punct("["):
            self._advance()
            while not self._peek().is_punct("]"):
                type_args.append(self._advance_before_eof("type arguments").text)
            self._expect_punct("]")
        if self._peek().is_punct("("):
            args = self._parse_args()
            call = ast.MethodCall(loc, target, name, args, type_args)
            while self._peek().is_punct("("):
                call.extra_arg_lists.append(self._parse_args())
            return call
        if type_args:
            return ast.MethodCall(loc, target, name, [], type_args)
        return ast.FieldSelect(loc, target, name)

    def _parse_args(self) -> list[ast.Expr]:
        self._expect_punct("(")
        args: list[ast.Expr] = []
        self._skip_newlines()
        while not self._peek().is_punct(")"):
            args.append(self._parse_argument())
            self._skip_newlines()
            if self._peek().is_punct(","):
                self._advance()
                self._skip_newlines()
        self._expect_punct(")")
        return args

    def _parse_argument(self) -> ast.Expr:
        # Detect explicit lambdas: ``x => expr`` or ``(a, b) => expr``.
        lambda_expr = self._try_parse_lambda()
        if lambda_expr is not None:
            return lambda_expr
        expr = self.parse_expression()
        # Named arguments (``init = 0.U``) are accepted; the name is dropped.
        if isinstance(expr, ast.Ident) and self._peek().is_op("="):
            self._advance()
            return self.parse_expression()
        placeholders = _count_placeholders(expr)
        if placeholders:
            params = [f"_arg{i}" for i in range(placeholders)]
            body = _replace_placeholders(expr, iter(params))
            return ast.Lambda(expr.location, params, body)
        return expr

    def _try_parse_lambda(self) -> ast.Lambda | None:
        start = self.pos
        token = self._peek()
        params: list[str] = []
        if token.kind is TokenKind.IDENT and self._peek(1).is_op("=>"):
            params = [token.text]
            self._advance()
            self._advance()
        elif token.is_punct("("):
            index = self.pos + 1
            names: list[str] = []
            ok = True
            while index < len(self.tokens):
                tok = self.tokens[index]
                if tok.kind is TokenKind.IDENT:
                    names.append(tok.text)
                    index += 1
                    if self.tokens[index].is_punct(","):
                        index += 1
                        continue
                    if self.tokens[index].is_punct(")"):
                        index += 1
                        break
                ok = False
                break
            if ok and names and index < len(self.tokens) and self.tokens[index].is_op("=>"):
                params = names
                self.pos = index + 1
        if not params:
            self.pos = start
            return None
        body = self.parse_expression()
        return ast.Lambda(token.location, params, body)

    def _parse_primary(self) -> ast.Expr:
        token = self._peek()
        if token.kind is TokenKind.INTEGER:
            self._advance()
            text = token.text.replace("_", "")
            try:
                value = int(text, 16) if text.lower().startswith("0x") else int(text)
            except ValueError:
                raise self._error(f"malformed integer literal {token.text!r}", token) from None
            return ast.IntLit(token.location, value)
        if token.kind is TokenKind.STRING:
            self._advance()
            return ast.StringLit(token.location, token.text)
        if token.is_keyword("true"):
            self._advance()
            return ast.BoolLit(token.location, True)
        if token.is_keyword("false"):
            self._advance()
            return ast.BoolLit(token.location, False)
        if token.is_keyword("new"):
            return self._parse_new()
        if token.is_keyword("if"):
            return self._parse_if_expression()
        if token.is_op("_"):
            self._advance()
            return ast.Placeholder(token.location)
        if token.is_punct("("):
            self._advance()
            expr = self.parse_expression()
            self._expect_punct(")")
            return expr
        if token.is_punct("{"):
            # Block expression: evaluate statements, value of the last one.
            raise self._error(
                "block expressions are not supported in this Chisel subset"
            )
        if token.is_ident("withClock", "withReset", "withClockAndReset"):
            return self._parse_with_clock_expr()
        if token.kind is TokenKind.IDENT:
            self._advance()
            if self._peek().is_punct("(") and token.text[0].isupper():
                # Constructor-style call (UInt(8.W), Wire(...), VecInit(...)).
                args = self._parse_args()
                call = ast.MethodCall(token.location, None, token.text, args)
                while self._peek().is_punct("("):
                    call.extra_arg_lists.append(self._parse_args())
                return call
            if self._peek().is_punct("("):
                args = self._parse_args()
                call = ast.MethodCall(token.location, None, token.text, args)
                while self._peek().is_punct("("):
                    call.extra_arg_lists.append(self._parse_args())
                return call
            return ast.Ident(token.location, token.text)
        raise self._error(f"unexpected token {token.text!r} in expression", token)

    def _parse_with_clock_expr(self) -> ast.Expr:
        token = self._advance()
        self._expect_punct("(")
        first = self.parse_expression()
        second = None
        if self._peek().is_punct(","):
            self._advance()
            second = self.parse_expression()
        self._expect_punct(")")
        self._skip_newlines()
        body = self._parse_block()
        if token.text == "withClock":
            return ast.WithClockExpr(token.location, first, None, body)
        if token.text == "withReset":
            return ast.WithClockExpr(token.location, None, first, body)
        return ast.WithClockExpr(token.location, first, second, body)

    def _parse_new(self) -> ast.Expr:
        loc = self._advance().location  # new
        name = self._expect_ident().text
        if name == "Bundle":
            self._skip_newlines()
            members = self._parse_bundle_body()
            return ast.BundleLiteral(loc, members)
        args: list[ast.Expr] = []
        if self._peek().is_punct("("):
            args = self._parse_args()
        return ast.NewInstance(loc, name, args)

    def _parse_bundle_body(self) -> list[ast.ValDef]:
        self._expect_punct("{")
        members: list[ast.ValDef] = []
        self._skip_newlines()
        while not self._peek().is_punct("}"):
            stmt = self.parse_statement()
            if not isinstance(stmt, ast.ValDef):
                raise ChiselError.at(
                    "only val definitions are allowed inside a Bundle literal",
                    stmt.location,
                    code="PARSE",
                )
            members.append(stmt)
            self._skip_newlines()
        self._expect_punct("}")
        return members

    def _parse_if_expression(self) -> ast.Expr:
        loc = self._advance().location  # if
        self._expect_punct("(")
        condition = self.parse_expression()
        self._expect_punct(")")
        then_value = self.parse_expression()
        else_value = None
        if self._peek_skipping_newlines().is_keyword("else"):
            self._skip_newlines()
            self._advance()
            else_value = self.parse_expression()
        return ast.IfExpr(loc, condition, then_value, else_value)


def reference_tokenize(
    source: str, file: str = "Main.scala", comments: list[tuple[int, int]] | None = None
) -> list[Token]:
    """Tokens of ``source``; comment spans are appended to ``comments`` if given."""
    lexer = ReferenceLexer(source, file)
    tokens = lexer.tokenize()
    if comments is not None:
        comments.extend(lexer.comments)
    return tokens


def reference_parse_source(source: str, file: str = "Main.scala") -> ast.Program:
    return ReferenceParser(reference_tokenize(source, file)).parse_program()


def registry_sources() -> list[str]:
    """Every golden, functional mutant and applicable syntax mutant of the
    216-case registry."""
    from repro.problems.mutations import applicable_syntax_faults
    from repro.problems.registry import build_default_registry

    sources: list[str] = []
    for problem in build_default_registry():
        golden = problem.golden_chisel
        sources.append(golden)
        sources.extend(fault.apply(golden) for fault in problem.functional_faults)
        sources.extend(
            fault.apply(golden, problem) for fault in applicable_syntax_faults(golden, problem)
        )
    return sources


def frontend_corpus() -> list[str]:
    """:func:`registry_sources`, then every ``tests/data/fuzz_corpus.jsonl`` source."""
    corpus = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data", "fuzz_corpus.jsonl")
    with open(corpus, encoding="utf-8") as handle:
        fuzz = [json.loads(line)["source"] for line in handle if line.strip()]
    return registry_sources() + fuzz
