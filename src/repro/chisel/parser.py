"""Recursive-descent parser for the Chisel/Scala subset.

The parser is intentionally lenient in places where LLM-generated code varies
(newlines before ``.elsewhen``, optional semicolons, either ``} .otherwise {``
or ``}.otherwise {``) but strict about structure so that malformed code
produces a compiler diagnostic rather than silently parsing — unparseable
output is one of the syntax-error classes the reflection loop must handle.
"""

from __future__ import annotations

from repro.chisel import ast
from repro.chisel.lexer import KEYWORDS, Token, TokenKind, tokenize
from repro.diagnostics import ChiselError, SourceLocation

# Infix identifiers treated as binary operators (Scala method infix notation).
_NAMED_INFIX = {"until", "to", "min", "max"}

_UNARY_OPS = {"!", "~", "-"}

_WITH_CLOCK = {"withClock", "withReset", "withClockAndReset"}

_PARAM_MODIFIERS = {"val", "var", "implicit", "override"}

_COMPOUND_ASSIGN = {"+=", "-=", "*=", "/=", "&=", "|=", "^="}

# The tags of the token kinds that are not tagged with their text (see
# :class:`Parser`).  No token text is spelled like one of them.
IDENT = "<ident>"
INTEGER = "<integer>"
STRING = "<string>"
NEWLINE = "<newline>"
EOF = "<eof>"
_TAG_OF_KIND = {
    TokenKind.INTEGER: INTEGER,
    TokenKind.STRING: STRING,
    TokenKind.NEWLINE: NEWLINE,
    TokenKind.EOF: EOF,
}
# Enum member lookups are slow enough to show per token (see the lexer).
_IDENT_KIND, _KEYWORD_KIND = TokenKind.IDENT, TokenKind.KEYWORD
_OPERATOR_KIND, _PUNCT_KIND = TokenKind.OPERATOR, TokenKind.PUNCT

# Binary operator -> precedence level; a higher level binds tighter.  Every
# level is left-associative, and the named infix operators bind looser still.
_BINARY_PRECEDENCE = {
    op: level
    for level, ops in enumerate(
        [
            ("||",),
            ("&&",),
            ("|",),
            ("^",),
            ("&",),
            ("===", "=/=", "==", "!="),
            ("<", ">", "<=", ">="),
            ("<<", ">>"),
            ("##",),
            ("+", "-", "+&", "-&", "+%", "-%"),
            ("*", "/", "%"),
        ],
        start=1,
    )
    for op in ops
}


class Parser:
    """Parse a token stream into a :class:`repro.chisel.ast.Program`.

    The parser dispatches on ``tags``, one string per token: the text of a
    punctuation, operator or keyword token, and a fixed tag for every other
    kind (:data:`IDENT`, :data:`INTEGER`, :data:`STRING`, :data:`NEWLINE`,
    :data:`EOF`).  The three text kinds spell disjoint sets of strings, so
    ``tags[pos] == "("`` holds exactly for the punctuation ``(`` and
    ``tags[pos] == "val"`` for the keyword.  The stream ends with its EOF
    token, where the position stays.
    """

    def __init__(self, tokens: list[Token]):
        self.tokens = tokens
        self.tags = [
            text
            if kind is _PUNCT_KIND or kind is _OPERATOR_KIND or kind is _KEYWORD_KIND
            else IDENT if kind is _IDENT_KIND else _TAG_OF_KIND[kind]
            for kind, text, _location in tokens
        ]
        self._last = len(tokens) - 1
        self.pos = 0

    # ------------------------------------------------------------------ utils

    def _peek(self) -> Token:
        return self.tokens[self.pos]

    def _tag_skipping_newlines(self) -> str:
        tags = self.tags
        index = self.pos
        while tags[index] is NEWLINE:
            index += 1
        return tags[index]

    def _advance(self) -> Token:
        token = self.tokens[self.pos]
        if self.pos < self._last:
            self.pos += 1
        return token

    def _advance_before_eof(self, context: str) -> Token:
        """:meth:`_advance` for bracket-skipping loops, which must stop at EOF."""
        if self.tags[self.pos] is EOF:
            raise self._error(f"unexpected end of file in {context}")
        return self._advance()

    def _skip_newlines(self) -> None:
        tags = self.tags
        pos = self.pos
        while tags[pos] is NEWLINE or tags[pos] == ";":
            pos += 1
        self.pos = pos

    def _error(self, message: str, token: Token | None = None) -> ChiselError:
        token = token or self._peek()
        return ChiselError.at(message, token.location, code="PARSE")

    def _expect(self, text: str) -> Token:
        """Consume the punctuation or operator ``text``."""
        pos = self.pos
        if self.tags[pos] != text:
            raise self._error(f"expected {text!r} but found {self.tokens[pos].text!r}")
        self.pos = pos + 1
        return self.tokens[pos]

    def _expect_ident(self) -> Token:
        pos = self.pos
        if self.tags[pos] is not IDENT:
            raise self._error(f"expected identifier but found {self.tokens[pos].text!r}")
        self.pos = pos + 1
        return self.tokens[pos]

    # ------------------------------------------------------------- top level

    def parse_program(self) -> ast.Program:
        imports: list[str] = []
        classes: list[ast.ClassDef] = []
        start = self._peek().location
        self._skip_newlines()
        while (tag := self.tags[self.pos]) is not EOF:
            if tag == "import":
                imports.append(self._parse_import())
            elif tag == "package":
                self._skip_line()
            elif tag == "class":
                classes.append(self._parse_class())
            elif tag == "object":
                classes.append(self._parse_object())
            else:
                raise self._error(
                    f"expected class or import at top level but found {self._peek().text!r}"
                )
            self._skip_newlines()
        return ast.Program(start, imports, classes)

    def _skip_line(self) -> None:
        tags = self.tags
        while tags[self.pos] is not NEWLINE and tags[self.pos] is not EOF:
            self.pos += 1

    def _parse_import(self) -> str:
        start = self.pos + 1  # after ``import``
        self.pos = start
        self._skip_line()
        return "".join(token.text for token in self.tokens[start : self.pos])

    def _parse_class(self) -> ast.ClassDef:
        loc = self._advance().location  # class
        name = self._expect_ident().text
        params: list[ast.Param] = []
        if self.tags[self.pos] == "(":
            params = self._parse_param_list()
        parents: list[str] = []
        if self.tags[self.pos] == "extends":
            self.pos += 1
            parents.append(self._parse_type_name())
            while self.tags[self.pos] == "with":
                self.pos += 1
                parents.append(self._parse_type_name())
        body: list[ast.Stmt] = []
        self._skip_newlines()
        if self.tags[self.pos] == "{":
            body = self._parse_block()
        return ast.ClassDef(loc, name, params, parents, body)

    def _parse_object(self) -> ast.ClassDef:
        loc = self._advance().location  # object
        name = self._expect_ident().text
        parents: list[str] = []
        if self.tags[self.pos] == "extends":
            self.pos += 1
            parents.append(self._parse_type_name())
        self._skip_newlines()
        body: list[ast.Stmt] = []
        if self.tags[self.pos] == "{":
            body = self._parse_block()
        return ast.ClassDef(loc, name, [], parents, body)

    def _parse_type_name(self) -> str:
        name = self._expect_ident().text
        # Constructor arguments on the parent (``extends Module``) and type
        # parameters are accepted and discarded.
        if self.tags[self.pos] == "(":
            depth = 0
            while True:
                tag = self.tags[self.pos]
                self._advance_before_eof("parent arguments")
                if tag == "(":
                    depth += 1
                elif tag == ")":
                    depth -= 1
                    if depth == 0:
                        break
        return name

    def _parse_param_list(self) -> list[ast.Param]:
        self._expect("(")
        params: list[ast.Param] = []
        self._skip_newlines()
        tags = self.tags
        while tags[self.pos] != ")":
            while tags[self.pos] in _PARAM_MODIFIERS:
                self.pos += 1
            name = self._expect_ident().text
            type_annotation = None
            default = None
            if tags[self.pos] == ":":
                self.pos += 1
                type_annotation = self._parse_type_annotation()
            if tags[self.pos] == "=":
                self.pos += 1
                default = self.parse_expression()
            params.append(ast.Param(name, type_annotation, default))
            if tags[self.pos] == ",":
                self.pos += 1
                self._skip_newlines()
        self._expect(")")
        return params

    def _parse_type_annotation(self) -> str:
        parts: list[str] = [self._expect_ident().text]
        if self.tags[self.pos] == "[":
            depth = 0
            while True:
                tag = self.tags[self.pos]
                parts.append(self._advance_before_eof("type arguments").text)
                if tag == "[":
                    depth += 1
                elif tag == "]":
                    depth -= 1
                    if depth == 0:
                        break
        return "".join(parts)

    # ------------------------------------------------------------ statements

    def _parse_block(self) -> list[ast.Stmt]:
        self._expect("{")
        stmts: list[ast.Stmt] = []
        self._skip_newlines()
        tags = self.tags
        while (tag := tags[self.pos]) != "}":
            if tag is EOF:
                raise self._error("unexpected end of file inside block (missing '}')")
            stmts.append(self.parse_statement())
            self._skip_newlines()
        self.pos += 1  # '}'
        return stmts

    def parse_statement(self) -> ast.Stmt:
        self._skip_newlines()
        tag = self.tags[self.pos]
        if tag is IDENT:
            text = self.tokens[self.pos].text
            if text == "when":
                return self._parse_when()
            if text == "switch":
                return self._parse_switch()
            if text in _WITH_CLOCK:
                return self._parse_with_clock()
        elif tag == "val" or tag == "var" or tag == "lazy":
            return self._parse_val_def()
        elif tag == "for":
            return self._parse_for()
        elif tag == "if":
            return self._parse_if_statement()
        elif tag == "import":
            location = self._peek().location
            self._parse_import()
            return ast.ExprStmt(location, ast.BoolLit(location, True))
        elif tag == "def":
            raise ChiselError.at(
                "method definitions (def) are not supported inside modules in this "
                "Chisel subset; inline the logic instead",
                self._peek().location,
                code="PARSE",
            )
        return self._parse_expression_statement()

    def _parse_with_clock(self) -> ast.Stmt:
        token = self._advance()
        self._expect("(")
        first = self.parse_expression()
        second = None
        if self.tags[self.pos] == ",":
            self.pos += 1
            second = self.parse_expression()
        self._expect(")")
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
        if self.tags[self.pos] == ":":
            self.pos += 1
            type_annotation = self._parse_type_annotation()
        self._expect("=")
        value = self.parse_expression()
        return ast.ValDef(first.location, name_token.text, value, mutable, type_annotation)

    def _parse_for(self) -> ast.Stmt:
        loc = self._advance().location  # for
        self._expect("(")
        variable = self._expect_ident().text
        self._expect("<-")
        iterable = self.parse_expression()
        self._expect(")")
        self._skip_newlines()
        body = self._parse_block_or_single()
        return ast.ForStmt(loc, variable, iterable, body)

    def _parse_if_statement(self) -> ast.Stmt:
        loc = self._advance().location  # if
        self._expect("(")
        condition = self.parse_expression()
        self._expect(")")
        self._skip_newlines()
        then_body = self._parse_block_or_single()
        else_body: list[ast.Stmt] = []
        if self._tag_skipping_newlines() == "else":
            self._skip_newlines()
            self.pos += 1  # else
            self._skip_newlines()
            if self.tags[self.pos] == "if":
                else_body = [self._parse_if_statement()]
            else:
                else_body = self._parse_block_or_single()
        return ast.IfStmt(loc, condition, then_body, else_body)

    def _parse_block_or_single(self) -> list[ast.Stmt]:
        if self.tags[self.pos] == "{":
            return self._parse_block()
        return [self.parse_statement()]

    def _parse_when(self) -> ast.Stmt:
        loc = self._advance().location  # when
        branches: list[ast.WhenBranch] = []
        self._expect("(")
        condition = self.parse_expression()
        self._expect(")")
        self._skip_newlines()
        body = self._parse_block()
        branches.append(ast.WhenBranch(condition, body))
        while True:
            keyword = self._peek_after_dot()
            if keyword != "elsewhen" and keyword != "otherwise":
                break
            self._skip_newlines()
            self.pos += 2  # '.' and the keyword
            if keyword == "elsewhen":
                self._expect("(")
                cond = self.parse_expression()
                self._expect(")")
                self._skip_newlines()
                branches.append(ast.WhenBranch(cond, self._parse_block()))
            else:  # otherwise
                if self.tags[self.pos] == "(":
                    # ``.otherwise() { ... }`` is not valid Chisel; surface it
                    # as a parse error the same way scalac would.
                    raise self._error("otherwise does not take arguments")
                self._skip_newlines()
                branches.append(ast.WhenBranch(None, self._parse_block()))
                break
        return ast.WhenStmt(loc, branches)

    def _peek_after_dot(self) -> str:
        """The text after the next non-newline token if that is ``.``, else ``""``."""
        tags = self.tags
        index = self.pos
        while tags[index] is NEWLINE:
            index += 1
        if tags[index] == ".":
            return self.tokens[index + 1].text
        return ""

    def _parse_switch(self) -> ast.Stmt:
        loc = self._advance().location  # switch
        self._expect("(")
        subject = self.parse_expression()
        self._expect(")")
        self._skip_newlines()
        open_punct = self.tags[self.pos]
        if open_punct != "{" and open_punct != "(":
            raise self._error("expected '{' after switch(...)")
        self.pos += 1
        close_punct = "}" if open_punct == "{" else ")"
        cases: list[ast.SwitchCase] = []
        self._skip_newlines()
        tags = self.tags
        while (tag := tags[self.pos]) != close_punct:
            if tag is EOF:
                raise self._error("unexpected end of file inside switch block")
            cases.append(self._parse_switch_case())
            self._skip_newlines()
        self.pos += 1  # closing punct
        return ast.SwitchStmt(loc, subject, cases)

    def _parse_switch_case(self) -> ast.SwitchCase:
        token = self._peek()
        tag = self.tags[self.pos]
        if tag is not IDENT and tag not in KEYWORDS and tag != "_":
            raise self._error(
                f"expected 'is(...)' clause inside switch but found {token.text!r}"
            )
        self.pos += 1
        patterns: list[ast.Expr] = []
        tags = self.tags
        if tags[self.pos] == "(":
            self.pos += 1
            while tags[self.pos] != ")":
                patterns.append(self.parse_expression())
                if tags[self.pos] == ",":
                    self.pos += 1
            self.pos += 1  # ')'
        self._skip_newlines()
        body: list[ast.Stmt] = []
        if tags[self.pos] == "{":
            body = self._parse_block()
        return ast.SwitchCase(token.text, patterns, body, token.location)

    def _parse_expression_statement(self) -> ast.Stmt:
        loc = self._peek().location
        expr = self.parse_expression()
        tag = self.tags[self.pos]
        if tag == ":=":
            self.pos += 1
            return ast.Connect(loc, expr, self.parse_expression())
        if tag == "<>" or tag == "<->":
            self.pos += 1
            return ast.BulkConnect(loc, expr, self.parse_expression())
        if tag == "=":
            self.pos += 1
            return ast.Assign(loc, expr, self.parse_expression())
        if tag in _COMPOUND_ASSIGN:
            token = self._advance()
            value = self.parse_expression()
            combined = ast.BinaryOp(token.location, token.text[0], expr, value)
            return ast.Assign(loc, expr, combined)
        return ast.ExprStmt(loc, expr)

    # ----------------------------------------------------------- expressions

    def parse_expression(self) -> ast.Expr:
        return self._parse_named_infix()

    def _parse_named_infix(self) -> ast.Expr:
        left = self._parse_binary(1)
        while self.tags[self.pos] is IDENT and self.tokens[self.pos].text in _NAMED_INFIX:
            op = self._advance().text
            right = self._parse_binary(1)
            left = ast.BinaryOp(left.location, op, left, right)
        return left

    def _parse_binary(self, min_precedence: int) -> ast.Expr:
        """Precedence climbing over :data:`_BINARY_PRECEDENCE` (all left-associative).

        Only operator tags are keys of the table, so any other tag reads as
        precedence 0 and ends the expression.
        """
        left = self._parse_unary()
        tags = self.tags
        while True:
            precedence = _BINARY_PRECEDENCE.get(tags[self.pos], 0)
            if precedence < min_precedence:
                return left
            token = self.tokens[self.pos]
            self.pos += 1
            right = self._parse_binary(precedence + 1)
            left = ast.BinaryOp(token.location, token.text, left, right)

    def _parse_unary(self) -> ast.Expr:
        if self.tags[self.pos] in _UNARY_OPS:
            token = self.tokens[self.pos]
            self.pos += 1
            operand = self._parse_unary()
            return ast.UnaryOp(token.location, token.text, operand)
        return self._parse_postfix()

    def _parse_postfix(self) -> ast.Expr:
        expr = self._parse_primary()
        tags = self.tags
        tokens = self.tokens
        while True:
            tag = tags[self.pos]
            if tag == ".":
                name_token = tokens[self.pos + 1]
                if name_token.text == "elsewhen" or name_token.text == "otherwise":
                    break
                self.pos += 1
                name_tag = tags[self.pos]
                if name_tag is not IDENT and name_tag not in KEYWORDS:
                    raise self._error("expected member name after '.'")
                self.pos += 1
                expr = self._finish_member(expr, name_token.text, name_token.location)
                continue
            if tag == "(":
                location = tokens[self.pos].location
                expr = ast.Apply(location, expr, self._parse_args())
                continue
            # Method-chain continuation across a line break: only when the
            # next non-newline token is '.' followed by a member name.
            if tag is NEWLINE and self._peek_after_dot() not in ("", "elsewhen", "otherwise"):
                self._skip_newlines()
                continue
            break
        return expr

    def _finish_member(self, target: ast.Expr, name: str, loc: SourceLocation) -> ast.Expr:
        type_args: list[str] = []
        tags = self.tags
        if tags[self.pos] == "[":
            self.pos += 1
            while tags[self.pos] != "]":
                type_args.append(self._advance_before_eof("type arguments").text)
            self.pos += 1  # ']'
        if tags[self.pos] == "(":
            call = ast.MethodCall(loc, target, name, self._parse_args(), type_args)
            while tags[self.pos] == "(":
                call.extra_arg_lists.append(self._parse_args())
            return call
        if type_args:
            return ast.MethodCall(loc, target, name, [], type_args)
        return ast.FieldSelect(loc, target, name)

    def _parse_args(self) -> list[ast.Expr]:
        self._expect("(")
        args: list[ast.Expr] = []
        self._skip_newlines()
        tags = self.tags
        while tags[self.pos] != ")":
            args.append(self._parse_argument())
            self._skip_newlines()
            if tags[self.pos] == ",":
                self.pos += 1
                self._skip_newlines()
        self.pos += 1  # ')'
        return args

    def _parse_argument(self) -> ast.Expr:
        # Detect explicit lambdas: ``x => expr`` or ``(a, b) => expr``.
        lambda_expr = self._try_parse_lambda()
        if lambda_expr is not None:
            return lambda_expr
        start = self.pos
        expr = self.parse_expression()
        # Named arguments (``init = 0.U``) are accepted; the name is dropped.
        if self.tags[self.pos] == "=" and isinstance(expr, ast.Ident):
            self.pos += 1
            return self.parse_expression()
        # A placeholder comes from a ``_`` token, so only an argument that
        # holds one can become an underscore lambda.
        if "_" in self.tags[start : self.pos]:
            placeholders = _count_placeholders(expr)
            if placeholders:
                params = [f"_arg{i}" for i in range(placeholders)]
                body = _replace_placeholders(expr, iter(params))
                return ast.Lambda(expr.location, params, body)
        return expr

    def _try_parse_lambda(self) -> ast.Lambda | None:
        tags = self.tags
        start = self.pos
        tag = tags[start]
        if tag is IDENT:
            if tags[start + 1] != "=>":
                return None
            params = [self.tokens[start].text]
            self.pos = start + 2
        elif tag == "(":
            # ``( IDENT (, IDENT)* ) =>``
            index = start + 1
            params = []
            while tags[index] is IDENT and tags[index + 1] == ",":
                params.append(self.tokens[index].text)
                index += 2
            if tags[index] is not IDENT or tags[index + 1] != ")" or tags[index + 2] != "=>":
                return None
            params.append(self.tokens[index].text)
            self.pos = index + 3
        else:
            return None
        body = self.parse_expression()
        return ast.Lambda(self.tokens[start].location, params, body)

    def _parse_primary(self) -> ast.Expr:
        pos = self.pos
        token = self.tokens[pos]
        tag = self.tags[pos]
        if tag is IDENT:
            if token.text in _WITH_CLOCK:
                return self._parse_with_clock_expr()
            self.pos = pos + 1
            if self.tags[pos + 1] != "(":
                return ast.Ident(token.location, token.text)
            # A call, constructor-style (UInt(8.W), VecInit(...)) or not.
            call = ast.MethodCall(token.location, None, token.text, self._parse_args())
            while self.tags[self.pos] == "(":
                call.extra_arg_lists.append(self._parse_args())
            return call
        if tag is INTEGER:
            self.pos = pos + 1
            text = token.text.replace("_", "")
            try:
                value = int(text, 16) if text.lower().startswith("0x") else int(text)
            except ValueError:
                raise self._error(f"malformed integer literal {token.text!r}", token) from None
            return ast.IntLit(token.location, value)
        if tag is STRING:
            self.pos = pos + 1
            return ast.StringLit(token.location, token.text)
        if tag == "true" or tag == "false":
            self.pos = pos + 1
            return ast.BoolLit(token.location, tag == "true")
        if tag == "new":
            return self._parse_new()
        if tag == "if":
            return self._parse_if_expression()
        if tag == "_":
            self.pos = pos + 1
            return ast.Placeholder(token.location)
        if tag == "(":
            self.pos = pos + 1
            expr = self.parse_expression()
            self._expect(")")
            return expr
        if tag == "{":
            raise self._error(
                "block expressions are not supported in this Chisel subset"
            )
        raise self._error(f"unexpected token {token.text!r} in expression", token)

    def _parse_with_clock_expr(self) -> ast.Expr:
        token = self._advance()
        self._expect("(")
        first = self.parse_expression()
        second = None
        if self.tags[self.pos] == ",":
            self.pos += 1
            second = self.parse_expression()
        self._expect(")")
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
        if self.tags[self.pos] == "(":
            args = self._parse_args()
        return ast.NewInstance(loc, name, args)

    def _parse_bundle_body(self) -> list[ast.ValDef]:
        self._expect("{")
        members: list[ast.ValDef] = []
        self._skip_newlines()
        while self.tags[self.pos] != "}":
            stmt = self.parse_statement()
            if not isinstance(stmt, ast.ValDef):
                raise ChiselError.at(
                    "only val definitions are allowed inside a Bundle literal",
                    stmt.location,
                    code="PARSE",
                )
            members.append(stmt)
            self._skip_newlines()
        self.pos += 1  # '}'
        return members

    def _parse_if_expression(self) -> ast.Expr:
        loc = self._advance().location  # if
        self._expect("(")
        condition = self.parse_expression()
        self._expect(")")
        then_value = self.parse_expression()
        else_value = None
        if self._tag_skipping_newlines() == "else":
            self._skip_newlines()
            self.pos += 1  # else
            else_value = self.parse_expression()
        return ast.IfExpr(loc, condition, then_value, else_value)


# ---------------------------------------------------------------------------
# Placeholder (underscore lambda) rewriting helpers
# ---------------------------------------------------------------------------


def _count_placeholders(expr: ast.Expr) -> int:
    count = 0
    for child in _walk(expr):
        if isinstance(child, ast.Placeholder):
            count += 1
    return count


def _walk(expr: ast.Expr):
    yield expr
    if isinstance(expr, ast.BinaryOp):
        yield from _walk(expr.left)
        yield from _walk(expr.right)
    elif isinstance(expr, ast.UnaryOp):
        yield from _walk(expr.operand)
    elif isinstance(expr, ast.FieldSelect):
        yield from _walk(expr.target)
    elif isinstance(expr, ast.MethodCall):
        if expr.target is not None:
            yield from _walk(expr.target)
        for arg in expr.args:
            yield from _walk(arg)
    elif isinstance(expr, ast.Apply):
        yield from _walk(expr.target)
        for arg in expr.args:
            yield from _walk(arg)


def _replace_placeholders(expr: ast.Expr, names) -> ast.Expr:
    if isinstance(expr, ast.Placeholder):
        return ast.Ident(expr.location, next(names))
    if isinstance(expr, ast.BinaryOp):
        left = _replace_placeholders(expr.left, names)
        right = _replace_placeholders(expr.right, names)
        return ast.BinaryOp(expr.location, expr.op, left, right)
    if isinstance(expr, ast.UnaryOp):
        return ast.UnaryOp(expr.location, expr.op, _replace_placeholders(expr.operand, names))
    if isinstance(expr, ast.FieldSelect):
        return ast.FieldSelect(expr.location, _replace_placeholders(expr.target, names), expr.name)
    if isinstance(expr, ast.MethodCall):
        target = None
        if expr.target is not None:
            target = _replace_placeholders(expr.target, names)
        args = [_replace_placeholders(a, names) for a in expr.args]
        call = ast.MethodCall(expr.location, target, expr.name, args, list(expr.type_args))
        call.extra_arg_lists = [
            [_replace_placeholders(a, names) for a in arg_list]
            for arg_list in expr.extra_arg_lists
        ]
        return call
    if isinstance(expr, ast.Apply):
        target = _replace_placeholders(expr.target, names)
        args = [_replace_placeholders(a, names) for a in expr.args]
        return ast.Apply(expr.location, target, args)
    return expr


def parse_source(source: str, file: str = "Main.scala") -> ast.Program:
    """Tokenise and parse Chisel source text into a :class:`Program`."""
    return parse_source_cached(tokenize(source, file))


def parse_source_cached(tokens: list[Token]) -> ast.Program:
    """Parse a token stream; uncached, kept as the benchmark's layer boundary."""
    return Parser(tokens).parse_program()
