"""Parser for the Verilog-2001 subset (see :mod:`repro.verilog.vast`).

The parser is used on two kinds of input: the Verilog produced by
:mod:`repro.verilog.emitter` and the hand-written reference modules shipped
with the benchmark problems.  Unsupported constructs raise
:class:`VerilogParseError` with a line number so the toolchain facade can turn
them into a diagnostic.
"""

from __future__ import annotations

import re
from typing import NamedTuple

from repro.verilog import vast


class VerilogParseError(Exception):
    """Raised when the source is outside the supported Verilog subset."""

    def __init__(self, message: str, line: int = 0):
        super().__init__(f"line {line}: {message}" if line else message)
        self.line = line


# ---------------------------------------------------------------------------
# Lexer
# ---------------------------------------------------------------------------

# One match per token: the blanks and comments before a token are folded into
# its match, possessively, so they cost no iteration of their own and a
# skipped run is never backtracked into.  An unterminated ``/*`` is no comment
# and lexes as ``/`` then ``*``.  Operators are listed longest first, so
# ``===`` is never split into ``==`` and ``=``.  ``illegal`` takes any other
# character, and the final empty alternative ends the scan after trailing
# blanks and comments.
_TOKEN_RE = re.compile(
    r"""
    (?:\s++|//[^\n]*+|/\*.*?\*/)*+
    (?:
        (?P<sized>\d*\s*'\s*[sS]?[bodhBODH][0-9a-fA-F_xXzZ?]+)
      | (?P<number>\d[\d_]*)
      | (?P<ident>[A-Za-z_$][A-Za-z0-9_$]*)
      | (?P<op>===|!==|<<<|>>>|<=|>=|==|!=|&&|\|\||<<|>>|~&|~\||~\^|\^~|[-+*/%&|^~!<>=?:;,.(){}\[\]@#])
      | (?P<illegal>.)
      | \Z
    )
    """,
    re.VERBOSE | re.DOTALL,
)


class VToken(NamedTuple):
    kind: str  # "number", "sized", "ident", "op", "eof"
    text: str
    line: int


def tokenize_verilog(source: str) -> list[VToken]:
    tokens: list[VToken] = []
    append = tokens.append
    new_token = tuple.__new__
    count = source.count
    line = 1
    last = 0  # start of the previous token: lines are counted from there
    for match in _TOKEN_RE.finditer(source):
        kind = match.lastgroup
        if kind is None:  # the end of the source, after any trailing blanks
            break
        start = match.start(kind)
        line += count("\n", last, start)
        last = start
        text = match.group(kind)
        if kind == "illegal":
            raise VerilogParseError(f"illegal character {text!r}", line)
        append(new_token(VToken, (kind, text, line)))
    append(new_token(VToken, ("eof", "", line + count("\n", last))))
    return tokens


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

_UNARY_OPS = {"~", "!", "-", "&", "|", "^", "~&", "~|", "~^"}

# Binary operator precedence, low to high.
_PRECEDENCE = [
    ["||"],
    ["&&"],
    ["|"],
    ["^", "^~", "~^"],
    ["&"],
    ["==", "!=", "===", "!=="],
    ["<", "<=", ">", ">="],
    ["<<", ">>", "<<<", ">>>"],
    ["+", "-"],
    ["*", "/", "%"],
]


class VerilogParser:
    def __init__(self, tokens: list[VToken]):
        self.tokens = tokens
        self._last = len(tokens) - 1  # the EOF token, where the position stays
        self.pos = 0

    # ------------------------------------------------------------------ utils

    def _peek(self) -> VToken:
        return self.tokens[self.pos]

    def _advance(self) -> VToken:
        token = self.tokens[self.pos]
        if self.pos < self._last:
            self.pos += 1
        return token

    def _expect(self, text: str) -> VToken:
        token = self._peek()
        if token.text != text:
            raise VerilogParseError(f"expected {text!r}, found {token.text!r}", token.line)
        return self._advance()

    def _accept(self, text: str) -> bool:
        if self._peek().text == text:
            self._advance()
            return True
        return False

    # -------------------------------------------------------------- top level

    def parse_modules(self) -> list[vast.VModule]:
        modules: list[vast.VModule] = []
        while self._peek().kind != "eof":
            if self._peek().text == "module":
                modules.append(self.parse_module())
            elif self._peek().text == "`timescale":
                while self._peek().text != "\n" and self._peek().kind != "eof":
                    self._advance()
            else:
                raise VerilogParseError(
                    f"expected 'module', found {self._peek().text!r}", self._peek().line
                )
        return modules

    def parse_module(self) -> vast.VModule:
        self._expect("module")
        name = self._advance().text
        module = vast.VModule(name)
        if self._accept("#"):
            self._parse_parameter_list(module)
        if self._accept("("):
            if self._peek().text != ")":
                self._parse_port_list(module)
            self._expect(")")
        self._expect(";")
        while self._peek().text != "endmodule":
            if self._peek().kind == "eof":
                raise VerilogParseError("unexpected end of file (missing endmodule)", self._peek().line)
            self._parse_module_item(module)
        self._expect("endmodule")
        return module

    def _parse_parameter_list(self, module: vast.VModule) -> None:
        self._expect("(")
        while not self._accept(")"):
            self._expect("parameter")
            name = self._advance().text
            self._expect("=")
            value = self._parse_expression()
            module.parameters[name] = _const_value(value)
            self._accept(",")

    def _parse_port_list(self, module: vast.VModule) -> None:
        direction = None
        kind = "wire"
        while True:
            token = self._peek()
            if token.text in ("input", "output", "inout"):
                direction = self._advance().text
                kind = "wire"
                if self._peek().text in ("wire", "reg"):
                    kind = self._advance().text
            signed = False
            if self._peek().text == "signed":
                self._advance()
                signed = True
            msb = lsb = 0
            if self._peek().text == "[":
                msb, lsb = self._parse_range(module)
            port_name = self._advance().text
            if direction is None:
                raise VerilogParseError(
                    "non-ANSI port lists are not supported; declare directions inline",
                    token.line,
                )
            if direction == "inout":
                raise VerilogParseError("inout ports are not supported", token.line)
            module.ports.append(vast.VPort(port_name, direction, msb, lsb, signed, kind))
            if not self._accept(","):
                break

    def _parse_range(self, module: vast.VModule) -> tuple[int, int]:
        self._expect("[")
        msb = _const_value(self._parse_expression(), module.parameters)
        self._expect(":")
        lsb = _const_value(self._parse_expression(), module.parameters)
        self._expect("]")
        return msb, lsb

    # ------------------------------------------------------------ module items

    def _parse_module_item(self, module: vast.VModule) -> None:
        token = self._peek()
        if token.text in ("wire", "reg"):
            self._parse_net_decl(module)
            return
        if token.text in ("localparam", "parameter"):
            self._advance()
            if self._peek().text == "[":
                self._parse_range(module)
            name = self._advance().text
            self._expect("=")
            value = self._parse_expression()
            module.parameters[name] = _const_value(value, module.parameters)
            while self._accept(","):
                name = self._advance().text
                self._expect("=")
                value = self._parse_expression()
                module.parameters[name] = _const_value(value, module.parameters)
            self._expect(";")
            return
        if token.text == "assign":
            self._advance()
            target = self._parse_primary()
            self._expect("=")
            value = self._parse_expression()
            self._expect(";")
            module.assigns.append(vast.VAssign(target, value))
            return
        if token.text == "always":
            module.always_blocks.append(self._parse_always())
            return
        if token.text in ("integer", "genvar", "initial", "generate"):
            raise VerilogParseError(f"{token.text} blocks are not supported", token.line)
        raise VerilogParseError(f"unsupported module item {token.text!r}", token.line)

    def _parse_net_decl(self, module: vast.VModule) -> None:
        kind = self._advance().text
        signed = False
        if self._peek().text == "signed":
            self._advance()
            signed = True
        msb = lsb = 0
        if self._peek().text == "[":
            msb, lsb = self._parse_range(module)
        while True:
            name = self._advance().text
            depth: int | None = None
            if self._peek().text == "[":
                # Memory array: reg [w-1:0] name [lo:hi];
                if kind != "reg":
                    raise VerilogParseError(
                        "memory arrays must be declared as reg", self._peek().line
                    )
                line = self._peek().line
                lo, hi = self._parse_range(module)
                if lo > hi:
                    lo, hi = hi, lo
                if lo != 0:
                    raise VerilogParseError(
                        "memory arrays must be zero-based (e.g. [0:depth-1])", line
                    )
                depth = hi - lo + 1
            if self._accept("="):
                if depth is not None:
                    raise VerilogParseError(
                        "memory arrays cannot have initializers", self._peek().line
                    )
                value = self._parse_expression()
                module.assigns.append(vast.VAssign(vast.VIdent(name), value))
            module.nets.append(vast.VNet(name, kind, msb, lsb, signed, depth))
            if not self._accept(","):
                break
        self._expect(";")

    def _parse_always(self) -> vast.VAlways:
        self._expect("always")
        self._expect("@")
        block = vast.VAlways()
        self._expect("(")
        if self._peek().text == "*":
            self._advance()
        else:
            while True:
                token = self._peek()
                if token.text in ("posedge", "negedge"):
                    edge = self._advance().text
                    signal = self._advance().text
                    block.edges.append((edge, signal))
                else:
                    # A plain sensitivity list entry — treat as combinational.
                    self._advance()
                if not self._accept("or") and not self._accept(","):
                    break
        self._expect(")")
        block.body = self._parse_statement_block()
        return block

    # ---------------------------------------------------------------- statements

    def _parse_statement_block(self) -> list[vast.VStmt]:
        if self._accept("begin"):
            stmts: list[vast.VStmt] = []
            while not self._accept("end"):
                if self._peek().kind == "eof":
                    raise VerilogParseError("unexpected end of file inside begin/end", self._peek().line)
                stmts.append(self._parse_statement())
            return stmts
        return [self._parse_statement()]

    def _parse_statement(self) -> vast.VStmt:
        token = self._peek()
        if token.text == "if":
            self._advance()
            self._expect("(")
            condition = self._parse_expression()
            self._expect(")")
            then_body = self._parse_statement_block()
            else_body: list[vast.VStmt] = []
            if self._accept("else"):
                if self._peek().text == "if":
                    else_body = [self._parse_statement()]
                else:
                    else_body = self._parse_statement_block()
            return vast.VIf(condition, then_body, else_body)
        if token.text in ("case", "casez", "casex"):
            return self._parse_case()
        if token.text == ";":
            self._advance()
            return vast.VBlockingAssign(vast.VIdent("_"), vast.VIdent("_"))
        # Assignment statement.
        target = self._parse_primary()
        if self._accept("<="):
            value = self._parse_expression()
            self._expect(";")
            return vast.VNonBlockingAssign(target, value)
        self._expect("=")
        value = self._parse_expression()
        self._expect(";")
        return vast.VBlockingAssign(target, value)

    def _parse_case(self) -> vast.VCase:
        self._advance()  # case / casez / casex
        self._expect("(")
        subject = self._parse_expression()
        self._expect(")")
        items: list[vast.VCaseItem] = []
        while not self._accept("endcase"):
            if self._peek().kind == "eof":
                raise VerilogParseError("unexpected end of file inside case", self._peek().line)
            if self._peek().text == "default":
                self._advance()
                self._accept(":")
                body = self._parse_statement_block()
                items.append(vast.VCaseItem(None, body))
                continue
            patterns = [self._parse_expression()]
            while self._accept(","):
                patterns.append(self._parse_expression())
            self._expect(":")
            body = self._parse_statement_block()
            items.append(vast.VCaseItem(patterns, body))
        return vast.VCase(subject, items)

    # ---------------------------------------------------------------- expressions

    def _parse_expression(self) -> vast.VExpr:
        return self._parse_ternary()

    def _parse_ternary(self) -> vast.VExpr:
        condition = self._parse_binary(0)
        if self._accept("?"):
            true_value = self._parse_expression()
            self._expect(":")
            false_value = self._parse_expression()
            return vast.VTernary(condition, true_value, false_value)
        return condition

    def _parse_binary(self, level: int) -> vast.VExpr:
        if level >= len(_PRECEDENCE):
            return self._parse_unary()
        left = self._parse_binary(level + 1)
        while self._peek().text in _PRECEDENCE[level] and not self._is_assignment_context(level):
            op = self._advance().text
            right = self._parse_binary(level + 1)
            left = vast.VBinary(op, left, right)
        return left

    def _is_assignment_context(self, level: int) -> bool:
        # ``<=`` is both the non-blocking assignment token and less-or-equal;
        # inside expressions it is always the comparison, so no special case is
        # needed here (assignments are parsed before expressions).
        return False

    def _parse_unary(self) -> vast.VExpr:
        token = self._peek()
        if token.text in _UNARY_OPS:
            self._advance()
            operand = self._parse_unary()
            return vast.VUnary(token.text, operand)
        return self._parse_primary()

    def _parse_primary(self) -> vast.VExpr:
        token = self._peek()
        if token.kind == "sized":
            self._advance()
            return _parse_sized_literal(token.text, token.line)
        if token.kind == "number":
            self._advance()
            return vast.VLiteral(int(token.text.replace("_", "")), None, False)
        if token.text == "(":
            self._advance()
            expr = self._parse_expression()
            self._expect(")")
            return self._parse_postfix(expr)
        if token.text == "{":
            return self._parse_concat()
        if token.kind == "ident":
            self._advance()
            if token.text in ("$signed", "$unsigned"):
                self._expect("(")
                arg = self._parse_expression()
                self._expect(")")
                return vast.VCall(token.text, (arg,))
            return self._parse_postfix(vast.VIdent(token.text))
        raise VerilogParseError(f"unexpected token {token.text!r} in expression", token.line)

    def _parse_postfix(self, expr: vast.VExpr) -> vast.VExpr:
        while self._peek().text == "[":
            self._advance()
            first = self._parse_expression()
            if self._accept(":"):
                second = self._parse_expression()
                self._expect("]")
                expr = vast.VRange(expr, _const_value(first), _const_value(second))
            else:
                self._expect("]")
                expr = vast.VIndex(expr, first)
        return expr

    def _parse_concat(self) -> vast.VExpr:
        self._expect("{")
        first = self._parse_expression()
        # Replication: {N{expr}}
        if self._peek().text == "{":
            count = _const_value(first)
            self._expect("{")
            value = self._parse_expression()
            self._expect("}")
            self._expect("}")
            return vast.VRepeat(count, value)
        parts = [first]
        while self._accept(","):
            parts.append(self._parse_expression())
        self._expect("}")
        return vast.VConcat(tuple(parts))


# ---------------------------------------------------------------------------
# Literal / constant helpers
# ---------------------------------------------------------------------------


def _parse_sized_literal(text: str, line: int) -> vast.VLiteral:
    text = text.replace(" ", "").replace("_", "")
    width_part, _, rest = text.partition("'")
    signed = False
    if rest and rest[0] in "sS":
        signed = True
        rest = rest[1:]
    base_char = rest[0].lower()
    digits = rest[1:]
    bases = {"b": 2, "o": 8, "d": 10, "h": 16}
    if base_char not in bases:
        raise VerilogParseError(f"unsupported literal base {base_char!r}", line)
    if any(c in "xXzZ?" for c in digits):
        # Two-state simulation: x/z digits collapse to 0.
        digits = re.sub(r"[xXzZ?]", "0", digits)
    value = int(digits, bases[base_char])
    width = int(width_part) if width_part else None
    return vast.VLiteral(value, width, signed)


def _const_value(expr: vast.VExpr, parameters: dict[str, int] | None = None) -> int:
    parameters = parameters or {}
    if isinstance(expr, vast.VLiteral):
        return expr.value
    if isinstance(expr, vast.VIdent) and expr.name in parameters:
        return parameters[expr.name]
    if isinstance(expr, vast.VBinary):
        left = _const_value(expr.left, parameters)
        right = _const_value(expr.right, parameters)
        operations = {
            "+": lambda a, b: a + b,
            "-": lambda a, b: a - b,
            "*": lambda a, b: a * b,
            "/": lambda a, b: a // b,
        }
        if expr.op in operations:
            return operations[expr.op](left, right)
    if isinstance(expr, vast.VUnary) and expr.op == "-":
        return -_const_value(expr.operand, parameters)
    raise VerilogParseError(f"expected a constant expression, found {expr!r}")


def parse_verilog(source: str) -> list[vast.VModule]:
    """Parse Verilog source text into a list of module definitions."""
    tokens = tokenize_verilog(source)
    return VerilogParser(tokens).parse_modules()
