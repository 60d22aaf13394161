"""Tests for the Chisel lexer and parser."""

import pickle

import pytest

from repro.chisel import ast
from repro.chisel.diagnostics import ChiselError, SourceLocation
from repro.chisel.lexer import Token, TokenKind, tokenize
from repro.chisel.parser import parse_source

SIMPLE_MODULE = """
import chisel3._

class TopModule extends Module {
  val io = IO(new Bundle {
    val in = Input(UInt(8.W))
    val out = Output(UInt(8.W))
  })
  io.out := io.in + 1.U
}
"""


class TestLexer:
    def test_operators_are_maximal_munch(self):
        tokens = tokenize("a := b === c +& d")
        texts = [t.text for t in tokens if t.kind is TokenKind.OPERATOR]
        assert texts == [":=", "===", "+&"]

    def test_string_literals(self):
        tokens = tokenize('"b001".U')
        assert tokens[0].kind is TokenKind.STRING
        assert tokens[0].text == "b001"

    def test_line_comments_are_skipped(self):
        tokens = tokenize("val x = 1 // comment here\nval y = 2")
        assert all("comment" not in t.text for t in tokens)

    def test_block_comments_are_skipped(self):
        tokens = tokenize("val x = /* hidden */ 1")
        texts = [t.text for t in tokens]
        assert "hidden" not in " ".join(texts)

    def test_unterminated_block_comment_raises(self):
        with pytest.raises(ChiselError):
            tokenize("val x = /* oops")

    def test_keywords_vs_identifiers(self):
        tokens = tokenize("class val when otherwise")
        kinds = [t.kind for t in tokens[:4]]
        assert kinds[0] is TokenKind.KEYWORD
        assert kinds[1] is TokenKind.KEYWORD
        assert kinds[2] is TokenKind.IDENT  # when is a Chisel function, not a Scala keyword
        assert kinds[3] is TokenKind.IDENT

    def test_numbers_with_underscores_and_hex(self):
        tokens = tokenize("1_000 0xFF")
        assert tokens[0].text == "1_000"
        assert tokens[1].text == "0xFF"

    def test_compound_assignment_operator(self):
        tokens = tokenize("idx += 1")
        assert any(t.text == "+=" for t in tokens)

    def test_interned_locations_behave_like_fresh_ones(self):
        tokens = tokenize("val x = 1\nval y = x", file="A.scala") * 2
        tokens += tokenize("val x = 1", file="B.scala")
        rebuilt = [
            Token(t.kind, t.text, SourceLocation(t.location.line, t.location.column, t.location.file))
            for t in tokens
        ]
        assert tokens == rebuilt
        assert [hash(t) for t in tokens] == [hash(t) for t in rebuilt]
        assert [str(t.location) for t in tokens] == [str(t.location) for t in rebuilt]
        assert pickle.loads(pickle.dumps(tokens)) == rebuilt
        assert tokens[-2].location.file == "B.scala"


class TestParserStructure:
    def test_parses_class_and_imports(self):
        program = parse_source(SIMPLE_MODULE)
        assert len(program.imports) == 1
        assert len(program.classes) == 1
        assert program.classes[0].name == "TopModule"
        assert program.classes[0].is_module

    def test_module_classes_helper(self):
        program = parse_source(SIMPLE_MODULE)
        assert [c.name for c in program.module_classes()] == ["TopModule"]

    def test_class_parameters_with_defaults(self):
        source = "class Foo(val n: Int = 4) extends Module { }"
        program = parse_source(source)
        assert program.classes[0].params[0].name == "n"
        assert program.classes[0].params[0].type_annotation == "Int"

    def test_bundle_literal_members(self):
        program = parse_source(SIMPLE_MODULE)
        io_def = program.classes[0].body[0]
        assert isinstance(io_def, ast.ValDef)
        bundle = io_def.value
        assert isinstance(bundle, ast.MethodCall)  # IO(...)
        assert isinstance(bundle.args[0], ast.BundleLiteral)
        assert [m.name for m in bundle.args[0].members] == ["in", "out"]

    def test_connect_statement(self):
        program = parse_source(SIMPLE_MODULE)
        connect = program.classes[0].body[-1]
        assert isinstance(connect, ast.Connect)

    def test_unbalanced_brace_raises(self):
        with pytest.raises(ChiselError):
            parse_source("class TopModule extends Module {\n  val x = 1\n")

    def test_def_is_rejected_with_clear_message(self):
        source = "class TopModule extends Module { def helper(x: Int) = x }"
        with pytest.raises(ChiselError) as excinfo:
            parse_source(source)
        assert "def" in str(excinfo.value)


class TestParserStatements:
    def _body(self, body_source: str):
        program = parse_source(
            "class TopModule extends Module {\n" + body_source + "\n}"
        )
        return program.classes[0].body

    def test_when_elsewhen_otherwise(self):
        body = self._body(
            "when (a) { x := 1.U } .elsewhen (b) { x := 2.U } .otherwise { x := 3.U }"
        )
        when = body[0]
        assert isinstance(when, ast.WhenStmt)
        assert len(when.branches) == 3
        assert when.branches[2].condition is None

    def test_when_otherwise_on_next_line(self):
        body = self._body("when (a) {\n  x := 1.U\n}\n.otherwise {\n  x := 0.U\n}")
        assert isinstance(body[0], ast.WhenStmt)
        assert len(body[0].branches) == 2

    def test_switch_with_is_clauses(self):
        body = self._body('switch (sel) {\n  is (0.U) { x := a }\n  is (1.U) { x := b }\n}')
        switch = body[0]
        assert isinstance(switch, ast.SwitchStmt)
        assert [case.keyword for case in switch.cases] == ["is", "is"]

    def test_switch_accepts_unknown_clause_for_later_diagnosis(self):
        body = self._body("switch (sel) {\n  is (0.U) { x := a }\n  default { x := b }\n}")
        switch = body[0]
        assert switch.cases[1].keyword == "default"

    def test_for_loop_with_range(self):
        body = self._body("for (i <- 0 until 5) { x := i.U }")
        loop = body[0]
        assert isinstance(loop, ast.ForStmt)
        assert loop.variable == "i"
        assert isinstance(loop.iterable, ast.BinaryOp)
        assert loop.iterable.op == "until"

    def test_scala_if_else(self):
        body = self._body("if (n > 2) { val x = 1 } else { val x = 2 }")
        assert isinstance(body[0], ast.IfStmt)
        assert len(body[0].else_body) == 1

    def test_compound_assignment_desugars(self):
        body = self._body("var idx = 0\nidx += 1")
        assign = body[1]
        assert isinstance(assign, ast.Assign)
        assert isinstance(assign.value, ast.BinaryOp)
        assert assign.value.op == "+"

    def test_with_clock_statement(self):
        body = self._body("withClock (clk) { val r = RegNext(x) }")
        assert isinstance(body[0], ast.WithClockStmt)

    def test_with_clock_expression(self):
        body = self._body("val out = withClock(clk) { RegNext(x) }")
        val = body[0]
        assert isinstance(val, ast.ValDef)
        assert isinstance(val.value, ast.WithClockExpr)


class TestParserExpressions:
    def _expr(self, text: str) -> ast.Expr:
        program = parse_source(f"class TopModule extends Module {{ val x = {text} }}")
        val = program.classes[0].body[0]
        assert isinstance(val, ast.ValDef)
        return val.value

    def test_operator_precedence_add_before_compare(self):
        expr = self._expr("a + b === c")
        assert isinstance(expr, ast.BinaryOp)
        assert expr.op == "==="
        assert isinstance(expr.left, ast.BinaryOp)
        assert expr.left.op == "+"

    def test_logical_precedence(self):
        expr = self._expr("a && b || c")
        assert expr.op == "||"

    def test_unary_operators(self):
        expr = self._expr("~a & !b")
        assert expr.op == "&"
        assert isinstance(expr.left, ast.UnaryOp)
        assert isinstance(expr.right, ast.UnaryOp)

    def test_method_chain(self):
        expr = self._expr("io.in.asUInt")
        assert isinstance(expr, ast.FieldSelect)
        assert expr.name == "asUInt"

    def test_call_with_width(self):
        expr = self._expr("3.U(8.W)")
        assert isinstance(expr, ast.MethodCall)
        assert expr.name == "U"

    def test_underscore_lambda_becomes_lambda(self):
        expr = self._expr("xs.reduce(_ +& _)")
        assert isinstance(expr, ast.MethodCall)
        lamb = expr.args[0]
        assert isinstance(lamb, ast.Lambda)
        assert len(lamb.params) == 2

    def test_explicit_lambda(self):
        expr = self._expr("xs.map(x => x + 1)")
        lamb = expr.args[0]
        assert isinstance(lamb, ast.Lambda)
        assert lamb.params == ["x"]

    def test_curried_call(self):
        expr = self._expr("Seq.fill(5)(0.U)")
        assert isinstance(expr, ast.MethodCall)
        assert expr.name == "fill"
        assert len(expr.extra_arg_lists) == 1

    def test_type_argument_call(self):
        expr = self._expr("x.asInstanceOf[SInt]")
        assert isinstance(expr, ast.MethodCall)
        assert expr.type_args == ["SInt"]

    def test_if_expression(self):
        expr = self._expr("if (n > 2) 8 else 4")
        assert isinstance(expr, ast.IfExpr)

    def test_string_literal_uint(self):
        expr = self._expr('"b1010".U')
        assert isinstance(expr, ast.FieldSelect)
        assert isinstance(expr.target, ast.StringLit)

    def test_indexing_expression(self):
        expr = self._expr("data(3, 0)")
        assert isinstance(expr, ast.MethodCall) or isinstance(expr, ast.Apply)


class TestParserErrors:
    @pytest.mark.parametrize(
        "source, column, context",
        [
            ("class A extends Module(", 24, "parent arguments"),
            ("class A(val v: Vec[UInt", 24, "type arguments"),
            ("class A extends Module { val x = y.asTypeOf[", 45, "type arguments"),
        ],
    )
    def test_truncated_brackets_report_end_of_file(self, source, column, context):
        with pytest.raises(ChiselError) as info:
            parse_source(source)
        diagnostic = info.value.diagnostic
        assert diagnostic.code == "PARSE"
        assert diagnostic.message == f"unexpected end of file in {context}"
        assert diagnostic.location.column == column
