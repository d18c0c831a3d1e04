"""Parser unit tests."""

import pytest

from repro.lang import ast, parse_expression, parse_program
from repro.lang.errors import ParseError


def body_of(source):
    return parse_program(source).body


# -- programs ---------------------------------------------------------------


def test_minimal_program():
    prog = parse_program("program p\nend")
    assert prog.name == "p"
    assert prog.body == []
    assert prog.events == []


def test_end_program_suffix_accepted():
    assert parse_program("program p\nend program").name == "p"


def test_event_declarations():
    prog = parse_program("program p\nevent a\nevent b, c\nend")
    assert prog.events == ["a", "b", "c"]


def test_duplicate_event_rejected():
    with pytest.raises(ParseError, match="duplicate event"):
        parse_program("program p\nevent a, a\nend")


def test_missing_end_rejected():
    with pytest.raises(ParseError):
        parse_program("program p\nx = 1\n")


def test_garbage_after_end_rejected():
    with pytest.raises(ParseError):
        parse_program("program p\nend\nx = 1")


# -- statements ----------------------------------------------------------------


def test_assignment():
    (stmt,) = body_of("program p\nx = y + 1\nend")
    assert isinstance(stmt, ast.Assign)
    assert stmt.target == "x"
    assert stmt.expr == ast.BinOp("+", ast.Var("y"), ast.IntLit(1))


def test_statement_label():
    (stmt,) = body_of("program p\n(4) x = 7\nend")
    assert stmt.label == "4"


def test_named_label():
    (stmt,) = body_of("program p\n(Entry) x = 7\nend")
    assert stmt.label == "Entry"


def test_if_then_else():
    (stmt,) = body_of("program p\nif a < b then\nx = 1\nelse\nx = 2\nendif\nend")
    assert isinstance(stmt, ast.If)
    assert len(stmt.then_body) == 1
    assert len(stmt.else_body) == 1


def test_if_without_else():
    (stmt,) = body_of("program p\nif a < b then\nx = 1\nendif\nend")
    assert stmt.else_body == []


def test_if_end_label():
    (stmt,) = body_of("program p\nif a < b then\nx = 1\n(9) endif\nend")
    assert stmt.end_label == "9"


def test_if_end_label_after_else():
    (stmt,) = body_of("program p\nif a < b then\nx = 1\nelse\ny = 2\n(6) endif\nend")
    assert stmt.end_label == "6"


def test_loop():
    (stmt,) = body_of("program p\n(2) loop\nx = 1\n(7) endloop\nend")
    assert isinstance(stmt, ast.Loop)
    assert stmt.label == "2"
    assert stmt.end_label == "7"


def test_while():
    (stmt,) = body_of("program p\nwhile x < 3 do\nx = x + 1\nendwhile\nend")
    assert isinstance(stmt, ast.While)
    assert len(stmt.body) == 1


def test_skip():
    (stmt,) = body_of("program p\nskip\nend")
    assert isinstance(stmt, ast.Skip)


def test_parallel_sections():
    src = """program p
parallel sections
  section A
    x = 1
  section B
    y = 2
end parallel sections
end"""
    (stmt,) = body_of(src)
    assert isinstance(stmt, ast.ParallelSections)
    assert [s.name for s in stmt.sections] == ["A", "B"]


def test_parallel_sections_end_label():
    src = "program p\nparallel sections\nsection A\nx=1\n(11) end parallel sections\nend"
    (stmt,) = body_of(src)
    assert stmt.end_label == "11"


def test_section_labels():
    src = "program p\nparallel sections\n(4) section A\nx=1\nend parallel sections\nend"
    (stmt,) = body_of(src)
    assert stmt.sections[0].label == "4"


def test_empty_parallel_sections_rejected():
    with pytest.raises(ParseError, match="at least one section"):
        parse_program("program p\nparallel sections\nend parallel sections\nend")


def test_duplicate_section_names_rejected():
    src = "program p\nparallel sections\nsection A\nx=1\nsection A\ny=2\nend parallel sections\nend"
    with pytest.raises(ParseError, match="duplicate section"):
        parse_program(src)


def test_nested_parallel_sections():
    src = """program p
parallel sections
  section A
    parallel sections
      section A1
        x = 1
      section A2
        y = 2
    end parallel sections
  section B
    z = 3
end parallel sections
end"""
    (outer,) = body_of(src)
    inner = outer.sections[0].body[0]
    assert isinstance(inner, ast.ParallelSections)
    assert [s.name for s in inner.sections] == ["A1", "A2"]


def test_sync_statements():
    stmts = body_of("program p\nevent e\npost(e)\nwait(e)\nclear(e)\nend")
    assert isinstance(stmts[0], ast.Post)
    assert isinstance(stmts[1], ast.Wait)
    assert isinstance(stmts[2], ast.Clear)
    assert stmts[0].event == "e"


def test_statement_must_follow_statement():
    with pytest.raises(ParseError, match="end of statement"):
        parse_program("program p\nx = 1 y = 2\nend")


# -- expressions ---------------------------------------------------------------------


def test_precedence_mul_over_add():
    assert parse_expression("1 + 2 * 3") == ast.BinOp(
        "+", ast.IntLit(1), ast.BinOp("*", ast.IntLit(2), ast.IntLit(3))
    )


def test_left_associativity():
    assert parse_expression("1 - 2 - 3") == ast.BinOp(
        "-", ast.BinOp("-", ast.IntLit(1), ast.IntLit(2)), ast.IntLit(3)
    )


def test_parentheses_override():
    assert parse_expression("(1 + 2) * 3") == ast.BinOp(
        "*", ast.BinOp("+", ast.IntLit(1), ast.IntLit(2)), ast.IntLit(3)
    )


def test_comparison_binds_looser_than_arith():
    assert parse_expression("a + 1 < b * 2") == ast.BinOp(
        "<",
        ast.BinOp("+", ast.Var("a"), ast.IntLit(1)),
        ast.BinOp("*", ast.Var("b"), ast.IntLit(2)),
    )


def test_logic_precedence():
    # not > and > or
    assert parse_expression("not a and b or c") == ast.BinOp(
        "or",
        ast.BinOp("and", ast.UnaryOp("not", ast.Var("a")), ast.Var("b")),
        ast.Var("c"),
    )


def test_unary_minus():
    assert parse_expression("-x + 1") == ast.BinOp(
        "+", ast.UnaryOp("-", ast.Var("x")), ast.IntLit(1)
    )


def test_boolean_literals():
    assert parse_expression("true") == ast.BoolLit(True)
    assert parse_expression("false") == ast.BoolLit(False)


def test_unclosed_paren_rejected():
    with pytest.raises(ParseError):
        parse_expression("(1 + 2")


def test_empty_expression_rejected():
    with pytest.raises(ParseError):
        parse_expression("")


def test_fortran_ne_in_expression():
    assert parse_expression("a /= b") == ast.BinOp("/=", ast.Var("a"), ast.Var("b"))


def test_not_binds_looser_than_comparison():
    assert parse_expression("not a == b") == ast.UnaryOp(
        "not", ast.BinOp("==", ast.Var("a"), ast.Var("b"))
    )


def test_logic_keywords_spell_lowercase_operators():
    assert parse_expression("a AND b Or c") == ast.BinOp(
        "or", ast.BinOp("and", ast.Var("a"), ast.Var("b")), ast.Var("c")
    )


@pytest.mark.parametrize(
    "source, message, start, end",
    [
        # comparisons do not chain, not even behind and/or, not or parens
        ("a < b < c", "expected end of expression, found '<'", "1:7", "1:8"),
        ("a and b < c > d", "expected end of expression, found '>'", "1:13", "1:14"),
        ("not a < b > c", "expected end of expression, found '>'", "1:11", "1:12"),
        ("a or b and c < d == e", "expected end of expression, found '=='", "1:18", "1:20"),
        ("(a < b < c)", "expected ')', found '<'", "1:8", "1:9"),
        # 'not' only starts an operand of and/or
        ("a + not b", "expected an expression, found 'not'", "1:5", "1:8"),
        ("- not a", "expected an expression, found 'not'", "1:3", "1:6"),
    ],
)
def test_expression_errors_and_spans(source, message, start, end):
    with pytest.raises(ParseError) as info:
        parse_expression(source)
    assert info.value.message == message
    assert (str(info.value.span.start), str(info.value.span.end)) == (start, end)
