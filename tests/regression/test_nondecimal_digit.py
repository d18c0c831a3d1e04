"""Regression: a digit that ``int`` cannot read is a lex error, not a crash.

``str.isdigit`` accepts superscripts such as ``²``, but ``int("²")``
raises ``ValueError``.  The front end once let that escape as a
traceback from ``repro analyze``; it must be a ``LexError`` at the
character, printed as the usual ``error: L:C: ...`` line with exit code 1.
"""

import pytest

from repro.lang import LexError, SourceSpan, parse_program
from repro.lang.lexer import tokenize
from repro.tools.cli import main


@pytest.mark.parametrize(
    "source, line, column, char",
    [
        ("x = ²", 1, 5, "²"),
        ("x = 12²", 1, 7, "²"),
        ("x = 1²3", 1, 6, "²"),
        ("y = 0\nx = ³ + 1", 2, 5, "³"),
    ],
)
def test_nondecimal_digit_raises_lex_error_at_the_character(source, line, column, char):
    with pytest.raises(LexError) as info:
        tokenize(source)
    assert info.value.message == f"unexpected character {char!r}"
    assert info.value.span == SourceSpan.point(line, column)


def test_malformed_literal_rule_unchanged_for_nondecimal_digits():
    # a digit run followed by a letter is still a malformed literal
    with pytest.raises(LexError, match="malformed integer literal '²a'"):
        tokenize("x = ²a")


def test_parse_program_reports_lex_error():
    with pytest.raises(LexError):
        parse_program("program p\nx = ²\nend\n")


def test_cli_prints_diagnostic_not_traceback(tmp_path, capsys):
    path = tmp_path / "sup.pcf"
    path.write_text("program p\nx = ²\nend\n", encoding="utf-8")
    assert main(["analyze", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.strip() == "error: 2:5: unexpected character '²'"
    assert "Traceback" not in err
