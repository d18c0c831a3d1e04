"""Lexer unit tests."""

import pytest

from repro.lang.errors import LexError
from repro.lang.lexer import tokenize
from repro.lang.tokens import TokenKind


def kinds(source):
    return [t.kind for t in tokenize(source)]


def test_empty_source_yields_only_eof():
    assert kinds("") == [TokenKind.EOF]


def test_whitespace_only_yields_only_eof():
    assert kinds("   \n\t \n  ") == [TokenKind.EOF]


def test_simple_assignment():
    assert kinds("x = 1") == [
        TokenKind.IDENT,
        TokenKind.ASSIGN,
        TokenKind.INT,
        TokenKind.NEWLINE,
        TokenKind.EOF,
    ]


def test_int_literal_value():
    tok = tokenize("42")[0]
    assert tok.kind is TokenKind.INT
    assert tok.value == 42


def test_keywords_case_insensitive():
    assert kinds("PROGRAM Program program")[:3] == [TokenKind.PROGRAM] * 3


def test_identifier_preserves_case():
    tok = tokenize("CamelCase")[0]
    assert tok.kind is TokenKind.IDENT
    assert tok.value == "CamelCase"


def test_identifier_with_underscore_and_digits():
    tok = tokenize("v_1x")[0]
    assert tok.kind is TokenKind.IDENT
    assert tok.text == "v_1x"


def test_all_operators():
    # note: "!" opens a comment (FORTRAN style), so "/=" is the only
    # not-equal spelling.
    src = "+ - * / % ( ) , == /= < <= > >= ="
    expected = [
        TokenKind.PLUS, TokenKind.MINUS, TokenKind.STAR, TokenKind.SLASH,
        TokenKind.PERCENT, TokenKind.LPAREN, TokenKind.RPAREN, TokenKind.COMMA,
        TokenKind.EQ, TokenKind.NE, TokenKind.LT, TokenKind.LE,
        TokenKind.GT, TokenKind.GE, TokenKind.ASSIGN,
    ]
    assert kinds(src)[: len(expected)] == expected


def test_hash_comment_ignored():
    assert kinds("x = 1 # a comment\n") == kinds("x = 1\n")


def test_bang_comment_ignored():
    assert kinds("x = 1 ! FORTRAN flavour\n") == kinds("x = 1\n")


def test_comment_only_line_produces_no_tokens():
    assert kinds("# nothing here\n") == [TokenKind.EOF]


def test_consecutive_newlines_collapse():
    toks = kinds("a = 1\n\n\n\nb = 2")
    assert toks.count(TokenKind.NEWLINE) == 2


def test_semicolon_acts_as_newline():
    toks = kinds("a = 1; b = 2")
    assert toks.count(TokenKind.NEWLINE) == 2


def test_leading_newlines_suppressed():
    assert kinds("\n\nx = 1")[0] is TokenKind.IDENT


def test_trailing_newline_synthesized():
    toks = kinds("x = 1")
    assert toks[-2] is TokenKind.NEWLINE


def test_spans_track_lines_and_columns():
    toks = tokenize("a = 1\nbb = 2")
    bb = [t for t in toks if t.text == "bb"][0]
    assert bb.span.start.line == 2
    assert bb.span.start.column == 1
    assert bb.span.end.column == 3


def test_unexpected_character_raises():
    with pytest.raises(LexError):
        tokenize("x = $")


def test_malformed_int_raises():
    with pytest.raises(LexError):
        tokenize("x = 12ab")


def test_fortran_not_equal():
    toks = tokenize("a /= b")
    assert toks[1].kind is TokenKind.NE


def test_slash_alone_is_division():
    toks = tokenize("a / b")
    assert toks[1].kind is TokenKind.SLASH


def test_boolean_and_logic_keywords():
    assert kinds("true false and or not")[:5] == [
        TokenKind.TRUE, TokenKind.FALSE, TokenKind.AND, TokenKind.OR, TokenKind.NOT,
    ]


def test_sync_keywords():
    assert kinds("post wait clear event")[:4] == [
        TokenKind.POST, TokenKind.WAIT, TokenKind.CLEAR, TokenKind.EVENT,
    ]


def test_newline_token_spans_to_next_line():
    nl = tokenize("a = 1\nb = 2")[3]
    assert nl.kind is TokenKind.NEWLINE
    assert (str(nl.span.start), str(nl.span.end)) == ("1:6", "2:1")


def test_columns_count_characters_after_the_last_newline():
    toks = tokenize("a = 1\n\tb = é")
    assert (toks[4].text, str(toks[4].span.start)) == ("b", "2:2")
    assert (toks[6].value, str(toks[6].span.start), str(toks[6].span.end)) == ("é", "2:6", "2:7")


def test_tokens_compare_and_hash_by_value():
    first, again = tokenize("x = 1"), tokenize("x = 1")
    assert first == again
    assert hash(first[0]) == hash(again[0])
    assert first[0] != tokenize(" x = 1")[0]  # same lexeme, other column
    assert repr(first[2]) == "Token(INT=1 @ 1:5)"
