"""Differential test: the single-regex :func:`repro.lang.lexer.tokenize`
against the char-at-a-time reference lexer it replaced
(:mod:`tests.property.reference_lexer`).

Both must produce the same kinds, texts, values and spans, or the same
``LexError`` message and span.  The one intended difference: where the
reference crashes with ``ValueError`` on a digit ``int`` rejects (``²``),
``tokenize`` raises ``LexError`` at that character.
"""

from __future__ import annotations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.lang import LexError, pretty
from repro.lang.lexer import tokenize

from . import reference_lexer
from .conftest import generated_programs


def outcome(lex, source):
    """``("ok", tokens)`` or ``("error", message, span)`` for one lexer."""
    try:
        toks = lex(source)
    except LexError as exc:
        return ("error", exc.message, exc.span)
    return ("ok", [(t.kind, t.text, type(t.value), t.value, t.span) for t in toks])


def assert_same(source):
    try:
        expected = outcome(reference_lexer.tokenize, source)
    except ValueError:  # the reference's int() crash on a non-decimal digit
        with pytest.raises(LexError) as info:
            tokenize(source)
        message, span = info.value.message, info.value.span
        assert message.startswith("unexpected character ")
        lines = source.split("\n")
        ch = lines[span.start.line - 1][span.start.column - 1]
        assert message == f"unexpected character {ch!r}"
        assert ch.isdigit() and not ch.isdecimal()
        return
    assert outcome(tokenize, source) == expected


#: Splices that keep a program lexically valid but move columns and lines.
SPLICES = ["", "\n", "\n\n", "  ", "\t", "\r", " # note\n", "! fortran\n", ";", "; ;", "\r\n"]


@settings(max_examples=80, deadline=None)
@given(
    prog=generated_programs(max_stmts=30),
    splices=st.lists(st.tuples(st.integers(min_value=0), st.sampled_from(SPLICES)), max_size=12),
    crlf=st.booleans(),
)
def test_same_tokens_on_generated_programs(prog, splices, crlf):
    lines = pretty(prog).split("\n")
    for where, splice in splices:
        i = where % len(lines)
        lines[i] = lines[i] + splice if where % 2 else splice + lines[i]
    assert_same(("\r\n" if crlf else "\n").join(lines))


#: The language's ASCII plus characters whose Unicode classes disagree
#: between ``str.isdigit``/``isdecimal``/``isalpha`` and ``int``.
CHARS = list("abzAZ_019 \t\r\n;#!+-*/%(),=<>$.") + ["é", "٣", "²", "Ⅻ", "½", "\f", "_"]
WORDS = ["program", "END", "if", "then", "endif", "post", "x1", "12", "==", "/=", "<=", ">="]


@settings(max_examples=400, deadline=None)
@given(text=st.lists(st.sampled_from(CHARS + WORDS), max_size=40).map("".join))
@example("x = ²")
@example("x = 12²")
@example("x = ²a")
@example("x = 1²2a")
@example("x = 12Ⅻ")
@example("x = ½ + Ⅻ")
@example("é٣ = ٣٣ + x²")
@example("x = 3\f")
@example("  \n; \r\n x")
def test_same_tokens_on_arbitrary_text(text):
    assert_same(text)
