"""Single-regex lexer for the mini-PCF language.

Design notes
------------
* The language is line-oriented: statements are separated by newlines (or
  ``;``).  Consecutive newlines collapse into one ``NEWLINE`` token and a
  leading newline is never emitted, which keeps the parser simple.
* Comments run from ``#`` or ``!`` to end of line (``!`` for FORTRAN
  flavour).
* Keywords are case-insensitive; identifiers preserve case.
* One compiled pattern scans the whole source; columns are offsets from
  the start of the current line, so tokens carry plain ints and build
  their :class:`~repro.lang.errors.SourceSpan` only when it is read.
* Words start with a letter (``str.isalpha``) or ``_`` and continue with
  ``str.isalnum`` characters or ``_``; integers are runs of decimal
  digits.  A character that ``str.isdigit`` accepts but ``int`` does not
  (``²``) is an unexpected character, not a literal.
"""

from __future__ import annotations

import re
from typing import List

from .errors import LexError, SourcePos, SourceSpan
from .tokens import KEYWORDS, Token, TokenKind

_OPERATORS = {
    "+": TokenKind.PLUS,
    "-": TokenKind.MINUS,
    "*": TokenKind.STAR,
    "/": TokenKind.SLASH,
    "%": TokenKind.PERCENT,
    "(": TokenKind.LPAREN,
    ")": TokenKind.RPAREN,
    ",": TokenKind.COMMA,
    "=": TokenKind.ASSIGN,
    "==": TokenKind.EQ,
    "/=": TokenKind.NE,  # FORTRAN-style "not equal"
    "<": TokenKind.LT,
    "<=": TokenKind.LE,
    ">": TokenKind.GT,
    ">=": TokenKind.GE,
}

#: One token (or comment, separator, or the end of the source) after
#: optional blanks.  ``\w`` is exactly ``str.isalnum`` plus ``_`` and
#: ``\d`` exactly ``str.isdecimal``.  ``uword`` catches words that start
#: outside ASCII; its first character still has to pass ``str.isalpha``,
#: because ``[^\W\d]`` also admits numerals such as ``Ⅻ`` and ``½``.  An
#: integer may not run into any other ``str.isalnum`` character (which
#: also stops ``\d+`` from backtracking into a shorter run).  Anything
#: else is ``bad``, and :func:`_lex_error` explains it.
_TOKEN = re.compile(
    r"[ \t\r]*(?:"
    r"(?P<word>[A-Za-z_]\w*)"
    r"|(?P<op>[=<>/]=|[-+*/%(),=<>])"
    r"|(?P<int>\d+(?![^\W_]))"
    r"|(?P<nl>\n)"
    r"|(?P<semi>;)"
    r"|(?P<comment>[#!][^\n]*)"
    r"|(?P<uword>[^\W\d]\w*)"
    r"|(?P<eof>\Z)"
    r"|(?P<bad>.)"
    r")",
    re.DOTALL,
)


def tokenize(source: str) -> List[Token]:
    """Tokenize ``source`` completely, raising :class:`LexError` on bad input.

    The result ends with one ``EOF`` token, preceded by a ``NEWLINE``
    unless the source holds no token at all.
    """
    tokens: List[Token] = []
    append = tokens.append
    line = 1
    line_start = 0  # offset of the first character of ``line``
    after_newline = True  # suppresses leading and repeated NEWLINEs
    for m in _TOKEN.finditer(source):
        group = m.lastgroup
        start = m.start(group)
        column = start - line_start + 1
        if group == "word" or group == "uword":
            text = m[group]
            if group == "uword" and not text[0].isalpha():
                raise _lex_error(source, start, line, line_start)
            kind = KEYWORDS.get(text.lower())
            if kind is None:
                append(Token(TokenKind.IDENT, text, text, line, column, line, column + len(text)))
            else:
                append(Token(kind, text, None, line, column, line, column + len(text)))
        elif group == "op":
            text = m[group]
            append(Token(_OPERATORS[text], text, None, line, column, line, column + len(text)))
        elif group == "int":
            text = m[group]
            append(Token(TokenKind.INT, text, int(text), line, column, line, column + len(text)))
        elif group == "nl":
            if not after_newline:
                append(Token(TokenKind.NEWLINE, "\\n", None, line, column, line + 1, 1))
            line += 1
            line_start = start + 1
            after_newline = True
            continue
        elif group == "semi":
            if not after_newline:
                append(Token(TokenKind.NEWLINE, "\\n", None, line, column, line, column + 1))
            after_newline = True
            continue
        elif group == "comment":
            continue
        elif group == "eof":
            break
        else:
            raise _lex_error(source, start, line, line_start)
        after_newline = False
    # ``line`` and ``column`` now point at the end of the source.
    if not after_newline:
        append(Token(TokenKind.NEWLINE, "\\n", None, line, column, line, column))
    append(Token(TokenKind.EOF, "<eof>", None, line, column, line, column))
    return tokens


def _lex_error(source: str, pos: int, line: int, line_start: int) -> LexError:
    """The error for the text at ``pos``, where no token matches.

    A run of ``str.isdigit`` characters followed by a letter is a
    malformed integer literal; otherwise the first character that cannot
    start or extend a token is unexpected.
    """
    column = pos - line_start + 1
    if source[pos].isdigit():
        end = pos
        while source[end : end + 1].isdigit():
            end += 1
        after = source[end : end + 1]
        if after.isalpha():
            return LexError(
                f"malformed integer literal {source[pos:end] + after!r}",
                SourceSpan(SourcePos(line, column), SourcePos(line, column + end - pos)),
            )
        for i in range(pos, end):
            if not source[i].isdecimal():
                pos = i
                break
        else:  # a well-formed literal: the fault is the character after it
            pos = end
        column = pos - line_start + 1
    return LexError(f"unexpected character {source[pos]!r}", SourceSpan.point(line, column))
