"""Reference lexer for the differential test: the char-at-a-time scanner
that :func:`repro.lang.lexer.tokenize` replaced, kept verbatim (with the
frozen-dataclass ``Token`` it built) so every token, span and error of
the single-regex scanner can be checked against it.  Test-only.

Known difference: a ``str.isdigit`` character that ``int`` rejects
(``²``) makes this lexer raise ``ValueError``; the replacement raises
``LexError`` instead.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, List

from repro.lang.errors import LexError, SourcePos, SourceSpan
from repro.lang.tokens import KEYWORDS, TokenKind


@dataclass(frozen=True)
class Token:
    """A single lexeme with its source span.

    ``value`` holds the decoded payload: an ``int`` for ``INT`` tokens, the
    (case-preserved) spelling for ``IDENT`` tokens, and ``None`` otherwise.
    """

    kind: TokenKind
    text: str
    span: SourceSpan
    value: object = None

_SINGLE_CHAR = {
    "+": TokenKind.PLUS,
    "-": TokenKind.MINUS,
    "*": TokenKind.STAR,
    "%": TokenKind.PERCENT,
    "(": TokenKind.LPAREN,
    ")": TokenKind.RPAREN,
    ",": TokenKind.COMMA,
}


class Lexer:
    """Converts source text into a token stream.

    Use :func:`tokenize` for the common case; the class form exists so
    incremental tooling can observe lexer state.
    """

    def __init__(self, source: str):
        self.source = source
        self.pos = 0
        self.line = 1
        self.column = 1

    # -- low-level cursor ------------------------------------------------

    def _peek(self, offset: int = 0) -> str:
        idx = self.pos + offset
        return self.source[idx] if idx < len(self.source) else ""

    def _advance(self) -> str:
        ch = self.source[self.pos]
        self.pos += 1
        if ch == "\n":
            self.line += 1
            self.column = 1
        else:
            self.column += 1
        return ch

    def _here(self) -> SourcePos:
        return SourcePos(self.line, self.column)

    # -- scanning --------------------------------------------------------

    def tokens(self) -> Iterator[Token]:
        """Yield tokens, ending with a single ``EOF`` token."""
        emitted_any = False
        last_was_newline = True  # suppress leading NEWLINEs
        while self.pos < len(self.source):
            ch = self._peek()
            if ch in " \t\r":
                self._advance()
                continue
            if ch in "#!":
                while self.pos < len(self.source) and self._peek() != "\n":
                    self._advance()
                continue
            if ch == "\n" or ch == ";":
                start = self._here()
                self._advance()
                if not last_was_newline:
                    yield Token(TokenKind.NEWLINE, "\\n", SourceSpan(start, self._here()))
                    last_was_newline = True
                continue
            tok = self._scan_token()
            last_was_newline = False
            emitted_any = True
            yield tok
        end = self._here()
        if emitted_any and not last_was_newline:
            yield Token(TokenKind.NEWLINE, "\\n", SourceSpan(end, end))
        yield Token(TokenKind.EOF, "<eof>", SourceSpan(end, end))

    def _scan_token(self) -> Token:
        start = self._here()
        ch = self._peek()
        if ch.isdigit():
            return self._scan_int(start)
        if ch.isalpha() or ch == "_":
            return self._scan_word(start)
        if ch in _SINGLE_CHAR:
            self._advance()
            return Token(_SINGLE_CHAR[ch], ch, SourceSpan(start, self._here()))
        if ch == "=":
            self._advance()
            if self._peek() == "=":
                self._advance()
                return Token(TokenKind.EQ, "==", SourceSpan(start, self._here()))
            return Token(TokenKind.ASSIGN, "=", SourceSpan(start, self._here()))
        if ch == "<":
            self._advance()
            if self._peek() == "=":
                self._advance()
                return Token(TokenKind.LE, "<=", SourceSpan(start, self._here()))
            return Token(TokenKind.LT, "<", SourceSpan(start, self._here()))
        if ch == ">":
            self._advance()
            if self._peek() == "=":
                self._advance()
                return Token(TokenKind.GE, ">=", SourceSpan(start, self._here()))
            return Token(TokenKind.GT, ">", SourceSpan(start, self._here()))
        if ch == "/":
            self._advance()
            if self._peek() == "=":  # FORTRAN-style "not equal"
                self._advance()
                return Token(TokenKind.NE, "/=", SourceSpan(start, self._here()))
            return Token(TokenKind.SLASH, "/", SourceSpan(start, self._here()))
        raise LexError(f"unexpected character {ch!r}", SourceSpan.point(start.line, start.column))

    def _scan_int(self, start: SourcePos) -> Token:
        text = []
        while self._peek().isdigit():
            text.append(self._advance())
        if self._peek().isalpha():
            raise LexError(
                f"malformed integer literal {''.join(text) + self._peek()!r}",
                SourceSpan(start, self._here()),
            )
        s = "".join(text)
        return Token(TokenKind.INT, s, SourceSpan(start, self._here()), value=int(s))

    def _scan_word(self, start: SourcePos) -> Token:
        text = []
        while self._peek().isalnum() or self._peek() == "_":
            text.append(self._advance())
        word = "".join(text)
        kind = KEYWORDS.get(word.lower())
        if kind is not None:
            return Token(kind, word, SourceSpan(start, self._here()))
        return Token(TokenKind.IDENT, word, SourceSpan(start, self._here()), value=word)


def tokenize(source: str) -> List[Token]:
    """Tokenize ``source`` completely, raising :class:`LexError` on bad input."""
    return list(Lexer(source).tokens())
