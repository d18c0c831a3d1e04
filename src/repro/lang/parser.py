"""Recursive-descent parser for the mini-PCF language.

Grammar (statements are newline/``;`` separated; ``# .. / ! ..`` comment)::

    program   := "program" IDENT NL decl* stmt* "end" ["program"] NL? EOF
    decl      := "event" IDENT ("," IDENT)* NL
    stmt      := label? core NL
    label     := "(" (INT | IDENT) ")"
    core      := IDENT "=" expr
               | "if" expr "then" NL stmt* ["else" NL stmt*] "endif"
               | "loop" NL stmt* "endloop"
               | "while" expr "do" NL stmt* "endwhile"
               | "parallel" "sections" NL section+ "end" "parallel" "sections"
               | ("post" | "wait" | "clear") "(" IDENT ")"
               | "skip"
    section   := label? "section" IDENT NL stmt*

Statement *labels* let the paper's numbered listings be typed verbatim —
``(4) x = 7`` gives the statement label ``"4"``, and the PFG builder names
blocks after the labels of the statements they contain, so analysis output
lines up with the paper's figures (definition ``x4`` etc.).

Expression precedence, loosest to tightest::

    or  <  and  <  not  <  (== /= < <= > >=)  <  (+ -)  <  (* / %)  <  unary -
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from . import ast
from .errors import ParseError, SourcePos, SourceSpan
from .lexer import tokenize
from .tokens import Token, TokenKind

#: Binary operator token -> binding power (higher binds tighter).  ``not``
#: sits at ``_NOT_PREC``.  A token's text (lower-cased for ``and``/``or``)
#: is its operator spelling in the AST.
_BINARY_PREC = {
    TokenKind.OR: 1,
    TokenKind.AND: 2,
    TokenKind.EQ: 4,
    TokenKind.NE: 4,
    TokenKind.LT: 4,
    TokenKind.LE: 4,
    TokenKind.GT: 4,
    TokenKind.GE: 4,
    TokenKind.PLUS: 5,
    TokenKind.MINUS: 5,
    TokenKind.STAR: 6,
    TokenKind.SLASH: 6,
    TokenKind.PERCENT: 6,
}
_NOT_PREC = 3
_CMP_PREC = 4
_MAX_PREC = 6

#: Tokens that terminate a statement list (checked before parsing a stmt).
_BLOCK_ENDERS = (
    TokenKind.END,
    TokenKind.ENDIF,
    TokenKind.ENDLOOP,
    TokenKind.ENDWHILE,
    TokenKind.ELSE,
    TokenKind.SECTION,
    TokenKind.EOF,
)
_SECTION = (TokenKind.SECTION,)
_LABEL_KINDS = (TokenKind.INT, TokenKind.IDENT)


class Parser:
    """One-token-lookahead recursive-descent parser.

    ``kinds`` parallels ``tokens``; lookahead reads it, and the last entry
    is always ``EOF``, which :meth:`_advance` never steps past.
    """

    def __init__(self, tokens: List[Token]):
        self.tokens = tokens
        self.kinds = [tok.kind for tok in tokens]
        self.pos = 0

    # -- token plumbing ---------------------------------------------------

    def _at(self, kind: TokenKind) -> bool:
        return self.kinds[self.pos] is kind

    def _advance(self) -> Token:
        tok = self.tokens[self.pos]
        if tok.kind is not TokenKind.EOF:
            self.pos += 1
        return tok

    def _expect(self, kind: TokenKind, what: str = "") -> Token:
        tok = self.tokens[self.pos]
        if tok.kind is not kind:
            wanted = what or kind.value
            raise ParseError(f"expected {wanted}, found {tok.text!r}", tok.span)
        return self._advance()

    def _skip_newlines(self) -> None:
        while self.kinds[self.pos] is TokenKind.NEWLINE:
            self.pos += 1

    def _end_of_statement(self) -> None:
        kind = self.kinds[self.pos]
        if kind is TokenKind.NEWLINE:
            self.pos += 1
            self._skip_newlines()
        elif kind is not TokenKind.EOF:
            tok = self.tokens[self.pos]
            raise ParseError(f"expected end of statement, found {tok.text!r}", tok.span)

    # -- program ----------------------------------------------------------

    def parse_program(self) -> ast.Program:
        self._skip_newlines()
        start = self._expect(TokenKind.PROGRAM)
        name = self._expect(TokenKind.IDENT, "program name").text
        self._end_of_statement()

        events: List[str] = []
        while self._at(TokenKind.EVENT):
            self._advance()
            events.append(self._expect(TokenKind.IDENT, "event name").text)
            while self._at(TokenKind.COMMA):
                self._advance()
                events.append(self._expect(TokenKind.IDENT, "event name").text)
            self._end_of_statement()
        if len(set(events)) != len(events):
            dupes = sorted({e for e in events if events.count(e) > 1})
            raise ParseError(f"duplicate event declaration(s): {', '.join(dupes)}", start.span)

        body = self._parse_stmt_list()
        self._parse_end_label()  # a label on 'end program' is allowed, unused
        end_tok = self._expect(TokenKind.END, "'end' / 'end program'")
        if self._at(TokenKind.PROGRAM):
            self._advance()
        self._skip_newlines()
        self._expect(TokenKind.EOF, "end of file")
        return ast.Program(name=name, events=events, body=body, span=_between(start, end_tok))

    # -- statements -------------------------------------------------------

    def _at_block_end(self) -> bool:
        """True at a block-terminating keyword, possibly behind a label
        (the paper labels terminators: ``(6) endif``, ``(11) end parallel
        sections``)."""
        return self.kinds[self.pos] in _BLOCK_ENDERS or self._at_label_before(_BLOCK_ENDERS)

    def _at_label_before(self, kinds: Tuple[TokenKind, ...]) -> bool:
        """True at ``( INT|IDENT )`` followed by a token of ``kinds``.  The
        ``and`` chain only reads past a token that is not ``EOF``."""
        k, p = self.kinds, self.pos
        return (
            k[p] is TokenKind.LPAREN
            and k[p + 1] in _LABEL_KINDS
            and k[p + 2] is TokenKind.RPAREN
            and k[p + 3] in kinds
        )

    def _parse_end_label(self) -> Optional[str]:
        """Consume a label that precedes a block terminator, if present."""
        if self._at(TokenKind.LPAREN):
            return self._parse_label()
        return None

    def _parse_stmt_list(self) -> List[ast.Stmt]:
        stmts: List[ast.Stmt] = []
        self._skip_newlines()
        while not self._at_block_end():
            stmts.append(self._parse_stmt())
        return stmts

    def _parse_label(self) -> Optional[str]:
        """``( 4 )`` or ``( Entry )`` prefix.  Unambiguous: no statement
        begins with ``(`` otherwise."""
        if not self._at(TokenKind.LPAREN):
            return None
        self._advance()
        tok = self.tokens[self.pos]
        if tok.kind in _LABEL_KINDS:
            self._advance()
            label = tok.text
        else:
            raise ParseError("statement label must be a number or name", tok.span)
        self._expect(TokenKind.RPAREN)
        return label

    def _parse_stmt(self) -> ast.Stmt:
        label = self._parse_label()
        tok = self.tokens[self.pos]
        if tok.kind is TokenKind.IDENT:
            stmt: ast.Stmt = self._parse_assign()
        elif tok.kind is TokenKind.IF:
            stmt = self._parse_if()
        elif tok.kind is TokenKind.LOOP:
            stmt = self._parse_loop()
        elif tok.kind is TokenKind.WHILE:
            stmt = self._parse_while()
        elif tok.kind is TokenKind.PARALLEL:
            if self.kinds[self.pos + 1] is TokenKind.DO:
                stmt = self._parse_parallel_do()
            else:
                stmt = self._parse_parallel_sections()
        elif tok.kind in (TokenKind.POST, TokenKind.WAIT, TokenKind.CLEAR):
            stmt = self._parse_sync()
        elif tok.kind is TokenKind.SKIP:
            self._advance()
            stmt = ast.Skip(span=tok.span)
            self._end_of_statement()
        else:
            raise ParseError(f"expected a statement, found {tok.text!r}", tok.span)
        stmt.label = label
        return stmt

    def _parse_assign(self) -> ast.Assign:
        target = self._expect(TokenKind.IDENT)
        self._expect(TokenKind.ASSIGN, "'='")
        expr = self._parse_expr()
        span = target.span
        self._end_of_statement()
        return ast.Assign(target=target.text, expr=expr, span=span)

    def _parse_if(self) -> ast.If:
        start = self._expect(TokenKind.IF)
        cond = self._parse_expr()
        self._expect(TokenKind.THEN, "'then'")
        self._end_of_statement()
        then_body = self._parse_stmt_list()
        else_body: List[ast.Stmt] = []
        end_label = self._parse_end_label()
        if self._at(TokenKind.ELSE):
            self._advance()
            self._end_of_statement()
            else_body = self._parse_stmt_list()
            end_label = self._parse_end_label()
        end = self._expect(TokenKind.ENDIF, "'endif'")
        self._end_of_statement()
        return ast.If(
            cond=cond,
            then_body=then_body,
            else_body=else_body,
            span=_between(start, end),
            end_label=end_label,
        )

    def _parse_loop(self) -> ast.Loop:
        start = self._expect(TokenKind.LOOP)
        self._end_of_statement()
        body = self._parse_stmt_list()
        end_label = self._parse_end_label()
        end = self._expect(TokenKind.ENDLOOP, "'endloop'")
        self._end_of_statement()
        return ast.Loop(body=body, span=_between(start, end), end_label=end_label)

    def _parse_while(self) -> ast.While:
        start = self._expect(TokenKind.WHILE)
        cond = self._parse_expr()
        self._expect(TokenKind.DO, "'do'")
        self._end_of_statement()
        body = self._parse_stmt_list()
        end_label = self._parse_end_label()
        end = self._expect(TokenKind.ENDWHILE, "'endwhile'")
        self._end_of_statement()
        return ast.While(cond=cond, body=body, span=_between(start, end), end_label=end_label)

    def _parse_parallel_sections(self) -> ast.ParallelSections:
        start = self._expect(TokenKind.PARALLEL)
        self._expect(TokenKind.SECTIONS, "'sections'")
        self._end_of_statement()
        sections: List[ast.Section] = []
        while True:
            self._skip_newlines()
            label = None
            if self._at_label_before(_SECTION):
                label = self._parse_label()
            if not self._at(TokenKind.SECTION):
                break
            sec_tok = self._advance()
            name = self._expect(TokenKind.IDENT, "section name").text
            self._end_of_statement()
            body = self._parse_stmt_list()
            section = ast.Section(name=name, body=body, span=sec_tok.span)
            section.label = label
            sections.append(section)
        if not sections:
            raise ParseError("parallel sections must contain at least one section", start.span)
        names = [s.name for s in sections]
        if len(set(names)) != len(names):
            dupes = sorted({n for n in names if names.count(n) > 1})
            raise ParseError(f"duplicate section name(s): {', '.join(dupes)}", start.span)
        end_label = self._parse_end_label()
        end = self._expect(TokenKind.END, "'end parallel sections'")
        self._expect(TokenKind.PARALLEL, "'parallel'")
        self._expect(TokenKind.SECTIONS, "'sections'")
        self._end_of_statement()
        return ast.ParallelSections(sections=sections, span=_between(start, end), end_label=end_label)

    def _parse_parallel_do(self) -> ast.ParallelDo:
        start = self._expect(TokenKind.PARALLEL)
        self._expect(TokenKind.DO, "'do'")
        index = self._expect(TokenKind.IDENT, "parallel do index variable").text
        self._end_of_statement()
        body = self._parse_stmt_list()
        end_label = self._parse_end_label()
        end = self._expect(TokenKind.END, "'end parallel do'")
        self._expect(TokenKind.PARALLEL, "'parallel'")
        self._expect(TokenKind.DO, "'do'")
        self._end_of_statement()
        for stmt in body:
            for inner in stmt.walk():
                if isinstance(inner, ast.Assign) and inner.target == index:
                    raise ParseError(
                        f"parallel do index {index!r} is read-only inside the construct",
                        inner.span,
                    )
        return ast.ParallelDo(index=index, body=body, span=_between(start, end), end_label=end_label)

    def _parse_sync(self) -> ast.Stmt:
        tok = self._advance()
        self._expect(TokenKind.LPAREN, "'('")
        event = self._expect(TokenKind.IDENT, "event name").text
        self._expect(TokenKind.RPAREN, "')'")
        self._end_of_statement()
        if tok.kind is TokenKind.POST:
            return ast.Post(event=event, span=tok.span)
        if tok.kind is TokenKind.WAIT:
            return ast.Wait(event=event, span=tok.span)
        return ast.Clear(event=event, span=tok.span)

    # -- expressions ------------------------------------------------------

    def _parse_expr(self, min_prec: int = 1) -> ast.Expr:
        """Precedence climbing over :data:`_BINARY_PREC`: an operand, then
        each binary operator that binds at least ``min_prec`` and at most
        ``ceiling``.  After an operator the ceiling drops to its own level,
        one below for a comparison (they do not chain); a ``not`` operand
        may only be followed by ``and`` or ``or``."""
        kinds = self.kinds
        if kinds[self.pos] is TokenKind.NOT and min_prec <= _NOT_PREC:
            self.pos += 1
            left: ast.Expr = ast.UnaryOp("not", self._parse_expr(_NOT_PREC))
            ceiling = _NOT_PREC
        else:
            left = self._parse_unary()
            ceiling = _MAX_PREC
        while True:
            prec = _BINARY_PREC.get(kinds[self.pos], 0)
            if prec < min_prec or prec > ceiling:
                return left
            op = self.tokens[self.pos].text.lower()  # ``AND`` spells ``and``
            self.pos += 1
            left = ast.BinOp(op, left, self._parse_expr(prec + 1))
            ceiling = prec - 1 if prec == _CMP_PREC else prec

    def _parse_unary(self) -> ast.Expr:
        if self.kinds[self.pos] is TokenKind.MINUS:
            self.pos += 1
            return ast.UnaryOp("-", self._parse_unary())
        return self._parse_primary()

    def _parse_primary(self) -> ast.Expr:
        tok = self.tokens[self.pos]
        kind = tok.kind
        if kind is TokenKind.IDENT:
            self.pos += 1
            return ast.Var(tok.text)
        if kind is TokenKind.INT:
            self.pos += 1
            return ast.IntLit(tok.value)  # type: ignore[arg-type]
        if kind is TokenKind.TRUE:
            self.pos += 1
            return ast.BoolLit(True)
        if kind is TokenKind.FALSE:
            self.pos += 1
            return ast.BoolLit(False)
        if kind is TokenKind.LPAREN:
            self.pos += 1
            inner = self._parse_expr()
            self._expect(TokenKind.RPAREN, "')'")
            return inner
        raise ParseError(f"expected an expression, found {tok.text!r}", tok.span)


def _between(first: Token, last: Token) -> SourceSpan:
    """The span from the start of ``first`` to the end of ``last``, a later
    token, built without building either token's span."""
    return SourceSpan(SourcePos(first.line, first.column), SourcePos(last.end_line, last.end_column))


def parse_program(source: str) -> ast.Program:
    """Parse complete source text into a :class:`~repro.lang.ast.Program`.

    Traced as a ``parse`` span (source size, token count, program name)
    when an observability session is installed — see :mod:`repro.obs`.
    """
    from ..obs import get_tracer

    tracer = get_tracer()
    with tracer.span("parse", chars=len(source)) as span:
        tokens = tokenize(source)
        program = Parser(tokens).parse_program()
        span.annotate(program=program.name, tokens=len(tokens))
    return program


def parse_expression(source: str) -> ast.Expr:
    """Parse a standalone expression (used by tests and the CLI)."""
    tokens = tokenize(source)
    parser = Parser(tokens)
    expr = parser._parse_expr()
    parser._skip_newlines()
    parser._expect(TokenKind.EOF, "end of expression")
    return expr
