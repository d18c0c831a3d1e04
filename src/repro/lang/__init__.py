"""Mini-PCF front end: lexer, parser, AST, pretty-printer.

The language is a self-contained equivalent of the PCF FORTRAN parallel
extensions the paper targets (Parallel Computing Forum / ANSI X3H5):
``Parallel Sections`` with named sections, binary event variables with
``post``/``wait``/``clear``, and ordinary sequential scalar code.
"""

from . import ast
from .errors import LangError, LexError, ParseError, SemanticError, SourcePos, SourceSpan
from .lexer import tokenize
from .parser import parse_expression, parse_program
from .pretty import pretty
from .tokens import Token, TokenKind

__all__ = [
    "ast",
    "LangError",
    "LexError",
    "ParseError",
    "SemanticError",
    "SourcePos",
    "SourceSpan",
    "tokenize",
    "parse_expression",
    "parse_program",
    "pretty",
    "Token",
    "TokenKind",
]
