"""Token definitions for the CLC lexer."""

from __future__ import annotations

import enum
from typing import Any, NamedTuple

from .diagnostics import SourceSpan


class TokenType(enum.Enum):
    """Every lexical category recognized by the CLC lexer."""

    # literals / identifiers
    IDENT = "ident"
    NUMBER = "number"
    STRING = "string"  # a fully-literal (non-interpolated) string
    HEREDOC = "heredoc"

    # punctuation
    LBRACE = "{"
    RBRACE = "}"
    LBRACKET = "["
    RBRACKET = "]"
    LPAREN = "("
    RPAREN = ")"
    COMMA = ","
    DOT = "."
    COLON = ":"
    ASSIGN = "="
    ARROW = "=>"
    QUESTION = "?"
    ELLIPSIS = "..."

    # operators
    PLUS = "+"
    MINUS = "-"
    STAR = "*"
    SLASH = "/"
    PERCENT = "%"
    EQ = "=="
    NEQ = "!="
    LT = "<"
    GT = ">"
    LTE = "<="
    GTE = ">="
    AND = "&&"
    OR = "||"
    BANG = "!"

    # string interpolation pieces (produced by re-lexing string templates)
    TEMPLATE = "template"  # string with ${...} parts, carried structured

    NEWLINE = "newline"
    EOF = "eof"


class Token(NamedTuple):
    """One lexeme with its decoded value and source span.

    A tuple, like :class:`SourceSpan`: the lexer builds one per lexeme
    and a frozen dataclass pays three ``object.__setattr__`` for it."""

    type: TokenType
    value: Any
    span: SourceSpan

    def __str__(self) -> str:  # pragma: no cover - debugging aid
        return f"{self.type.name}({self.value!r})"


KEYWORD_LITERALS = {
    "true": True,
    "false": False,
    "null": None,
}

# Multi-char operators, longest first so the lexer matches greedily.
OPERATORS = [
    ("...", TokenType.ELLIPSIS),
    ("=>", TokenType.ARROW),
    ("==", TokenType.EQ),
    ("!=", TokenType.NEQ),
    ("<=", TokenType.LTE),
    (">=", TokenType.GTE),
    ("&&", TokenType.AND),
    ("||", TokenType.OR),
    ("{", TokenType.LBRACE),
    ("}", TokenType.RBRACE),
    ("[", TokenType.LBRACKET),
    ("]", TokenType.RBRACKET),
    ("(", TokenType.LPAREN),
    (")", TokenType.RPAREN),
    (",", TokenType.COMMA),
    (".", TokenType.DOT),
    (":", TokenType.COLON),
    ("=", TokenType.ASSIGN),
    ("?", TokenType.QUESTION),
    ("+", TokenType.PLUS),
    ("-", TokenType.MINUS),
    ("*", TokenType.STAR),
    ("/", TokenType.SLASH),
    ("%", TokenType.PERCENT),
    ("<", TokenType.LT),
    (">", TokenType.GT),
    ("!", TokenType.BANG),
]
