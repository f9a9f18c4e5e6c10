"""Lexer for the CLC configuration language.

The token stream feeds :mod:`repro.lang.parser`. Quoted strings that
contain ``${...}`` interpolations are emitted as ``TEMPLATE`` tokens
whose value is a list of ``("lit", text)`` / ``("expr", source, span)``
parts; the parser re-lexes the expression sources recursively.

Scanning is compiled: every token that cannot span a line is one
alternative of :data:`_MASTER`, and a position is ``(line, offset -
line_start + 1)``. What can be long or span lines -- a string with
escapes or interpolations, a heredoc, a block comment -- is walked by
the ``scan_*`` / ``*_end`` functions below, which jump from one
character that matters to the next. :mod:`repro.lang.chunker` calls the
same functions, so "where does this construct end" has one answer.
"""

from __future__ import annotations

import re
from typing import Any, List, Optional, Tuple, Union

from .diagnostics import CLCSyntaxError, SourceSpan
from .tokens import OPERATORS, Token, TokenType

_ESCAPES = {
    "n": "\n",
    "t": "\t",
    "r": "\r",
    "f": "\f",
    "b": "\b",
    '"': '"',
    "\\": "\\",
    "$": "$",
}

# -- pattern pieces shared with the chunker ---------------------------------

#: a string the lexer takes in one match: no escape, no ``$``, closed on
#: its own line
SIMPLE_STRING = r'"[^"\\$\n]*"'
LINE_COMMENT = r"\#[^\n]*|//[^\n]*"

_STRING_RUN = re.compile(r'[^"\\$\n]*')
_HEX_RUN = re.compile(r"[0-9A-Fa-f]{0,4}")
_HEREDOC_OPEN = re.compile(r"<<(-?)([A-Za-z0-9_]*)")
# inside ``${...}`` only braces and quotes matter; a string in there may
# hold anything, newlines included, and ends at the first unescaped quote
_INTERPOLATION_RUN = re.compile(r'(?:[^{}"]+|"[^"\\]*(?:\\.[^"\\]*)*")*', re.S)


def _operator_alternatives(literals) -> str:
    alts = []
    for literal in sorted(literals, key=len, reverse=True):
        alt = re.escape(literal)
        if literal == "<":
            alt += "(?!<)"  # ``<<`` always opens a heredoc
        elif literal == "/":
            alt += "(?![/*])"  # ``//`` and ``/*`` open comments
        alts.append(alt)
    return "|".join(alts)


_OPERATOR_TYPE = dict(OPERATORS)

# group numbers are what ``tokens()`` dispatches on; ``( [`` and ``) ]``
# have groups of their own because NEWLINE is suppressed between them
_IDENT, _OP, _NEWLINE, _STRING, _OPEN, _CLOSE, _NUMBER, _COMMENT = range(1, 9)
_MASTER = re.compile(
    r"[ \t\r]*(?:"
    r"([A-Za-z_][A-Za-z0-9_]*)"
    r"|(%s)"
    r"|(\n)"
    r"|(%s)"
    r"|([(\[])"
    r"|([)\]])"
    r"|([0-9]+(?:\.[0-9]+)?(?:[eE][+-]?[0-9]+)*)"
    r"|(%s)"
    r")?"
    % (
        _operator_alternatives(
            lit for lit in _OPERATOR_TYPE if lit not in ("(", "[", ")", "]")
        ),
        SIMPLE_STRING,
        LINE_COMMENT,
    )
)

#: ``(message, offset)``: what is wrong with a construct, and where
Problem = Tuple[str, int]
#: decoded literal text, or the ``(start, end)`` offsets of a ``${...}`` body
Piece = Union[str, Tuple[int, int]]


def interpolation_end(source: str, i: int) -> int:
    """Offset of the ``}`` closing the ``${`` whose body starts at ``i``,
    or -1 when the source ends first."""
    depth = 1
    run = _INTERPOLATION_RUN.match
    while True:
        i = run(source, i).end()
        ch = source[i : i + 1]
        if ch == "}":
            depth -= 1
            if depth == 0:
                return i
        elif ch == "{":
            depth += 1
        else:
            return -1  # end of source, or a quote that never closes
        i += 1


def scan_string(
    source: str, i: int
) -> Tuple[int, List[Piece], Optional[Problem]]:
    """Walk the quoted string opening at ``source[i]``.

    Returns ``(end, pieces, problem)``: ``end`` is just past the closing
    quote, ``pieces`` the literal runs (escapes decoded, ``$${`` undone)
    and interpolation bodies in order. A string that does not close
    stops at the offending offset instead -- a newline, the end of the
    source, a bad escape -- and says why in ``problem``; the lexer
    raises it, the chunker carries on from ``end``.
    """
    n = len(source)
    pieces: List[Piece] = []
    run = _STRING_RUN.match
    i += 1
    while True:
        j = run(source, i).end()
        if j > i:
            pieces.append(source[i:j])
        ch = source[j : j + 1]
        if ch == '"':
            return j + 1, pieces, None
        if ch == "\\":
            esc = source[j + 1 : j + 2]
            if esc == "u":
                digits = _HEX_RUN.match(source, j + 2).group()
                if len(digits) != 4:
                    return j, pieces, (f"invalid unicode escape \\u{digits}", j)
                pieces.append(chr(int(digits, 16)))
                i = j + 6
            elif esc in _ESCAPES:
                pieces.append(_ESCAPES[esc])
                i = j + 2
            else:
                return j, pieces, (f"invalid escape sequence \\{esc}", j + 1)
        elif ch == "$":
            if source.startswith("{", j + 1):
                close = interpolation_end(source, j + 2) if j + 2 < n else -1
                if close < 0:
                    # a ``${`` with nothing after it is blamed where it
                    # stands, an open body where the source ends
                    at = n if j + 2 < n else j
                    return n, pieces, ("unterminated interpolation", at)
                pieces.append((j + 2, close))
                i = close + 1
            else:
                # a lone ``$``, or the first of ``$${`` (whose ``{`` the
                # next run takes as text)
                pieces.append("$")
                i = j + 2 if source.startswith("${", j + 1) else j + 1
        elif ch == "\n":
            return j, pieces, ("newline in string literal", j)
        else:
            return j, pieces, ("unterminated string literal", j)


def scan_heredoc(source: str, i: int) -> Tuple[int, str, bool, Optional[Problem]]:
    """Walk the heredoc whose ``<<`` is at ``source[i]``.

    Returns ``(end, body, strip_indent, problem)``. The heredoc ends at
    the first line after the opener's that is the delimiter word once
    stripped *and* has a newline after it; ``end`` is that newline,
    which stays for the caller (it ends the heredoc *item*, so an
    attribute may follow on the next line), and ``body`` the raw lines
    in between. With no delimiter word or no closing line, ``problem``
    says so and ``end`` is where a scanner that must not stop carries
    on.
    """
    opener = _HEREDOC_OPEN.match(source, i)
    strip_indent, marker = opener.group(1) == "-", opener.group(2)
    if not marker:
        at = opener.end()
        return at, "", strip_indent, ("heredoc requires a delimiter word", at)
    # the rest of the opener's line is skipped, whatever it holds
    body_start = source.find("\n", opener.end())
    close = None
    if body_start >= 0:
        pattern = re.compile(r"\n[^\S\n]*%s[^\S\n]*(?=\n)" % marker)
        close = pattern.search(source, body_start)
    if close is None:
        n = len(source)
        return n, "", strip_indent, (f"unterminated heredoc (expected {marker})", n)
    body = source[body_start + 1 : close.start() + 1]
    return close.end(), body, strip_indent, None


def block_comment_end(source: str, i: int) -> int:
    """Offset just past the ``*/`` closing the ``/*`` at ``i``, or -1."""
    close = source.find("*/", i + 2)
    return close + 2 if close >= 0 else -1


def _line_at(
    source: str, start: int, end: int, line: int, line_start: int
) -> Tuple[int, int]:
    """``(line, line_start)`` at offset ``end``, given what they are at
    ``start``: only the newlines in between are looked at."""
    newlines = source.count("\n", start, end)
    if newlines:
        return line + newlines, source.rfind("\n", start, end) + 1
    return line, line_start


class Lexer:
    """Single-pass lexer over one configuration source string."""

    def __init__(
        self, source: str, filename: str = "<config>", start_line: int = 1
    ):
        self.source = source
        self.filename = filename
        # where the first character of ``source`` sits: ``start_line``
        # anchors one chunk of a larger file (streaming parse), and the
        # parser sets both to anchor an interpolation inside its string,
        # so tokens report file-absolute positions
        self.line = start_line
        self.col = 1

    def _error(
        self, message: str, at: int, pos: int, line: int, line_start: int
    ) -> CLCSyntaxError:
        """``message`` at offset ``at``, given that offset ``pos`` (at or
        before it) is on ``line``, which starts at ``line_start``."""
        line, line_start = _line_at(self.source, pos, at, line, line_start)
        col = at - line_start + 1
        return CLCSyntaxError(
            message, SourceSpan(self.filename, line, col, line, col)
        )

    def tokens(self) -> List[Token]:
        """Lex the whole source into a token list ending with EOF."""
        source = self.source
        filename = self.filename
        line = self.line
        # columns are ``offset - line_start + 1``; a first line that
        # starts mid-line (``self.col`` > 1) has a start before offset 0
        line_start = 1 - self.col
        new = tuple.__new__
        ident, string, number, newline = (
            TokenType.IDENT,
            TokenType.STRING,
            TokenType.NUMBER,
            TokenType.NEWLINE,
        )
        out: List[Token] = []
        append = out.append
        depth = 0  # NEWLINE is suppressed inside () and []
        after_newline = False  # runs of newlines collapse into one token
        pos = 0
        while True:
            # the pattern matches everywhere (at worst the empty string),
            # so the iterator steps token to token until it meets
            # something the pattern does not take whole
            for m in _MASTER.finditer(source, pos):
                kind = m.lastindex
                if kind is None:
                    break
                if kind == _NEWLINE:
                    end = m.end()
                    if depth == 0 and not after_newline:
                        span = (filename, line, end - line_start, line + 1, 1)
                        append(new(Token, (newline, "\n", new(SourceSpan, span))))
                        after_newline = True
                    line += 1
                    line_start = end
                    continue
                if kind == _COMMENT:
                    continue
                text = m.group(kind)
                end_col = m.end() - line_start + 1
                span = new(
                    SourceSpan, (filename, line, end_col - len(text), line, end_col)
                )
                if kind == _IDENT:
                    # true/false/null lex as IDENT too; the parser
                    # resolves them so labels like `null_resource` work
                    tok = (ident, text, span)
                elif kind == _STRING:
                    tok = (string, text[1:-1], span)
                elif kind != _NUMBER:
                    if kind == _OPEN:
                        depth += 1
                    elif kind == _CLOSE and depth:
                        depth -= 1
                    tok = (_OPERATOR_TYPE[text], text, span)
                else:
                    try:
                        value = int(text) if text.isdigit() else float(text)
                    except ValueError:
                        # a second exponent (1e5e3), or more digits than
                        # int() will read
                        raise CLCSyntaxError(
                            f"invalid number literal {text!r}", span
                        ) from None
                    tok = (number, value, span)
                append(new(Token, tok))
                after_newline = False

            start = m.end()
            if start >= len(source):
                col = start - line_start + 1
                span = new(SourceSpan, (filename, line, col, line, col))
                append(new(Token, (TokenType.EOF, None, span)))
                return out
            ttype, value, pos = self._lex_long(start, line, line_start)
            end_line, end_start = _line_at(source, start, pos, line, line_start)
            if ttype is not None:
                span = (
                    filename,
                    line,
                    start - line_start + 1,
                    end_line,
                    pos - end_start + 1,
                )
                append(new(Token, (ttype, value, new(SourceSpan, span))))
                after_newline = False
            line, line_start = end_line, end_start

    def _lex_long(
        self, pos: int, line: int, line_start: int
    ) -> Tuple[Optional[TokenType], Any, int]:
        """What the master pattern leaves: a string with escapes or
        interpolations, a heredoc, a block comment (no token: type
        ``None``) -- or a character that starts nothing. Returns
        ``(type, value, end)``."""
        source = self.source
        ch = source[pos]
        if ch == '"':
            return self._lex_string(pos, line, line_start)
        if ch == "<":
            return self._lex_heredoc(pos, line, line_start)
        if ch == "/":
            end = block_comment_end(source, pos)
            if end < 0:
                raise self._error(
                    "unterminated block comment", len(source), pos, line, line_start
                )
            return None, None, end
        raise self._error(f"unexpected character {ch!r}", pos, pos, line, line_start)

    def _lex_string(
        self, pos: int, line: int, line_start: int
    ) -> Tuple[TokenType, Any, int]:
        """The string at ``pos`` as ``(type, value, end)``."""
        source = self.source
        end, pieces, problem = scan_string(source, pos)
        if problem is not None:
            raise self._error(*problem, pos, line, line_start)
        parts: List[Tuple] = []
        lit: List[str] = []
        for piece in pieces:
            if isinstance(piece, str):
                lit.append(piece)
                continue
            if lit:
                parts.append(("lit", "".join(lit)))
                lit = []
            start, stop = piece
            start_line, start_col = line, start - line_start + 1
            line, line_start = _line_at(source, start, stop, line, line_start)
            span = SourceSpan(
                self.filename, start_line, start_col, line, stop - line_start + 1
            )
            parts.append(("expr", source[start:stop], span))
        if not parts:
            return TokenType.STRING, "".join(lit), end
        if lit:
            parts.append(("lit", "".join(lit)))
        return TokenType.TEMPLATE, parts, end

    def _lex_heredoc(
        self, pos: int, line: int, line_start: int
    ) -> Tuple[TokenType, str, int]:
        """The heredoc at ``pos`` as ``(type, text, end)``."""
        end, body, strip_indent, problem = scan_heredoc(self.source, pos)
        if problem is not None:
            raise self._error(*problem, pos, line, line_start)
        if strip_indent and body:
            lines = body[:-1].split("\n")
            pad = min(
                (len(ln) - len(ln.lstrip()) for ln in lines if ln.strip()),
                default=0,
            )
            body = "\n".join(ln[pad:] if len(ln) >= pad else ln for ln in lines) + "\n"
        return TokenType.STRING, body, end


def tokenize(source: str, filename: str = "<config>") -> List[Token]:
    """Convenience wrapper: lex ``source`` into a token list."""
    return Lexer(source, filename).tokens()
