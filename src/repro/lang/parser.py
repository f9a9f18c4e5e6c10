"""Recursive-descent parser for CLC.

Produces the AST defined in :mod:`repro.lang.ast_nodes`. The grammar is
modeled on HCL2: files contain attributes and blocks; expressions
support literals, templates, traversals, operators, conditionals,
function calls, list/object constructors, splats, and ``for``
comprehensions.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from .ast_nodes import (
    AttrAccess,
    Attribute,
    BinaryOp,
    Block,
    Body,
    Conditional,
    ConfigFile,
    Expr,
    ForExpr,
    FunctionCall,
    IndexAccess,
    ListExpr,
    Literal,
    ObjectExpr,
    ScopeRef,
    SplatExpr,
    TemplateExpr,
    UnaryOp,
)
from .diagnostics import CLCSyntaxError, SourceSpan
from .lexer import Lexer
from .tokens import KEYWORD_LITERALS, Token, TokenType

# binary operator precedence, higher binds tighter
_BINARY_PRECEDENCE = {
    TokenType.OR: 1,
    TokenType.AND: 2,
    TokenType.EQ: 3,
    TokenType.NEQ: 3,
    TokenType.LT: 4,
    TokenType.GT: 4,
    TokenType.LTE: 4,
    TokenType.GTE: 4,
    TokenType.PLUS: 5,
    TokenType.MINUS: 5,
    TokenType.STAR: 6,
    TokenType.SLASH: 6,
    TokenType.PERCENT: 6,
}

# the token types the parser tests for, as module globals: on this
# interpreter an attribute of an Enum class costs ten times a global
# (126 ns against 13), and the parser makes a few of those tests per token
_EOF = TokenType.EOF
_NEWLINE = TokenType.NEWLINE
_IDENT = TokenType.IDENT
_NUMBER = TokenType.NUMBER
_STRING = TokenType.STRING
_TEMPLATE = TokenType.TEMPLATE
_ASSIGN = TokenType.ASSIGN
_COMMA = TokenType.COMMA
_DOT = TokenType.DOT
_COLON = TokenType.COLON
_QUESTION = TokenType.QUESTION
_ARROW = TokenType.ARROW
_ELLIPSIS = TokenType.ELLIPSIS
_STAR = TokenType.STAR
_BANG = TokenType.BANG
_MINUS = TokenType.MINUS
_LPAREN = TokenType.LPAREN
_RPAREN = TokenType.RPAREN
_LBRACKET = TokenType.LBRACKET
_RBRACKET = TokenType.RBRACKET
_LBRACE = TokenType.LBRACE
_RBRACE = TokenType.RBRACE


class Parser:
    """Parses one token stream into a :class:`ConfigFile` or expression."""

    def __init__(self, tokens: List[Token], filename: str = "<config>"):
        self.tokens = tokens  # ends with EOF (the lexer's contract)
        self.filename = filename
        self.pos = 0

    # -- token helpers ---------------------------------------------------
    #
    # ``pos`` never passes the EOF token: ``_advance`` stops there and
    # every bare ``self.pos += 1`` below steps over a token whose type
    # was just seen not to be EOF. So the current token is
    # ``self.tokens[self.pos]`` and only lookahead has to clamp.

    def _peek(self, offset: int = 0) -> Token:
        if offset:
            return self.tokens[min(self.pos + offset, len(self.tokens) - 1)]
        return self.tokens[self.pos]

    def _advance(self) -> Token:
        tok = self.tokens[self.pos]
        if tok.type is not _EOF:
            self.pos += 1
        return tok

    def _check(self, ttype: TokenType) -> bool:
        return self.tokens[self.pos].type is ttype

    def _match(self, ttype: TokenType) -> Optional[Token]:
        if self.tokens[self.pos].type is ttype:
            return self._advance()
        return None

    def _expect(self, ttype: TokenType, what: str = "") -> Token:
        tok = self.tokens[self.pos]
        if tok.type is not ttype:
            want = what or ttype.value
            raise CLCSyntaxError(
                f"expected {want}, found {tok.type.value} ({tok.value!r})", tok.span
            )
        return self._advance()

    def _skip_newlines(self) -> None:
        tokens = self.tokens
        while tokens[self.pos].type is _NEWLINE:
            self.pos += 1

    def _skip_separators(self) -> None:
        tokens = self.tokens
        while (ttype := tokens[self.pos].type) is _NEWLINE or ttype is _COMMA:
            self.pos += 1

    # -- file / body -----------------------------------------------------

    def parse_file(self) -> ConfigFile:
        body = self._parse_body(top_level=True)
        self._expect(_EOF, "end of file")
        return ConfigFile(body=body, filename=self.filename)

    def _parse_body(self, top_level: bool = False) -> Body:
        body = Body()
        tokens = self.tokens
        while True:
            self._skip_newlines()
            tok = tokens[self.pos]
            ttype = tok.type
            if ttype is _IDENT:
                self._parse_body_item(body)
            elif ttype is _RBRACE:
                return body
            elif ttype is _EOF:
                if not top_level:
                    raise CLCSyntaxError("unexpected end of file in block", tok.span)
                return body
            else:
                raise CLCSyntaxError(
                    f"expected attribute or block, found {tok.value!r}", tok.span
                )

    def _parse_body_item(self, body: Body) -> None:
        tokens = self.tokens
        name_tok = tokens[self.pos]  # an IDENT: _parse_body looked
        self.pos += 1
        name = name_tok.value
        if tokens[self.pos].type is _ASSIGN:
            self.pos += 1
            expr = self.parse_expression()
            span = name_tok.span.merge(expr.span)
            if name in body.attributes:
                raise CLCSyntaxError(f"duplicate attribute {name!r}", name_tok.span)
            body.attributes[name] = Attribute(name=name, expr=expr, span=span)
            self._end_of_item()
            return
        # otherwise: block with zero or more labels
        labels: List[str] = []
        while True:
            tok = tokens[self.pos]
            if tok.type is _STRING:
                labels.append(tok.value)
                self.pos += 1
            elif tok.type is _IDENT and self._peek(1).type in (
                _LBRACE,
                _STRING,
                _IDENT,
            ):
                # bare-word label (rare; HCL1 style)
                labels.append(tok.value)
                self.pos += 1
            else:
                break
        open_tok = self._expect(_LBRACE, "'{' to open block body")
        inner = self._parse_body(top_level=False)
        close_tok = self._expect(_RBRACE, "'}' to close block body")
        span = name_tok.span.merge(close_tok.span)
        body.blocks.append(Block(type=name, labels=labels, body=inner, span=span))
        self._end_of_item()

    def _end_of_item(self) -> None:
        tok = self.tokens[self.pos]
        ttype = tok.type
        if ttype is _NEWLINE or ttype is _COMMA:  # a comma: one-line bodies
            self.pos += 1
            return
        if ttype is _EOF or ttype is _RBRACE:
            return
        raise CLCSyntaxError(
            f"expected newline after item, found {tok.value!r}", tok.span
        )

    # -- expressions -------------------------------------------------------

    def parse_expression(self) -> Expr:
        cond = self._parse_binary(1)
        if self._match(_QUESTION):
            self._skip_newlines()
            then = self.parse_expression()
            self._skip_newlines()
            self._expect(_COLON, "':' in conditional")
            self._skip_newlines()
            otherwise = self.parse_expression()
            return Conditional(
                cond=cond,
                then=then,
                otherwise=otherwise,
                span=cond.span.merge(otherwise.span),
            )
        return cond

    def _parse_binary(self, min_prec: int) -> Expr:
        left = self._parse_unary()
        while True:
            tok = self.tokens[self.pos]
            prec = _BINARY_PRECEDENCE.get(tok.type)
            if prec is None or prec < min_prec:
                return left
            self.pos += 1
            self._skip_newlines()
            right = self._parse_binary(prec + 1)
            left = BinaryOp(
                op=tok.value, left=left, right=right, span=left.span.merge(right.span)
            )

    def _parse_unary(self) -> Expr:
        tok = self.tokens[self.pos]
        if tok.type is _BANG or tok.type is _MINUS:
            self.pos += 1
            operand = self._parse_unary()
            return UnaryOp(
                op=tok.value, operand=operand, span=tok.span.merge(operand.span)
            )
        return self._parse_postfix()

    def _parse_postfix(self) -> Expr:
        expr = self._parse_primary()
        tokens = self.tokens
        while True:
            ttype = tokens[self.pos].type
            if ttype is _DOT:
                nxt = self._peek(1)
                if nxt.type is _IDENT:
                    self.pos += 2
                    expr = AttrAccess(
                        obj=expr, name=nxt.value, span=expr.span.merge(nxt.span)
                    )
                    continue
                if nxt.type is _NUMBER and isinstance(nxt.value, int):
                    # legacy numeric traversal: list.0
                    self.pos += 2
                    expr = IndexAccess(
                        obj=expr,
                        index=Literal(nxt.value, nxt.span),
                        span=expr.span.merge(nxt.span),
                    )
                    continue
                if nxt.type is _STAR:
                    # attribute-only splat: list.*.id
                    self.pos += 2
                    expr = self._parse_splat_tail(expr)
                    continue
                raise CLCSyntaxError("expected attribute name after '.'", nxt.span)
            if ttype is _LBRACKET:
                if self._peek(1).type is _STAR and self._peek(2).type is (
                    _RBRACKET
                ):
                    self.pos += 3
                    expr = self._parse_splat_tail(expr)
                    continue
                self.pos += 1
                index = self.parse_expression()
                close_tok = self._expect(_RBRACKET, "']' after index")
                expr = IndexAccess(
                    obj=expr, index=index, span=expr.span.merge(close_tok.span)
                )
                continue
            return expr

    def _parse_splat_tail(self, obj: Expr) -> Expr:
        attrs: List[str] = []
        end_span = obj.span
        while self._check(_DOT) and self._peek(1).type is _IDENT:
            self._advance()
            name_tok = self._advance()
            attrs.append(name_tok.value)
            end_span = name_tok.span
        return SplatExpr(obj=obj, attrs=attrs, span=obj.span.merge(end_span))

    def _parse_primary(self) -> Expr:
        tok = self.tokens[self.pos]
        ttype = tok.type
        if ttype is _IDENT:
            if tok.value in KEYWORD_LITERALS:
                self.pos += 1
                return Literal(KEYWORD_LITERALS[tok.value], tok.span)
            if self._peek(1).type is _LPAREN:
                return self._parse_function_call()
            self.pos += 1
            return ScopeRef(name=tok.value, span=tok.span)
        if ttype is _STRING or ttype is _NUMBER:
            self.pos += 1
            return Literal(tok.value, tok.span)
        if ttype is _TEMPLATE:
            self.pos += 1
            return self._build_template(tok)
        if ttype is _LPAREN:
            self.pos += 1
            self._skip_newlines()
            inner = self.parse_expression()
            self._skip_newlines()
            self._expect(_RPAREN, "')'")
            return inner
        if ttype is _LBRACKET:
            return self._parse_list_or_for()
        if ttype is _LBRACE:
            return self._parse_object_or_for()
        raise CLCSyntaxError(
            f"expected expression, found {tok.type.value} ({tok.value!r})", tok.span
        )

    def _parse_function_call(self) -> Expr:
        name_tok = self._advance()
        self._expect(_LPAREN)
        args: List[Expr] = []
        expand_final = False
        self._skip_newlines()
        while not self._check(_RPAREN):
            args.append(self.parse_expression())
            if self._match(_ELLIPSIS):
                expand_final = True
                self._skip_newlines()
                break
            self._skip_separators()
        close_tok = self._expect(_RPAREN, "')' after arguments")
        return FunctionCall(
            name=name_tok.value,
            args=args,
            expand_final=expand_final,
            span=name_tok.span.merge(close_tok.span),
        )

    def _parse_list_or_for(self) -> Expr:
        open_tok = self._expect(_LBRACKET)
        self._skip_newlines()
        if self._check(_IDENT) and self._peek().value == "for":
            return self._parse_for(open_tok, is_object=False)
        items: List[Expr] = []
        while not self._check(_RBRACKET):
            items.append(self.parse_expression())
            self._skip_separators()
        close_tok = self._expect(_RBRACKET, "']'")
        return ListExpr(items=items, span=open_tok.span.merge(close_tok.span))

    def _parse_object_or_for(self) -> Expr:
        open_tok = self._expect(_LBRACE)
        self._skip_newlines()
        if self._check(_IDENT) and self._peek().value == "for":
            return self._parse_for(open_tok, is_object=True)
        entries: List[Tuple[Expr, Expr]] = []
        while not self._check(_RBRACE):
            key = self._parse_object_key()
            if not (self._match(_ASSIGN) or self._match(_COLON)):
                tok = self._peek()
                raise CLCSyntaxError(
                    f"expected '=' or ':' after object key, found {tok.value!r}",
                    tok.span,
                )
            self._skip_newlines()
            value = self.parse_expression()
            entries.append((key, value))
            self._skip_separators()
        close_tok = self._expect(_RBRACE, "'}'")
        return ObjectExpr(entries=entries, span=open_tok.span.merge(close_tok.span))

    def _parse_object_key(self) -> Expr:
        tok = self._peek()
        if tok.type is _IDENT and self._peek(1).type in (
            _ASSIGN,
            _COLON,
        ):
            self._advance()
            return Literal(tok.value, tok.span)
        if tok.type is _LPAREN:
            self._advance()
            inner = self.parse_expression()
            self._expect(_RPAREN, "')' after computed key")
            return inner
        return self.parse_expression()

    def _parse_for(self, open_tok: Token, is_object: bool) -> Expr:
        self._advance()  # 'for'
        first = self._expect(_IDENT, "loop variable").value
        key_var: Optional[str] = None
        value_var = first
        if self._match(_COMMA):
            key_var = first
            value_var = self._expect(_IDENT, "loop value variable").value
        in_tok = self._expect(_IDENT, "'in'")
        if in_tok.value != "in":
            raise CLCSyntaxError("expected 'in' in for expression", in_tok.span)
        collection = self.parse_expression()
        self._expect(_COLON, "':' in for expression")
        self._skip_newlines()
        result_key: Optional[Expr] = None
        if is_object:
            result_key = self.parse_expression()
            self._expect(_ARROW, "'=>' in object for expression")
            self._skip_newlines()
        result_value = self.parse_expression()
        grouping = bool(self._match(_ELLIPSIS))
        condition: Optional[Expr] = None
        self._skip_newlines()
        if self._check(_IDENT) and self._peek().value == "if":
            self._advance()
            condition = self.parse_expression()
        self._skip_newlines()
        closer = _RBRACE if is_object else _RBRACKET
        close_tok = self._expect(closer, "for expression terminator")
        return ForExpr(
            key_var=key_var,
            value_var=value_var,
            collection=collection,
            result_key=result_key,
            result_value=result_value,
            condition=condition,
            grouping=grouping,
            is_object=is_object,
            span=open_tok.span.merge(close_tok.span),
        )

    # -- templates ---------------------------------------------------------

    def _build_template(self, tok: Token) -> Expr:
        parts: List[Expr] = []
        for part in tok.value:
            if part[0] == "lit":
                parts.append(Literal(part[1], tok.span))
            else:
                _, src, span = part
                parts.append(parse_expression_source(src, self.filename, span))
        return TemplateExpr(parts=parts, span=tok.span)


def parse_file(
    source: str, filename: str = "<config>", start_line: int = 1
) -> ConfigFile:
    """Parse a full CLC source file (or one chunk of it, anchored at
    ``start_line`` so spans stay file-absolute)."""
    lexer = Lexer(source, filename, start_line=start_line)
    return Parser(lexer.tokens(), filename).parse_file()


def parse_expression_source(
    source: str, filename: str = "<expr>", at: Optional[SourceSpan] = None
) -> Expr:
    """Parse a standalone expression (used for template interpolations)."""
    lexer = Lexer(source, filename)
    if at is not None:
        lexer.line = at.start_line
        lexer.col = at.start_col
    parser = Parser(lexer.tokens(), filename)
    expr = parser.parse_expression()
    parser._skip_newlines()
    parser._expect(_EOF, "end of expression")
    return expr
