"""The algebra-expression grammar used by the CLI.

    expr := ['-'] term (('+'|'-') term)*
    term := atom+                      (juxtaposition is multiplication)
    atom := scalar | ident ['*'] | '(' expr ')' ['*'] | '1'

A ``*`` immediately following an identifier or ``)`` (no whitespace) is the
ghost/involution postfix; any other ``*`` is multiplication.  Scalars are the
field literals: integers, ``a/b``, variable names, ``xbar``.  Identifiers are
resolved against the graph first, then against the field.  Parentheses nest
at most ``MAX_NESTING`` deep, so the recursive descent stays far from
Python's recursion limit.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction

from . import algebra, fields


MAX_NESTING = 100


class ExprError(ValueError):
    def __init__(self, message, col=None):
        self.col = col
        if col is not None:
            message = f"column {col}: {message}"
        super().__init__(message)


@dataclass(frozen=True)
class Token:
    kind: str       # NUM IDENT PLUS MINUS LPAREN RPAREN STAR MUL
    text: str
    col: int


_IDENT_RE = re.compile(r"[A-Za-z_]\w*")
_NUM_RE = re.compile(r"\d+(?:/\d+)?")


def tokenize(text):
    out = []
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch.isdigit():
            m = _NUM_RE.match(text, i)
            out.append(Token("NUM", m.group(), i + 1))
            i = m.end()
            continue
        if ch.isalpha() or ch == "_":
            m = _IDENT_RE.match(text, i)
            out.append(Token("IDENT", m.group(), i + 1))
            i = m.end()
            continue
        if ch == "*":
            prev = out[-1] if out else None
            tight = prev is not None and prev.col + len(prev.text) - 1 == i
            if tight and prev.kind in ("IDENT", "RPAREN", "STAR"):
                # a second tight star is multiplication, not a double ghost
                if prev.kind == "STAR":
                    out.append(Token("MUL", "*", i + 1))
                else:
                    out.append(Token("STAR", "*", i + 1))
            else:
                out.append(Token("MUL", "*", i + 1))
            i += 1
            continue
        simple = {"+": "PLUS", "-": "MINUS", "(": "LPAREN", ")": "RPAREN"}
        if ch in simple:
            out.append(Token(simple[ch], ch, i + 1))
            i += 1
            continue
        raise ExprError(f"unexpected character {ch!r}", i + 1)
    return out


class _Parser:
    def __init__(self, tokens, g, field, mode):
        self.tokens = tokens
        self.pos = 0
        self.depth = 0
        self.g = g
        self.field = field
        self.mode = mode

    def peek(self):
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def take(self, kind=None):
        tok = self.peek()
        if tok is None:
            raise ExprError("unexpected end of expression")
        if kind and tok.kind != kind:
            raise ExprError(f"expected {kind}, found {tok.text!r}", tok.col)
        self.pos += 1
        return tok

    def parse(self):
        value = self.expr()
        tok = self.peek()
        if tok is not None:
            raise ExprError(f"trailing input {tok.text!r}", tok.col)
        return value

    def expr(self):
        signs = dict(zip(("PLUS", "MINUS"), self.field.signs))
        tok = self.peek()
        sign = signs[self.take().kind] if tok and tok.kind == "MINUS" else signs["PLUS"]
        scaled = [(self.term(), sign)]
        while self.peek() and self.peek().kind in signs:
            sign = signs[self.take().kind]
            scaled.append((self.term(), sign))
        return algebra.zero(self.g, self.field, self.mode).add_scaled(scaled)

    def term(self):
        value = self.atom()
        while True:
            tok = self.peek()
            if tok is None or tok.kind in ("PLUS", "MINUS", "RPAREN"):
                return value
            if tok.kind == "MUL":
                self.take()
                tok = self.peek()
                if tok is None or tok.kind not in ("NUM", "IDENT", "LPAREN"):
                    raise ExprError("dangling multiplication")
            value = value * self.atom()

    def atom(self):
        tok = self.take()
        if tok.kind == "NUM":
            if "/" in tok.text:
                a, b = map(fields.parse_int, tok.text.split("/"))
                try:
                    k = fields.from_fraction(self.field, Fraction(a, b))
                except ZeroDivisionError:
                    raise ExprError(f"zero denominator in {tok.text!r}", tok.col) from None
            else:
                k = fields.from_int(self.field, fields.parse_int(tok.text))
            return algebra.scalar(self.g, self.field, k, self.mode)
        if tok.kind == "LPAREN":
            self.depth += 1
            if self.depth > MAX_NESTING:
                raise ExprError(f"parentheses nested deeper than {MAX_NESTING}", tok.col)
            value = self.expr()
            self.take("RPAREN")
            self.depth -= 1
            return self._maybe_star(value)
        if tok.kind == "IDENT":
            return self._maybe_star(self._resolve(tok))
        raise ExprError(f"unexpected {tok.text!r}", tok.col)

    def _maybe_star(self, value):
        if self.peek() and self.peek().kind == "STAR":
            self.take()
            return algebra.star(value)
        return value

    def _resolve(self, tok):
        name = tok.text
        if name in self.g.edge_map:
            return algebra.edge_element(self.g, self.field, name, self.mode)
        if name in set(self.g.vertices):
            return algebra.vertex_element(self.g, self.field, name, self.mode)
        try:
            k = fields.parse_element(self.field, name)
        except fields.FieldError:
            raise ExprError(
                f"unknown identifier {name!r} (not a vertex, edge, or field literal)",
                tok.col,
            ) from None
        return algebra.scalar(self.g, self.field, k, self.mode)


def parse_expr(text, g, field, mode=algebra.LEAVITT):
    tokens = tokenize(text)
    if not tokens:
        raise ExprError("empty expression")
    return _Parser(tokens, g, field, mode).parse()
