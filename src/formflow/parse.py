"""Parser for the infix expression grammar used in config files.

Grammar (whitespace insensitive):

    expr   := term (('+' | '-') term)*
    term   := unary (('*' | '/') unary)*
    unary  := ('-' | '+') unary | power
    power  := atom ('^' exponent)?
    atom   := NUMBER | NAME | NAME '(' expr (',' expr)* ')' | '(' expr ')'

Exponents must be integer literals, optionally parenthesized and signed.
Names resolve to chart coordinates first, then to the builtin constant pi,
then to the known functions (sin cos exp ln sqrt atan2) when called, and
otherwise to free parameters.  Errors carry 1-based line and column.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from . import expr as ex

__all__ = ["ParseError", "parse_scalar", "parse_scalar_list", "quoted"]


class ParseError(Exception):
    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"line {line}, column {column}: {message}")
        self.line = line
        self.column = column


def quoted(text: str, limit: int = 60) -> str:
    """repr(text) for an error message; past `limit` characters, the repr
    of its first `limit` and the full length."""
    if len(text) <= limit:
        return repr(text)
    return f"{text[:limit]!r}... ({len(text)} characters)"


@dataclass(frozen=True)
class _Token:
    kind: str  # "num", "name", "op", "end"
    text: str
    line: int
    column: int
    value: object = None


_OPS = set("+-*/^(),")

# Deepest nesting of parentheses, function calls, prefix signs and divisions
# a config expression may use; each '/' in a term nests one more Quotient.
# The parser takes up to five Python frames per level, so a much deeper
# expression would exhaust the interpreter's recursion limit; past the cap
# it is a located config error instead.
MAX_NESTING = 100


def _tokenize(text: str) -> list[_Token]:
    tokens: list[_Token] = []
    line, col = 1, 1
    i = 0
    n = len(text)
    while i < n:
        c = text[i]
        if c == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if c.isspace():
            i += 1
            col += 1
            continue
        if c in _OPS:
            tokens.append(_Token("op", c, line, col))
            i += 1
            col += 1
            continue
        if c.isdecimal() or (c == "." and i + 1 < n and text[i + 1].isdecimal()):
            start = i
            start_col = col
            has_dot = False
            has_exp = False
            while i < n:
                ch = text[i]
                if ch.isdecimal():
                    i += 1
                elif ch == "." and not has_dot and not has_exp:
                    has_dot = True
                    i += 1
                elif ch in "eE" and not has_exp and i + 1 < n and (
                    text[i + 1].isdecimal()
                    or (text[i + 1] in "+-" and i + 2 < n and text[i + 2].isdecimal())
                ):
                    has_exp = True
                    i += 1
                    if text[i] in "+-":
                        i += 1
                else:
                    break
            lit = text[start:i]
            col += i - start
            if math.isinf(float(lit)):
                raise ParseError("number too large for a float", line, start_col)
            if has_dot or has_exp:
                value = float(lit)
            else:
                value = Fraction(int(lit))
            tokens.append(_Token("num", lit, line, start_col, value))
            continue
        if c.isalpha() or c == "_":
            start = i
            start_col = col
            while i < n and (text[i].isalnum() or text[i] == "_"):
                i += 1
            col += i - start
            tokens.append(_Token("name", text[start:i], line, start_col))
            continue
        raise ParseError(f"unexpected character {c!r}", line, col)
    tokens.append(_Token("end", "", line, col))
    return tokens


class _Parser:
    def __init__(self, tokens: list[_Token], chart: ex.Chart):
        self.tokens = tokens
        self.pos = 0
        self.chart = chart
        self.depth = 0

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def advance(self) -> _Token:
        t = self.tokens[self.pos]
        self.pos += 1
        return t

    def enter(self, t: _Token) -> None:
        """Open one nesting level at token t; leave() closes it."""
        self.depth += 1
        if self.depth > MAX_NESTING:
            raise ParseError(
                f"expression nested deeper than {MAX_NESTING} levels", t.line, t.column
            )

    def leave(self) -> None:
        self.depth -= 1

    def expect_op(self, op: str) -> _Token:
        t = self.peek()
        if t.kind != "op" or t.text != op:
            found = quoted(t.text or "end of input")
            raise ParseError(f"expected {op!r}, found {found}", t.line, t.column)
        return self.advance()

    def parse_expr(self) -> ex.ScalarExpr:
        node = self.parse_term()
        while True:
            t = self.peek()
            if t.kind == "op" and t.text in "+-":
                self.advance()
                rhs = self.parse_term()
                try:
                    node = ex.add(node, rhs if t.text == "+" else ex.negate(rhs))
                except ex.ExprError as e:
                    raise ParseError(str(e), t.line, t.column) from None
            else:
                return node

    def parse_term(self) -> ex.ScalarExpr:
        node = self.parse_unary()
        divisions = 0  # each '/' nests the term one Quotient deeper
        while True:
            t = self.peek()
            if t.kind == "op" and t.text in "*/":
                self.advance()
                if t.text == "/":
                    divisions += 1
                    self.enter(t)
                rhs = self.parse_unary()
                try:
                    node = ex.mul(node, rhs) if t.text == "*" else ex.quotient(node, rhs)
                except ex.ExprError as e:
                    raise ParseError(str(e), t.line, t.column) from None
            else:
                self.depth -= divisions
                return node

    def parse_unary(self) -> ex.ScalarExpr:
        t = self.peek()
        if t.kind == "op" and t.text in "+-":
            self.advance()
            self.enter(t)
            inner = self.parse_unary()
            self.leave()
            return inner if t.text == "+" else ex.negate(inner)
        return self.parse_power()

    def parse_power(self) -> ex.ScalarExpr:
        base = self.parse_atom()
        t = self.peek()
        if t.kind == "op" and t.text == "^":
            self.advance()
            k = self.parse_exponent()
            try:
                return ex.power(base, k)
            except ex.ExprError as e:
                raise ParseError(str(e), t.line, t.column) from None
        return base

    def parse_exponent(self) -> int:
        t = self.peek()
        if t.kind == "op" and t.text == "(":
            self.advance()
            self.enter(t)
            k = self.parse_exponent()
            self.expect_op(")")
            self.leave()
            return k
        sign = 1
        while t.kind == "op" and t.text in "+-":
            if t.text == "-":
                sign = -sign
            self.advance()
            t = self.peek()
        if t.kind != "num" or not isinstance(t.value, Fraction):
            raise ParseError("exponent must be an integer literal", t.line, t.column)
        self.advance()
        return sign * int(t.value)

    def parse_atom(self) -> ex.ScalarExpr:
        t = self.peek()
        if t.kind == "num":
            self.advance()
            return ex.Const(t.value)
        if t.kind == "op" and t.text == "(":
            self.advance()
            self.enter(t)
            node = self.parse_expr()
            self.expect_op(")")
            self.leave()
            return node
        if t.kind == "name":
            self.advance()
            nxt = self.peek()
            if nxt.kind == "op" and nxt.text == "(":
                if t.text not in ex.FUNCTION_ARITY:
                    raise ParseError(f"unknown function {quoted(t.text)}", t.line, t.column)
                self.advance()
                self.enter(t)
                args = [self.parse_expr()]
                while self.peek().kind == "op" and self.peek().text == ",":
                    self.advance()
                    args.append(self.parse_expr())
                self.expect_op(")")
                self.leave()
                if len(args) != ex.FUNCTION_ARITY[t.text]:
                    raise ParseError(
                        f"{t.text} takes {ex.FUNCTION_ARITY[t.text]} argument(s), "
                        f"got {len(args)}",
                        t.line,
                        t.column,
                    )
                return ex.func(t.text, *args)
            if t.text in self.chart.names:
                return ex.coord(self.chart.index(t.text))
            if t.text == "pi":
                return ex.Const(math.pi)
            return ex.param(t.text)
        raise ParseError(
            f"expected a number, name, or '(', found {quoted(t.text or 'end of input')}",
            t.line,
            t.column,
        )


def parse_scalar(text: str, chart: ex.Chart) -> ex.ScalarExpr:
    """Parse one expression; the whole text must be consumed."""
    p = _Parser(_tokenize(text), chart)
    node = p.parse_expr()
    t = p.peek()
    if t.kind != "end":
        raise ParseError(f"unexpected trailing input {quoted(t.text)}", t.line, t.column)
    return node


def parse_scalar_list(text: str, chart: ex.Chart) -> tuple[ex.ScalarExpr, ...]:
    """Parse a comma-separated list of expressions."""
    p = _Parser(_tokenize(text), chart)
    out = [p.parse_expr()]
    while p.peek().kind == "op" and p.peek().text == ",":
        p.advance()
        out.append(p.parse_expr())
    t = p.peek()
    if t.kind != "end":
        raise ParseError(f"unexpected trailing input {quoted(t.text)}", t.line, t.column)
    return tuple(out)
