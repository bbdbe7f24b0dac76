"""Tiny expression grammar shared by the potential parser and the catalog
loader: rational constants, named variables, + - * /, parentheses, and
integer powers via ^.  Expressions are evaluated directly over whatever
ring the environment supplies (rationals or rational functions).
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import Callable, Mapping

from .exactmath import ExactMathError


class ExprError(ValueError):
    """Raised for unparseable or unevaluable expressions."""


_TOKEN = re.compile(r"\s*(?:(\d+)|([A-Za-z_][A-Za-z_0-9]*)|(\*\*|[-+*/^()]))")


def _tokenize(text: str) -> list[str]:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m or m.end() == pos:
            raise ExprError(f"unexpected character at position {pos}: {text[pos:pos + 8]!r}")
        number, name, op = m.groups()
        tokens.append(number or name or ("^" if op == "**" else op))
        pos = m.end()
    return tokens


class _Parser:
    def __init__(self, tokens: list[str], env: Mapping, const: Callable):
        self.tokens = tokens
        self.pos = 0
        self.env = env
        self.const = const

    def peek(self) -> str | None:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def take(self) -> str:
        tok = self.peek()
        if tok is None:
            raise ExprError("unexpected end of expression")
        self.pos += 1
        return tok

    def parse(self):
        value = self.expr()
        if self.peek() is not None:
            raise ExprError(f"trailing input from token {self.peek()!r}")
        return value

    def expr(self):
        value = self.term()
        while self.peek() in ("+", "-"):
            if self.take() == "+":
                value = value + self.term()
            else:
                value = value - self.term()
        return value

    def term(self):
        value = self.unary()
        while self.peek() in ("*", "/"):
            op = self.take()
            rhs = self.unary()
            try:
                value = value * rhs if op == "*" else value / rhs
            except ZeroDivisionError as exc:
                raise ExprError("division by zero") from exc
            except ExactMathError as exc:
                raise ExprError(str(exc)) from exc
        return value

    def unary(self):
        if self.peek() == "-":
            self.take()
            return -self.unary()
        if self.peek() == "+":
            self.take()
            return self.unary()
        return self.power()

    def power(self):
        base = self.atom()
        if self.peek() == "^":
            self.take()
            negative = False
            if self.peek() == "-":
                self.take()
                negative = True
            tok = self.take()
            if not tok.isdigit():
                raise ExprError(f"exponent must be an integer literal, got {tok!r}")
            n = int(tok)
            try:
                result = base ** n
                if negative:
                    result = self.const(1) / result
                return result
            except ZeroDivisionError as exc:
                raise ExprError("division by zero") from exc
            except ExactMathError as exc:
                raise ExprError(str(exc)) from exc
        return base

    def atom(self):
        tok = self.take()
        if tok.isdigit():
            return self.const(Fraction(tok))
        if tok == "(":
            value = self.expr()
            if self.take() != ")":
                raise ExprError("missing closing parenthesis")
            return value
        if tok in self.env:
            return self.env[tok]
        if re.fullmatch(r"[A-Za-z_][A-Za-z_0-9]*", tok):
            raise ExprError(f"unknown variable {tok!r}")
        raise ExprError(f"unexpected token {tok!r}")


def eval_expr(text: str, env: Mapping, const: Callable = Fraction):
    """Evaluate an expression over the ring defined by env/const.

    env maps variable names to ring elements; const embeds a Fraction.
    The parser recurses once per nesting level (a parenthesis or a unary
    sign), so input nested past the interpreter's recursion limit is an
    unusable expression.
    """
    if not text.strip():
        raise ExprError("empty expression")
    try:
        return _Parser(_tokenize(text), env, const).parse()
    except RecursionError:
        raise ExprError("expression is nested too deeply") from None


def eval_rational(text: str, env: Mapping[str, Fraction] | None = None) -> Fraction:
    """Evaluate an expression to an exact rational number."""
    value = eval_expr(text, env or {}, Fraction)
    return Fraction(value)
