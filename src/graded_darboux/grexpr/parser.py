"""Recursive-descent parser and printer for the expression grammar.

    expr   := term (('+'|'-') term)*
    term   := factor (('*'|'/') factor)*
    factor := base ('^' INT)?
    base   := NUMBER | IDENT | 'd' '(' IDENT ')' | FUNC '(' expr ')'
            | '(' expr ')' | '-' factor

FUNC is one of sin, cos, exp, log, sinh, cosh.  NUMBER is a decimal
(scientific notation allowed) or integer; all numeric literals parse to
exact rationals.  '*' is the graded product.  The printer emits strings
that re-parse to an equal expression.
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import List, Optional, Tuple

from .chart import ChartSpec
from .expr import (FUNC_KINDS, GradedExpr, ParityError, apply_func, const,
                   coord, diff, gdiv, gmul, is_exact_coeff)


class ParseError(ValueError):
    def __init__(self, msg: str, pos: int):
        super().__init__(f"{msg} (at position {pos})")
        self.pos = pos


_TOKEN_RE = re.compile(
    r"\s*(?:(?P<num>\d+(?:\.\d+)?(?:[eE][+-]?\d+)?)"
    r"|(?P<ident>[A-Za-z_][A-Za-z0-9_]*)"
    r"|(?P<op>[-+*/^()]))"
)


def _tokenize(text: str) -> List[Tuple[str, str, int]]:
    out = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            if text[pos:].strip() == "":
                break
            raise ParseError(f"unexpected character {text[pos]!r}", pos)
        if m.lastgroup is None:
            break
        out.append((m.lastgroup, m.group(m.lastgroup), m.start(m.lastgroup)))
        pos = m.end()
    out.append(("end", "", len(text)))
    return out


class _Parser:
    def __init__(self, text: str, chart: ChartSpec):
        self.tokens = _tokenize(text)
        self.chart = chart
        self.i = 0

    def peek(self):
        return self.tokens[self.i]

    def next(self):
        t = self.tokens[self.i]
        self.i += 1
        return t

    def expect(self, value: str):
        kind, val, pos = self.next()
        if val != value:
            raise ParseError(f"expected {value!r}, found {val or 'end of input'!r}", pos)

    def parse(self) -> GradedExpr:
        e = self.expr()
        kind, val, pos = self.peek()
        if kind != "end":
            raise ParseError(f"trailing input {val!r}", pos)
        return e

    def expr(self) -> GradedExpr:
        e = self.term()
        while self.peek()[1] in ("+", "-"):
            op = self.next()[1]
            rhs = self.term()
            e = e + rhs if op == "+" else e - rhs
        return e

    def term(self) -> GradedExpr:
        e = self.factor()
        while self.peek()[1] in ("*", "/"):
            _, op, pos = self.next()
            base, k = self.power()
            try:
                if op == "/" and (k or 0) > 1 and len(base.terms) > 1:
                    # a/b^k for a sum b divides by b k times: a*(1/b)^k,
                    # the same expression as a*(1/b)^k spelt that way
                    for _ in range(k):
                        e = gdiv(e, base)
                else:
                    rhs = base if k is None else base ** k
                    e = gmul(e, rhs) if op == "*" else gdiv(e, rhs)
            except (ParityError, ZeroDivisionError) as exc:
                raise ParseError(str(exc), pos) from exc
        return e

    def factor(self) -> GradedExpr:
        base, k = self.power()
        return base if k is None else base ** k

    def power(self) -> Tuple[GradedExpr, Optional[int]]:
        """A base and its exponent, None when none is written."""
        e = self.base()
        if self.peek()[1] != "^":
            return e, None
        self.next()
        kind, val, pos = self.next()
        if kind != "num" or not val.isdigit():
            raise ParseError("exponent must be a non-negative integer", pos)
        return e, int(val)

    def base(self) -> GradedExpr:
        kind, val, pos = self.next()
        if kind == "num":
            return const(self.chart, Fraction(val))
        if val == "(":
            e = self.expr()
            self.expect(")")
            return e
        if val == "-":
            return -self.factor()
        if kind == "ident":
            if val == "d" and self.peek()[1] == "(":
                self.next()
                k2, name, p2 = self.next()
                if k2 != "ident":
                    raise ParseError("expected a coordinate name in d(...)", p2)
                if name not in self.chart.names:
                    raise ParseError(f"differential of unknown coordinate {name!r}", p2)
                self.expect(")")
                return diff(self.chart, name)
            if val in FUNC_KINDS and self.peek()[1] == "(":
                self.next()
                arg = self.expr()
                self.expect(")")
                try:
                    return apply_func(val, arg)
                except ParityError as exc:
                    raise ParseError(str(exc), pos) from exc
            if val in self.chart.names:
                return coord(self.chart, val)
            raise ParseError(f"unknown identifier {val!r}", pos)
        raise ParseError(f"unexpected {val or 'end of input'!r}", pos)


def parse_expr(text: str, chart: ChartSpec) -> GradedExpr:
    """Parse ``text`` over ``chart`` into a canonical expression."""
    return _Parser(text, chart).parse()


# -- printing -----------------------------------------------------------------


def _format_number(c) -> str:
    if is_exact_coeff(c):
        if c.denominator == 1:
            return str(c.numerator)
        return f"{c.numerator}/{c.denominator}"
    return repr(c)


def _format_monomial(m, chart: ChartSpec) -> str:
    num: List[str] = []
    den: List[str] = []
    for a in m.atoms:
        arg = format_expr(a.arg)
        if a.kind == "inv":
            den.append(f"/({arg})" + (f"^{a.power}" if a.power > 1 else ""))
        else:
            num.append(f"{a.kind}({arg})" + (f"^{a.power}" if a.power > 1 else ""))
    for i, k in enumerate(m.cexp):
        if k:
            num.append(chart.coords[i].name + (f"^{k}" if k > 1 else ""))
    for i, k in enumerate(m.dexp):
        if k:
            num.append(f"d({chart.coords[i].name})" + (f"^{k}" if k > 1 else ""))

    c = abs(m.coeff)
    if not num:
        head = _format_number(c)
    elif c == 1 and is_exact_coeff(m.coeff):
        head = "*".join(num)
    else:
        head = "*".join([_format_number(c)] + num)
    return head + "".join(den)


def format_expr(e: GradedExpr) -> str:
    """Canonical string form; round-trips through parse_expr."""
    if e.is_zero():
        return "0"
    parts = []
    for idx, m in enumerate(e.terms):
        body = _format_monomial(m, e.chart)
        neg = m.coeff < 0
        if idx == 0:
            parts.append(("-" if neg else "") + body)
        else:
            parts.append((" - " if neg else " + ") + body)
    return "".join(parts)
