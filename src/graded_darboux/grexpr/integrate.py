"""Exact antiderivatives for the supported integrand patterns.

Per monomial, the dependence on the integration variable x must be one of:

    * polynomial:                      x**k
    * polynomial times one atom:       x**k * f(a*x + b),  f in
      {sin, cos, exp, sinh, cosh}, a and b free of x
    * a power of 1/x:                  c * x**k / x**p   (including c/x -> log)

Anything else raises NonIntegrable; callers must not fall back silently.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Union

from .chart import EVEN
from .expr import (GradedExpr, Monomial, apply_func, const, coord,
                   gdiv, gmul, partial, substitute, zero)
from .parser import parse_expr

Bound = Union[int, Fraction, float, str, GradedExpr]


class NonIntegrable(ValueError):
    pass


_ANTI = {
    # kind -> (antiderivative kind, sign)
    "sin": ("cos", -1),
    "cos": ("sin", 1),
    "exp": ("exp", 1),
    "sinh": ("cosh", 1),
    "cosh": ("sinh", 1),
}


def _monomial_antiderivative(m: Monomial, x: str, chart) -> GradedExpr:
    xi = chart.index(x)
    n = chart.dim

    free_atoms = []
    dep_atoms = []
    inv_x_power = 0
    for a in m.atoms:
        if a.kind == "inv" and a.arg.key() == coord(chart, x).key():
            inv_x_power = a.power
        elif a.arg.depends_on(x):
            dep_atoms.append(a)
        else:
            free_atoms.append(a)

    k = m.cexp[xi]
    base_cexp = tuple(0 if j == xi else e for j, e in enumerate(m.cexp))
    base = GradedExpr(chart, (Monomial(m.coeff, tuple(free_atoms),
                                       base_cexp, m.dexp),))

    if not dep_atoms:
        net = k - inv_x_power
        if net == -1:
            return gmul(base, apply_func("log", coord(chart, x)))
        if net >= 0:
            mono = coord(chart, x) ** (net + 1)
        else:
            mono = gdiv(const(chart, 1), coord(chart, x) ** (-net - 1))
        return gmul(base, mono) * Fraction(1, net + 1)

    if inv_x_power or len(dep_atoms) > 1:
        raise NonIntegrable(
            f"monomial mixes several {x}-dependent transcendental factors")
    atom = dep_atoms[0]
    if atom.power != 1:
        raise NonIntegrable(f"{atom.kind}(...)**{atom.power} is outside the "
                            "supported integration patterns")
    if atom.kind not in _ANTI:
        raise NonIntegrable(f"cannot integrate {atom.kind}(...) in {x}")
    u = atom.arg
    a_coef = partial(u, x)
    if a_coef.is_zero() or a_coef.depends_on(x):
        raise NonIntegrable(f"argument of {atom.kind} is not linear in {x}")

    # integration by parts: int x^k f(a x + b) dx reduces k until it hits 0
    result = zero(chart)
    kind = atom.kind
    sign = Fraction(1)
    falling = Fraction(1)
    a_pow = a_coef
    for j in range(k + 1):
        kind, s = _ANTI[kind]
        sign *= s
        piece = gmul(base, coord(chart, x) ** (k - j))
        piece = gmul(piece, apply_func(kind, u))
        piece = gdiv(piece, a_pow)
        result = result + piece * (sign * falling * (-1) ** j)
        falling *= (k - j)
        if falling == 0:
            break
        a_pow = gmul(a_pow, a_coef)
    return result


def _as_bound(b: Bound, chart) -> GradedExpr:
    if isinstance(b, GradedExpr):
        return b
    if isinstance(b, str):
        return parse_expr(b, chart)
    return const(chart, b)


def antiderivative(g: GradedExpr, x: str) -> GradedExpr:
    chart = g.chart
    if g.form_degree() != 0:
        raise NonIntegrable("integrand must have form degree 0")
    if chart.parity(chart.index(x)) != EVEN:
        raise NonIntegrable(f"integration variable {x!r} must be even")
    total = zero(chart)
    for m in g.terms:
        total = total + _monomial_antiderivative(m, x, chart)
    return total


def integrate_univariate(g: GradedExpr, x: str, lower: Bound,
                         upper: Bound) -> GradedExpr:
    """Definite integral of g along x between the given bounds (exact)."""
    F = antiderivative(g, x)
    chart = g.chart
    hi = substitute(F, {x: _as_bound(upper, chart)})
    lo = substitute(F, {x: _as_bound(lower, chart)})
    return hi - lo
