"""Cartan calculus: exterior derivative, contraction, Lie operations, pullback.

Every operator sign is derived from the single bidegree rule: swapping
adjacent factors of bidegrees (p, s) and (q, t) costs (-1)**(p*q + s*t),
with d of bidegree (1, 0), i_X of bidegree (-1, parity(X)) and L_X of
bidegree (0, parity(X)).  For the generators this fixes the convention table

    i_X d(y) = X^y                    (coefficient of X along y)
    L_X y = X^y,  L_X d(y) = d(X^y)   (L_X commutes with d)
    i_X (w1 w2) = i_X(w1) w2 + (-1)**(p1 + parity(X)*s1) w1 i_X(w2)
    d(w1 w2)   = d(w1) w2 + (-1)**p1 w1 d(w2)

and in particular i_X is left C-infinity-linear in X.  L_X is the
derivation walk of ``grexpr.expr.derivation``; X(f) is L_X on a function.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Dict, Optional, Tuple, Union

from .grexpr.chart import ChartError, ChartSpec, EVEN
from .grexpr.equality import equal
from .grexpr.expr import (GradedExpr, Monomial, ParityError, atom_chain,
                          coord, derivation, diff, leibniz_walk, one,
                          substitute, zero)
from .grexpr.parser import parse_expr


@dataclass(frozen=True)
class VectorField:
    """Parity-tagged derivation: one form-degree-0 coefficient per coordinate."""

    chart: ChartSpec
    parity: int
    coefficients: Tuple[GradedExpr, ...]

    def __post_init__(self):
        if len(self.coefficients) != self.chart.dim:
            raise ChartError("need one coefficient per coordinate")
        object.__setattr__(self, "coefficients", tuple(self.coefficients))
        for i, c in enumerate(self.coefficients):
            if c.chart != self.chart:
                raise ChartError("coefficient lives on the wrong chart")
            if c.form_degree() != 0:
                raise ParityError("vector field coefficients must have form degree 0")
            want = (self.parity + self.chart.parity(i)) % 2
            if not c.is_zero() and c.parity() != want:
                raise ParityError(
                    f"coefficient of {self.chart.coords[i].name} must have parity {want}")

    def coefficient(self, name: str) -> GradedExpr:
        return self.coefficients[self.chart.index(name)]

    def is_zero(self) -> bool:
        return all(c.is_zero() for c in self.coefficients)

    def __add__(self, other: "VectorField") -> "VectorField":
        if other.chart != self.chart or other.parity != self.parity:
            raise ChartError("can only add fields of equal chart and parity")
        return VectorField(self.chart, self.parity,
                           tuple(a + b for a, b in
                                 zip(self.coefficients, other.coefficients)))

    def __neg__(self) -> "VectorField":
        return VectorField(self.chart, self.parity,
                           tuple(-c for c in self.coefficients))

    def __sub__(self, other: "VectorField") -> "VectorField":
        return self + (-other)

    def __str__(self):
        bits = []
        for i, c in enumerate(self.coefficients):
            if not c.is_zero():
                bits.append(f"({c})*D_{self.chart.coords[i].name}")
        return " + ".join(bits) if bits else "0"

    def __repr__(self):
        return f"<VF {self}>"


def vector_field(chart: ChartSpec, coeffs: Dict[str, Union[str, GradedExpr]],
                 parity: int = EVEN) -> VectorField:
    """Convenience constructor from a name -> expression mapping."""
    out = []
    for c in chart.coords:
        v = coeffs.get(c.name)
        if v is None:
            out.append(zero(chart))
        elif isinstance(v, str):
            out.append(parse_expr(v, chart))
        else:
            out.append(v)
    return VectorField(chart, parity, tuple(out))


def basis_field(chart: ChartSpec, name: str) -> VectorField:
    """The coordinate derivation along ``name`` (parity of the coordinate)."""
    i = chart.index(name)
    coeffs = tuple(one(chart) if j == i else zero(chart)
                   for j in range(chart.dim))
    return VectorField(chart, chart.parity(i), coeffs)


# -- operators ----------------------------------------------------------------


class Memo(dict):
    """Derivations already taken in one scope: one library call, or one
    ``cli.run``.  An entry is keyed by the operator, ``id`` of the chart
    and the expression's key, and holds the chart, so no id is reused while
    the memo lives.  Results are the ones an unmemoized call returns."""

    def take(self, op, e: GradedExpr, fn, *args):
        """``fn(*args)``, the operator ``op`` at ``e``, computed once."""
        key = (op, id(e.chart), e.key())
        hit = self.get(key)
        if hit is None:
            hit = self[key] = (e.chart, fn(*args))
        return hit[1]


def exterior_d(w: GradedExpr, *, memo: Optional[Memo] = None) -> GradedExpr:
    """Exterior derivative: bidegree (1, 0), squares to zero.  Without a
    ``memo``, d(arg) is still taken once per call for repeated atoms."""
    if memo is None:
        return _exterior_d(w, Memo())
    return memo.take("d", w, _exterior_d, w, memo)


def _exterior_d(w: GradedExpr, memo: Memo) -> GradedExpr:
    chart = w.chart

    def image(tag, payload):
        if tag == "coord":
            i, k = payload
            if k == 1:      # so every odd coordinate, as xi*xi = 0
                return diff(chart, chart.coords[i].name)
            # x even: d(x^k) = k*x^(k-1)*d(x), one monomial
            unit = tuple(int(j == i) for j in range(chart.dim))
            return GradedExpr(chart, (Monomial(
                k, (), tuple(u * (k - 1) for u in unit), unit),))
        if tag == "atom":
            return atom_chain(payload, exterior_d(payload.arg, memo=memo))
        return None  # d(d(x)) = 0

    return leibniz_walk(w, 1, 0, image)


def interior(X: VectorField, w: GradedExpr) -> GradedExpr:
    """Contraction i_X: graded derivation of bidegree (-1, parity(X))."""
    if X.chart != w.chart:
        raise ChartError("contraction across charts")
    if any(m.form_degree() == 0 for m in w.terms):
        raise ValueError("interior product of a form-degree-0 expression")
    chart = w.chart

    def image(tag, payload):
        if tag == "diff":
            i, k = payload
            c = X.coefficients[i]
            if c.is_zero():
                return None
            if k == 1:
                return c
            # d(xi)^k for odd xi: the k Leibniz terms all reorder to the same
            # word, so i_X(d(xi)^k) = k * X^xi * d(xi)^(k-1), coefficient left.
            name = chart.coords[i].name
            return c * k * (diff(chart, name) ** (k - 1))
        return None

    return leibniz_walk(w, 1, X.parity, image)


def lie_derivative(X: VectorField, T, *, memo: Optional[Memo] = None):
    """L_X: the derivation of bidegree (0, parity(X)) with L_X x = X^x and
    L_X d(x) = d(X^x) on forms, so X(f) on functions; the graded bracket
    on vector fields."""
    if isinstance(T, VectorField):
        return lie_bracket(X, T, memo=memo)
    if X.chart != T.chart:
        raise ChartError("Lie derivative across charts")
    if memo is None:
        return derivation(T, X.coefficients, X.parity, exterior_d)
    op = ("L", X.parity, tuple(c.key() for c in X.coefficients))
    return memo.take(op, T, derivation, T, X.coefficients, X.parity,
                     partial(exterior_d, memo=memo))


def lie_bracket(X: VectorField, Y: VectorField, *,
                memo: Optional[Memo] = None) -> VectorField:
    """Graded commutator [X, Y]; parity is the sum of parities."""
    if X.chart != Y.chart:
        raise ChartError("bracket across charts")
    sign = -1 if (X.parity * Y.parity) % 2 else 1
    coeffs = tuple(lie_derivative(X, cy, memo=memo)
                   - sign * lie_derivative(Y, cx, memo=memo)
                   for cx, cy in zip(X.coefficients, Y.coefficients))
    return VectorField(X.chart, (X.parity + Y.parity) % 2, coeffs)


# -- chart maps ---------------------------------------------------------------


@dataclass(frozen=True)
class ChartMap:
    """Map between charts: images of target coordinates in source variables."""

    source: ChartSpec
    target: ChartSpec
    images: Dict[str, GradedExpr]
    inverse_images: Optional[Dict[str, GradedExpr]] = None
    check_inverse: bool = True

    def __post_init__(self):
        for name in self.target.names:
            if name not in self.images:
                raise ChartError(f"no image for target coordinate {name!r}")
        for name, img in self.images.items():
            i = self.target.index(name)
            if img.chart != self.source:
                raise ChartError(f"image of {name!r} is not over the source chart")
            if img.form_degree() != 0:
                raise ParityError(f"image of {name!r} must have form degree 0")
            if not img.is_zero() and img.parity() != self.target.parity(i):
                raise ParityError(f"image of {name!r} breaks parity")
        if self.inverse_images is not None:
            for name in self.source.names:
                if name not in self.inverse_images:
                    raise ChartError(f"no inverse image for {name!r}")
            if self.check_inverse:
                for name in self.source.names:
                    back = substitute(self.inverse_images[name],
                                      dict(self.images))
                    if not equal(back, coord(self.source, name)):
                        raise ChartError(
                            f"declared inverse fails round-trip on {name!r}")

    @staticmethod
    def identity(chart: ChartSpec) -> "ChartMap":
        imgs = {c.name: coord(chart, c.name) for c in chart.coords}
        return ChartMap(chart, chart, imgs, dict(imgs), check_inverse=False)

    def inverse(self) -> "ChartMap":
        if self.inverse_images is None:
            raise ChartError("no inverse images declared")
        return ChartMap(self.target, self.source, dict(self.inverse_images),
                        dict(self.images), check_inverse=False)


def pullback(phi: ChartMap, w: GradedExpr, *,
             memo: Optional[Memo] = None) -> GradedExpr:
    """Pullback of a form over the target chart; commutes with d."""
    if w.chart != phi.target:
        raise ChartError("pullback expects a form over the target chart")
    memo = Memo() if memo is None else memo
    return substitute(w, dict(phi.images),
                      {name: exterior_d(img, memo=memo)
                       for name, img in phi.images.items()})


def pushforward_vf(phi: ChartMap, X: VectorField) -> VectorField:
    """Pushforward along a map with declared inverse (chain rule)."""
    if X.chart != phi.source:
        raise ChartError("pushforward expects a field over the source chart")
    if phi.inverse_images is None:
        raise ChartError("pushforward needs declared inverse images")
    inv = dict(phi.inverse_images)
    coeffs = []
    for name in phi.target.names:
        applied = lie_derivative(X, phi.images[name])  # in source variables
        coeffs.append(substitute(applied, inv))   # rewritten in target variables
    return VectorField(phi.target, X.parity, tuple(coeffs))
