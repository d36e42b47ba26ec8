"""Weight vector fields, homogeneity degrees, lifts, and graded distributions."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Tuple, Union

import numpy as np

from . import _linalg
from .cartan import Memo, VectorField, lie_bracket, lie_derivative
from .grexpr.chart import ChartError, ChartSpec, CoordinateDecl, EVEN
from .grexpr.equality import DEFAULT_POLICY, EqualityPolicy, equal
from .grexpr.expr import coord, is_exact_coeff, zero
from .grexpr.grassmann import Plan, body_values, sample_body_points


@dataclass
class Degree:
    parity: Optional[int]
    weight: Union[Fraction, float, None]


@dataclass
class DegreeReport:
    homogeneous: bool
    degree: Optional[Degree]
    residual: object = None   # GradedExpr or VectorField
    note: str = ""
    mode: str = "exact"       # path that decided: exact | numeric | randomized

    def __bool__(self):
        return self.homogeneous


class RankCollapseError(RuntimeError):
    def __init__(self, msg, witness=None):
        super().__init__(msg)
        self.witness = witness


@dataclass(frozen=True)
class Distribution:
    """Freely generated distribution: independent generators."""

    chart: ChartSpec
    generators: Tuple[VectorField, ...]

    def __post_init__(self):
        gens = tuple(self.generators)
        object.__setattr__(self, "generators", gens)
        for g in gens:
            if g.chart != self.chart:
                raise ChartError("generator lives on the wrong chart")


# -- weight fields ------------------------------------------------------------


def weight_field_of_chart(chart: ChartSpec) -> VectorField:
    """The canonical field sum_i weight(x^i) * x^i d/dx^i of a chart."""
    return VectorField(chart, EVEN, tuple(
        coord(chart, c.name) * c.weight if c.weight != 0 else zero(chart)
        for c in chart.coords))


def verify_weight_chart(nabla: VectorField, chart: ChartSpec) -> bool:
    """True iff nabla is even, on the chart, and the coefficient of every
    x^i is exactly weight(x^i) * x^i: the chart's canonical field."""
    return nabla == weight_field_of_chart(chart)


# -- degrees ------------------------------------------------------------------


def _match_ratio(pairs, is_exact: bool, tol: float):
    """Shared ratio c_L/c_T across aligned coefficient pairs, or None."""
    w = None
    for c_t, c_l in pairs:
        if c_t == 0:
            if (c_l == 0) if is_exact else _linalg.negligible(c_l, tol):
                continue
            return None
        r = Fraction(c_l) / c_t if is_exact else float(c_l) / float(c_t)
        if w is None:
            w = r
        else:
            if is_exact:
                if r != w:
                    return None
            elif not _linalg.negligible(r - w, tol, abs(w)):
                return None
    return Fraction(0) if w is None else w


def degree_of(T, nabla: VectorField,
              policy: EqualityPolicy = DEFAULT_POLICY, *,
              memo: Optional[Memo] = None) -> DegreeReport:
    """Homogeneity degree via coefficient matching of L_nabla T against w*T."""
    if isinstance(T, VectorField):
        L = lie_bracket(nabla, T, memo=memo)
        parity, pairs = T.parity, list(zip(T.coefficients, L.coefficients))
    else:
        if T.is_zero():
            return DegreeReport(True, None, T, "zero expression: any degree")
        parity = T.parity()
        if parity is None:
            return DegreeReport(False, None, T, "mixed parity")
        L = lie_derivative(nabla, T, memo=memo)
        pairs = [(T, L)]

    # monomial coefficients of each (input, derivative) component pair
    keys_T = {(i, m.key()): m.coeff for i, (ct, _) in enumerate(pairs)
              for m in ct.terms}
    keys_L = {(i, m.key()): m.coeff for i, (_, cl) in enumerate(pairs)
              for m in cl.terms}
    if not keys_T:      # only a zero field gets here
        return DegreeReport(True, None, L, "zero field: any degree")
    if set(keys_L) - set(keys_T):
        return DegreeReport(False, None, L,
                            "derivative has monomials outside the input")
    exact = all(is_exact_coeff(c) for c in
                list(keys_T.values()) + list(keys_L.values()))
    w = _match_ratio([(keys_T[k], keys_L.get(k, 0)) for k in keys_T], exact,
                     policy.rel_tol)
    if w is None:
        return DegreeReport(False, None, L, "no consistent weight",
                            "exact" if exact else "numeric")
    residuals = [cl - ct * w for ct, cl in pairs]
    ok, mode = True, "exact"
    for c in residuals:
        res = equal(c, zero(c.chart), policy)
        if res.mode != "exact":
            mode = res.mode
        if not res:
            ok = False
            break
    residual = (VectorField(T.chart, T.parity, tuple(residuals))
                if isinstance(T, VectorField) else residuals[0])
    return DegreeReport(ok, Degree(parity, w) if ok else None, residual,
                        mode=mode)


# -- lifts --------------------------------------------------------------------


def _lifted_chart(chart: ChartSpec, prefix: str, suffix: str,
                  weight_sign: int) -> ChartSpec:
    decls = list(chart.coords)
    for c in chart.coords:
        name = f"{prefix}{c.name}{suffix}"
        if name in chart.names:
            raise ChartError(f"lifted coordinate name {name!r} collides")
        decls.append(CoordinateDecl(name, c.parity, c.weight * weight_sign,
                                    box=c.box))
    return ChartSpec(tuple(decls), default_box=chart.default_box)


def tangent_lift(chart: ChartSpec) -> VectorField:
    """Adapted chart (x, x_dot) with the lifted field sum w (x dx + xd dxd)."""
    return weight_field_of_chart(_lifted_chart(chart, "", "_dot", +1))


def cotangent_lift(chart: ChartSpec) -> VectorField:
    """Adapted chart (x, p_x); momenta carry the opposite weight."""
    return weight_field_of_chart(_lifted_chart(chart, "p_", "", -1))


# -- distributions ------------------------------------------------------------


def _span_contains(D: Distribution, Y: VectorField,
                   policy: EqualityPolicy) -> bool:
    """Pointwise span membership at the policy's sampled body points: at
    each evaluated point in order, the rank-collapse guard, then the
    finiteness of the generators and the field, then membership; False at
    the first point outside the span, and an evaluation error only after
    every point before it was decided."""
    chart = D.chart
    n, k = chart.dim, len(D.generators)
    plans = [Plan(c) for X in D.generators + (Y,) for c in X.coefficients]
    points = sample_body_points(chart, policy.n_points, policy.seed)
    vals, failure = body_values(plans, points)
    rows = [[v[j:j + n] for j in range(0, k * n, n)] for v in vals]
    # a conditioning guard: float on purpose, whatever the data
    G = np.array(rows, dtype=float).reshape(len(rows), k, n)
    ranks = _linalg.float_rank(G, policy.rel_tol)
    inside = _linalg.contains(rows, [v[k * n:] for v in vals], policy.rel_tol)
    for point, r, d in zip(points, ranks, inside):
        if r is not None and r < k:
            raise RankCollapseError(
                f"generators drop to rank {r} at a sample point",
                witness={key: float(v) for key, v in point.items()})
        if d is None:
            raise RankCollapseError(
                "generators or field are not finite at a sample point",
                witness={key: float(v) for key, v in point.items()})
        if not d[1]:
            return False
    if failure is not None:
        raise failure
    return True


def distribution_homogeneous(D: Distribution, nabla: VectorField,
                             policy: EqualityPolicy = DEFAULT_POLICY) -> bool:
    """Whether L_nabla of every generator stays inside the span."""
    for g in D.generators:
        if not _span_contains(D, lie_bracket(nabla, g), policy):
            return False
    return True


def involutive_check(D: Distribution,
                     policy: EqualityPolicy = DEFAULT_POLICY) -> bool:
    """All pairwise graded brackets stay inside the span ([X,X] included
    for odd generators)."""
    gens = D.generators
    for i, gi in enumerate(gens):
        for j in range(i, len(gens)):
            if i == j and gi.parity == EVEN:
                continue
            br = lie_bracket(gi, gens[j])
            if br.is_zero():
                continue
            if not _span_contains(D, br, policy):
                return False
    return True
