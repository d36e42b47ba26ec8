"""Weight vector fields, homogeneity degrees, lifts, and graded distributions."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, Optional, Tuple, Union

import numpy as np

from . import _linalg
from .cartan import VectorField, lie_bracket, lie_derivative
from .grexpr.chart import ChartError, ChartSpec, CoordinateDecl, EVEN
from .grexpr.equality import DEFAULT_POLICY, NOISE_FLOOR, EqualityPolicy, equal
from .grexpr.expr import coord, partial, zero
from .grexpr.grassmann import Plan, body_values, sample_body_points


@dataclass(frozen=True)
class WeightVectorField:
    """An even vector field defining homogeneity; canonical when its
    coefficients read weight(x) * x in the ambient chart."""

    field: VectorField
    canonical: bool = False

    def __post_init__(self):
        if self.field.parity != EVEN:
            raise ValueError("weight vector fields are even")

    @property
    def chart(self) -> ChartSpec:
        return self.field.chart


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


def weight_field_of_chart(chart: ChartSpec) -> WeightVectorField:
    """The canonical field sum_i weight(x^i) * x^i d/dx^i of a chart."""
    coeffs = []
    for c in chart.coords:
        if c.weight == 0:
            coeffs.append(zero(chart))
        else:
            coeffs.append(coord(chart, c.name) * c.weight)
    return WeightVectorField(VectorField(chart, EVEN, tuple(coeffs)), canonical=True)


def verify_weight_chart(nabla: VectorField, chart: ChartSpec) -> bool:
    """True iff the coefficient of every x^i is exactly weight(x^i) * x^i."""
    if nabla.chart != chart or nabla.parity != EVEN:
        return False
    want = weight_field_of_chart(chart).field
    return all(a == b for a, b in zip(nabla.coefficients, want.coefficients))


@dataclass
class LinearizationReport:
    vanishes: bool
    verdict: str
    matrix_even: Optional[np.ndarray] = None
    matrix_odd: Optional[np.ndarray] = None
    eigenvalues_even: Optional[list] = None
    eigenvalues_odd: Optional[list] = None
    diagonalizable: Optional[bool] = None


def linearization_at_zero(nabla: VectorField,
                          point: Dict[str, object]) -> LinearizationReport:
    """Differential of an even field at a body zero, block-split by parity.

    At a zero the Jacobian of the coefficients is well defined; real
    diagonalizability of both blocks is a necessary condition for the field
    to define homogeneous coordinates around the point.  If the field does
    not vanish at the point, no linearization is needed: nonvanishing even
    fields always define homogeneity structures.
    """
    if nabla.parity != EVEN:
        raise ValueError("linearization expects an even field")
    chart = nabla.chart
    vals = np.array(body_values([Plan(c) for c in nabla.coefficients], [point])[0],
                    dtype=float)
    if not all(_linalg.negligible(v, NOISE_FLOOR) for v in vals):
        return LinearizationReport(
            vanishes=False,
            verdict="nonvanishing at the point: weight vector field")

    n = chart.dim
    plans = [Plan(partial(c, name)) for c in nabla.coefficients
             for name in chart.names]
    jac = np.array(body_values(plans, [point])[0], dtype=float).reshape(n, n)
    ev = list(chart.even_indices)
    od = list(chart.odd_indices)
    jac_e = jac[np.ix_(ev, ev)]
    jac_o = jac[np.ix_(od, od)]
    ok_e, eig_e = _linalg.diagonalizable_real(jac_e)
    ok_o, eig_o = _linalg.diagonalizable_real(jac_o)
    ok = ok_e and ok_o
    verdict = ("linearization diagonalizable over R (necessary condition holds)"
               if ok else "linearization not real-diagonalizable: "
                          "not a weight vector field")
    return LinearizationReport(True, verdict, jac_e, jac_o, eig_e, eig_o, ok)


# -- degrees ------------------------------------------------------------------


def _match_ratio(pairs, is_exact: bool, tol: float):
    """Shared ratio c_L/c_T across aligned coefficient pairs, or None."""
    w = None
    for c_t, c_l in pairs:
        if c_t == 0:
            if (c_l == 0) if is_exact else _linalg.negligible(c_l, tol):
                continue
            return None
        r = c_l / c_t if is_exact else float(c_l) / float(c_t)
        if w is None:
            w = r
        else:
            if is_exact:
                if r != w:
                    return None
            elif not _linalg.negligible(r - w, tol, abs(w)):
                return None
    return Fraction(0) if w is None else w


def degree_of(T, nabla: WeightVectorField,
              policy: EqualityPolicy = DEFAULT_POLICY) -> DegreeReport:
    """Homogeneity degree via coefficient matching of L_nabla T against w*T."""
    nf = nabla.field if isinstance(nabla, WeightVectorField) else nabla
    if isinstance(T, VectorField):
        L = lie_bracket(nf, T)
        parity, pairs = T.parity, list(zip(T.coefficients, L.coefficients))
    else:
        if T.is_zero():
            return DegreeReport(True, None, T, "zero expression: any degree")
        parity = T.parity()
        if parity is None:
            return DegreeReport(False, None, T, "mixed parity")
        L = lie_derivative(nf, T)
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
    exact = all(isinstance(c, Fraction) for c in
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


def tangent_lift(nabla: WeightVectorField) -> WeightVectorField:
    """Adapted chart (x, x_dot) with the lifted field sum w (x dx + xd dxd)."""
    if not nabla.canonical:
        raise ValueError("tangent lift expects the canonical weight field")
    return weight_field_of_chart(_lifted_chart(nabla.chart, "", "_dot", +1))


def cotangent_lift(nabla: WeightVectorField) -> WeightVectorField:
    """Adapted chart (x, p_x); momenta carry the opposite weight."""
    if not nabla.canonical:
        raise ValueError("cotangent lift expects the canonical weight field")
    return weight_field_of_chart(_lifted_chart(nabla.chart, "p_", "", -1))


# -- distributions ------------------------------------------------------------


def _span_contains(D: Distribution, Y: VectorField,
                   policy: EqualityPolicy) -> bool:
    """Pointwise span membership at the policy's sampled body points."""
    chart = D.chart
    split = len(D.generators) * chart.dim
    plans = [Plan(c) for X in D.generators + (Y,) for c in X.coefficients]
    points = sample_body_points(chart, policy.n_points, policy.seed)
    for p, vals in zip(points, body_values(plans, points)):
        rows = [vals[j:j + chart.dim] for j in range(0, split, chart.dim)]
        # a conditioning guard: float on purpose, whatever the data
        G = np.array(rows, dtype=float).reshape(-1, chart.dim)
        r = _linalg.float_rank(G, policy.rel_tol)
        if r < len(rows):
            raise RankCollapseError(
                f"generators drop to rank {r} at a sample point",
                witness={k: float(v) for k, v in p.items()})
        if not _linalg.contains(rows, vals[split:], policy.rel_tol)[1]:
            return False
    return True


def distribution_homogeneous(D: Distribution, nabla: WeightVectorField,
                             policy: EqualityPolicy = DEFAULT_POLICY) -> bool:
    """Whether L_nabla of every generator stays inside the span."""
    nf = nabla.field if isinstance(nabla, WeightVectorField) else nabla
    for g in D.generators:
        if not _span_contains(D, lie_bracket(nf, g), policy):
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
