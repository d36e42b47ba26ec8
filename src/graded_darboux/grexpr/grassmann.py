"""Numeric evaluation of superfunctions in a finite Grassmann algebra.

Each odd coordinate of a chart is assigned one nilpotent generator; values
are elements of the exterior algebra over those generators with float
coefficients.  The body is the generator-free part; the soul is nilpotent,
so transcendental functions evaluate by a finite Taylor series around the
body and inverses by a terminating geometric series.

Every numeric evaluation goes through one compiled ``Plan`` per expression:
the expression tree is walked once, and the plan is then called at many
points, in exact ``Fraction`` bodies, float bodies or Grassmann values.
"""

from __future__ import annotations

import math
import operator
import random
from fractions import Fraction
from typing import Dict, List, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from .chart import EVEN, ChartSpec
from .expr import EvaluationError, GradedExpr


class DivisorFloorError(EvaluationError):
    """A divisor body fell below the sampling floor of ``Plan.grassmann``."""


class GrassmannValue:
    """Element of the exterior algebra on ``ngens`` anticommuting generators.

    ``data`` maps sorted generator-index tuples to float coefficients;
    the empty tuple indexes the body.
    """

    __slots__ = ("ngens", "data")

    def __init__(self, ngens: int, data: Optional[Mapping[Tuple[int, ...], float]] = None):
        self.ngens = ngens
        self.data: Dict[Tuple[int, ...], float] = {}
        if data:
            for k, v in data.items():
                if v != 0.0:
                    self.data[tuple(k)] = float(v)

    @staticmethod
    def scalar(value: float, ngens: int) -> "GrassmannValue":
        return GrassmannValue(ngens, {(): float(value)})

    @staticmethod
    def generator(i: int, ngens: int, scale: float = 1.0) -> "GrassmannValue":
        if not 0 <= i < ngens:
            raise ValueError(f"generator index {i} out of range")
        return GrassmannValue(ngens, {(i,): float(scale)})

    @property
    def body(self) -> float:
        return self.data.get((), 0.0)

    def soul(self) -> "GrassmannValue":
        return GrassmannValue(self.ngens, {k: v for k, v in self.data.items() if k})

    def is_zero(self, tol: float = 0.0) -> bool:
        return all(abs(v) <= tol for v in self.data.values())

    def parity(self) -> Optional[int]:
        ps = {len(k) % 2 for k in self.data}
        if len(ps) == 1:
            return ps.pop()
        return None if ps else EVEN

    def __add__(self, other):
        other = self._coerce(other)
        data = dict(self.data)
        for k, v in other.data.items():
            data[k] = data.get(k, 0.0) + v
        return GrassmannValue(self.ngens, data)

    __radd__ = __add__

    def __neg__(self):
        return GrassmannValue(self.ngens, {k: -v for k, v in self.data.items()})

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __rsub__(self, other):
        return (-self) + self._coerce(other)

    def _coerce(self, other) -> "GrassmannValue":
        if isinstance(other, GrassmannValue):
            if other.ngens != self.ngens:
                raise ValueError("mixed generator counts")
            return other
        return GrassmannValue.scalar(float(other), self.ngens)

    def __mul__(self, other):
        other = self._coerce(other)
        data: Dict[Tuple[int, ...], float] = {}
        for k1, v1 in self.data.items():
            for k2, v2 in other.data.items():
                merged, sign = _merge_indices(k1, k2)
                if merged is None:
                    continue
                data[merged] = data.get(merged, 0.0) + sign * v1 * v2
        return GrassmannValue(self.ngens, data)

    def __rmul__(self, other):
        return self._coerce(other) * self

    def __pow__(self, n: int):
        out = GrassmannValue.scalar(1.0, self.ngens)
        for _ in range(n):
            out = out * self
        return out

    def apply_series(self, derivs) -> "GrassmannValue":
        """Evaluate f at this value given ``derivs(k) = f^(k)(body)``.

        Finite Taylor expansion around the body; terminates because the soul
        is nilpotent.
        """
        s = self.soul()
        out = GrassmannValue.scalar(derivs(0), self.ngens)
        power = GrassmannValue.scalar(1.0, self.ngens)
        fact = 1.0
        for k in range(1, self.ngens + 1):
            power = power * s
            if power.is_zero():
                break
            fact *= k
            out = out + (derivs(k) / fact) * power
        return out

    def inverse(self) -> "GrassmannValue":
        b = self.body
        if b == 0.0:
            raise EvaluationError("division by a value with zero body")
        s = self.soul()
        out = GrassmannValue.scalar(1.0 / b, self.ngens)
        term = GrassmannValue.scalar(1.0 / b, self.ngens)
        for _ in range(self.ngens):
            term = term * s * (-1.0 / b)
            if term.is_zero():
                break
            out = out + term
        return out

    def __repr__(self):
        if not self.data:
            return "G(0)"
        bits = []
        for k in sorted(self.data, key=lambda t: (len(t), t)):
            label = "".join(f"e{i}" for i in k) or "1"
            bits.append(f"{self.data[k]:+g}*{label}")
        return "G(" + " ".join(bits) + ")"


def _merge_indices(a: Tuple[int, ...], b: Tuple[int, ...]):
    """Concatenate two sorted index words; None if a generator repeats."""
    if not a:
        return b, 1
    if not b:
        return a, 1
    if set(a) & set(b):
        return None, 0
    sign = 1
    for x in b:
        # x crosses every generator of a greater than it
        sign *= (-1) ** sum(1 for y in a if y > x)
    merged = tuple(sorted(a + b))
    return merged, sign


def _atom_derivs(kind: str, body: float):
    """Derivative sequence f^(k)(body) for the supported atoms."""
    if kind == "sin":
        cyc = (math.sin(body), math.cos(body), -math.sin(body), -math.cos(body))
        return lambda k: cyc[k % 4]
    if kind == "cos":
        cyc = (math.cos(body), -math.sin(body), -math.cos(body), math.sin(body))
        return lambda k: cyc[k % 4]
    if kind == "exp":
        e = math.exp(body)
        return lambda k: e
    if kind == "sinh":
        sh, ch = math.sinh(body), math.cosh(body)
        return lambda k: sh if k % 2 == 0 else ch
    if kind == "cosh":
        sh, ch = math.sinh(body), math.cosh(body)
        return lambda k: ch if k % 2 == 0 else sh
    if kind == "log":
        if body <= 0.0:
            raise EvaluationError("log of a value with nonpositive body")

        def dlog(k, b=body):
            if k == 0:
                return math.log(b)
            return (-1.0) ** (k - 1) * math.factorial(k - 1) / b ** k

        return dlog
    raise ValueError(kind)


_BODY_FUNCS = {"sin": math.sin, "cos": math.cos, "exp": math.exp,
               "log": math.log, "sinh": math.sinh, "cosh": math.cosh}


def _body_atom(kind: str, body):
    # element by element, so that batched and per-point bodies agree bit for bit
    if isinstance(body, np.ndarray):
        return np.array([_body_atom(kind, b) for b in body.tolist()])
    if kind == "inv":
        if body == 0.0:
            raise EvaluationError("division by a value with zero body")
        return 1.0 / body
    if kind == "log" and body <= 0.0:
        raise EvaluationError("log of a value with nonpositive body")
    return _BODY_FUNCS[kind](body)


def _power(v, k: int):
    out = v
    for _ in range(k - 1):
        out = out * v
    return out


def _float_coeff(c):
    # a coefficient beyond float range stays exact, so that only the float
    # and Grassmann kinds raise OverflowError, at evaluation time
    try:
        return float(c)
    except OverflowError:
        return c


_EXACT_COEFF = operator.itemgetter(0)
_FLOAT_COEFF = operator.itemgetter(1)


class Plan:
    """Compiled evaluation of one form-degree-0 expression.

    The expression tree is walked once, here; the plan is then called at
    many points.  ``x`` holds one value per chart coordinate, in chart
    order.  All three number kinds share one operation order: coefficient,
    then atoms, then coordinate powers by repeated multiplication, summed
    term by term from zero.  ``exact`` is True for polynomials with exact
    coefficients, the only plans with an exact body.
    """

    __slots__ = ("chart", "terms", "exact", "reads")

    def __init__(self, e: GradedExpr):
        terms = []
        reads = set()       # indices of the coordinates the plan reads
        for m in e.terms:
            if any(m.dexp):
                raise EvaluationError("evaluation expects form degree 0; "
                                      "evaluate form components instead")
            atoms = tuple((at.kind, Plan(at.arg), at.power) for at in m.atoms)
            powers = tuple((i, k) for i, k in enumerate(m.cexp) if k)
            terms.append(((m.coeff, _float_coeff(m.coeff)), atoms, powers))
            reads.update(i for i, _ in powers)
            for _, arg, _ in atoms:
                reads |= arg.reads
        self.chart = e.chart
        self.terms = tuple(terms)
        self.exact = e.is_polynomial() and e.is_exact()
        self.reads = reads

    def exact_body(self, x: Sequence[Fraction]) -> Fraction:
        """Exact body; ``x`` holds Fractions, zero at odd coordinates."""
        if not self.exact:
            raise EvaluationError("exact body evaluation needs a polynomial "
                                  "expression with exact coefficients")
        return self._run(x, Fraction(0), _EXACT_COEFF, None)

    def float_body(self, x: Sequence):
        """Float body; ``x`` holds floats, zero at odd coordinates, or one
        float array per coordinate for an array of bodies (or a float)."""
        return self._run(x, 0.0, _FLOAT_COEFF, _body_atom)

    def grassmann(self, x: Sequence[GrassmannValue],
                  floor: float = 0.0) -> GrassmannValue:
        """Grassmann value.  A divisor whose body is smaller than ``floor``
        in magnitude raises, so that sampling can move off a singularity."""
        ngens = len(self.chart.odd_indices)

        def atom(kind, v):
            if kind != "inv":
                return v.apply_series(_atom_derivs(kind, v.body))
            if abs(v.body) < floor:
                raise DivisorFloorError("divisor body below the sampling floor")
            return v.inverse()

        return self._run(x, GrassmannValue(ngens),
                         lambda c: GrassmannValue.scalar(c[1], ngens), atom)

    def _run(self, x, zero, lift, atom):
        total = zero
        for coeff, atoms, powers in self.terms:
            v = lift(coeff)
            for kind, arg, p in atoms:
                a = atom(kind, arg._run(x, zero, lift, atom))
                v = v * (a if p == 1 else _power(a, p))
            for i, k in powers:
                v = v * (x[i] if k == 1 else _power(x[i], k))
            total = total + v
        return total


PointValue = Union[float, int, Fraction, GrassmannValue]


def grassmann_point(chart: ChartSpec, point: Mapping[str, PointValue]) -> List[GrassmannValue]:
    """Per-coordinate Grassmann values of a point.

    Even coordinates take real values; odd coordinates take odd Grassmann
    values (missing odd coordinates default to their own unit generator).
    """
    odd = chart.odd_indices
    ngens = len(odd)
    gen_of = {chart.coords[i].name: g for g, i in enumerate(odd)}

    values: List[GrassmannValue] = []
    for c in chart.coords:
        v = point.get(c.name)
        if c.parity == EVEN:
            if v is None:
                raise EvaluationError(f"no value for coordinate {c.name!r}")
            if not isinstance(v, GrassmannValue):
                v = GrassmannValue.scalar(float(v), ngens)
        elif v is None:
            v = GrassmannValue.generator(gen_of[c.name], ngens)
        elif isinstance(v, GrassmannValue):
            if v.ngens != ngens:
                raise EvaluationError("odd assignment has wrong generator count")
        else:
            v = GrassmannValue.generator(gen_of[c.name], ngens, scale=float(v))
        values.append(v)
    return values


def eval_numeric(a: GradedExpr, point: Mapping[str, PointValue]) -> GrassmannValue:
    """Evaluate a form-degree-0 expression at a point (see grassmann_point)."""
    return Plan(a).grassmann(grassmann_point(a.chart, point))


def _body_point(plans: Sequence[Plan], point: Mapping[str, object]) -> List[Fraction]:
    """Exact per-coordinate values of a body point: odd coordinates, and
    even ones that no plan reads, are zero."""
    chart = plans[0].chart
    reads = set().union(*(p.reads for p in plans))
    x = [Fraction(0)] * chart.dim
    for i in chart.even_indices:
        name = chart.coords[i].name
        if name in point:
            x[i] = Fraction(point[name])
        elif i in reads:
            raise EvaluationError(f"no value for coordinate {name!r}")
    return x


def body_values(plans: Sequence[Plan], point: Mapping[str, object]
                ) -> List[Union[Fraction, float]]:
    """Bodies of compiled expressions at one body point.

    Odd coordinates are zero.  Exact plans evaluate to Fractions, the others
    to floats.
    """
    if not plans:
        return []
    xq = _body_point(plans, point)
    xf = [float(v) for v in xq]
    return [p.exact_body(xq) if p.exact else p.float_body(xf) for p in plans]


def sample_body_points(chart: ChartSpec, n_points: int,
                       seed: int) -> List[Dict[str, Fraction]]:
    """Dyadic-rational body points inside the chart boxes (exactly float-
    representable, so the exact and float paths see the same points)."""
    rng = random.Random(seed)
    pts = []
    for _ in range(n_points):
        p: Dict[str, Fraction] = {}
        for i in chart.even_indices:
            lo, hi = chart.box_for(i)
            t = Fraction(rng.randint(0, 64), 64)
            p[chart.coords[i].name] = (Fraction(lo)
                                       + (Fraction(hi) - Fraction(lo)) * t)
        pts.append(p)
    return pts


def eval_body_exact(a: GradedExpr, point: Mapping[str, Union[int, Fraction]]) -> Fraction:
    """Exact body evaluation of a polynomial expression at a rational point.

    Odd coordinates evaluate to zero.  Raises if the expression carries
    transcendental atoms or float coefficients.
    """
    plan = Plan(a)
    return plan.exact_body(_body_point([plan], point))
