"""Numeric evaluation of superfunctions in a finite Grassmann algebra.

Each odd coordinate of a chart is assigned one nilpotent generator; values
are elements of the exterior algebra over those generators with float
coefficients.  The body is the generator-free part; the soul is nilpotent,
so transcendental functions evaluate by a finite Taylor series around the
body and inverses by a terminating geometric series.

Grassmann values are dense and batched: a value at N points is an
(N, 2^k) float array over k generators, whose column b holds the blade of
the generators whose bits are set in b (bit i for generator i, as in
``expr.py``); a value that involves no generator stays a length-N body
array.  Products go through one pair table per k.

Every numeric evaluation goes through one compiled ``Plan`` per expression:
the expression tree is walked once, and the plan is then called at many
points, in exact ``Fraction`` bodies, float bodies or Grassmann values.
"""

from __future__ import annotations

import functools
import math
import operator
import random
from fractions import Fraction
from typing import Dict, List, Mapping, NamedTuple, Optional, Sequence, Tuple, Union

import numpy as np

from .chart import EVEN, ChartSpec
from .expr import EvaluationError, GradedExpr, _crossings


class DivisorFloorError(EvaluationError):
    """A divisor body fell below the sampling floor of ``Plan.grassmann``."""


def _blade(b: int) -> Tuple[int, ...]:
    """The sorted generator indices of blade bitmask ``b``."""
    return tuple(i for i in range(b.bit_length()) if b >> i & 1)


@functools.lru_cache(maxsize=None)
def _pair_table(ngens: int):
    """Every product of two disjoint basis blades on ``ngens`` generators.

    Row j multiplies blade ``left[j]`` by blade ``right[j]`` into blade
    ``left[j] | right[j]`` with ``sign[j]``, the parity of the crossings.
    Rows are sorted by output blade, then by left blade; ``starts`` holds
    the first row of each output blade, for ``np.add.reduceat``.
    """
    left, right, sign, starts = [], [], [], []
    for m in range(1 << ngens):
        starts.append(len(left))
        for a in range(m + 1):
            if a & ~m:
                continue
            left.append(a)
            right.append(m ^ a)
            sign.append(-1.0 if _crossings(a, m ^ a) % 2 else 1.0)
    table = tuple(np.array(col) for col in (left, right, sign, starts))
    for col in table:
        col.flags.writeable = False     # every caller shares the cached table
    return table


def _product(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Products of two (N, 2^k) values, point by point.  Each output blade
    sums its pairs in the table's order, never through a BLAS matmul, whose
    accumulation order varies by build."""
    left, right, sign, starts = _pair_table(u.shape[1].bit_length() - 1)
    pairs = u.take(left, axis=1) * v.take(right, axis=1) * sign
    return np.add.reduceat(pairs, starts, axis=1)


class GrassmannValue:
    """One point's Grassmann value: a view over one dense row, whose entry b
    is the coefficient of the blade with bitmask b."""

    __slots__ = ("row",)

    def __init__(self, row):
        self.row = np.asarray(row, dtype=float)

    @property
    def ngens(self) -> int:
        return self.row.size.bit_length() - 1

    @property
    def body(self) -> float:
        return float(self.row[0])

    @property
    def data(self) -> Dict[Tuple[int, ...], float]:
        """Nonzero coefficients by sorted generator-index tuple; the empty
        tuple indexes the body."""
        return {_blade(b): v for b, v in enumerate(self.row.tolist()) if v != 0.0}

    def _other(self, other: "GrassmannValue") -> np.ndarray:
        if other.row.shape != self.row.shape:
            raise ValueError("mixed generator counts")
        return other.row

    def __add__(self, other):
        return GrassmannValue(self.row + self._other(other))

    def __sub__(self, other):
        return GrassmannValue(self.row - self._other(other))

    def __mul__(self, other):
        return GrassmannValue(_product(self.row[None], self._other(other)[None])[0])

    def __repr__(self):
        data = self.data
        if not data:
            return "G(0)"
        bits = []
        for k in sorted(data, key=lambda t: (len(t), t)):
            label = "".join(f"e{i}" for i in k) or "1"
            bits.append(f"{data[k]:+g}*{label}")
        return "G(" + " ".join(bits) + ")"


# why a point could not be evaluated; code 0 means it could
FAILURES = (None, "divisor-floor", "evaluation", "arithmetic")


def _failure_code(exc: Exception) -> int:
    return (1 if isinstance(exc, DivisorFloorError)
            else 2 if isinstance(exc, EvaluationError) else 3)


# f^(k)(body) = sign * g(body) for (g, sign) = cycle[k % len(cycle)]; every
# g of a cycle is evaluated, as each may overflow
_DERIVATIVE_CYCLES = {
    "sin": ((math.sin, 1.0), (math.cos, 1.0), (math.sin, -1.0), (math.cos, -1.0)),
    "cos": ((math.cos, 1.0), (math.sin, -1.0), (math.cos, -1.0), (math.sin, 1.0)),
    "exp": ((math.exp, 1.0),),
    "sinh": ((math.sinh, 1.0), (math.cosh, 1.0)),
    "cosh": ((math.cosh, 1.0), (math.sinh, 1.0)),
}


def _log_derivative(k: int):
    if k == 0:
        return math.log
    return lambda b: (-1.0) ** (k - 1) * math.factorial(k - 1) / b ** k


class GrassmannBatch(NamedTuple):
    """A plan's Grassmann values at N points.  ``failure`` holds each point's
    first failure as a code into ``FAILURES``; the values of a failed point
    mean nothing.  ``error`` is the exception of the first failure, for
    one-point callers that raise it."""

    values: np.ndarray
    failure: np.ndarray
    error: Optional[Exception]


class _Kernel:
    """The algebra of one plan evaluation at N points, and each point's
    first failure.  A failure is recorded, not raised, so that sampling can
    redraw the failed point alone; ValueError and TypeError still raise."""

    __slots__ = ("n", "ngens", "floor", "failure", "error")

    def __init__(self, n: int, ngens: int, floor: float):
        self.n = n
        self.ngens = ngens
        self.floor = floor
        self.failure = np.zeros(n, dtype=np.int8)
        self.error: Optional[Exception] = None

    def fail(self, mask: np.ndarray, exc: Exception):
        new = mask & (self.failure == 0)
        if new.any():
            self.failure[new] = _failure_code(exc)
            self.error = self.error or exc

    def dense(self, v) -> np.ndarray:
        if v.ndim == 2:
            return v
        out = np.zeros((self.n, 1 << self.ngens))
        out[:, 0] = v
        return out

    def lift(self, coeff):
        try:
            return float(coeff[1])
        except OverflowError as exc:
            # a coefficient beyond float range (see _float_coeff)
            self.fail(np.ones(self.n, dtype=bool), exc)
            return 0.0

    @staticmethod
    def add(total: np.ndarray, v):
        # a body (or a constant) adds to the body column of a dense value only
        dv = getattr(v, "ndim", 0)
        if total.ndim == 2 and dv < 2:
            out = total.copy()
            out[:, 0] += v
            return out
        if total.ndim < 2 and dv == 2:
            out = v.copy()
            out[:, 0] += total
            return out
        return total + v

    @staticmethod
    def mul(u, v):
        # a float coefficient or a body scales every blade
        du, dv = getattr(u, "ndim", 0), getattr(v, "ndim", 0)
        if du == 2 and dv == 2:
            return _product(u, v)
        if du == 1 and dv == 2:
            return u[:, None] * v
        if du == 2 and dv == 1:
            return u * v[:, None]
        return u * v

    def elementwise(self, f, body: np.ndarray, where: np.ndarray) -> np.ndarray:
        """f(body) through ``math``, point by point, at the points of
        ``where``; a point where f raises an evaluation or arithmetic error
        fails.  Other points read 0."""
        vals = []
        for i, x in enumerate(np.where(where, body, 1.0).tolist()):
            try:
                vals.append(f(x))
            except (EvaluationError, ArithmeticError) as exc:
                self.fail(np.arange(self.n) == i, exc)
                vals.append(0.0)
        return np.where(where, vals, 0.0)

    def atom(self, kind: str, v):
        if kind == "inv":
            return self.inverse(v)
        body = v if v.ndim < 2 else v[:, 0]
        if kind == "log":
            self.fail(body <= 0.0,
                      EvaluationError("log of a value with nonpositive body"))

            def derivative(k, where):
                return self.elementwise(_log_derivative(k), body, where)
        else:
            if kind in ("sin", "cos"):
                # a float product overflows to inf silently, and math.sin and
                # math.cos raise ValueError there
                self.fail(np.isinf(body),
                          OverflowError(f"{kind} of an overflowed argument"))
            cycle = _DERIVATIVE_CYCLES[kind]
            base = {}
            for g, _ in cycle:
                if g not in base:
                    base[g] = self.elementwise(g, body, self.failure == 0)

            def derivative(k, where):
                g, sign = cycle[k % len(cycle)]
                return base[g] if sign > 0 else -base[g]
        return self.series(v, derivative)

    def series(self, v, derivative):
        """f(v) = sum_k f^(k)(body)/k! soul^k, summed at each point while
        soul^k is nonzero there: the soul is nilpotent."""
        out = derivative(0, self.failure == 0)
        if v.ndim < 2:
            return out
        out = self.dense(out)
        soul = v.copy()
        soul[:, 0] = 0.0
        power, fact = soul, 1.0
        alive = self.failure == 0
        for k in range(1, self.ngens + 1):
            if k > 1:
                power = _product(power, soul)
            alive &= power.any(axis=1)
            if not alive.any():
                break
            fact *= k
            term = (derivative(k, alive) / fact)[:, None] * power
            out = out + np.where(alive[:, None], term, 0.0)
        return out

    def inverse(self, v):
        """1/v = (1/b) sum_k (-soul/b)^k, summed at each point while the
        term is nonzero there."""
        body = v if v.ndim < 2 else v[:, 0]
        self.fail(np.abs(body) < self.floor,
                  DivisorFloorError("divisor body below the sampling floor"))
        self.fail(body == 0.0, EvaluationError("division by a value with zero body"))
        b = np.where(self.failure == 0, body, 1.0)
        inv = 1.0 / b
        if v.ndim < 2:
            return inv
        out = self.dense(inv)
        soul = v.copy()
        soul[:, 0] = 0.0
        step = -1.0 / b
        term, alive = inv, self.failure == 0
        for _ in range(self.ngens):
            term = self.mul(term, soul) * step[:, None]
            alive &= term.any(axis=1)
            if not alive.any():
                break
            out = out + np.where(alive[:, None], term, 0.0)
        return out


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


def _power(v, k: int, mul):
    out = v
    for _ in range(k - 1):
        out = mul(out, v)
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

    def grassmann(self, x: Sequence[np.ndarray], floor: float = 0.0) -> GrassmannBatch:
        """Grassmann values at N points at once.  ``x`` holds, per
        coordinate, N bodies (shape (N,)) or N dense values (shape
        (N, 2^k)).  A divisor whose body is smaller than ``floor`` in
        magnitude fails its point, so that sampling can move off a
        singularity."""
        n = len(x[0])
        kern = _Kernel(n, len(self.chart.odd_indices), floor)
        with np.errstate(all="ignore"):
            v = self._run(x, np.zeros(n), kern.lift, kern.atom, kern.mul, kern.add)
        return GrassmannBatch(kern.dense(v), kern.failure, kern.error)

    def _run(self, x, zero, lift, atom, mul=operator.mul, add=operator.add):
        total = zero
        for coeff, atoms, powers in self.terms:
            v = lift(coeff)
            for kind, arg, p in atoms:
                a = atom(kind, arg._run(x, zero, lift, atom, mul, add))
                v = mul(v, a if p == 1 else _power(a, p, mul))
            for i, k in powers:
                v = mul(v, x[i] if k == 1 else _power(x[i], k, mul))
            total = add(total, v)
        return total


PointValue = Union[float, int, Fraction, GrassmannValue]


def grassmann_point(chart: ChartSpec, point: Mapping[str, PointValue]) -> List[np.ndarray]:
    """Per-coordinate values of one point, as a batch of one (see
    ``Plan.grassmann``).

    Even coordinates take real values; odd coordinates take odd Grassmann
    values (missing odd coordinates default to their own unit generator).
    """
    odd = chart.odd_indices
    ngens = len(odd)
    gen_of = {chart.coords[i].name: g for g, i in enumerate(odd)}

    values: List[np.ndarray] = []
    for c in chart.coords:
        v = point.get(c.name)
        if isinstance(v, GrassmannValue):
            if c.parity != EVEN and v.ngens != ngens:
                raise EvaluationError("odd assignment has wrong generator count")
            values.append(v.row[None])
        elif c.parity == EVEN:
            if v is None:
                raise EvaluationError(f"no value for coordinate {c.name!r}")
            values.append(np.array([float(v)]))
        else:
            row = np.zeros((1, 1 << ngens))
            row[0, 1 << gen_of[c.name]] = 1.0 if v is None else float(v)
            values.append(row)
    return values


def eval_numeric(a: GradedExpr, point: Mapping[str, PointValue]) -> GrassmannValue:
    """Evaluate a form-degree-0 expression at a point (see grassmann_point)."""
    batch = Plan(a).grassmann(grassmann_point(a.chart, point))
    if batch.error is not None:
        raise batch.error
    return GrassmannValue(batch.values[0])


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
    """Body points inside the chart boxes: each coordinate takes one of 65
    evenly spaced values, rounded once to the nearest float, so that the
    exact and float paths see the same point."""
    rng = random.Random(seed)
    pts = []
    for _ in range(n_points):
        p: Dict[str, Fraction] = {}
        for i in chart.even_indices:
            lo, hi = chart.box_for(i)
            t = Fraction(rng.randint(0, 64), 64)
            exact = Fraction(lo) + (Fraction(hi) - Fraction(lo)) * t
            p[chart.coords[i].name] = Fraction(float(exact))
        pts.append(p)
    return pts


def eval_body_exact(a: GradedExpr, point: Mapping[str, Union[int, Fraction]]) -> Fraction:
    """Exact body evaluation of a polynomial expression at a rational point.

    Odd coordinates evaluate to zero.  Raises if the expression carries
    transcendental atoms or float coefficients.
    """
    plan = Plan(a)
    return plan.exact_body(_body_point([plan], point))
