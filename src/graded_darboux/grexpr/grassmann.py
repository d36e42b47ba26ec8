"""Numeric evaluation of superfunctions in a finite Grassmann algebra.

Each odd coordinate of a chart is assigned one nilpotent generator; values
are elements of the exterior algebra over those generators with float
coefficients.  The body is the generator-free part; the soul is nilpotent,
so every atom, the inverse included, is its finite Taylor series around the
body.  Each atom kind states its rules in one table, ``_ATOMS``: where it
has no value and the typed error it raises there, and its derivatives.
Float bodies read the same table.

Grassmann values are dense and batched: a value at N points is an
(N, 2^k) float array over k generators, whose column b holds the blade of
the generators whose bits are set in b (bit i for generator i, as in
``expr.py``); a value that involves no generator stays a length-N body
array.  Multiplying by an odd coordinate moves each blade a without its
generator g to blade a | g, with a sign; other products go through one
pair table per k.

Every numeric evaluation goes through one compiled ``Plan`` per expression:
the expression tree is walked once, and the plan is then called at many
points, in exact ``Fraction`` bodies, float bodies or Grassmann values;
the float bodies of a list of plans called many times are one evaluator,
``float_stage``, which walks them once and then runs one Python function
compiled from the same walk over a point's floats.
Plans can share two tables, passed explicitly: a compile table, so that
each distinct atom argument is compiled once, and a value table per point
batch, so that each distinct atom value, atom power and coordinate power
is computed once.  An atom value is shared only between evaluations whose
points have failed alike, and only if computing it failed no new point;
so every value, failure and error is the one an unshared evaluation gives.
"""

from __future__ import annotations

import functools
import math
import operator
import random
from fractions import Fraction
from typing import (Callable, Dict, List, Mapping, NamedTuple, Optional, Sequence,
                    Tuple, Union)

import numpy as np

from .chart import ChartSpec
from .expr import EvaluationError, GradedExpr, _crossings, is_exact_coeff


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


@functools.lru_cache(maxsize=None)
def _shift_signs(ngens: int, g: int) -> np.ndarray:
    """The sign of blade a times generator g, the parity of the crossings
    as in ``_pair_table``, for each blade a without g, in bitmask order and
    shaped (2^(ngens-1-g), 2^g) as ``_Generator.shift`` views those
    blades."""
    bit = 1 << g
    sign = np.array([-1.0 if _crossings(a, bit) % 2 else 1.0
                     for a in range(1 << ngens) if not a & bit]).reshape(-1, bit)
    sign.flags.writeable = False        # every caller shares the cached table
    return sign


class _Generator:
    """An odd coordinate at N points: its generator g, scaled by each
    point's float.  Indexing and ``len`` read its dense (N, 2^k) value, as
    for a dense coordinate.  ``signed`` holds each point's scale times the
    signs of ``_shift_signs``, formed once per point batch."""

    __slots__ = ("dense", "signed")

    def __init__(self, g: int, ngens: int, scale: np.ndarray):
        self.dense = np.zeros((len(scale), 1 << ngens))
        self.dense[:, 1 << g] = scale
        self.signed = scale[:, None, None] * _shift_signs(ngens, g)

    def __len__(self):
        return len(self.dense)

    def __getitem__(self, i):
        return self.dense[i]

    def shift(self, u: np.ndarray) -> np.ndarray:
        """u times the generator, for a finite dense u: blade a without g
        moves to a | g.  Viewing bit g as an axis of length 2 takes those
        blades in order.  Each product is the one nonzero pair of
        ``_product``, (u·s)·sign, and sign = ±1 makes it u·(s·sign)
        exactly; so the result equals the pair product as numbers, up to
        the sign of a zero."""
        n, hi, lo = self.signed.shape
        out = np.zeros((n, hi, 2, lo))
        out[:, :, 1] = u.reshape(n, hi, 2, lo)[:, :, 0] * self.signed
        return out.reshape(n, -1)


class GrassmannValue:
    """One point's Grassmann value: a view over one dense row, whose entry b
    is the coefficient of the blade with bitmask b."""

    __slots__ = ("row",)

    def __init__(self, row):
        self.row = np.asarray(row, dtype=float)

    @property
    def body(self) -> float:
        return float(self.row[0])

    @property
    def data(self) -> Dict[Tuple[int, ...], float]:
        """Nonzero coefficients by sorted generator-index tuple; the empty
        tuple indexes the body."""
        return {_blade(b): v for b, v in enumerate(self.row.tolist()) if v != 0.0}

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


class _Atom(NamedTuple):
    """One atom kind's rules.  ``derivative(k)`` is (g, sign) with
    f^(k)(body) = sign * g(body), g a ``math`` function or a rational
    function of the body that also takes arrays; ``value`` is f itself, the
    g of k = 0.  ``undefined(body)``, on a float or elementwise on an array,
    marks where the kind has no value, and ``error()`` is the typed error
    raised there."""

    derivative: Callable[[int], Tuple[Callable[[float], float], float]]
    value: Callable[[float], float]
    undefined: Optional[Callable] = None
    error: Optional[Callable[[], Exception]] = None


def _atom(derivative, *domain) -> _Atom:
    return _Atom(derivative, derivative(0)[0], *domain)


def _cycle(*cycle):
    return lambda k: cycle[k % len(cycle)]


@functools.lru_cache(maxsize=None)
def _inv_derivative(k: int):
    """(-1)^k k!/b^(k+1)."""
    if k == 0:
        return (lambda b: 1.0 / b), 1.0
    fact = float(math.factorial(k))
    return (lambda b: fact / b ** (k + 1)), (-1.0) ** k


def _overflowed(body):
    # a float product overflows to inf silently, and math.sin and math.cos
    # raise ValueError there
    return abs(body) == math.inf


_ATOMS = {
    "sin": _atom(_cycle((math.sin, 1.0), (math.cos, 1.0), (math.sin, -1.0), (math.cos, -1.0)),
                 _overflowed, functools.partial(OverflowError, "sin of an overflowed argument")),
    "cos": _atom(_cycle((math.cos, 1.0), (math.sin, -1.0), (math.cos, -1.0), (math.sin, 1.0)),
                 _overflowed, functools.partial(OverflowError, "cos of an overflowed argument")),
    "exp": _atom(_cycle((math.exp, 1.0))),
    "sinh": _atom(_cycle((math.sinh, 1.0), (math.cosh, 1.0))),
    "cosh": _atom(_cycle((math.cosh, 1.0), (math.sinh, 1.0))),
    "log": _atom(lambda k: _inv_derivative(k - 1) if k else (math.log, 1.0),
                 lambda body: body <= 0.0,
                 functools.partial(EvaluationError, "log of a value with nonpositive body")),
    "inv": _atom(_inv_derivative, lambda body: body == 0.0,
                 functools.partial(EvaluationError, "division by a value with zero body")),
}
_MATH_FUNCTION = type(math.sin)     # what _Kernel.apply runs point by point


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
        if type(v) is _Generator:
            # ``_run`` multiplies an odd coordinate in on the right only,
            # since its power is at most 1.  A finite dense value times it
            # shifts its blades; an inf or nan takes the pair product,
            # whose inf·0 reads nan.  A sum is finite only if every entry is.
            if getattr(u, "ndim", 0) == 2 and math.isfinite(u.sum()):
                return v.shift(u)
            v = v.dense
        # a float coefficient or a body scales every blade
        du, dv = getattr(u, "ndim", 0), getattr(v, "ndim", 0)
        if du == 2 and dv == 2:
            return _product(u, v)
        if du == 1 and dv == 2:
            return u[:, None] * v
        if du == 2 and dv == 1:
            return u * v[:, None]
        return u * v

    def apply(self, g, body: np.ndarray, where: np.ndarray) -> np.ndarray:
        """g(body) at the points of ``where``; other points read 0.  A
        ``math`` function maps over the points once; only where that raises
        does it go point by point, and a point where it raises an
        evaluation or arithmetic error fails.  Any other g is a rational
        derivative of inv or log and takes the whole array at once; a point
        where it overflows fails as arithmetic."""
        b = np.where(where, body, 1.0)
        if not isinstance(g, _MATH_FUNCTION):
            vals = g(b)
            overflowed = np.isinf(vals)
            if overflowed.any():
                self.fail(overflowed, OverflowError("a power of 1/body overflowed"))
            return np.where(where, vals, 0.0)
        xs = b.tolist()
        try:
            vals = list(map(g, xs))
        except (EvaluationError, ArithmeticError):
            vals = []
            for i, x in enumerate(xs):
                try:
                    vals.append(g(x))
                except (EvaluationError, ArithmeticError) as exc:
                    self.fail(np.arange(self.n) == i, exc)
                    vals.append(0.0)
        return np.where(where, vals, 0.0)

    def atom(self, kind: str, v):
        """f(v) = sum_k f^(k)(body)/k! soul^k for the atom kind f, summed at
        each point while soul^k is nonzero there: the soul is nilpotent."""
        rule = _ATOMS[kind]
        body = v if v.ndim < 2 else v[:, 0]
        if kind == "inv":
            self.fail(np.abs(body) < self.floor,
                      DivisorFloorError("divisor body below the sampling floor"))
        if rule.undefined is not None:
            self.fail(rule.undefined(body), rule.error())
        values = {}     # each g once, at the points that still need it

        def derivative(k, where):
            g, sign = rule.derivative(k)
            if g not in values:
                values[g] = self.apply(g, body, where)
            return values[g] if sign > 0 else -values[g]

        out = derivative(0, self.failure == 0)
        if v.ndim < 2:
            return out
        out = self.dense(out)
        soul = v.copy()
        soul[:, 0] = 0.0
        last = self.ngens
        if (last > 1 and np.count_nonzero(soul.any(axis=0)) < 2
                and math.isfinite(soul.sum())):
            last = 1        # a finite soul on one blade squares to zero
        power, fact = soul, 1.0
        alive = self.failure == 0
        for k in range(1, last + 1):
            if k > 1:
                power = _product(power, soul)
            alive &= power.any(axis=1)
            if not alive.any():
                break
            fact *= k
            term = (derivative(k, alive) / fact)[:, None] * power
            out = out + np.where(alive[:, None], term, 0.0)
        return out


def _body_atom(kind: str, body):
    # one ``math`` call per element, so that batched and per-point bodies
    # agree bit for bit.  ``math`` raises at every float body ``undefined``
    # marks (sin and cos at an infinity, log at a body <= 0, 1/b at a zero),
    # so an array runs the domain rule only where that raises, to raise the
    # kind's typed error.  A scalar runs it first: a numpy float divides as
    # numpy does, to an infinity, without raising
    rule = _ATOMS[kind]
    if not isinstance(body, np.ndarray):
        if rule.undefined is not None and rule.undefined(body):
            raise rule.error()
        return rule.value(body)
    try:
        return np.fromiter(map(rule.value, body.tolist()), float, len(body))
    except (ValueError, ArithmeticError):
        if rule.undefined is not None and rule.undefined(body).any():
            raise rule.error() from None
        raise


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


def _no_failure_state():
    # float and exact bodies raise where the Grassmann kernel records a
    # failure, so no value they compute depends on earlier failures
    return None


class Plan:
    """Compiled evaluation of one form-degree-0 expression.

    The expression tree is walked once, here; the plan is then called at
    many points.  ``x`` holds one value per chart coordinate, in chart
    order.  Every number kind shares one operation order: coefficient,
    then atoms, then coordinate powers by repeated multiplication, summed
    term by term from zero.  ``exact`` is True for polynomials with exact
    coefficients, the only plans with an exact body.  ``compiled``, the
    compile table, maps an atom's ``merge_key()`` to its kind and compiled
    argument, for every plan that shares it.
    """

    __slots__ = ("chart", "terms", "exact", "reads")

    def __init__(self, e: GradedExpr, compiled: Optional[dict] = None):
        compiled = {} if compiled is None else compiled
        terms = []
        reads = set()       # indices of the coordinates the plan reads
        for m in e.terms:
            if any(m.dexp):
                raise EvaluationError("evaluation expects form degree 0; "
                                      "evaluate form components instead")
            atoms = []
            for at in m.atoms:
                node = compiled.get(at.merge_key())
                if node is None:
                    node = compiled[at.merge_key()] = (at.kind, Plan(at.arg, compiled))
                atoms.append((node, at.power))
                reads |= node[1].reads
            powers = tuple((i, k) for i, k in enumerate(m.cexp) if k)
            terms.append(((m.coeff, _float_coeff(m.coeff)), tuple(atoms), powers))
            reads.update(i for i, _ in powers)
        self.chart = e.chart
        self.terms = tuple(terms)
        # a polynomial is a plan without atoms
        self.exact = all(not atoms and is_exact_coeff(coeff[0])
                         for coeff, atoms, _ in self.terms)
        self.reads = reads

    def exact_body(self, x: Sequence[Fraction]) -> Fraction:
        """Exact body; ``x`` holds Fractions, zero at odd coordinates."""
        if not self.exact:
            raise EvaluationError("exact body evaluation needs a polynomial "
                                  "expression with exact coefficients")
        return self._run(x, Fraction(0), _EXACT_COEFF, None, {})

    def float_body(self, x: Sequence, values: Optional[dict] = None):
        """Float body; ``x`` holds floats, zero at odd coordinates, or one
        float array per coordinate for an array of bodies (or a float).
        ``values`` is a value table, as for ``grassmann``."""
        return self._run(x, 0.0, _FLOAT_COEFF, _body_atom, {} if values is None else values)

    def grassmann(self, x: Sequence[np.ndarray], floor: float = 0.0,
                  values: Optional[dict] = None) -> GrassmannBatch:
        """Grassmann values at N points at once.  ``x`` holds, per
        coordinate, N bodies (shape (N,)), N dense values (shape
        (N, 2^k)) or, as ``_coordinates`` gives an odd coordinate, N scales
        of its generator.  A divisor whose body is smaller than ``floor`` in
        magnitude fails its point, so that sampling can move off a
        singularity.  ``values``, the value table, is shared by plans
        evaluated at the same ``x`` and ``floor``; without one the plan gets
        a fresh one."""
        n = len(x[0])
        kern = _Kernel(n, len(self.chart.odd_indices), floor)
        with np.errstate(all="ignore"):
            v = self._run(x, np.zeros(n), kern.lift, kern.atom,
                          {} if values is None else values, kern.failure.tobytes,
                          kern.mul, kern.add)
        return GrassmannBatch(kern.dense(v), kern.failure, kern.error)

    def _run(self, x, zero, lift, atom, values, state=_no_failure_state,
             mul=operator.mul, add=operator.add):
        """The one evaluation walk.  ``values`` shares only what the walk
        computes by the same operations wherever it occurs: an atom, its
        powers and the powers of a coordinate, never a partial product.  An
        atom's value depends on the points that have already failed, which
        ``state()`` reads, so it is kept under that state, and only if
        computing it failed no further point."""
        total = zero
        for coeff, atoms, powers in self.terms:
            v = lift(coeff)
            for node, p in atoms:
                s = state()
                known = values.get((node, s))
                if known is None:
                    kind, arg = node
                    known = {1: atom(kind, arg._run(x, zero, lift, atom, values,
                                                    state, mul, add))}
                    if state() == s:
                        values[node, s] = known
                if p not in known:
                    known[p] = _power(known[1], p, mul)
                v = mul(v, known[p])
            for i, k in powers:
                if k > 1 and (i, k) not in values:
                    values[i, k] = _power(x[i], k, mul)
                v = mul(v, x[i] if k == 1 else values[i, k])
            total = add(total, v)
        return total


class _Source:
    """The float-source number kind of ``Plan._run``: each operation the
    walk makes becomes one line of Python over one node's floats, in walk
    order, and its value is the name of that line's result.  Every
    coefficient and atom function is bound in the namespace under a
    generated name, so no text of the expression reaches the source; each
    shared atom, atom power and coordinate power is the name the value
    table holds, computed once per node."""

    def __init__(self):
        self.namespace: dict = {}
        self.lines: List[str] = []

    def bind(self, obj) -> str:
        name = f"_k{len(self.namespace)}"
        self.namespace[name] = obj
        return name

    def let(self, value: str) -> str:
        name = f"t{len(self.lines)}"
        self.lines.append(f"{name} = {value}")
        return name

    def lift(self, coeff) -> str:
        return self.bind(coeff[1])

    def atom(self, kind: str, arg: str) -> str:
        return self.let(f"{self.bind(_ATOMS[kind].value)}({arg})")

    def mul(self, u: str, v: str) -> str:
        return self.let(f"{u} * {v}")

    def add(self, u: str, v: str) -> str:
        return self.let(f"{u} + {v}")


def float_stage(plans: Sequence[Plan]) -> Callable[[np.ndarray], np.ndarray]:
    """The float bodies of one or more plans on one chart, as a function of
    an (N, dim) float array of points (zero at odd coordinates) that fills
    one (N, len(plans)) buffer and returns it; a new N copies the columns
    of the plans that read no coordinate into a new buffer.

    The first call walks ``float_body`` over every plan, in plan order,
    with one value table, which fills those columns once.  Later calls run
    one Python function, compiled here from the same walk of the plans that
    read a coordinate, in the float-source kind, so each point's values are
    the walk's at that point, bit for bit: Python and numpy float64 ``*``
    and ``+`` are the same rounded operations, and an atom calls the
    ``math`` function the walk maps over the points.  The compiled function
    raises where the walk does: at an atom's domain, and at a coefficient
    beyond float range, which stays exact and raises OverflowError in
    Python as in numpy.  There the walk runs instead, so the error raised
    is the walk's, the first in its order.
    """
    columns = np.flatnonzero([bool(plan.reads) for plan in plans])
    compiled = None
    if columns.size:
        src = _Source()
        x = [f"x{i}" for i in range(plans[0].chart.dim)]
        values: dict = {}
        totals = [plans[j]._run(x, "0.0", src.lift, src.atom, values,
                                mul=src.mul, add=src.add) for j in columns]
        body = "".join(f"        {line}\n" for line in src.lines)
        source = (f"def stage(points):\n"
                  f"    out = []\n"
                  f"    for {''.join(f'{v}, ' for v in x)}in points:\n"
                  f"{body}"
                  f"        out.extend(({''.join(f'{t}, ' for t in totals)}))\n"
                  f"    return out\n")
        exec(compile(source, "<float stage>", "exec"), src.namespace)
        # popped, so that the function and its globals hold no cycle
        compiled = src.namespace.pop("stage")
    out = None

    def walk(points: np.ndarray, buffer: np.ndarray) -> np.ndarray:
        cols, values = list(points.T), {}
        with np.errstate(all="ignore"):
            for j, plan in enumerate(plans):
                buffer[:, j] = plan.float_body(cols, values)
        return buffer

    def stage(points: np.ndarray) -> np.ndarray:
        nonlocal out
        if out is None:
            out = walk(points, np.empty((len(points), len(plans))))
            return out
        if len(points) != len(out):
            out = np.repeat(out[:1], len(points), axis=0)
        if compiled is not None:
            try:
                out[:, columns] = np.array(compiled(points.tolist())).reshape(
                    len(points), len(columns))
            except (ValueError, ArithmeticError):
                walk(points, out)
                raise
        return out
    return stage


def _coordinates(chart: ChartSpec, points: List[list]) -> List[np.ndarray]:
    """Per-coordinate values of a batch of points (see ``Plan.grassmann``):
    each point holds one float per coordinate, and an odd coordinate's float
    scales its own generator."""
    cols = np.array(points, dtype=float).T.copy()
    x = list(cols)
    for g, i in enumerate(chart.odd_indices):
        x[i] = _Generator(g, len(chart.odd_indices), cols[i])
    return x


def _even_reads(plans: Sequence[Plan]) -> List[Tuple[int, str]]:
    """(index, name) of the even coordinates some plan reads, in chart
    order."""
    chart = plans[0].chart
    reads = set().union(*(p.reads for p in plans))
    return [(i, chart.coords[i].name) for i in chart.even_indices if i in reads]


def _body_point(dim: int, reads: Sequence[Tuple[int, str]],
                point: Mapping[str, object], number=Fraction) -> list:
    """Per-coordinate values of a body point, as ``number``: only the even
    coordinates in ``reads`` (see ``_even_reads``) are converted, and the
    others are zero."""
    x = [number(0)] * dim
    for i, name in reads:
        if name not in point:
            raise EvaluationError(f"no value for coordinate {name!r}")
        x[i] = number(point[name])
    return x


def eval_numeric(a: GradedExpr, point: Mapping[str, object]) -> GrassmannValue:
    """Evaluate a form-degree-0 expression at one point.

    Even coordinates take real values; only those the expression reads need
    one.  An odd coordinate is its own generator, scaled by its value in
    ``point`` (1 when absent).
    """
    plan = Plan(a)
    x = _body_point(a.chart.dim, _even_reads([plan]), point, float)
    for i in a.chart.odd_indices:
        x[i] = float(point.get(a.chart.coords[i].name, 1.0))
    batch = plan.grassmann(_coordinates(a.chart, [x]))
    if batch.error is not None:
        raise batch.error
    return GrassmannValue(batch.values[0])


def _as_float(v) -> float:
    # float(Fraction(v)), without the Fraction where v is a finite float (a
    # plan's sum starts from 0.0, so a -0.0 never reaches its value)
    return v if type(v) is float and math.isfinite(v) else float(Fraction(v))


def body_values(plans: Sequence[Plan], points: Sequence[Mapping[str, object]]
                ) -> Tuple[List[list], Optional[Exception]]:
    """Bodies of compiled expressions at a batch of body points, in order.

    Returns the values of the points before the first one that fails, one
    list per point and one value per plan (a Fraction where the plan is
    exact, a float otherwise), and the error that evaluating that point
    alone raises: of its coordinates, else of its first failing plan, in
    plan order (None when every point evaluates).  No point after the first
    one whose coordinates fail to convert is evaluated.

    Odd coordinates are zero.  A plan that reads no coordinate runs once,
    and its value, or its error, is every point's.  Exact plans evaluate to
    Fractions, point by point.  Each float plan runs once over
    per-coordinate arrays of the points, which ``Plan.float_body`` evaluates
    bit for bit as it does one point, and point by point only where that
    raises.
    """
    if not plans:
        return [[] for _ in points], None
    # the coordinate lists only plans that read a coordinate need
    some_exact = any(p.exact and p.reads for p in plans)
    some_float = any(not p.exact and p.reads for p in plans)
    dim, reads = plans[0].chart.dim, _even_reads(plans)
    xq, xf, failure = [], [], None
    for point in points:
        try:
            q = _body_point(dim, reads, point) if some_exact else None
            f = _body_point(dim, reads, point, _as_float) if some_float else None
        except Exception as exc:
            failure = exc
            break
        xq.append(q)
        xf.append(f)
    n = len(xq)
    cols = np.array(xf).T if some_float else None
    columns = []
    with np.errstate(all="ignore"):
        for plan in plans:
            if not plan.reads:
                body = plan.exact_body if plan.exact else plan.float_body
                columns.append([_call(body, ())] * n)
            elif plan.exact:
                columns.append([_call(plan.exact_body, x) for x in xq])
            else:
                try:
                    vals = np.broadcast_to(plan.float_body(cols), n).tolist()
                except Exception:
                    vals = [_call(plan.float_body, x) for x in xf]
                columns.append(vals)
    values = []
    for row in zip(*columns):
        error = next((v for v in row if isinstance(v, Exception)), None)
        if error is not None:
            return values, error
        values.append(list(row))
    return values, failure


def _call(f, x):
    try:
        return f(x)
    except Exception as exc:
        return exc


def sample_body_points(chart: ChartSpec, n_points: int,
                       seed: int) -> List[Dict[str, float]]:
    """Body points inside the chart boxes: each coordinate takes one of 65
    evenly spaced values, lo + (hi - lo)·k/64, rounded once to the nearest
    float, so that the exact and float paths see the same point.  The value
    is an integer ratio, rounded by int true division as
    ``Fraction.__float__`` rounds it."""
    rng = random.Random(seed)
    coords = []
    for i in chart.even_indices:
        lo, hi = chart.box_for(i)
        a, b = Fraction(lo).as_integer_ratio()
        c, d = Fraction(hi).as_integer_ratio()
        # lo + (hi - lo)·k/64 = (64·a·d + (c·b - a·d)·k) / (64·b·d)
        coords.append((chart.coords[i].name, 64 * a * d, c * b - a * d, 64 * b * d))
    return [{name: (base + step * rng.randint(0, 64)) / den
             for name, base, step, den in coords}
            for _ in range(n_points)]


def eval_body_exact(a: GradedExpr, point: Mapping[str, Union[int, Fraction]]) -> Fraction:
    """Exact body evaluation of a polynomial expression at a rational point.

    Odd coordinates evaluate to zero.  Raises if the expression carries
    transcendental atoms or float coefficients.
    """
    plan = Plan(a)
    return plan.exact_body(_body_point(a.chart.dim, _even_reads([plan]), point))
