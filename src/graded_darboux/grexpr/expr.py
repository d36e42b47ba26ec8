"""Canonical bigraded expression algebra.

An expression is a sum of monomials over a fixed chart.  Each monomial is

    coefficient * (transcendental atoms) * (coordinate powers) * (differentials)

with the three groups kept in a fixed canonical order: atoms sorted by a
structural key, then coordinates in chart order, then differentials in chart
order.  Every generator carries a bidegree (form degree p, parity s) and
reordering two adjacent factors of bidegrees (p, s), (q, t) costs the sign
(-1)**(p*q + s*t).  All operations reduce to this one rule.

Generator bidegrees:

    even coordinate x      (0, 0)   commutes with everything
    odd coordinate  xi     (0, 1)   xi*xi = 0
    d(x), x even           (1, 0)   d(x)*d(x) = 0
    d(xi), xi odd          (1, 1)   d(xi)*d(xi) != 0

Coefficients are exact rationals by default: an exact coefficient is an
``int`` or a ``Fraction``, and an integral value may be either.  Constants
and parsed numbers give an int, but products keep what Fraction arithmetic
returns: ``(2/3*x)*(3/2*y)`` has the coefficient ``Fraction(1, 1)``.
``_coeff_key`` and the printer treat the two alike, so both spellings share
one key and one printed form.  Floats are allowed and taint the expression
into "inexact" mode (randomized equality only); "exact" means "not a float"
wherever it is read.
"""

from __future__ import annotations

from fractions import Fraction
from operator import add
from typing import Callable, Dict, Iterable, List, Optional, Tuple, Union

from .chart import ChartSpec, ChartError, EVEN

Number = Union[int, Fraction, float]

FUNC_KINDS = ("sin", "cos", "exp", "log", "sinh", "cosh")
ATOM_KINDS = FUNC_KINDS + ("inv",)


class ParityError(ValueError):
    pass


class EvaluationError(ValueError):
    pass


def _cnum(v: Number):
    """Normalize a scalar coefficient: an int, or a Fraction with an integral
    value, becomes an int; other Fractions and floats stay."""
    if isinstance(v, bool):
        raise TypeError("bool is not a coefficient")
    if isinstance(v, (int, float)):
        return v
    if isinstance(v, Fraction):
        return v.numerator if v.denominator == 1 else v
    raise TypeError(f"cannot use {v!r} as a coefficient")


def is_exact_coeff(c) -> bool:
    """An exact coefficient is an int or a Fraction: anything but a float."""
    return not isinstance(c, float)


def _quotient(a, b):
    """``a / b`` for coefficients: exact when both are (a Fraction, an int
    where integral), never by int true division; a float otherwise."""
    if is_exact_coeff(a) and is_exact_coeff(b):
        return _cnum(Fraction(a, b))
    return a / b


def _coeff_key(c):
    if is_exact_coeff(c):
        # an int and a Fraction of equal value share a key
        return ("q", c.numerator, c.denominator)
    return ("f", repr(c))


class Atom:
    """A transcendental factor ``kind(arg)**power``; ``inv`` is 1/arg.

    The argument must be even and of form degree 0.
    """

    __slots__ = ("kind", "arg", "power", "_mkey")

    def __init__(self, kind: str, arg: "GradedExpr", power: int = 1):
        if kind not in ATOM_KINDS:
            raise ValueError(f"unknown atom kind {kind!r}")
        if power < 1:
            raise ValueError("atom power must be >= 1")
        if arg.form_degree() != 0:
            raise ParityError(f"{kind} applied to a form-valued argument")
        if arg.parity() not in (EVEN, None):
            raise ParityError(f"{kind} applied to an odd argument")
        self.kind = kind
        self.arg = arg
        self.power = power
        self._mkey = (kind, arg.key())

    def merge_key(self):
        return self._mkey

    def full_key(self):
        return (self.kind, self.arg.key(), self.power)

    def with_power(self, power: int) -> "Atom":
        return Atom(self.kind, self.arg, power)

    def __repr__(self):
        return f"{self.kind}({self.arg!r})^{self.power}"


class Monomial:
    __slots__ = ("coeff", "atoms", "cexp", "dexp", "_key", "_masks")

    def __init__(self, coeff, atoms: Tuple[Atom, ...], cexp: Tuple[int, ...],
                 dexp: Tuple[int, ...], masks=None):
        self.coeff = coeff
        self.atoms = atoms
        self.cexp = cexp
        self.dexp = dexp
        self._key = None
        self._masks = masks

    def key(self):
        if self._key is None:
            atoms = self.atoms
            self._key = (tuple(a.full_key() for a in atoms) if atoms else (),
                         self.cexp, self.dexp)
        return self._key

    def sort_key(self):
        atoms, cexp, dexp = self.key()
        return (sum(dexp), dexp, cexp, atoms)

    def form_degree(self) -> int:
        return sum(self.dexp)

    def masks(self, chart: ChartSpec):
        """Occupancy bitmasks ``(odd_mask, zw, pw, sw)`` over ``chart``.

        Bit i stands for coordinate i and bit n+i for d(x_i), so bit order
        is canonical order.  ``zw`` holds the square-zero generators present
        (odd coordinates, even differentials), ``pw`` those of odd form
        degree and ``sw`` the odd ones; a power counts by its parity.  The
        cache is keyed by the chart's ``odd_mask``.
        """
        mk = self._masks
        odd = chart.odd_mask
        if mk is None or mk[0] != odd:
            n = len(self.cexp)
            zw = pw = sw = 0
            for i, k in enumerate(self.cexp):
                if k and odd >> i & 1:
                    sw |= 1 << i
            for i, k in enumerate(self.dexp):
                if k:
                    bit = 1 << (n + i)
                    if not odd >> i & 1:
                        zw |= bit
                        pw |= bit
                    elif k & 1:
                        pw |= bit
                        sw |= bit
            mk = self._masks = (odd, zw | sw & ((1 << n) - 1), pw, sw)
        return mk

    def parity(self, chart: ChartSpec) -> int:
        return self.masks(chart)[3].bit_count() & 1

    def is_exact(self) -> bool:
        if not is_exact_coeff(self.coeff):
            return False
        return all(a.arg.is_exact() for a in self.atoms)

    def is_polynomial(self) -> bool:
        return not self.atoms


def _crossings(w1: int, w2: int, w3: int = 0) -> int:
    """``#{a in w2, b in w1 : a < b} + #{a in w3, b in w2 : a < b}``: the
    pairs that cross when w2 moves into canonical order between w1 and w3,
    every generator of w1 preceding every generator of w3."""
    n = 0
    while w2:
        low = w2 & -w2
        n += ((w1 >> low.bit_length()).bit_count()
              + (w3 & (low - 1)).bit_count())
        w2 ^= low
    return n


def _insert(c, atoms, cexp, dexp, lo, hi, t: Monomial,
            chart: ChartSpec, flip: int = 0) -> Optional[Monomial]:
    """``(-1)**flip * c * L * t * R`` in canonical order, or None on a
    square-zero collision.  The cofactor L*R has ``atoms``, ``cexp`` and
    ``dexp``; ``lo`` and ``hi`` are the masks of L and R, and every
    generator of L precedes every generator of R."""
    odd, zw, pw, sw = t.masks(chart)
    _, zl, pl, sl = lo
    _, zr, pr, sr = hi
    if zw & (zl | zr):
        return None

    # Koszul sign: t crosses the generators of L after its canonical
    # position and those of R before it; a crossing costs (-1)**(p*q + s*t).
    # A unit coefficient, as every generator's, is not multiplied.
    tc = t.coeff
    coeff = c if type(tc) is int and tc == 1 else c * tc
    if (_crossings(pl, pw, pr) + _crossings(sl, sw, sr) + flip) & 1:
        coeff = -coeff
    if not atoms:
        atoms = t.atoms
    elif t.atoms:
        merged: Dict[tuple, Atom] = {}
        for a in atoms + t.atoms:
            k = a.merge_key()
            if k in merged:
                merged[k] = merged[k].with_power(merged[k].power + a.power)
            else:
                merged[k] = a
        atoms = tuple(sorted(merged.values(), key=Atom.full_key))

    # powers of d(xi) add, so their parity bits do too
    tcexp, tdexp = t.cexp, t.dexp
    return Monomial(coeff, atoms,
                    tuple(map(add, cexp, tcexp)) if any(tcexp) else cexp,
                    tuple(map(add, dexp, tdexp)) if any(tdexp) else dexp,
                    (odd, zl | zr | zw, pl ^ pr ^ pw, sl ^ sr ^ sw))


def _mul_monomials(m1: Monomial, m2: Monomial,
                   chart: ChartSpec) -> Optional[Monomial]:
    """Canonical product ``m1 * m2``, or None on a square-zero collision:
    the insertion of m2 after m1, with nothing to its right."""
    return _insert(m1.coeff, m1.atoms, m1.cexp, m1.dexp, m1.masks(chart),
                   (chart.odd_mask, 0, 0, 0), m2, chart)


def _reduce_inverses(m: Monomial, chart: ChartSpec,
                     spill: List[Monomial]) -> Optional[Monomial]:
    """Cancel coordinate/atom content against 1/(single monomial) factors,
    so that x * (1/x) normalizes to 1.  A 1/(1/g)^p that meets no 1/g is
    g^p: its canonical terms go to ``spill``, and the result is None."""
    while True:
        progress = False
        for idx, a in enumerate(m.atoms):
            if a.kind != "inv" or len(a.arg.terms) != 1:
                continue
            d = a.arg.terms[0]
            if a.power == 1:
                new_atoms = m.atoms[:idx] + m.atoms[idx + 1:]
            else:
                new_atoms = (m.atoms[:idx] + (a.with_power(a.power - 1),)
                             + m.atoms[idx + 1:])
            rest = Monomial(m.coeff, new_atoms, m.cexp, m.dexp)
            q = _divide_monomial(rest, d, chart)
            if q is not None:
                m = q
                progress = True
                break
            if d.atoms and d.atoms[0].kind == "inv":
                rest = Monomial(m.coeff, m.atoms[:idx] + m.atoms[idx + 1:],
                                m.cexp, m.dexp)
                g = d.atoms[0].arg ** (d.atoms[0].power * a.power)
                spill.extend(gmul(GradedExpr(chart, (rest,)), g).terms)
                return None
        if not progress:
            return m


class GradedExpr:
    """Immutable canonical element of the bigraded algebra over a chart."""

    __slots__ = ("chart", "terms", "_hash", "_ekey")

    def __init__(self, chart: ChartSpec, terms: Tuple[Monomial, ...]):
        # assumes terms already canonical; use the factory functions below
        self.chart = chart
        self.terms = terms
        self._hash = None
        self._ekey = None

    # -- construction ------------------------------------------------------

    @staticmethod
    def from_terms(chart: ChartSpec, terms: Iterable[Monomial]) -> "GradedExpr":
        acc: Dict[tuple, Monomial] = {}
        spill: List[Monomial] = []
        for m in terms:
            if not m.coeff:
                continue
            if m.atoms:
                m = _reduce_inverses(m, chart, spill)
                if m is None:
                    continue
            k = m.key()
            if k in acc:
                old = acc[k]
                c = old.coeff + m.coeff
                if not c:
                    del acc[k]
                else:
                    acc[k] = Monomial(c, old.atoms, old.cexp, old.dexp, old._masks)
            else:
                acc[k] = m
        if spill:
            return GradedExpr.from_terms(chart, list(acc.values()) + spill)
        out = tuple(acc.values())
        if len(out) > 1:
            out = tuple(sorted(out, key=Monomial.sort_key))
        return GradedExpr(chart, out)

    # -- structural queries --------------------------------------------------

    def key(self):
        if self._ekey is None:
            self._ekey = tuple(m.key() + (_coeff_key(m.coeff),) for m in self.terms)
        return self._ekey

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.chart.names, self.key()))
        return self._hash

    def __eq__(self, other):
        if not isinstance(other, GradedExpr):
            return NotImplemented
        return ((self.chart is other.chart or self.chart == other.chart)
                and self.key() == other.key())

    def is_zero(self) -> bool:
        return not self.terms

    def is_exact(self) -> bool:
        return all(m.is_exact() for m in self.terms)

    def is_polynomial(self) -> bool:
        return all(m.is_polynomial() for m in self.terms)

    def form_degree(self) -> Optional[int]:
        """Common form degree of all monomials, or None if mixed/zero-free."""
        degs = {m.form_degree() for m in self.terms}
        if not degs:
            return 0
        if len(degs) == 1:
            return degs.pop()
        return None

    def parity(self) -> Optional[int]:
        """Common parity, or None if mixed. The zero expression reports None."""
        ps = {m.parity(self.chart) for m in self.terms}
        if len(ps) == 1:
            return ps.pop()
        return None

    def depends_on(self, name: str) -> bool:
        i = self.chart.index(name)
        for m in self.terms:
            if m.cexp[i] or m.dexp[i]:
                return True
            if any(a.arg.depends_on(name) for a in m.atoms):
                return True
        return False

    def constant_value(self):
        """The scalar value if the expression is a constant, else None; an
        exact constant is a Fraction, whatever its coefficient's type."""
        if not self.terms:
            return Fraction(0)
        if len(self.terms) == 1:
            m = self.terms[0]
            if not m.atoms and not any(m.cexp) and not any(m.dexp):
                c = m.coeff
                return Fraction(c) if is_exact_coeff(c) else c
        return None

    def max_abs_coeff(self) -> float:
        return max((abs(float(m.coeff)) for m in self.terms), default=0.0)

    def diff_components(self) -> Dict[Tuple[int, ...], "GradedExpr"]:
        """Split a form into its differential-word components.

        Returns a map from differential exponent pattern to the (form-degree
        zero) left coefficient expression.  The terms of one pattern are
        canonical, sorted and distinct, and stay so with their differentials
        dropped, so the coefficient is built from them directly.
        """
        zero_d = (0,) * self.chart.dim
        groups: Dict[Tuple[int, ...], List[Monomial]] = {}
        for m in self.terms:
            groups.setdefault(m.dexp, []).append(
                Monomial(m.coeff, m.atoms, m.cexp, zero_d))
        return {pat: GradedExpr(self.chart, tuple(ms))
                for pat, ms in groups.items()}

    def coefficient_of_diff(self, name: str) -> "GradedExpr":
        """Left coefficient of d(name) in a 1-form, built directly from its
        terms as in ``diff_components``."""
        n = self.chart.dim
        i = self.chart.index(name)
        pat = tuple(1 if j == i else 0 for j in range(n))
        return GradedExpr(self.chart, tuple(
            Monomial(m.coeff, m.atoms, m.cexp, (0,) * n)
            for m in self.terms if m.dexp == pat))

    # -- arithmetic ----------------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, GradedExpr):
            if other.chart is not self.chart and other.chart != self.chart:
                raise ChartError("operands live on different charts")
            return other
        return const(self.chart, _cnum(other))

    def __add__(self, other):
        other = self._coerce(other)
        return GradedExpr.from_terms(self.chart, self.terms + other.terms)

    __radd__ = __add__

    def __neg__(self):
        return GradedExpr(
            self.chart,
            tuple(Monomial(-m.coeff, m.atoms, m.cexp, m.dexp) for m in self.terms),
        )

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __rsub__(self, other):
        return (-self) + self._coerce(other)

    def __mul__(self, other):
        return gmul(self, self._coerce(other))

    def __rmul__(self, other):
        return gmul(self._coerce(other), self)

    def __truediv__(self, other):
        return gdiv(self, self._coerce(other))

    def __rtruediv__(self, other):
        return gdiv(self._coerce(other), self)

    def __pow__(self, n: int):
        if not isinstance(n, int) or n < 0:
            raise ValueError("exponents must be non-negative integers")
        out = one(self.chart)
        for _ in range(n):
            out = gmul(out, self)
        return out

    def __str__(self):
        from .parser import format_expr
        return format_expr(self)

    def __repr__(self):
        return f"<{self}>"


# -- basic constructors ------------------------------------------------------


def zero(chart: ChartSpec) -> GradedExpr:
    return GradedExpr(chart, ())


def const(chart: ChartSpec, value: Number) -> GradedExpr:
    value = _cnum(value)
    if value == 0:
        return zero(chart)
    n = chart.dim
    return GradedExpr(chart, (Monomial(value, (), (0,) * n, (0,) * n),))


def one(chart: ChartSpec) -> GradedExpr:
    return const(chart, 1)


def generator(chart: ChartSpec, tag: str, i: int) -> GradedExpr:
    """x_i (tag 'coord') or d(x_i) (tag 'diff'), built once per chart and
    kept in its ``_generators``."""
    gens = chart._generators
    g = gens.get((tag, i))
    if g is None:
        g = gens[tag, i] = _single_factor_expr(chart, tag, (i, 1))
    return g


def coord(chart: ChartSpec, name: str) -> GradedExpr:
    return generator(chart, "coord", chart.index(name))


def diff(chart: ChartSpec, name: str) -> GradedExpr:
    return generator(chart, "diff", chart.index(name))


def apply_func(kind: str, arg: GradedExpr) -> GradedExpr:
    """Apply a transcendental atom to an even, form-degree-0 argument.

    Only literal special values are simplified (sin(0)=0, exp(0)=1, ...);
    everything else stays symbolic.
    """
    if kind == "inv":
        return gdiv(one(arg.chart), arg)
    if kind not in FUNC_KINDS:
        raise ValueError(f"unknown function {kind!r}")
    cval = arg.constant_value()
    if cval == 0:
        if kind in ("sin", "sinh"):
            return zero(arg.chart)
        if kind in ("cos", "cosh", "exp"):
            return one(arg.chart)
        if kind == "log":
            raise EvaluationError("log of zero")
    if kind == "log" and cval == 1:
        return zero(arg.chart)
    if kind in ("exp", "log") and len(arg.terms) == 1:
        m = arg.terms[0]
        if (m.coeff == 1 and not any(m.cexp) and not any(m.dexp)
                and len(m.atoms) == 1 and m.atoms[0].power == 1
                and m.atoms[0].kind == ("log" if kind == "exp" else "exp")):
            return m.atoms[0].arg
    return _single_factor_expr(arg.chart, "atom", Atom(kind, arg))


# -- products and quotients ----------------------------------------------------


def gmul(a: GradedExpr, b: GradedExpr) -> GradedExpr:
    """Graded product (wedge when both factors carry differentials)."""
    if a.chart is not b.chart and a.chart != b.chart:
        raise ChartError("gmul of expressions on different charts")
    out = []
    for m1 in a.terms:
        for m2 in b.terms:
            m = _mul_monomials(m1, m2, a.chart)
            if m is not None:
                out.append(m)
    return GradedExpr.from_terms(a.chart, out)


def _divide_monomial(m: Monomial, d: Monomial, chart: ChartSpec) -> Optional[Monomial]:
    """Exact division of a monomial by a (single, even, degree-0) monomial."""
    atoms: Dict[tuple, Atom] = {a.merge_key(): a for a in m.atoms}
    for da in d.atoms:
        k = da.merge_key()
        have = atoms.get(k)
        if have is None or have.power < da.power:
            return None
        if have.power == da.power:
            del atoms[k]
        else:
            atoms[k] = have.with_power(have.power - da.power)
    cexp = []
    for e1, e2 in zip(m.cexp, d.cexp):
        if e1 < e2:
            return None
        cexp.append(e1 - e2)
    if any(d.dexp):
        return None
    cand = Monomial(
        1,
        tuple(sorted(atoms.values(), key=Atom.full_key)),
        tuple(cexp),
        m.dexp,
    )
    # fix the overall sign/coefficient by multiplying back
    back = _mul_monomials(cand, d, chart)
    if back is None:
        return None
    return Monomial(_quotient(m.coeff, back.coeff), cand.atoms, cand.cexp, cand.dexp)


def gdiv(a: GradedExpr, b: GradedExpr) -> GradedExpr:
    """Quotient by an even, form-degree-0 expression with a nonzero body.

    One path: divide each coefficient of ``a`` by the divisor's leading
    coefficient c (true division for floats), then multiply by the symbolic
    inverse of b/c, one monomial of ``inv`` atoms.  A monomial divisor is
    inverted factor by factor (x^k to 1/(x)^k, f(u)^p to 1/(f(u))^p, even
    (1/g)^p to 1/(1/g)^p); any other divisor becomes one 1/(b/c).
    ``from_terms`` does every cancellation, so x^2/x is x, x/x^2 is 1/x
    and a 1/(1/g) that meets no 1/g is g.
    """
    if a.chart != b.chart:
        raise ChartError("gdiv of expressions on different charts")
    if b.is_zero():
        raise ZeroDivisionError("division by the zero expression")
    if b.form_degree() != 0:
        raise ParityError("division by a form-valued expression")
    if b.parity() not in (EVEN, None):
        raise ParityError("division by an odd expression")
    body = (1 << b.chart.dim) - 1      # the coordinate bits of a mask
    if all(m.masks(b.chart)[3] & body for m in b.terms):
        raise ZeroDivisionError("division by a nilpotent (zero-body) expression")

    chart, lead = a.chart, b.terms[0].coeff

    def scaled(e: GradedExpr) -> GradedExpr:
        return GradedExpr(chart, tuple(
            Monomial(_quotient(m.coeff, lead), m.atoms, m.cexp, m.dexp)
            for m in e.terms))

    if len(b.terms) > 1:
        inverse = [Atom("inv", scaled(b))]
    else:
        d = b.terms[0]
        inverse = [Atom("inv", generator(chart, "coord", i), k)
                   for i, k in enumerate(d.cexp) if k]
        inverse += [Atom("inv", _single_factor_expr(
            chart, "atom", at.with_power(1)), at.power) for at in d.atoms]
    if not inverse:     # a constant divisor: its inverse is 1
        return scaled(a)
    n = chart.dim
    return gmul(scaled(a), GradedExpr(chart, (Monomial(
        1, tuple(sorted(inverse, key=Atom.full_key)), (0,) * n, (0,) * n),)))


# -- Leibniz walks -------------------------------------------------------------


def _single_factor_expr(chart: ChartSpec, tag, payload) -> GradedExpr:
    n = chart.dim
    if tag == "atom":
        return GradedExpr(
            chart, (Monomial(1, (payload,), (0,) * n, (0,) * n),))
    i, k = payload
    if tag == "coord":
        cexp = tuple(k if j == i else 0 for j in range(n))
        return GradedExpr(chart, (Monomial(1, (), cexp, (0,) * n),))
    dexp = tuple(k if j == i else 0 for j in range(n))
    return GradedExpr(chart, (Monomial(1, (), (0,) * n, dexp),))


def _cut(mk, pos: int):
    """The masks of a monomial's generators before and after bit ``pos``,
    from its masks ``mk``."""
    lo, hi = (1 << pos) - 1, -(2 << pos)
    return ((mk[0], mk[1] & lo, mk[2] & lo, mk[3] & lo),
            (mk[0], mk[1] & hi, mk[2] & hi, mk[3] & hi))


def leibniz_walk(e: GradedExpr, op_p: int, op_s: int,
                 image: Callable) -> GradedExpr:
    """Apply a graded derivation of bidegree (op_p, op_s) (mod 2).

    ``image(tag, payload)`` returns the derivation's value on a single factor
    (or None for zero); tag is 'atom' (payload an Atom), 'coord' or 'diff'
    (payload ``(index, power)``), visited in canonical order.  ``image``
    must be a function of its arguments for the length of one walk: it is
    asked once per distinct factor, an atom told apart by its full key.
    Crossing a factor of bidegree (p, s) costs (-1)**(op_p*p + op_s*s).

    The term for factor f of ``m = L f R`` is ``L * image(f) * R``, one
    product per image term t: the cofactor L*R (m's exponents and atoms
    without f) and the masks of L and R are sliced out of m once, t is
    dropped when it meets a square-zero generator of L or R, and its sign
    is the parity of the crossings of t with L and with R, summed over
    both sign words (exact, as L's generators all precede R's), plus the
    parity of the derivation's crossings of L, carried as a bit: each
    emitted coefficient is negated at most once.
    """
    chart = e.chart
    odd = chart.odd_mask
    n = chart.dim
    empty = (odd, 0, 0, 0)      # the masks of a factor-free cofactor
    images: Dict[tuple, Tuple[Monomial, ...]] = {}
    out: List[Monomial] = []

    def image_of(tag, payload):
        """The terms of ``image(tag, payload)``, asked once per distinct
        factor."""
        key = (tag, payload.full_key() if tag == "atom" else payload)
        ts = images.get(key)
        if ts is None:
            img = image(tag, payload)
            ts = images[key] = () if img is None else img.terms
        return ts

    # crossing x_i, or d(x_i)^k with k odd, flips the sign where these bit
    # masks have bit i
    cross_coord = odd if op_s % 2 else 0
    cross_diff = (-1 if op_p % 2 else 0) ^ cross_coord
    for m in e.terms:
        atoms, cexp, dexp = m.atoms, m.cexp, m.dexp
        mk = m.masks(chart)
        c = m.coeff
        for j, a in enumerate(atoms):
            ts = image_of("atom", a)
            if ts:
                rest = atoms[:j] + atoms[j + 1:]
                for t in ts:
                    p = _insert(c, rest, cexp, dexp, empty, mk, t, chart)
                    if p is not None:
                        out.append(p)
        flip = 0        # the parity of the factors crossed so far
        for i, k in enumerate(cexp):
            if k:
                ts = image_of("coord", (i, k))
                if ts:
                    rest = cexp[:i] + (0,) + cexp[i + 1:]
                    lo, hi = _cut(mk, i)
                    for t in ts:
                        p = _insert(c, atoms, rest, dexp, lo, hi, t, chart, flip)
                        if p is not None:
                            out.append(p)
                flip ^= cross_coord >> i & 1
        for i, k in enumerate(dexp):
            if k:
                ts = image_of("diff", (i, k))
                if ts:
                    rest = dexp[:i] + (0,) + dexp[i + 1:]
                    lo, hi = _cut(mk, n + i)
                    for t in ts:
                        p = _insert(c, atoms, cexp, rest, lo, hi, t, chart, flip)
                        if p is not None:
                            out.append(p)
                flip ^= k & cross_diff >> i & 1
    return GradedExpr.from_terms(chart, out)


_DERIV_TABLE = {
    "sin": lambda arg: apply_func("cos", arg),
    "cos": lambda arg: -apply_func("sin", arg),
    "exp": lambda arg: apply_func("exp", arg),
    "log": lambda arg: apply_func("inv", arg),
    "sinh": lambda arg: apply_func("cosh", arg),
    "cosh": lambda arg: apply_func("sinh", arg),
    "inv": lambda arg: -(apply_func("inv", arg) ** 2),
}


def atom_chain(a: Atom, darg: GradedExpr) -> GradedExpr:
    """d(kind(arg)**power) given d(arg): power*kind(arg)**(power-1)*kind'(arg)*darg."""
    chart = a.arg.chart
    head = const(chart, a.power)
    if a.power > 1:
        head = gmul(head, _single_factor_expr(chart, "atom", a.with_power(a.power - 1)))
    head = gmul(head, _DERIV_TABLE[a.kind](a.arg))
    return gmul(head, darg)


def power_image(c: GradedExpr, tag: str, i: int, k: int) -> GradedExpr:
    """k*c*g^(k-1), one product, for g = x_i (tag 'coord') or d(x_i) (tag
    'diff'): the image of g^k under a derivation that sends g to c, when
    the k Leibniz terms reorder to one word."""
    if k == 1 or not c.terms:
        return c
    n = c.chart.dim
    word, rest = tuple(k - 1 if j == i else 0 for j in range(n)), (0,) * n
    g = Monomial(k, (), word, rest) if tag == "coord" else Monomial(k, (), rest, word)
    return gmul(c, GradedExpr(c.chart, (g,)))


def derivation(e: GradedExpr, coeffs: Tuple[GradedExpr, ...], parity: int,
               d: Optional[Callable] = None) -> GradedExpr:
    """The derivation of bidegree (0, parity) with x^i -> coeffs[i] that
    commutes with d: x^k -> k*c*x^(k-1), d(x)^k -> k*d(c)*d(x)^(k-1) (the k
    Leibniz terms of an odd d(xi)^k reorder to one word), atoms by the chain
    rule.  Only a nonconstant coefficient needs the exterior derivative
    ``d``; each d(c), and the derivation of each distinct atom argument, is
    taken at most once per call."""
    chart = e.chart
    dcoeffs = [None] * chart.dim
    dargs: Dict[tuple, GradedExpr] = {}

    def image(tag, payload):
        if tag == "atom":
            key = payload.arg.key()
            if key not in dargs:
                dargs[key] = leibniz_walk(payload.arg, 0, parity, image)
            darg = dargs[key]
            return atom_chain(payload, darg) if darg.terms else None
        i, k = payload
        c = coeffs[i]
        if tag == "diff":
            if c.constant_value() is not None:
                return None
            if dcoeffs[i] is None:
                dcoeffs[i] = d(c)
            c = dcoeffs[i]
        return power_image(c, tag, i, k)

    return leibniz_walk(e, 0, parity, image)


def partial(a: GradedExpr, name: str) -> GradedExpr:
    """Left partial derivative along a coordinate; differentials are constants."""
    chart = a.chart
    xi = chart.index(name)
    coeffs = tuple(one(chart) if i == xi else zero(chart)
                   for i in range(chart.dim))
    return derivation(a, coeffs, chart.parity(xi))


def canonicalize(a: GradedExpr) -> GradedExpr:
    """Re-normalize (idempotent: expressions are canonical by construction)."""
    return GradedExpr.from_terms(a.chart, a.terms)


# -- substitution ---------------------------------------------------------------


def substitute(a: GradedExpr,
               images: Optional[Dict[str, GradedExpr]] = None,
               d_images: Optional[Dict[str, GradedExpr]] = None) -> GradedExpr:
    """Graded algebra homomorphism defined on generators.

    ``images`` maps coordinate names to expressions (parity-preserving, form
    degree 0); ``d_images`` maps coordinate names to the image of d(name).
    Unmapped generators map to themselves, which requires the target chart to
    carry a coordinate of the same name and parity.
    """
    images = dict(images or {})
    d_images = dict(d_images or {})
    src = a.chart

    target = None
    for e in list(images.values()) + list(d_images.values()):
        if target is None:
            target = e.chart
        elif e.chart != target:
            raise ChartError("substitution images live on different charts")
    if target is None:
        target = src

    # (name, label, image, form degree); a zero d-image has any degree
    checks = [(n, n, e, 0) for n, e in images.items()] + \
        [(n, f"d({n})", e, 1) for n, e in d_images.items() if e.terms]
    for name, label, img, deg in checks:
        i = src.index(name)
        if img.form_degree() != deg:
            raise ParityError(f"image of {label} must have form degree {deg}")
        if not img.is_zero() and img.parity() != src.parity(i):
            raise ParityError(f"image of {label} does not preserve parity")

    def image(tag: str, i: int) -> GradedExpr:
        """The image of x_i (tag 'coord') or of d(x_i) (tag 'diff')."""
        name = src.coords[i].name
        if tag == "diff" and name in d_images:
            return d_images[name]
        if name in images:
            if tag == "coord":
                return images[name]
            raise ChartError(f"no image declared for d({name}) "
                             "(coordinate itself is remapped)")
        if name in target.names and target.parity(target.index(name)) == src.parity(i):
            return generator(target, tag, target.index(name))
        raise ChartError("no image declared for "
                         + (f"d({name})" if tag == "diff" else f"coordinate {name!r}"))

    def factors(m: Monomial):
        """Each factor's image and power, computed only when reached."""
        for at in m.atoms:
            yield apply_func(at.kind, substitute(at.arg, images, d_images)), at.power
        for tag, exps in (("coord", m.cexp), ("diff", m.dexp)):
            for i, k in enumerate(exps):
                if k:
                    yield image(tag, i), k

    out: List[Monomial] = []
    for m in a.terms:
        term = const(target, m.coeff)
        for img, k in factors(m):
            # a vanished term reads no further image
            term = gmul(term, img ** k)
            if term.is_zero():
                break
        out.extend(term.terms)
    return GradedExpr.from_terms(target, out)
