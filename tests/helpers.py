"""Shared generators and oracles for the test suite (all seeded, no global
randomness)."""

from __future__ import annotations

import random
from fractions import Fraction
from typing import Dict

import numpy as np

from graded_darboux import _linalg
from graded_darboux import (apply_func, chart, coord, diff, gmul, one, partial,
                            zero)
from graded_darboux.grexpr.chart import ChartSpec, CoordinateDecl, EVEN, ODD
from graded_darboux.grexpr.expr import ATOM_KINDS, GradedExpr, Monomial, const
from graded_darboux.cartan import VectorField, exterior_d
from graded_darboux.grexpr.equality import DEFAULT_POLICY
from graded_darboux.grexpr.grassmann import Plan, body_values
from graded_darboux.pfaffian import PfaffianError


def random_chart(rng: random.Random, max_even=4, max_odd=3,
                 weights=(-2, -1, 0, 1, 2)) -> ChartSpec:
    ne = rng.randint(1, max_even)
    no = rng.randint(0, max_odd)
    decls = []
    for i in range(ne):
        decls.append(CoordinateDecl(f"x{i}", EVEN, Fraction(rng.choice(weights))))
    for i in range(no):
        decls.append(CoordinateDecl(f"t{i}", ODD, Fraction(rng.choice(weights))))
    return ChartSpec(tuple(decls))


def random_monomial(c: ChartSpec, rng: random.Random, max_deg=3,
                    form_degree=None) -> GradedExpr:
    """A random nonzero monomial: coefficient * coordinate word * diff word."""
    e = one(c) * Fraction(rng.randint(1, 4), rng.randint(1, 3)) * rng.choice([1, -1])
    deg = 0
    for i, cd in enumerate(c.coords):
        if cd.parity == EVEN:
            k = rng.randint(0, 2)
            if deg + k > max_deg:
                k = 0
        else:
            k = rng.randint(0, 1)
        if k:
            deg += k
            e = gmul(e, coord(c, cd.name) ** k)
    if form_degree:
        names = list(c.names)
        rng.shuffle(names)
        used = 0
        for name in names:
            if used == form_degree:
                break
            e = gmul(e, diff(c, name))
            used += 1
        if e.is_zero():
            return random_monomial(c, rng, max_deg, form_degree)
    return e


def random_expr(c: ChartSpec, rng: random.Random, n_terms=3, max_deg=3,
                form_degree=0) -> GradedExpr:
    out = zero(c)
    for _ in range(n_terms):
        out = out + random_monomial(c, rng, max_deg, form_degree)
    return out


def random_even_field(c: ChartSpec, rng: random.Random, max_deg=2,
                      n_terms=1) -> VectorField:
    coeffs = []
    for i, cd in enumerate(c.coords):
        if rng.random() < 0.4:
            coeffs.append(zero(c))
            continue
        acc = zero(c)
        for _ in range(n_terms):
            m = random_monomial(c, rng, max_deg)
            if m.parity() == cd.parity:
                acc = acc + m
        coeffs.append(acc)
    return VectorField(c, EVEN, tuple(coeffs))


def random_field(c: ChartSpec, rng: random.Random, parity=EVEN,
                 max_deg=2) -> VectorField:
    coeffs = []
    for i, cd in enumerate(c.coords):
        want = (parity + cd.parity) % 2
        acc = zero(c)
        for _ in range(3):
            if rng.random() < 0.5:
                continue
            m = random_monomial(c, rng, max_deg)
            if m.parity() == want:
                acc = acc + m
        coeffs.append(acc)
    return VectorField(c, parity, tuple(coeffs))


# -- independent Koszul-sign oracle ------------------------------------------------


def generator_bidegree(kind: str, parity: int):
    # kind 'c' = coordinate, 'd' = differential
    if kind == "c":
        return (0, parity)
    return (1, parity)


def brute_force_reorder(word, c: ChartSpec):
    """Bubble-sort a generator word into canonical order, tracking the sign.

    word: list of ('c'|'d', index).  Returns (sign, sorted word) or None when
    a square-zero generator repeats.
    """
    word = list(word)
    sign = 1
    changed = True
    while changed:
        changed = False
        for i in range(len(word) - 1):
            a, b = word[i], word[i + 1]
            pos_a = (0 if a[0] == "c" else 1, a[1])
            pos_b = (0 if b[0] == "c" else 1, b[1])
            if pos_a > pos_b:
                pa, sa = generator_bidegree(a[0], c.parity(a[1]))
                pb, sb = generator_bidegree(b[0], c.parity(b[1]))
                if (pa * pb + sa * sb) % 2:
                    sign = -sign
                word[i], word[i + 1] = b, a
                changed = True
    # square-zero collisions
    for i in range(len(word) - 1):
        if word[i] == word[i + 1]:
            kind, idx = word[i]
            if kind == "c" and c.parity(idx) == ODD:
                return None
            if kind == "d" and c.parity(idx) == EVEN:
                return None
    return sign, word


def word_to_expr(word, c: ChartSpec) -> GradedExpr:
    e = one(c)
    for kind, idx in word:
        name = c.coords[idx].name
        e = gmul(e, coord(c, name) if kind == "c" else diff(c, name))
    return e


# -- atom-laden expressions, float coefficients -----------------------------------


def _even_argument(c: ChartSpec, rng: random.Random) -> GradedExpr:
    """Even, form-degree-0 atom argument; its odd part (if any) is t0*t1."""
    xs = [cd.name for cd in c.coords if cd.parity == EVEN]
    ts = [cd.name for cd in c.coords if cd.parity == ODD]
    f = coord(c, rng.choice(xs)) * rng.randint(1, 3)
    if rng.random() < 0.5:
        f = f + Fraction(rng.randint(1, 3), 2)
    if len(ts) >= 2 and rng.random() < 0.5:
        f = f + gmul(coord(c, ts[0]), coord(c, ts[1]))
    return f


def random_atomic_monomial(c: ChartSpec, rng: random.Random, floats=False,
                           form_degree=0) -> GradedExpr:
    """coefficient * atoms (powers 1-3) * coordinates * differentials; the
    differentials may repeat, so odd ones reach powers >= 2."""
    if floats and rng.random() < 0.5:
        coeff = rng.choice([0.1, 0.3, 1.7, -2.2, 1 / 3])
    else:
        coeff = Fraction(rng.choice([-3, -1, 1, 2, 5]), rng.randint(1, 3))
    e = one(c) * coeff
    for _ in range(rng.randint(1, 2)):
        kind = rng.choice(ATOM_KINDS)
        arg = _even_argument(c, rng)
        if kind == "log":
            arg = gmul(arg, arg) + 1
        e = gmul(e, apply_func(kind, arg) ** rng.randint(1, 3))
    for cd in c.coords:
        k = rng.randint(0, 2) if cd.parity == EVEN else rng.randint(0, 1)
        if k:
            e = gmul(e, coord(c, cd.name) ** k)
    for _ in range(form_degree):
        e = gmul(e, diff(c, rng.choice(c.names)))
    return e


def random_atomic_field(c: ChartSpec, rng: random.Random, parity: int,
                        floats=False) -> VectorField:
    """A field whose coefficients are atomic monomials of the right parity,
    each kept with probability 0.7."""
    coeffs = []
    for cd in c.coords:
        m = random_atomic_monomial(c, rng, floats)
        keep = m.parity() == (parity + cd.parity) % 2
        coeffs.append(m if keep and rng.random() < 0.7 else zero(c))
    return VectorField(c, parity, tuple(coeffs))


def apply_oracle(X: VectorField, f: GradedExpr) -> GradedExpr:
    """X(f) as the sum of X^i * (partial f / partial x^i), one partial walk
    and one left product per coordinate."""
    out = zero(X.chart)
    for i, c in enumerate(X.coefficients):
        if not c.is_zero():
            out = out + gmul(c, partial(f, X.chart.coords[i].name))
    return out


# -- factor-by-factor Leibniz walk (oracle) ------------------------------------------


def _factor_expr(c: ChartSpec, tag, payload) -> GradedExpr:
    n = c.dim
    if tag == "atom":
        return GradedExpr(c, (Monomial(Fraction(1), (payload,), (0,) * n, (0,) * n),))
    i, k = payload
    gen = coord(c, c.names[i]) if tag == "coord" else diff(c, c.names[i])
    return gen ** k


def leibniz_walk_oracle(e: GradedExpr, op_p: int, op_s: int, image) -> GradedExpr:
    """The graded Leibniz rule applied literally: for each factor f of each
    monomial, multiply the factors before f, image(f) and the factors after
    f one at a time with ``gmul``, and add the terms up one by one."""
    c = e.chart
    total = zero(c)
    for m in e.terms:
        factors = [("atom", a, 0, 0) for a in m.atoms]
        factors += [("coord", (i, k), 0, c.parity(i) * k % 2)
                    for i, k in enumerate(m.cexp) if k]
        factors += [("diff", (i, k), k % 2, c.parity(i) * k % 2)
                    for i, k in enumerate(m.dexp) if k]
        sign = 1
        for idx, (tag, payload, p, s) in enumerate(factors):
            img = image(tag, payload)
            if img is not None and not img.is_zero():
                term = const(c, m.coeff * sign)
                for t2, pl2, _, _ in factors[:idx]:
                    term = gmul(term, _factor_expr(c, t2, pl2))
                term = gmul(term, img)
                for t2, pl2, _, _ in factors[idx + 1:]:
                    term = gmul(term, _factor_expr(c, t2, pl2))
                total = total + term
            if (op_p * p + op_s * s) % 2:
                sign = -sign
    return total


# -- dict-keyed Grassmann product (oracle) -------------------------------------------


def _merge_indices(a, b):
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


def grassmann_mul_oracle(u: dict, v: dict) -> dict:
    """Product of two Grassmann values held as {sorted generator tuple:
    coefficient}, pair by pair, merging index words one at a time."""
    data = {}
    for k1, v1 in u.items():
        for k2, v2 in v.items():
            merged, sign = _merge_indices(k1, k2)
            if merged is None:
                continue
            data[merged] = data.get(merged, 0.0) + sign * v1 * v2
    return {k: x for k, x in data.items() if x != 0.0}


def grassmann_series_oracle(u: dict, derivs, ngens: int) -> dict:
    """sum_k derivs(k)/k! * soul^k, the powers taken with the oracle product."""
    soul = {k: x for k, x in u.items() if k}
    out = {(): derivs(0)}
    power = {(): 1.0}
    fact = 1.0
    for k in range(1, ngens + 1):
        power = grassmann_mul_oracle(power, soul)
        if not power:
            break
        fact *= k
        for blade, x in power.items():
            out[blade] = out.get(blade, 0.0) + derivs(k) / fact * x
    return out


# -- flat-map oracles ---------------------------------------------------------------


def float_decision_oracle(rows, vec, tol: float):
    """Rank of one float matrix, least-squares membership of ``vec`` in its
    row space and the residual, point by point: ``np.linalg.lstsq`` on the
    transpose, the singular values it returns above tol*max(1, s_max), and
    the residual at most tol*max(1, |vec|)."""
    vec = np.array(vec, dtype=float)
    mat = np.array(rows, dtype=float).reshape(len(rows), len(vec))
    sol, _, _, s = np.linalg.lstsq(mat.T, vec, rcond=None)
    res = float(np.linalg.norm(mat.T @ sol - vec))
    rank = int(np.sum(s > tol * max(1.0, s[0]))) if s.size else 0
    return rank, res <= tol * max(1.0, float(np.linalg.norm(vec))), res


# -- wedge-power class oracle (purely even charts) --------------------------------


def _form_nonzero_at(w: GradedExpr, point: Dict[str, object]) -> bool:
    """Whether the component vector of ``w`` at the point has one-row rank
    1, the package's vanishing rule."""
    plans = [Plan(c) for c in w.diff_components().values()]
    vals, failure = body_values(plans, [point])
    if failure is not None:
        raise failure
    return _linalg.float_rank([vals], DEFAULT_POLICY.rel_tol) == [1]


def darboux_class_oracle(alpha: GradedExpr, point: Dict[str, object]) -> int:
    """Class by wedge powers: the largest s with alpha /\\ (d alpha)^s != 0
    at the point decides 2s+1 or 2s+2.  Undefined on super charts, where top
    powers of odd differentials never vanish."""
    chart = alpha.chart
    if not chart.is_purely_even():
        raise PfaffianError("wedge-power class oracle needs a purely even chart")
    if alpha.form_degree() != 1:
        raise PfaffianError("class oracle expects a one-form")
    if not _form_nonzero_at(alpha, point):
        raise PfaffianError("form vanishes at the point", witness=point)

    dalpha = exterior_d(alpha)
    powers = [one(chart)]
    while True:
        nxt = gmul(powers[-1], dalpha)
        powers.append(nxt)
        if nxt.is_zero() or 2 * len(powers) > chart.dim + 2:
            break

    s = 0
    while True:
        if s + 1 >= len(powers):
            break
        w = gmul(alpha, powers[s + 1])
        if w.is_zero() or not _form_nonzero_at(w, point):
            break
        s += 1

    next_power = powers[s + 1] if s + 1 < len(powers) else zero(chart)
    if next_power.is_zero() or not _form_nonzero_at(next_power, point):
        return 2 * s + 1
    return 2 * s + 2
