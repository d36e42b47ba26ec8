"""Seeded input generators for the benchmark.

Modelled on ``tests/helpers.py`` but kept here, so that an edit to the test
helpers cannot change what the benchmark measures.  Every generator takes a
``random.Random`` and draws nothing from global state: the same seed gives
the same inputs, in the same order.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction

import numpy as np

from graded_darboux import apply_func, chart, coord, diff, gdiv, gmul, one, zero
from graded_darboux.cartan import VectorField, basis_field, vector_field
from graded_darboux.grexpr.expr import GradedExpr
from graded_darboux.grexpr.chart import EVEN, ODD, ChartSpec, CoordinateDecl

WEIGHTS = (-2, -1, 0, 1, 2)


# -- random super charts, monomials, forms and fields --------------------------


def random_chart(rng: random.Random, max_even=4, max_odd=3, n_odd=None) -> ChartSpec:
    ne = rng.randint(1, max_even)
    no = rng.randint(0, max_odd) if n_odd is None else n_odd
    decls = [CoordinateDecl(f"x{i}", EVEN, Fraction(rng.choice(WEIGHTS)))
             for i in range(ne)]
    decls += [CoordinateDecl(f"t{i}", ODD, Fraction(rng.choice(WEIGHTS)))
              for i in range(no)]
    return ChartSpec(tuple(decls))


def random_monomial(c: ChartSpec, rng: random.Random, max_deg=3, form_degree=0):
    """A nonzero monomial: coefficient * coordinate word * differential word."""
    e = one(c) * Fraction(rng.randint(1, 4), rng.randint(1, 3)) * rng.choice([1, -1])
    deg = 0
    for cd in c.coords:
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
        for name in names[:form_degree]:
            e = gmul(e, diff(c, name))
        if e.is_zero():
            return random_monomial(c, rng, max_deg, form_degree)
    return e


def random_expr(c: ChartSpec, rng: random.Random, n_terms=2, max_deg=3, form_degree=0):
    out = zero(c)
    for _ in range(n_terms):
        out = out + random_monomial(c, rng, max_deg, form_degree)
    return out


def random_field(c: ChartSpec, rng: random.Random, parity=EVEN, max_deg=2) -> VectorField:
    coeffs = []
    for cd in c.coords:
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


# -- calculus identities (the mix of acceptance criterion 7) --------------------

IDENTITY_KINDS = ("d_squared", "cartan", "leibniz", "commutator")


def identity_case(rng: random.Random, kind: str) -> dict:
    """Operands for one Cartan-calculus identity on a fresh random chart."""
    c = random_chart(rng)
    if kind == "d_squared":
        return {"w": random_expr(c, rng, form_degree=rng.randint(0, 2))}
    if kind == "cartan":
        X = random_field(c, rng, parity=rng.choice([0, 1]))
        return {"X": X, "w": random_expr(c, rng, form_degree=rng.randint(1, 2))}
    if kind == "leibniz":
        a = random_monomial(c, rng, form_degree=rng.randint(0, 2))
        b = random_expr(c, rng, form_degree=rng.randint(0, 2))
        return {"a": a, "b": b}
    X = random_field(c, rng, parity=rng.choice([0, 1]))
    Y = random_field(c, rng, parity=rng.choice([0, 1]))
    return {"X": X, "Y": Y, "w": random_expr(c, rng, form_degree=rng.randint(1, 2))}


# -- equality pairs on super charts ------------------------------------------------

EQUALITY_FAMILIES = ("pythagoras", "hyperbolic", "exp_sum", "quotient")


def _even_argument(c: ChartSpec, rng: random.Random):
    """An even, form-degree-0 polynomial with small coefficients whose odd
    part is a product of two odd coordinates."""
    xs = [cd.name for cd in c.coords if cd.parity == EVEN]
    ts = [cd.name for cd in c.coords if cd.parity == ODD]
    f = const_frac(c, rng) * coord(c, rng.choice(xs))
    if rng.random() < 0.5:
        f = f + const_frac(c, rng) * coord(c, rng.choice(xs)) * coord(c, rng.choice(xs))
    if len(ts) >= 2:
        i, j = rng.sample(range(len(ts)), 2)
        f = f + const_frac(c, rng) * coord(c, ts[i]) * coord(c, ts[j])
    return f


def const_frac(c: ChartSpec, rng: random.Random):
    return one(c) * (Fraction(rng.randint(1, 5), rng.randint(2, 6)) * rng.choice([1, -1]))


def _perturb(e, rng: random.Random):
    """Scale one term's coefficient by 8/7: a nonzero change to one coefficient."""
    c = e.chart
    terms = list(e.terms)
    k = rng.randrange(len(terms))
    out = zero(c)
    for i, m in enumerate(terms):
        part = GradedExpr.from_terms(c, [m])
        out = out + (part * Fraction(8, 7) if i == k else part)
    return out


def equality_case(rng: random.Random, family: str, true_pair: bool,
                  n_odd: int) -> dict:
    """A pair (lhs, rhs) on a chart with 1 or 2 even and ``n_odd`` odd
    coordinates.

    Each family is an identity that canonical forms do not reduce.  A false
    pair perturbs one coefficient of the right-hand side.  Both sides are
    multiplied by the same random factor ``w``, which may carry odd
    coordinates and differentials.
    """
    c = random_chart(rng, max_even=2, n_odd=n_odd)
    f = _even_argument(c, rng)
    g = _even_argument(c, rng)
    if family == "pythagoras":
        lhs = apply_func("sin", f) ** 2 + apply_func("cos", f) ** 2
        rhs = one(c)
    elif family == "hyperbolic":
        lhs = apply_func("cosh", f) ** 2 - apply_func("sinh", f) ** 2
        rhs = one(c)
    elif family == "exp_sum":
        lhs = apply_func("exp", f) * apply_func("exp", g)
        rhs = apply_func("exp", f + g)
    else:
        # divisor body >= 2 on the default box, so no sample nears a pole
        den = one(c) * 2 + f * f
        p = zero(c)
        while p.is_zero():
            p = random_monomial(c, rng, max_deg=2) + random_monomial(c, rng, max_deg=2)
        lhs = gdiv(p, den) * den
        rhs = p
    while True:
        w = random_expr(c, rng, n_terms=2, max_deg=1, form_degree=rng.randint(0, 1))
        if not (rhs * w).is_zero():
            break
    lhs, rhs = lhs * w, rhs * w
    if not true_pair:
        rhs = _perturb(rhs, rng)
    return {"lhs": lhs, "rhs": rhs, "expect": true_pair}


# -- commuting pairs for straightening, with an independent reference ---------------

STRAIGHTEN_FAMILIES = ("linear", "exponential", "riccati")
# every flow time is +-box, so every grid integrates the same number of steps
STRAIGHTEN_BOX = 0.05
_G_FUNCS = {"sin": math.sin, "cos": math.cos, "exp": math.exp}
_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(40)


def _num(v: float) -> str:
    return repr(float(v))


def straighten_case(rng: random.Random, i: int) -> dict:
    """X1 = d/dx and X2 = d/dy + h(y, z) d/dz on a 3-D even chart.

    h is g(y) + k*z (linear), g(y)*exp(k*z) (exponential) or
    g(y)*(1 + z^2)/2 (riccati) with g(y) = a0 + a1*func(b*y).  Each family's
    flow reduces to a quadrature of g, so the reference needs no ODE solver.
    """
    c = chart(("x", 0, 0), ("y", 0, 0), ("z", 0, 0))
    # the nine (family, func) pairs in turn, so every run has the same mix
    family = STRAIGHTEN_FAMILIES[i % 3]
    func = sorted(_G_FUNCS)[i // 3 % 3]
    # |g| >= 0.2 on the sampled region keeps X2 transversal to the y-slice
    a0 = rng.choice([-1, 1]) * rng.uniform(0.5, 0.8)
    a1 = rng.uniform(-0.15, 0.15)
    b = rng.uniform(0.5, 1.0)
    k = rng.choice([-1, 1]) * rng.uniform(0.05, 0.2)
    g = f"({_num(a0)} + {_num(a1)}*{func}({_num(b)}*y))"
    h = {"linear": f"{g} + {_num(k)}*z",
         "exponential": f"{g}*exp({_num(k)}*z)",
         "riccati": f"{g}*(1 + z^2)/2"}[family]
    fields = [basis_field(c, "x"), vector_field(c, {"y": "1", "z": h})]
    return {
        "fields": fields,
        "base": [rng.uniform(-0.3, 0.3) for _ in range(3)],
        "box": STRAIGHTEN_BOX,
        "family": family,
        "g": (a0, a1, func, b),
        "k": k,
    }


def slice_axis(case: dict) -> int:
    """The slice axis the straightening map should pick: the first coordinate
    axis that completes span(X1, X2) at the base point, which is y unless
    h vanishes there."""
    x0, y0, z0 = case["base"]
    return 1 if abs(_h(case, y0, z0)) > 1e-9 else 2


def _g(case: dict, y):
    a0, a1, func, b = case["g"]
    return a0 + a1 * np.vectorize(_G_FUNCS[func])(b * y)


def _h(case: dict, y: float, z: float) -> float:
    k = case["k"]
    g = float(_g(case, y))
    return {"linear": g + k * z, "exponential": g * math.exp(k * z),
            "riccati": g * (1 + z * z) / 2}[case["family"]]


def straighten_reference(case: dict, u) -> tuple:
    """Exact node coordinates for flow times u[0], u[1] and slice offset u[2].

    The straightening map starts at base + u[2]*e_slice, flows X2 for time
    u[1] and then X1 for time u[0].  Along X2, y moves at unit speed, so z
    solves z' = h(ys + t, z), which each family integrates in closed form
    around a Gauss-Legendre quadrature of g.
    """
    x0, y0, z0 = case["base"]
    k = case["k"]
    u0, u1, s = u
    ys, zs = (y0 + s, z0) if slice_axis(case) == 1 else (y0, z0 + s)

    def quad(fun, t):
        # integral of fun over [0, t]
        half = 0.5 * t
        return half * float(np.sum(_GL_WEIGHTS * fun(half * (_GL_NODES + 1.0))))

    def g(t):
        return _g(case, ys + t)

    if case["family"] == "linear":
        # z(t) = e^{kt} (zs + int_0^t e^{-k tau} g(tau) dtau)
        z = math.exp(k * u1) * (zs + quad(lambda t: np.exp(-k * t) * g(t), u1))
    elif case["family"] == "exponential":
        # e^{-kz} z' = g  =>  z = -log(e^{-k zs} - k G) / k
        z = -math.log(math.exp(-k * zs) - k * quad(g, u1)) / k
    else:
        # z' = g (1 + z^2) / 2  =>  z = tan(atan(zs) + G / 2)
        z = math.tan(math.atan(zs) + quad(g, u1) / 2)
    return (x0 + u0, ys + u1, z)
