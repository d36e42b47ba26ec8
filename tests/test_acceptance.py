"""Acceptance suite: one test per exit criterion, with its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one line per
criterion including its runtime.
"""

import json
import math
import os
import random
import time
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from graded_darboux import (EqualityPolicy, chart, coord, diff, equal,
                            eval_body_exact, gdiv, gmul, one, parse_expr,
                            zero)
from graded_darboux.cartan import (ChartMap, basis_field,
                                   exterior_d, interior, lie_bracket,
                                   lie_derivative, pullback, vector_field)
from graded_darboux.cli import run as cli_run
from graded_darboux.darboux import (NormalFormSpec, homotopy, linear_darboux,
                                    poincare_primitive, straighten_commuting,
                                    verify_normal_form)
from graded_darboux.homogeneity import degree_of, weight_field_of_chart
from graded_darboux.pfaffian import (PfaffianError, characteristic_class,
                                     liouville, presymplectic_check)
from helpers import (brute_force_reorder, darboux_class_oracle, random_chart,
                     random_expr, random_field, random_monomial, word_to_expr)

MANIFESTS = Path(__file__).resolve().parents[1] / "src" / "graded_darboux" / "manifests"


def _done(num, detail, t0, budget=None):
    dt = time.monotonic() - t0
    print(f"[PASS] criterion {num}: {detail} ({dt:.2f}s)")
    if budget is not None:
        assert dt < budget, f"criterion {num} exceeded its {budget}s budget"


# -- 1: theta reproduction, exact ---------------------------------------------------


def test_criterion_01_theta_exact():
    t0 = time.monotonic()
    w = chart(("x", 0, 1), ("y", 0, -1))
    t = chart(("q", 0, 1), ("p", 0, -1))
    phi = ChartMap(w, t, {"q": parse_expr("x*(1+sinh(x*y))", w),
                          "p": parse_expr("y*(1+cosh(x*y))", w)})
    displayed = parse_expr(
        "y*(cosh(x*y)+1)*(sinh(x*y)+x*y*cosh(x*y)+1)*d(x)"
        " + x^2*y*cosh(x*y)*(cosh(x*y)+1)*d(y)", w)
    got = pullback(phi, parse_expr("p*d(q)", t))
    res = equal(got, displayed)
    assert res and res.mode == "exact"
    assert got == displayed
    _done(1, "pullback of p*d(q) reproduces the displayed potential exactly",
          t0, budget=1.0)


# -- 2: eta reproduction, randomized (64 points, 1e-9) ------------------------------


def test_criterion_02_eta_randomized():
    t0 = time.monotonic()
    c = chart(("x", 0, 1), ("y", 0, -1), ("z", 0, 0), default_box=(-0.6, 0.6))
    t = chart(("q", 0, 1), ("p", 0, -1), ("zeta", 0, 0))
    phi = ChartMap(c, t, {"q": parse_expr("x*(1+cos(x*y))", c),
                          "p": parse_expr("y*(1+sin(z))", c),
                          "zeta": parse_expr("exp(z)*cos(x*y)", c)})
    displayed = parse_expr(
        "y*(1 + sin(z) + cos(x*y)*(1+sin(z)) - sin(x*y)*(exp(z)"
        " + x*y*(1+sin(z))))*d(x) - x*sin(x*y)*(x*y*(sin(z)+1)"
        " + exp(z))*d(y) + exp(z)*cos(x*y)*d(z)", c)
    got = pullback(phi, parse_expr("d(zeta) + p*d(q)", t))
    res = equal(got, displayed,
                EqualityPolicy(mode="randomized", n_points=64, rel_tol=1e-9))
    assert res and res.mode == "randomized"
    _done(2, "pullback of d(zeta) + p*d(q) matches the displayed expansion "
             "at 64 points", t0, budget=5.0)


# -- 3: the cylinder example ---------------------------------------------------------


def test_criterion_03_cylinder():
    t0 = time.monotonic()
    c = chart(("z", 0, 0), ("p", 0, 1), ("q", 0, -1), default_box=(-0.7, 0.7))
    alpha = parse_expr("d(z) - p*(2+sin(p*q))*d(q)", c)
    nab = weight_field_of_chart(c)

    rep = characteristic_class(alpha)
    assert rep.kind == "contact" and rep.class_ == 3

    deg = degree_of(alpha, nab)
    assert deg.homogeneous and deg.degree.parity == 0 and deg.degree.weight == 0

    for e in rep.evidence[:4]:
        assert darboux_class_oracle(alpha, e["point"]) == 3

    t = chart(("Q", 0, -1), ("P", 0, 1), ("Z", 0, 0))
    phi = ChartMap(c, t, {"Q": parse_expr("q", c),
                          "P": parse_expr("-p*(2+sin(p*q))", c),
                          "Z": parse_expr("z", c)})
    ver = verify_normal_form(alpha, phi, NormalFormSpec("contact", 1), nab)
    assert ver.passed
    weights = {e.name: e.detail for e in ver.entries
               if e.name.startswith("coordinate-")}
    assert weights["coordinate-Z-homogeneous"] == "weight 0"
    assert weights["coordinate-P-homogeneous"] == "weight 1"
    assert weights["coordinate-Q-homogeneous"] == "weight -1"
    _done(3, "classify contact/class 3/degree (even, 0); oracle agrees; "
             "derived chart verified with weights (0, 1, -1)", t0, budget=2.0)


# -- 4: Liouville suite ---------------------------------------------------------------


def test_criterion_04_liouville():
    t0 = time.monotonic()
    c = chart(("q", 0, 1), ("p", 0, -1), default_box=(0.2, 0.9))
    alpha = parse_expr("p*d(q)", c)
    X = liouville(parse_expr("d(p)*d(q)", c), alpha)
    assert X.coefficient("p") == coord(c, "p")
    assert X.coefficient("q").is_zero()

    nab = weight_field_of_chart(c)                # q dq - p dp
    br = lie_bracket(nab, X)
    assert all(co.is_zero() for co in br.coefficients)
    _done(4, "Liouville field p*d/dp recovered exactly; commutes with the "
             "weight field exactly", t0, budget=1.0)


# -- 5: counterexample suite ------------------------------------------------------------


def test_criterion_05_counterexample():
    t0 = time.monotonic()
    c = chart(("q", 0, 0), ("p", 0, 0), ("z", 0, 0), default_box=(0.4, 0.9))
    omega = parse_expr("d(p)*d(q)", c)
    rep = presymplectic_check(omega)
    assert rep.rank == 2 and rep.constant_rank      # corank 1 in dimension 3
    kernel = rep.kernel[:, 0]
    assert np.allclose(np.abs(kernel), [0, 0, 1])   # spanned by d/dz

    f0 = parse_expr("p*sin(q)", c)
    df0 = exterior_d(f0)
    for name in c.names:
        comp = df0.coefficient_of_diff(name)
        if not comp.is_zero():
            from graded_darboux import eval_numeric
            assert abs(eval_numeric(comp, {"q": 0.0, "p": 0.0, "z": 0.0}).body) == 0.0

    # reduced weight field and its homogeneous functions of weight w:
    # (cos(q/2)/sin(q/2))**w * F(p sin q)
    nred = vector_field(c, {"q": "-sin(q)", "p": "p*cos(q)"})
    u = parse_expr("p*sin(q)", c)
    cot = gdiv(parse_expr("cos(q/2)", c), parse_expr("sin(q/2)", c))
    for w in (1, 2):
        for F in (u, gmul(u, u)):
            f_w = gmul(cot ** w, F)
            res = equal(lie_derivative(nred, f_w), f_w * w)
            assert res, (w, res.witness)
    _done(5, "corank-1 kernel d/dz; d(p sin q) vanishes at 0; derived "
             "homogeneous solutions verified for w in {1, 2}", t0, budget=2.0)


# -- 6: sign oracle -----------------------------------------------------------------------


def test_criterion_06_sign_oracle():
    t0 = time.monotonic()
    c = chart(("x1", 0, 0), ("x2", 0, 0), ("t1", 1, 0), ("t2", 1, 0))
    gens = [(k, i) for k in ("c", "d") for i in range(4)]
    checked = 0
    for g1 in gens:
        for g2 in gens:
            word = [g1, g2]
            got = word_to_expr(word, c)
            oracle = brute_force_reorder(word, c)
            if oracle is None:
                assert got.is_zero(), word
            else:
                sign, canon = oracle
                assert got == word_to_expr(canon, c) * sign, word
            checked += 1
    rng = random.Random(606)
    for _ in range(300):
        word = [rng.choice(gens) for _ in range(3)]
        got = word_to_expr(word, c)
        oracle = brute_force_reorder(word, c)
        if oracle is None:
            assert got.is_zero(), word
        else:
            sign, canon = oracle
            assert got == word_to_expr(canon, c) * sign, word
        checked += 1
    _done(6, f"{checked} generator words agree with brute-force reordering "
             "(100%, exact)", t0)


# -- 7: calculus property suite ------------------------------------------------------------


def test_criterion_07_calculus_properties():
    t0 = time.monotonic()
    rng = random.Random(707)
    N = 1000

    for _ in range(N):
        c = random_chart(rng)
        w = random_expr(c, rng, n_terms=2, form_degree=rng.randint(0, 2))
        assert exterior_d(exterior_d(w)).is_zero()

    for _ in range(N):
        c = random_chart(rng)
        X = random_field(c, rng, parity=rng.choice([0, 1]))
        w = random_expr(c, rng, n_terms=2, form_degree=rng.randint(1, 2))
        assert lie_derivative(X, w) == \
            interior(X, exterior_d(w)) + exterior_d(interior(X, w))

    for _ in range(N):
        c = random_chart(rng)
        a = random_monomial(c, rng, form_degree=rng.randint(0, 2))
        b = random_expr(c, rng, n_terms=2, form_degree=rng.randint(0, 2))
        pa = a.form_degree()
        assert exterior_d(gmul(a, b)) == \
            gmul(exterior_d(a), b) + gmul(a, exterior_d(b)) * ((-1) ** pa)

    for _ in range(N):
        c = random_chart(rng)
        X = random_field(c, rng, parity=rng.choice([0, 1]))
        Y = random_field(c, rng, parity=rng.choice([0, 1]))
        w = random_expr(c, rng, n_terms=2, form_degree=rng.randint(1, 2))
        sign = (-1) ** (X.parity * Y.parity)
        lhs = lie_derivative(X, interior(Y, w)) - \
            interior(Y, lie_derivative(X, w)) * sign
        assert lhs == interior(lie_bracket(X, Y), w)

    _done(7, f"d∘d, Cartan formula, graded Leibniz, operator commutator: "
             f"{N} instances each, zero failures", t0, budget=60.0)


# -- 8: homotopy suite ------------------------------------------------------------------------


def test_criterion_08_homotopy():
    t0 = time.monotonic()
    rng = random.Random(808)
    for _ in range(200):
        c = random_chart(rng, max_even=3, max_odd=2)
        w = random_expr(c, rng, n_terms=2, form_degree=rng.randint(1, 2))
        assert exterior_d(homotopy(w)) + homotopy(exterior_d(w)) == w

    count = 0
    while count < 100:
        c = random_chart(rng, max_even=3, max_odd=2)
        beta = random_monomial(c, rng, form_degree=rng.randint(0, 2))
        w = exterior_d(beta)
        if w.is_zero():
            continue
        count += 1
        nab = weight_field_of_chart(c)
        a = poincare_primitive(w, nab)
        assert exterior_d(a) == w
        dw, da = degree_of(w, nab), degree_of(a, nab)
        assert da.homogeneous and da.degree.weight == dw.degree.weight
        assert da.degree.parity == dw.degree.parity
        origin = {cd.name: Fraction(0) for cd in c.coords if cd.parity == 0}
        for comp in a.diff_components().values():
            assert eval_body_exact(comp, origin) == 0
    _done(8, "dK + Kd = id on 200 forms; 100 homogeneous primitives keep "
             "their degree and vanish at the center", t0)


# -- 9: linear Darboux ---------------------------------------------------------------------------


def test_criterion_09_linear_darboux():
    t0 = time.monotonic()
    rng = random.Random(909)
    c = chart(*([(f"x{i}", 0, 0) for i in range(6)]
                + [(f"t{i}", 1, 0) for i in range(3)]))
    for trial in range(100):
        w = zero(c)
        for a in range(6):
            for b in range(a + 1, 6):
                v = Fraction(rng.randint(-8, 8), 4)
                if v:
                    w = w + gmul(diff(c, f"x{a}"), diff(c, f"x{b}")) * v
        G = np.zeros((3, 3))
        for i in range(3):
            for j in range(i, 3):
                v = Fraction(rng.randint(-8, 8), 4)
                if v:
                    w = w + gmul(diff(c, f"t{i}"), diff(c, f"t{j}")) * v
                    G[i, j] += float(v) if i != j else 2 * float(v)
                    if i != j:
                        G[j, i] += float(v)
        if w.is_zero():
            continue
        res = linear_darboux(w)
        assert res.residual < 1e-12, (trial, res.residual)
        eig = np.linalg.eigvalsh(G)
        tol = 1e-9 * max(1.0, float(np.max(np.abs(eig))) if eig.size else 1.0)
        pos = int(np.sum(eig > tol))
        neg = int(np.sum(eig < -tol))
        assert res.spec.eps == tuple([1] * pos + [-1] * neg), trial
        assert 2 * res.spec.r + res.spec.s + res.spec.residual == 9
    _done(9, "100 random constant even 2-forms in dim (6|3): congruence "
             "residual < 1e-12, signature matches eigenvalue signs", t0)


# -- 10: classification vs the wedge oracle ------------------------------------------------------


def test_criterion_10_class_vs_oracle():
    t0 = time.monotonic()
    rng = random.Random(1010)
    accepted = 0
    tried = 0
    while accepted < 100:
        tried += 1
        assert tried < 3000, "generator rejected too many candidates"
        dim = rng.randint(2, 5)
        c = chart(*[(f"x{i}", 0, 0) for i in range(dim)])
        alpha = zero(c)
        for i in range(dim):
            if rng.random() < 0.4:
                continue
            poly = one(c) * Fraction(rng.randint(-3, 3))
            for _ in range(rng.randint(0, 1)):
                poly = poly + coord(c, f"x{rng.randrange(dim)}") * \
                    Fraction(rng.randint(-2, 2))
            alpha = alpha + gmul(poly, diff(c, f"x{i}"))
        if alpha.is_zero() or alpha.form_degree() != 1:
            continue
        try:
            rep = characteristic_class(
                alpha, policy=EqualityPolicy(n_points=16, seed=tried))
        except PfaffianError:
            continue
        if rep.kind == "irregular":
            continue
        accepted += 1
        for e in rep.evidence:
            assert darboux_class_oracle(alpha, e["point"]) == rep.class_, \
                (alpha, e)
    _done(10, f"100 constant-class random one-forms (tried {tried}): "
              "characteristic class equals the wedge oracle at all 16 points",
          t0)


# -- 11: straightening ----------------------------------------------------------------------------


def test_criterion_11_straightening():
    t0 = time.monotonic()
    c = chart(("x", 0, 0))
    f = vector_field(c, {"x": "2+sin(x)"})
    grid = straighten_commuting([f], [0.0], box=0.4, nodes_per_axis=9)
    assert grid.certified and grid.max_error < 1e-6

    def u_exact(x):
        s3 = math.sqrt(3.0)
        return (2 / s3) * (math.atan((2 * math.tan(x / 2) + 1) / s3)
                           - math.atan(1 / s3))

    worst = max(abs(u_exact(float(x[0])) - u[0]) for u, x in grid.nodes)
    assert worst < 1e-6

    c3 = chart(("x", 0, 0), ("y", 0, 0), ("z", 0, 0))
    pair = [basis_field(c3, "x"), vector_field(c3, {"y": "1", "z": "cos(y)"})]
    grid2 = straighten_commuting(pair, [0, 0, 0], box=0.3, nodes_per_axis=3)
    assert grid2.certified and grid2.max_error < 1e-6
    _done(11, f"reparametrization error {worst:.2e} vs exact quadrature; "
              f"commuting pair certified at {grid2.max_error:.2e}", t0,
          budget=10.0)


# -- 12: degree laws -------------------------------------------------------------------------------


def test_criterion_12_degree_laws():
    t0 = time.monotonic()
    rng = random.Random(1212)
    done = 0
    while done < 500:
        c = random_chart(rng)
        nab = weight_field_of_chart(c)
        a = random_monomial(c, rng, form_degree=rng.randint(0, 1))
        b = random_monomial(c, rng, form_degree=rng.randint(0, 1))
        ab = gmul(a, b)
        if ab.is_zero():
            continue
        done += 1
        ra, rb, rab = (degree_of(x, nab) for x in (a, b, ab))
        assert rab.degree.weight == ra.degree.weight + rb.degree.weight
        assert rab.degree.parity == (ra.degree.parity + rb.degree.parity) % 2

    done = 0
    while done < 500:
        c = random_chart(rng)
        f = random_monomial(c, rng)
        rep = degree_of(f, weight_field_of_chart(c))
        if rep.degree is None or rep.degree.weight == 0:
            continue
        done += 1
        origin = {cd.name: Fraction(0) for cd in c.coords if cd.parity == 0}
        assert eval_body_exact(f, origin) == 0
    _done(12, "degree additivity on 500 products; 500 nonzero-weight "
              "monomials vanish at the origin (exact)", t0)


# -- 13: CLI determinism ---------------------------------------------------------------------------


def test_criterion_13_cli_determinism(tmp_path):
    t0 = time.monotonic()
    names = ["cylinder.json", "theta.json", "eta.json", "liouville.json",
             "counterexample.json", "thermodynamics.json"]
    for name in names:
        blobs = []
        for i in (1, 2):
            out = tmp_path / f"{name}.{i}.json"
            code = cli_run(str(MANIFESTS / name), json_out=str(out),
                           seed=0, stream=open(os.devnull, "w"))
            assert code == 0, name
            blobs.append(out.read_bytes())
        assert blobs[0] == blobs[1], name
    _done(13, "all six shipped manifests produce byte-identical reports "
              "across repeated runs", t0)
