"""Normal-form construction and verification."""

import hashlib
import io
import json
import math
import random
import warnings
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from graded_darboux import (chart, coord, eval_body_exact, format_expr, one,
                            parse_expr, partial, zero, NonIntegrable)
from graded_darboux import cartan, cli, darboux
from graded_darboux.cartan import (ChartMap, basis_field, exterior_d,
                                   vector_field)
from graded_darboux.darboux import (NormalFormSpec, StraighteningError,
                                    canonical_expr, homog_solve_pde, homotopy,
                                    linear_darboux, log_primitive,
                                    one_form_darboux, poincare_primitive,
                                    primitive_by_quadrature,
                                    straighten_commuting, verify_normal_form)
from graded_darboux.grexpr.chart import ChartSpec, CoordinateDecl
from graded_darboux.grexpr.equality import (DOMAIN_LIMIT, RK4_STEP,
                                            EqualityPolicy, equal)
from graded_darboux.grexpr.grassmann import Plan
from graded_darboux.homogeneity import degree_of, weight_field_of_chart
from graded_darboux.pfaffian import PfaffianError
from helpers import random_chart, random_expr, random_monomial


class TestHomogSolvePde:
    def test_polynomial(self):
        c = chart(("y1", 0, 1), ("y2", 0, 1))
        f = homog_solve_pde(parse_expr("y2^2", c), "y1")
        assert f == parse_expr("y1*y2^2", c)
        rep = degree_of(f, weight_field_of_chart(c))
        assert rep.degree.weight == 3  # 2 + weight(y1)

    def test_trig(self):
        c = chart(("y1", 0, 1), ("y2", 0, -1))
        f = homog_solve_pde(parse_expr("y2*sin(y1*y2)", c), "y1")
        assert f == parse_expr("1 - cos(y1*y2)", c)
        assert partial(f, "y1") == parse_expr("y2*sin(y1*y2)", c)

    def test_odd_pair(self):
        c = chart(("y1", 0, 1), ("t1", 1, 1), ("t2", 1, 1))
        f = homog_solve_pde(parse_expr("t1*t2", c), "y1")
        assert f == parse_expr("y1*t1*t2", c)

    def test_weight_law_random(self):
        rng = random.Random(21)
        for _ in range(60):
            c = random_chart(rng, max_even=3, max_odd=2)
            g = random_monomial(c, rng)
            y1 = c.coords[0].name
            if c.parity(0) != 0:
                continue
            nab = weight_field_of_chart(c)
            rep = degree_of(g, nab)
            f = homog_solve_pde(g, y1)
            if f.is_zero():
                continue
            rf = degree_of(f, nab)
            assert rf.homogeneous
            assert rf.degree.weight == rep.degree.weight + c.weight(0)

    def test_inhomogeneous_warns(self):
        c = chart(("y1", 0, 1), ("y2", 0, 1))
        with pytest.warns(UserWarning, match="not homogeneous"):
            homog_solve_pde(parse_expr("y2 + y2^2", c), "y1")


class TestPoincare:
    def test_exact_function(self):
        c = chart(("x", 0, 1))
        assert poincare_primitive(parse_expr("2*x*d(x)", c)) == \
            parse_expr("x^2", c)

    def test_standard_symplectic(self):
        c = chart(("p", 0, 1), ("q", 0, -1))
        a = poincare_primitive(parse_expr("d(p)*d(q)", c))
        assert a == parse_expr("1/2*p*d(q) - 1/2*q*d(p)", c)
        assert exterior_d(a) == parse_expr("d(p)*d(q)", c)

    def test_homogeneity_preserved(self):
        c = chart(("p", 0, 1), ("q", 0, -1))
        nab = weight_field_of_chart(c)
        w = parse_expr("d(p)*d(q)", c)  # weight 0
        a = poincare_primitive(w)
        rep = degree_of(a, nab)
        assert rep.homogeneous and rep.degree.weight == 0

    def test_vanishes_at_center(self):
        c = chart(("x", 0, 1), ("y", 0, 2))
        w = exterior_d(parse_expr("x^2*y + x*y", c))
        a = poincare_primitive(w)
        assert eval_body_exact(a, {"x": 0, "y": 0}) == 0

    def test_translated_center(self):
        c = chart(("x", 0, 0), ("y", 0, 1))
        w = parse_expr("2*x*d(x)", c)
        a = poincare_primitive(w, center={"x": 1})
        assert exterior_d(a) == w
        assert eval_body_exact(a, {"x": 1, "y": 0}) == 0

    def test_center_must_be_zero_of_weight_field(self):
        c = chart(("x", 0, 1))
        with pytest.raises(ValueError):
            poincare_primitive(parse_expr("2*x*d(x)", c), center={"x": 1})

    def test_not_closed_rejected(self):
        c = chart(("p", 0, 0), ("q", 0, 0), ("z", 0, 0))
        with pytest.raises(PfaffianError):
            poincare_primitive(parse_expr("z*d(p)*d(q)", c))

    def test_transcendental_rejected(self):
        c = chart(("x", 0, 0))
        with pytest.raises(NonIntegrable):
            poincare_primitive(exterior_d(parse_expr("sin(x)", c)))

    def test_homotopy_identity_random(self):
        rng = random.Random(22)
        for _ in range(120):
            c = random_chart(rng, max_even=3, max_odd=2)
            w = random_expr(c, rng, n_terms=2, form_degree=rng.randint(1, 2))
            lhs = exterior_d(homotopy(w)) + homotopy(exterior_d(w))
            assert lhs == w

    def test_quadrature_matches_homotopy_on_exact_forms(self):
        # the quadrature primitive of df at base 0 is the homotopy one, term
        # for term, also when f has odd coordinates or mixed parity
        rng = random.Random(23)
        count = mixed = 0
        while count < 300:
            c = random_chart(rng, max_even=3, max_odd=3)
            f = random_expr(c, rng, n_terms=rng.randint(1, 3))
            w = exterior_d(f)
            if w.is_zero():
                continue
            count += 1
            mixed += w.parity() is None
            prim = primitive_by_quadrature(w, {n: 0 for n in c.names})
            assert prim == homotopy(w)
            assert exterior_d(prim) == w
        assert mixed > 50

    def test_primitive_of_homogeneous_closed_random(self):
        rng = random.Random(25)
        count = 0
        while count < 60:
            c = random_chart(rng, max_even=3, max_odd=2)
            beta = random_monomial(c, rng, form_degree=rng.randint(0, 2))
            w = exterior_d(beta)
            if w.is_zero():
                continue
            count += 1
            nab = weight_field_of_chart(c)
            a = poincare_primitive(w)
            assert exterior_d(a) == w
            dw = degree_of(w, nab)
            da = degree_of(a, nab)
            assert da.homogeneous and da.degree.weight == dw.degree.weight


class TestLogPrimitive:
    def test_pure_log(self):
        c = chart(("x", 0, 1), ("y", 0, 0))
        cc, g = log_primitive(parse_expr("d(x)/x", c))
        assert cc.constant_value() == 1 and g.is_zero()

    def test_log_plus_exact(self):
        c = chart(("x", 0, 1), ("y", 0, 0))
        cc, g = log_primitive(parse_expr("d(x)/x + d(y)", c))
        assert cc.constant_value() == 1 and g == coord(c, "y")

    def test_pure_exact(self):
        c = chart(("x", 0, 1), ("y", 0, 0))
        cc, g = log_primitive(parse_expr("2*y*d(y)", c))
        assert cc.constant_value() == 0 and g == parse_expr("y^2", c)

    def test_nonzero_weight_rejected(self):
        c = chart(("x", 0, 1), ("y", 0, 0))
        with pytest.raises(ValueError):
            log_primitive(parse_expr("d(x)", c))  # weight 1, not 0

    def test_bad_chart_rejected(self):
        c = chart(("x", 0, 2), ("y", 0, 0))
        with pytest.raises(ValueError):
            log_primitive(parse_expr("d(y)", c))


class TestLinearDarboux:
    def test_scaling(self):
        c = chart(("x1", 0, 0), ("x2", 0, 0))
        res = linear_darboux(parse_expr("2*d(x1)*d(x2)", c))
        assert res.spec.r == 1 and res.residual < 1e-12

    def test_odd_signature(self):
        c = chart(("a", 1, 0), ("b", 1, 0))
        res = linear_darboux(parse_expr("d(a)*d(a) - d(b)*d(b)", c))
        assert res.spec.s == 2 and res.spec.eps == (1, -1)
        assert res.residual < 1e-12

    def test_identity_on_canonical(self):
        c = chart(("q", 0, 0), ("p", 0, 0))
        res = linear_darboux(parse_expr("d(p)*d(q)", c))
        assert res.chart_map.images["q1"] == coord(c, "q")
        assert res.chart_map.images["p1"] == coord(c, "p")
        assert res.residual == 0.0

    def test_kernel_coordinates(self):
        c = chart(("a", 0, 0), ("b", 0, 0), ("e", 0, 0))
        res = linear_darboux(parse_expr("d(a)*d(b)", c))
        assert res.spec.r == 1 and res.spec.residual == 1
        assert res.residual < 1e-12

    def test_nonconstant_rejected(self):
        c = chart(("a", 0, 0), ("b", 0, 0))
        with pytest.raises(ValueError):
            linear_darboux(parse_expr("a*d(a)*d(b)", c))

    def test_odd_parity_input_rejected(self):
        c = chart(("a", 0, 0), ("t", 1, 0))
        with pytest.raises(PfaffianError):
            linear_darboux(parse_expr("d(a)*d(t)", c))


# every input of TestOneFormDarboux: the form's coordinates and box, the
# form, the supplied map as {target coordinate: image} (None: the
# identity), and the keyword arguments, where "nabla" names a basis field
# or gives the coefficients of a field
ONE_FORM_INPUTS = {
    "theta": (
        [("x", 0, 1), ("y", 0, -1)], (0.1, 0.8),
        "y*(cosh(x*y)+1)*(sinh(x*y)+x*y*cosh(x*y)+1)*d(x)"
        " + x^2*y*cosh(x*y)*(cosh(x*y)+1)*d(y)",
        {("q", 0, 1): "x*(1+sinh(x*y))", ("p", 0, -1): "y*(1+cosh(x*y))"}, {}),
    "cylinder": (
        [("z", 0, 0), ("p", 0, 1), ("q", 0, -1)], (-0.7, 0.7),
        "d(z) - p*(2+sin(p*q))*d(q)",
        {("Q", 0, -1): "q", ("P", 0, 1): "-p*(2+sin(p*q))", ("K", 0, 0): "z"},
        {}),
    "already-canonical": (
        [("z", 0, 0), ("p", 0, 1), ("q", 0, -1)], (-1.0, 1.0), "d(z) + p*d(q)",
        {("Q", 0, -1): "q", ("P", 0, 1): "p", ("K", 0, 0): "z"}, {}),
    "log-branch": (
        [("x", 0, 1), ("u", 0, 0), ("v", 0, 0)], (0.5, 1.5), "d(x)/x + v*d(u)",
        {("q", 0, 0): "u", ("p", 0, 0): "v", ("K", 0, 1): "x"},
        {"base_point": {"x": 1}}),
    "eta": (
        [("x", 0, 1), ("y", 0, -1), ("z", 0, 0)], (-0.6, 0.6),
        "y*(1 + sin(z) + cos(x*y)*(1+sin(z)) - sin(x*y)*(exp(z)"
        " + x*y*(1+sin(z))))*d(x) - x*sin(x*y)*(x*y*(sin(z)+1)"
        " + exp(z))*d(y) + exp(z)*cos(x*y)*d(z)",
        {("q", 0, 1): "x*(1+cos(x*y))", ("p", 0, -1): "y*(1+sin(z))",
         ("K", 0, 0): "z"}, {}),
    "guard-characteristic": (
        [("xx", 0, 0), ("yy", 0, 0), ("tt", 0, 0)], (-0.4, 0.4), "(1+xx)*d(yy)",
        {("q", 0, 0): "yy", ("p", 0, 0): "1+xx", ("K", 0, 0): "tt"},
        {"nabla": "tt"}),
    **{f"guard-overflow-{name}": (
        [CoordinateDecl("x", 0, 0, box=(0.1, 1)), "y", "t"], (-1.0, 1.0),
        "exp(x)*exp(x)*d(y)",
        {("q", 0, 0): "y", ("p", 0, 0): "exp(x)*exp(x)", ("K", 0, 0): "t"},
        {"nabla": nabla, "base_point": {"x": x}})
       for name, nabla, x in [("0.3", "t", 0.3), ("358", "t", 358),
                              ("1e200", {"y": "1e200"}, 300)]},
    "momentum-absorption": (
        [("q", 0, 0), ("p", 0, 0)], (0.5, 1.0), "(p + q^2)*d(q)", None, {}),
    "unabsorbable": (
        [("q", 0, 0), ("p", 0, 0)], (0.5, 1.0), "2*p*d(q) + q*d(p)", None, {}),
    "no-inverse-images": (
        [("q", 0, 0), ("p", 0, 0)], (0.5, 1.0), "(p + q^2)*d(q)",
        {("Q", 0, 0): "q", ("P", 0, 0): "p"}, {}),
    "no-residual-slot": (
        [("q", 0, 1), ("p", 0, -1), ("z", 0, 0), ("w", 0, 0)], (-1.0, 1.0),
        "d(z) + p*d(q)",
        {("Q", 0, 1): "q", ("P", 0, -1): "p", ("K1", 0, 0): "q",
         ("K2", 0, 0): "q"}, {}),
    "z-named-apart": (
        [("q", 0, 0), ("p", 0, 0), ("u", 0, 0), ("v", 0, 0)], (-1.0, 1.0),
        "d(u) + p*d(q)",
        {("Q", 0, 0): "q", ("P", 0, 0): "p", ("K", 0, 0): "u",
         ("z", 0, 0): "v"}, {}),
    "singular-without-residual": (
        [("q", 0, 1), ("p", 0, -1), ("z", 0, 0)], (-1.0, 1.0),
        "p*d(q) + 2*z*d(z)", {("Q", 0, 1): "q", ("P", 0, -1): "p"},
        {"base_point": {"z": 0}}),
    "log-nonconstant": (
        [("x", 0, 1), ("u", 0, 1), ("v", 0, -1)], (0.5, 1.5), "d(x)/x + v*d(u)",
        {("Q", 0, 1): "u", ("P", 0, -1): "v + 1", ("K", 0, 1): "x"},
        {"base_point": {"x": 1}}),
    "nonintegrable": (
        [("q", 0, 1), ("p", 0, -1), ("z", 0, 0)], (-1.0, 1.0),
        "p*d(q) + exp(z^2)*d(z)",
        {("Q", 0, 1): "q", ("P", 0, -1): "p", ("K", 0, 0): "z"}, {}),
    "wrong-chart": (
        [("z", 0, 0), ("p", 0, 1), ("q", 0, -1)], (-1.0, 1.0), "d(z) + p*d(q)",
        {("Q", 0, -1): "q", ("P", 0, 1): "2*p", ("K", 0, 0): "z"}, {}),
}

# the whole result of one_form_darboux(..., r=1) on each input: status,
# spec, notes, target chart, printed images, new weights, and the
# verification's mode and entries; or the typed error, message and witness
ONE_FORM_PINS = {
    "already-canonical": (
        "ok",
        ("contact", 1, 0, (), 0),
        [],
        ("ChartSpec(Q:-1, P:1, z:0)", {"Q": "q", "P": "p", "z": "z"}),
        {"Q": "Fraction(-1, 1)", "P": "Fraction(1, 1)", "z": "Fraction(0, 1)"},
        (
            True,
            "exact",
            [
                ("pullback-matches-form", True, "exact"),
                (
                    "form-homogeneous",
                    True,
                    "degree Degree(parity=0, weight=Fraction(0, 1))",
                ),
                ("coordinate-Q-homogeneous", True, "weight -1"),
                ("coordinate-P-homogeneous", True, "weight 1"),
                ("coordinate-z-homogeneous", True, "weight 0"),
                ("pair-weight-Q-P", True, "w(Q)+w(P) = 0, expected 0"),
                ("z-weight", True, "w(z) = 0, expected 0"),
            ],
        ),
    ),
    "cylinder": (
        "ok",
        ("contact", 1, 0, (), 0),
        [],
        (
            "ChartSpec(Q:-1, P:1, z:0)",
            {"Q": "q", "P": "-2*p - sin(p*q)*p", "z": "z"},
        ),
        {"Q": "Fraction(-1, 1)", "P": "Fraction(1, 1)", "z": "Fraction(0, 1)"},
        (
            True,
            "exact",
            [
                ("pullback-matches-form", True, "exact"),
                (
                    "form-homogeneous",
                    True,
                    "degree Degree(parity=0, weight=Fraction(0, 1))",
                ),
                ("coordinate-Q-homogeneous", True, "weight -1"),
                ("coordinate-P-homogeneous", True, "weight 1"),
                ("coordinate-z-homogeneous", True, "weight 0"),
                ("pair-weight-Q-P", True, "w(Q)+w(P) = 0, expected 0"),
                ("z-weight", True, "w(z) = 0, expected 0"),
            ],
        ),
    ),
    "eta": (
        "ok",
        ("contact", 1, 0, (), 0),
        [],
        (
            "ChartSpec(q:1, p:-1, z:0)",
            {
                "q": "x + cos(x*y)*x",
                "p": "y + sin(z)*y",
                "z": "-1 + cos(x*y)*exp(z)",
            },
        ),
        {"q": "Fraction(1, 1)", "p": "Fraction(-1, 1)", "z": "Fraction(0, 1)"},
        (
            True,
            "exact",
            [
                ("pullback-matches-form", True, "exact"),
                (
                    "form-homogeneous",
                    True,
                    "degree Degree(parity=0, weight=Fraction(0, 1))",
                ),
                ("coordinate-q-homogeneous", True, "weight 1"),
                ("coordinate-p-homogeneous", True, "weight -1"),
                ("coordinate-z-homogeneous", True, "weight 0"),
                ("pair-weight-q-p", True, "w(q)+w(p) = 0, expected 0"),
                ("z-weight", True, "w(z) = 0, expected 0"),
            ],
        ),
    ),
    "guard-characteristic": (
        "not-guaranteed",
        None,
        [
            "weight field is nonzero at the base point and lies in the "
            "characteristic space: no homogeneous normal form is guaranteed "
            "there",
        ],
        None,
        {},
        None,
    ),
    "guard-overflow-0.3": (
        "not-guaranteed",
        None,
        [
            "weight field is nonzero at the base point and lies in the "
            "characteristic space: no homogeneous normal form is guaranteed "
            "there",
        ],
        None,
        {},
        None,
    ),
    "guard-overflow-1e200": (
        "raises",
        "PfaffianError",
        "weight field or flat matrix is not finite at the base point",
        {"x": 300, "y": 0, "t": 0},
    ),
    "guard-overflow-358": (
        "raises",
        "PfaffianError",
        "weight field or flat matrix is not finite at the base point",
        {"x": 358, "y": 0, "t": 0},
    ),
    "log-branch": (
        "ok",
        ("contact-log", 1, 0, (), 0),
        [],
        ("ChartSpec(q:0, p:0, z:1)", {"q": "u", "p": "v", "z": "x"}),
        {"q": "Fraction(0, 1)", "p": "Fraction(0, 1)", "z": "Fraction(1, 1)"},
        (
            True,
            "exact",
            [
                ("pullback-matches-form", True, "exact"),
                (
                    "form-homogeneous",
                    True,
                    "degree Degree(parity=0, weight=Fraction(0, 1))",
                ),
                ("coordinate-q-homogeneous", True, "weight 0"),
                ("coordinate-p-homogeneous", True, "weight 0"),
                ("coordinate-z-homogeneous", True, "weight 1"),
                ("pair-weight-q-p", True, "w(q)+w(p) = 0, expected 0"),
                ("weight-zero-case", True, "form weight 0"),
            ],
        ),
    ),
    "log-nonconstant": (
        "verification-only",
        None,
        [
            "weight field applied to the primitive is not constant: cannot "
            "form the exponential coordinate",
        ],
        None,
        {},
        None,
    ),
    "momentum-absorption": (
        "ok",
        ("potential", 1, 0, (), 0),
        ["residual primitive absorbed into the momenta"],
        ("ChartSpec(q:0, p:0)", {"q": "q", "p": "p + q^2"}),
        {"q": "Fraction(0, 1)", "p": "Fraction(0, 1)"},
        (
            True,
            "exact",
            [
                ("pullback-matches-form", True, "exact"),
                (
                    "form-homogeneous",
                    True,
                    "degree Degree(parity=0, weight=Fraction(0, 1))",
                ),
                ("coordinate-q-homogeneous", True, "weight 0"),
                ("coordinate-p-homogeneous", True, "weight 0"),
                ("pair-weight-q-p", True, "w(q)+w(p) = 0, expected 0"),
            ],
        ),
    ),
    "no-inverse-images": (
        "verification-only",
        None,
        [
            "nonzero residual one-form and no inverse images to absorb it: "
            "construction downgraded",
        ],
        None,
        {},
        None,
    ),
    "no-residual-slot": (
        "verification-only",
        None,
        [
            "could not replace a residual coordinate with z while keeping "
            "the chart nonsingular",
        ],
        None,
        {},
        None,
    ),
    "nonintegrable": (
        "verification-only",
        None,
        ["primitive construction failed: argument of exp is not linear in z"],
        None,
        {},
        None,
    ),
    "singular-without-residual": (
        "verification-only",
        None,
        [
            "no residual coordinate available and the candidate chart is "
            "singular at the base point",
        ],
        None,
        {},
        None,
    ),
    "theta": (
        "ok",
        ("potential", 1, 0, (), 0),
        [],
        (
            "ChartSpec(q:1, p:-1)",
            {"q": "x + sinh(x*y)*x", "p": "y + cosh(x*y)*y"},
        ),
        {"q": "Fraction(1, 1)", "p": "Fraction(-1, 1)"},
        (
            True,
            "exact",
            [
                ("pullback-matches-form", True, "exact"),
                (
                    "form-homogeneous",
                    True,
                    "degree Degree(parity=0, weight=Fraction(0, 1))",
                ),
                ("coordinate-q-homogeneous", True, "weight 1"),
                ("coordinate-p-homogeneous", True, "weight -1"),
                ("pair-weight-q-p", True, "w(q)+w(p) = 0, expected 0"),
            ],
        ),
    ),
    "unabsorbable": (
        "verification-only",
        None,
        [
            "residual primitive depends on ['p']: momentum absorption does "
            "not apply",
        ],
        None,
        {},
        None,
    ),
    "wrong-chart": (
        "raises",
        "PfaffianError",
        "the supplied chart does not canonicalize the differential of the "
        "form",
        None,
    ),
    "z-named-apart": (
        "ok",
        ("contact", 1, 0, (), 1),
        [],
        (
            "ChartSpec(Q:0, P:0, z1:0, z:0)",
            {"Q": "q", "P": "p", "z1": "u", "z": "v"},
        ),
        {
            "Q": "Fraction(0, 1)",
            "P": "Fraction(0, 1)",
            "z1": "Fraction(0, 1)",
            "z": "Fraction(0, 1)",
        },
        (
            True,
            "exact",
            [
                ("pullback-matches-form", True, "exact"),
                (
                    "form-homogeneous",
                    True,
                    "degree Degree(parity=0, weight=Fraction(0, 1))",
                ),
                ("coordinate-Q-homogeneous", True, "weight 0"),
                ("coordinate-P-homogeneous", True, "weight 0"),
                ("coordinate-z1-homogeneous", True, "weight 0"),
                ("coordinate-z-homogeneous", True, "weight 0"),
                ("pair-weight-Q-P", True, "w(Q)+w(P) = 0, expected 0"),
                ("z-weight", True, "w(z) = 0, expected 0"),
            ],
        ),
    ),
}


def _one_form_pin(name):
    decls, box, form, images, kwargs = ONE_FORM_INPUTS[name]
    c = chart(*decls, default_box=box)
    if images is None:
        phi = ChartMap.identity(c)
    else:
        t = chart(*images)
        phi = ChartMap(c, t, {d[0]: parse_expr(img, c)
                              for d, img in images.items()})
    kwargs = dict(kwargs)
    nabla = kwargs.get("nabla")
    if nabla is not None:
        kwargs["nabla"] = (basis_field(c, nabla) if isinstance(nabla, str)
                           else vector_field(c, nabla))
    try:
        res = one_form_darboux(parse_expr(form, c), phi, r=1, **kwargs)
    except PfaffianError as exc:
        return ("raises", type(exc).__name__, str(exc),
                getattr(exc, "witness", None))
    spec = res.spec and (res.spec.variant, res.spec.r, res.spec.s,
                         res.spec.eps, res.spec.residual)
    cmap = res.chart_map and (
        repr(res.chart_map.target),
        {n: format_expr(e) for n, e in res.chart_map.images.items()})
    ver = res.verification and (
        res.verification.passed, res.verification.mode,
        [(e.name, e.passed, e.detail) for e in res.verification.entries])
    return (res.status, spec, res.notes, cmap,
            {n: repr(w) for n, w in res.new_weights.items()}, ver)


class TestOneFormDarboux:
    @pytest.mark.parametrize("name", sorted(ONE_FORM_INPUTS))
    def test_result_pinned(self, name):
        assert _one_form_pin(name) == ONE_FORM_PINS[name]

    def test_theta(self):
        w = chart(("x", 0, 1), ("y", 0, -1), default_box=(0.1, 0.8))
        theta = parse_expr(
            "y*(cosh(x*y)+1)*(sinh(x*y)+x*y*cosh(x*y)+1)*d(x)"
            " + x^2*y*cosh(x*y)*(cosh(x*y)+1)*d(y)", w)
        t = chart(("q", 0, 1), ("p", 0, -1))
        phi = ChartMap(w, t, {"q": parse_expr("x*(1+sinh(x*y))", w),
                              "p": parse_expr("y*(1+cosh(x*y))", w)})
        res = one_form_darboux(theta, phi, r=1)
        assert res.status == "ok" and res.spec.variant == "potential"
        assert res.new_weights == {"q": Fraction(1), "p": Fraction(-1)}

    def test_cylinder(self):
        c = chart(("z", 0, 0), ("p", 0, 1), ("q", 0, -1), default_box=(-0.7, 0.7))
        alpha = parse_expr("d(z) - p*(2+sin(p*q))*d(q)", c)
        t = chart(("Q", 0, -1), ("P", 0, 1), ("K", 0, 0))
        phi = ChartMap(c, t, {"Q": parse_expr("q", c),
                              "P": parse_expr("-p*(2+sin(p*q))", c),
                              "K": parse_expr("z", c)})
        res = one_form_darboux(alpha, phi, r=1)
        assert res.status == "ok" and res.spec.variant == "contact"
        assert res.chart_map.images["z"] == coord(c, "z")
        assert res.new_weights["P"] == 1 and res.new_weights["Q"] == -1
        assert res.new_weights["z"] == 0

    def test_already_canonical(self):
        c = chart(("z", 0, 0), ("p", 0, 1), ("q", 0, -1))
        alpha = parse_expr("d(z) + p*d(q)", c)
        t = chart(("Q", 0, -1), ("P", 0, 1), ("K", 0, 0))
        phi = ChartMap(c, t, {"Q": parse_expr("q", c), "P": parse_expr("p", c),
                              "K": parse_expr("z", c)})
        res = one_form_darboux(alpha, phi, r=1)
        assert res.status == "ok" and res.spec.variant == "contact"

    @pytest.mark.parametrize("g", ["z*exp(x^2)",
                                   "z*sin(x)*exp(x)/(2 + cos(x))",
                                   "z*cos(x) + x*z"])
    def test_contact_z_by_cartans_formula(self, g):
        """alpha = d(g) + p d(q) with g of weight 1 on (x:0, q:0, p:1, z:1):
        d(alpha) = d(p) d(q) is the normal form on the identity map, the
        residual alpha' is d(g), and its homogeneous primitive of weight 1
        is g itself, whatever the base point: quadrature could not
        integrate the first two, and its primitive of the third vanished at
        the base point instead of being homogeneous."""
        c = chart(("x", 0, 0), ("q", 0, 0), ("p", 0, 1), ("z", 0, 1))
        t = chart(("Q", 0, 0), ("P", 0, 1), ("K1", 0, 0), ("K2", 0, 1))
        phi = ChartMap(c, t, {n: parse_expr(x, c) for n, x in
                              [("Q", "q"), ("P", "p"), ("K1", "x"), ("K2", "z")]})
        alpha = exterior_d(parse_expr(g, c)) + parse_expr("p*d(q)", c)
        res = one_form_darboux(alpha, phi, r=1,
                               base_point={"x": 0.5, "z": 0.5})
        assert (res.status, res.spec.variant) == ("ok", "contact")
        assert equal(res.chart_map.images["z"], parse_expr(g, c))
        assert res.new_weights["z"] == 1

    def test_log_branch(self):
        c = chart(("x", 0, 1), ("u", 0, 0), ("v", 0, 0), default_box=(0.5, 1.5))
        alpha = parse_expr("d(x)/x + v*d(u)", c)
        t = chart(("q", 0, 0), ("p", 0, 0), ("K", 0, 1))
        phi = ChartMap(c, t, {"q": parse_expr("u", c), "p": parse_expr("v", c),
                              "K": parse_expr("x", c)})
        res = one_form_darboux(alpha, phi, r=1, base_point={"x": 1})
        assert res.status == "ok" and res.spec.variant == "contact-log"
        assert res.chart_map.images["z"] == coord(c, "x")
        assert res.new_weights["z"] == 1

    def test_eta_constructive(self):
        # the z coordinate is rebuilt by quadrature from the residual and
        # matches the known potential up to the constant fixing z(0) = 0
        c = chart(("x", 0, 1), ("y", 0, -1), ("z", 0, 0), default_box=(-0.6, 0.6))
        eta = parse_expr(
            "y*(1 + sin(z) + cos(x*y)*(1+sin(z)) - sin(x*y)*(exp(z)"
            " + x*y*(1+sin(z))))*d(x) - x*sin(x*y)*(x*y*(sin(z)+1)"
            " + exp(z))*d(y) + exp(z)*cos(x*y)*d(z)", c)
        t = chart(("q", 0, 1), ("p", 0, -1), ("K", 0, 0))
        phi = ChartMap(c, t, {"q": parse_expr("x*(1+cos(x*y))", c),
                              "p": parse_expr("y*(1+sin(z))", c),
                              "K": parse_expr("z", c)})
        res = one_form_darboux(eta, phi, r=1)
        assert res.status == "ok" and res.spec.variant == "contact"
        assert res.chart_map.images["z"] == \
            parse_expr("exp(z)*cos(x*y) - 1", c)
        assert res.new_weights["z"] == 0

    def test_eta_reuses_its_degree_reports(self, monkeypatch):
        # one_form_darboux hands the degree reports of the form and of the
        # new coordinates to its verification: 4 degree_of calls, not 8
        c = chart(("x", 0, 1), ("y", 0, -1), ("z", 0, 0), default_box=(-0.6, 0.6))
        eta = parse_expr(
            "y*(1 + sin(z) + cos(x*y)*(1+sin(z)) - sin(x*y)*(exp(z)"
            " + x*y*(1+sin(z))))*d(x) - x*sin(x*y)*(x*y*(sin(z)+1)"
            " + exp(z))*d(y) + exp(z)*cos(x*y)*d(z)", c)
        t = chart(("q", 0, 1), ("p", 0, -1), ("K", 0, 0))
        phi = ChartMap(c, t, {"q": parse_expr("x*(1+cos(x*y))", c),
                              "p": parse_expr("y*(1+sin(z))", c),
                              "K": parse_expr("z", c)})
        calls = []
        original = darboux.degree_of

        def counting(*args, **kwargs):
            calls.append(args[0])
            return original(*args, **kwargs)

        monkeypatch.setattr(darboux, "degree_of", counting)
        res = one_form_darboux(eta, phi, r=1)
        assert len(calls) == 4
        assert res.status == "ok" and res.spec.variant == "contact"
        assert res.new_weights == {"q": 1, "p": -1, "z": 0}
        assert res.notes == []
        # the public verifier derives its own reports and agrees entry by entry
        calls.clear()
        again = verify_normal_form(eta, res.chart_map, res.spec)
        assert len(calls) == 4
        assert again == res.verification
        assert res.verification.mode == "exact"
        assert [(e.name, e.passed, e.detail) for e in res.verification.entries] == [
            ("pullback-matches-form", True, "exact"),
            ("form-homogeneous", True,
             "degree Degree(parity=0, weight=Fraction(0, 1))"),
            ("coordinate-q-homogeneous", True, "weight 1"),
            ("coordinate-p-homogeneous", True, "weight -1"),
            ("coordinate-z-homogeneous", True, "weight 0"),
            ("pair-weight-q-p", True, "w(q)+w(p) = 0, expected 0"),
            ("z-weight", True, "w(z) = 0, expected 0")]

    def test_theta_run_derives_each_kept_image_once(self, monkeypatch,
                                                    tmp_path):
        """theta's darboux task keeps the images of its map; their
        differentials come from the run's memo, where the verify-darboux
        task put them, so a run takes d of each image once."""
        path = Path(darboux.__file__).parent / "manifests" / "theta.json"
        ws, _ = cli.load_manifest(json.loads(path.read_text()))
        images = {n: str(img) for n, img in ws.cmap("phi").images.items()}
        derived = []
        d = cartan._exterior_d
        monkeypatch.setattr(cartan, "_exterior_d",
                            lambda w, memo: derived.append(str(w)) or d(w, memo))
        out = tmp_path / "theta.json"
        assert cli.run(str(path), json_out=str(out), stream=io.StringIO()) == 0
        task = next(t for t in json.loads(out.read_text())["tasks"]
                    if t["task"] == "darboux")
        assert task["output_exprs"] == images
        assert {n: derived.count(img) for n, img in images.items()} == \
            {n: 1 for n in images}

    def test_guard_weight_field_in_characteristic_space(self):
        c = chart(("xx", 0, 0), ("yy", 0, 0), ("tt", 0, 0),
                  default_box=(-0.4, 0.4))
        alpha = parse_expr("(1+xx)*d(yy)", c)
        t = chart(("q", 0, 0), ("p", 0, 0), ("K", 0, 0))
        phi = ChartMap(c, t, {"q": parse_expr("yy", c),
                              "p": parse_expr("1+xx", c),
                              "K": parse_expr("tt", c)})
        nb = basis_field(c, "tt")
        res = one_form_darboux(alpha, phi, r=1, nabla=nb)
        assert res.status == "not-guaranteed"
        assert res.chart_map is None

    def test_guard_refuses_a_base_point_where_the_flat_map_overflows(self):
        # exp(x)*exp(x) overflows above x = 354.89, so alpha(nabla) is
        # 0*inf = nan there; the guard must not read it as nonzero
        c = ChartSpec((CoordinateDecl("x", 0, 0, box=(0.1, 1)),
                       CoordinateDecl("y"), CoordinateDecl("t")))
        alpha = parse_expr("exp(x)*exp(x)*d(y)", c)
        t = chart(("q", 0, 0), ("p", 0, 0), ("K", 0, 0))
        phi = ChartMap(c, t, {"q": parse_expr("y", c),
                              "p": parse_expr("exp(x)*exp(x)", c),
                              "K": parse_expr("t", c)})
        nb = basis_field(c, "t")
        res = one_form_darboux(alpha, phi, r=1, nabla=nb, base_point={"x": 0.3})
        assert res.status == "not-guaranteed"
        with pytest.raises(PfaffianError,
                           match="^weight field or flat matrix is not finite "
                                 "at the base point$") as exc:
            one_form_darboux(alpha, phi, r=1, nabla=nb, base_point={"x": 358})
        assert exc.value.witness == {"x": 358, "y": 0, "t": 0}

    def test_guard_tests_finiteness_before_the_products(self):
        # 0*inf in the pairing, and a pairing of finite entries that
        # overflows, raise the typed error and print no numpy warning
        c = ChartSpec((CoordinateDecl("x", 0, 0, box=(0.1, 1)),
                       CoordinateDecl("y"), CoordinateDecl("t")))
        alpha = parse_expr("exp(x)*exp(x)*d(y)", c)
        t = chart(("q", 0, 0), ("p", 0, 0), ("K", 0, 0))
        phi = ChartMap(c, t, {"q": parse_expr("y", c),
                              "p": parse_expr("exp(x)*exp(x)", c),
                              "K": parse_expr("t", c)})
        for nb, x in [(basis_field(c, "t"), 358),
                      (vector_field(c, {"y": "1e200"}), 300)]:
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(PfaffianError, match="^weight field or "
                                   "flat matrix is not finite") as exc:
                    one_form_darboux(alpha, phi, r=1, nabla=nb,
                                     base_point={"x": x})
            assert exc.value.witness == {"x": x, "y": 0, "t": 0}

    def test_a_non_finite_jacobian_is_not_nonsingular(self):
        # the first image is identically 0, but inf - inf = nan at x = 358
        c = chart(("x", 0, 0), ("y", 0, 0))
        images = [parse_expr("exp(x)*exp(x) - exp(x - 1)*exp(x + 1)", c),
                  parse_expr("y", c)]
        for x in (1, 358):
            assert darboux._jacobian_nonsingular(
                images, c, {"x": x, "y": 0}, EqualityPolicy()) is False
        assert darboux._jacobian_nonsingular(
            [coord(c, "x"), coord(c, "y")], c, {"x": 358, "y": 0},
            EqualityPolicy()) is True

    def test_a_small_jacobian_is_nonsingular(self):
        # det = 2000^-3 = 1.25e-10, but the rows are independent
        c = chart(("x", 0, 0), ("y", 0, 0), ("z", 0, 0))
        images = [parse_expr(f"{n}/2000", c) for n in c.names]
        assert darboux._jacobian_nonsingular(
            images, c, {n: 0 for n in c.names}, EqualityPolicy()) is True
        images[2] = parse_expr("x/2000 + y/1000", c)
        assert darboux._jacobian_nonsingular(
            images, c, {n: 0 for n in c.names}, EqualityPolicy()) is False

    def test_momentum_absorption(self):
        c = chart(("q", 0, 0), ("p", 0, 0), default_box=(0.5, 1.0))
        alpha = parse_expr("(p + q^2)*d(q)", c)
        res = one_form_darboux(alpha, ChartMap.identity(c), r=1)
        assert res.status == "ok"
        assert res.chart_map.images["p"] == parse_expr("p + q^2", c)

    def test_unabsorbable_downgrades(self):
        c = chart(("q", 0, 0), ("p", 0, 0), default_box=(0.5, 1.0))
        alpha = parse_expr("2*p*d(q) + q*d(p)", c)
        res = one_form_darboux(alpha, ChartMap.identity(c), r=1)
        assert res.status == "verification-only"
        assert res.notes == ["residual primitive depends on ['p']: "
                             "momentum absorption does not apply"]

    def test_no_inverse_images_downgrades(self):
        c = chart(("q", 0, 0), ("p", 0, 0), default_box=(0.5, 1.0))
        t = chart(("Q", 0, 0), ("P", 0, 0))
        phi = ChartMap(c, t, {"Q": parse_expr("q", c), "P": parse_expr("p", c)})
        res = one_form_darboux(parse_expr("(p + q^2)*d(q)", c), phi, r=1)
        assert res.status == "verification-only" and res.chart_map is None
        assert res.notes == ["nonzero residual one-form and no inverse images "
                             "to absorb it: construction downgraded"]

    def test_no_residual_slot_for_z(self):
        # every residual coordinate duplicates q, so no choice of the one
        # that z replaces gives a nonsingular chart
        c = chart(("q", 0, 1), ("p", 0, -1), ("z", 0, 0), ("w", 0, 0))
        t = chart(("Q", 0, 1), ("P", 0, -1), ("K1", 0, 0), ("K2", 0, 0))
        q = parse_expr("q", c)
        phi = ChartMap(c, t, {"Q": q, "P": parse_expr("p", c), "K1": q, "K2": q})
        res = one_form_darboux(parse_expr("d(z) + p*d(q)", c), phi, r=1)
        assert res.status == "verification-only" and res.chart_map is None
        assert res.notes == ["could not replace a residual coordinate with z "
                             "while keeping the chart nonsingular"]

    def test_new_coordinate_named_apart_from_a_kept_z(self):
        # the first candidate keeps the residual coordinate called z, so the
        # primitive coordinate takes another name in the z position
        c = chart(("q", 0, 0), ("p", 0, 0), ("u", 0, 0), ("v", 0, 0))
        t = chart(("Q", 0, 0), ("P", 0, 0), ("K", 0, 0), ("z", 0, 0))
        phi = ChartMap(c, t, {"Q": parse_expr("q", c), "P": parse_expr("p", c),
                              "K": parse_expr("u", c), "z": parse_expr("v", c)})
        res = one_form_darboux(parse_expr("d(u) + p*d(q)", c), phi, r=1)
        assert res.status == "ok" and res.spec.variant == "contact"
        assert res.chart_map.target.names == ("Q", "P", "z1", "z")
        assert res.chart_map.images["z1"] == coord(c, "u")
        assert res.chart_map.images["z"] == coord(c, "v")

    def test_singular_chart_without_residual_coordinates(self):
        # the primitive z^2 of 2*z*d(z) is critical at the base point
        c = chart(("q", 0, 1), ("p", 0, -1), ("z", 0, 0))
        t = chart(("Q", 0, 1), ("P", 0, -1))
        phi = ChartMap(c, t, {"Q": parse_expr("q", c), "P": parse_expr("p", c)})
        res = one_form_darboux(parse_expr("p*d(q) + 2*z*d(z)", c), phi, r=1,
                               base_point={"z": 0})
        assert res.status == "verification-only" and res.chart_map is None
        assert res.notes == ["no residual coordinate available and the "
                             "candidate chart is singular at the base point"]

    def test_log_branch_nonconstant_weight_derivative(self):
        # P = v + 1 leaves the inhomogeneous residual d(x)/x - d(u), whose
        # primitive log(x) - u has nabla(f) = 1 - u
        c = chart(("x", 0, 1), ("u", 0, 1), ("v", 0, -1), default_box=(0.5, 1.5))
        t = chart(("Q", 0, 1), ("P", 0, -1), ("K", 0, 1))
        phi = ChartMap(c, t, {"Q": parse_expr("u", c),
                              "P": parse_expr("v + 1", c),
                              "K": parse_expr("x", c)})
        res = one_form_darboux(parse_expr("d(x)/x + v*d(u)", c), phi, r=1,
                               base_point={"x": 1})
        assert res.status == "verification-only" and res.chart_map is None
        assert res.notes == ["weight field applied to the primitive is not "
                             "constant: cannot form the exponential coordinate"]

    def test_nonintegrable_residual_downgrades(self):
        c = chart(("q", 0, 1), ("p", 0, -1), ("z", 0, 0))
        t = chart(("Q", 0, 1), ("P", 0, -1), ("K", 0, 0))
        phi = ChartMap(c, t, {"Q": parse_expr("q", c), "P": parse_expr("p", c),
                              "K": parse_expr("z", c)})
        res = one_form_darboux(parse_expr("p*d(q) + exp(z^2)*d(z)", c), phi, r=1)
        assert res.status == "verification-only" and res.chart_map is None
        assert res.notes == ["primitive construction failed: argument of exp "
                             "is not linear in z"]

    @pytest.mark.parametrize("decls, form, variant, s, eps, weights", [
        ([("x", 0, 1), ("y", 0, -1), ("z", 0, 0)], "d(z) + 3*x*d(y) - y*d(x)",
         "contact", 0, (), {"q1": -1, "p1": 1, "z": 0}),
        ([("x", 0, 1), ("y", 0, 1), ("a", 1, 1), ("b", 1, 1)],
         "x*d(y) + a*d(a) + b*d(b)",
         "potential", 2, (1, 1), {"q1": 1, "p1": 1, "y1": 1, "y2": 1}),
    ])
    def test_assembles_on_the_linear_darboux_chart(self, decls, form, variant,
                                                   s, eps, weights):
        # the assembly takes any chart that puts d(alpha) in presymplectic
        # normal form, here the one linear_darboux builds from d(alpha)
        c = chart(*decls)
        alpha = parse_expr(form, c)
        ld = linear_darboux(exterior_d(alpha))
        assert (ld.spec.r, ld.spec.s, ld.spec.eps) == (1, s, eps)
        res = one_form_darboux(alpha, ld.chart_map, ld.spec.r, ld.spec.s,
                               ld.spec.eps)
        assert res.status == "ok" and res.notes == []
        assert (res.spec.variant, res.spec.r, res.spec.s, res.spec.eps) == \
            (variant, 1, s, eps)
        assert res.new_weights == weights
        assert res.verification.passed

    def test_wrong_presymplectic_chart_rejected(self):
        c = chart(("z", 0, 0), ("p", 0, 1), ("q", 0, -1))
        alpha = parse_expr("d(z) + p*d(q)", c)
        t = chart(("Q", 0, -1), ("P", 0, 1), ("K", 0, 0))
        phi = ChartMap(c, t, {"Q": parse_expr("q", c),
                              "P": parse_expr("2*p", c),
                              "K": parse_expr("z", c)})
        with pytest.raises(PfaffianError):
            one_form_darboux(alpha, phi, r=1)


class TestVerifyNormalForm:
    def _theta_setup(self):
        w = chart(("x", 0, 1), ("y", 0, -1), default_box=(0.1, 0.8))
        theta = parse_expr(
            "y*(cosh(x*y)+1)*(sinh(x*y)+x*y*cosh(x*y)+1)*d(x)"
            " + x^2*y*cosh(x*y)*(cosh(x*y)+1)*d(y)", w)
        t = chart(("q", 0, 1), ("p", 0, -1))
        phi = ChartMap(w, t, {"q": parse_expr("x*(1+sinh(x*y))", w),
                              "p": parse_expr("y*(1+cosh(x*y))", w)})
        return w, theta, t, phi

    def test_theta_passes_exact(self):
        w, theta, t, phi = self._theta_setup()
        rep = verify_normal_form(theta, phi, NormalFormSpec("potential", 1))
        assert rep.passed and rep.mode == "exact"

    def test_sign_flip_fails_with_witness(self):
        w, theta, t, phi = self._theta_setup()
        bad = ChartMap(w, t, {"q": phi.images["q"], "p": -phi.images["p"]})
        rep = verify_normal_form(theta, bad, NormalFormSpec("potential", 1))
        assert not rep.passed
        assert any(not e.passed for e in rep.entries)

    def test_eta_passes(self):
        c = chart(("x", 0, 1), ("y", 0, -1), ("z", 0, 0), default_box=(-0.6, 0.6))
        eta = parse_expr(
            "y*(1 + sin(z) + cos(x*y)*(1+sin(z)) - sin(x*y)*(exp(z)"
            " + x*y*(1+sin(z))))*d(x) - x*sin(x*y)*(x*y*(sin(z)+1)"
            " + exp(z))*d(y) + exp(z)*cos(x*y)*d(z)", c)
        t = chart(("q", 0, 1), ("p", 0, -1), ("zeta", 0, 0))
        phi = ChartMap(c, t, {"q": parse_expr("x*(1+cos(x*y))", c),
                              "p": parse_expr("y*(1+sin(z))", c),
                              "zeta": parse_expr("exp(z)*cos(x*y)", c)})
        rep = verify_normal_form(eta, phi, NormalFormSpec("contact", 1))
        assert rep.passed

    def test_canonical_expr_shapes(self):
        t = chart(("q", 0, 0), ("p", 0, 0), ("z", 0, 0), ("y1", 1, 0))
        e = canonical_expr(NormalFormSpec("contact", 1, 1, (1,)), t)
        assert e == parse_expr("d(z) + p*d(q) + y1*d(y1)", t)
        e2 = canonical_expr(NormalFormSpec("contact-log", 1), t)
        assert e2 == parse_expr("d(z)/z + p*d(q)", t)
        t2 = chart(("q", 0, 0), ("p", 0, 0), ("y1", 1, 0))
        e3 = canonical_expr(NormalFormSpec("presymplectic", 1, 1, (-1,)), t2)
        assert e3 == parse_expr("d(p)*d(q) - d(y1)*d(y1)", t2)

    def test_super_contact_chart(self):
        # (q:1, p:-1, z:0 | y:0): the odd square carries the form's weight 0
        c = chart(("q", 0, 1), ("p", 0, -1), ("z", 0, 0), ("y", 1, 0))
        rep = verify_normal_form(parse_expr("d(z) + p*d(q) + y*d(y)", c),
                                 ChartMap.identity(c),
                                 NormalFormSpec("contact", 1, 1, (1,)))
        assert rep.passed and rep.mode == "exact"
        assert len(rep.entries) == 9 and all(e.passed for e in rep.entries)
        entries = {e.name: e.detail for e in rep.entries}
        assert entries["odd-weight-y"] == "2*w(y) = 0, expected 0"

    def test_super_line_contact_chart(self):
        # R^{1|1} = (z:2 | t:1): dz + t*dt has weight 2 = 2*w(t)
        c = chart(("z", 0, 2), ("t", 1, 1))
        rep = verify_normal_form(parse_expr("d(z) + t*d(t)", c),
                                 ChartMap.identity(c),
                                 NormalFormSpec("contact", 0, 1, (1,)))
        assert rep.passed
        entries = {e.name: e.detail for e in rep.entries}
        assert entries["odd-weight-t"] == "2*w(t) = 2, expected 2"
        assert entries["z-weight"] == "w(z) = 2, expected 2"

    def test_eps_ordering_enforced(self):
        with pytest.raises(ValueError):
            NormalFormSpec("potential", 0, 2, (-1, 1))


class TestStraightening:
    def test_identity(self):
        c = chart(("x", 0, 0))
        grid = straighten_commuting([basis_field(c, "x")], [0.0], box=0.3,
                                    nodes_per_axis=5)
        assert grid.certified and grid.max_error < 1e-9

    def test_reparametrization_certified_and_exact(self):
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

    def test_commuting_pair(self):
        c = chart(("x", 0, 0), ("y", 0, 0), ("z", 0, 0))
        f1 = basis_field(c, "x")
        f2 = vector_field(c, {"y": "1", "z": "cos(y)"})
        grid = straighten_commuting([f1, f2], [0, 0, 0], box=0.3,
                                    nodes_per_axis=3)
        assert grid.certified and grid.max_error < 1e-6

    def test_variational_jacobian_matches_analytic_map(self):
        # the coordinate map is u -> exp(u1) * (cos u2, sin u2); the column
        # of R is carried through the flow of E by the variational equation
        c = chart(("x", 0, 0), ("y", 0, 0))
        E = vector_field(c, {"x": "x", "y": "y"})
        R = vector_field(c, {"x": "-y", "y": "x"})
        grid = straighten_commuting([E, R], [1, 0], box=0.3, nodes_per_axis=3)
        assert grid.certified and len(grid.jacobians) == 9
        for (u, _), J in zip(grid.nodes, grid.jacobians):
            cs, sn = math.cos(u[1]), math.sin(u[1])
            want = math.exp(u[0]) * np.array([[cs, -sn], [sn, cs]])
            assert float(np.max(np.abs(J - want))) < 1e-10

    def test_field_evaluations_independent_of_grid_size(self, monkeypatch):
        c = chart(("x", 0, 0), ("y", 0, 0), ("z", 0, 0))
        pair = [basis_field(c, "x"), vector_field(c, {"y": "1", "z": "cos(y)"})]
        calls = []
        float_body = Plan.float_body

        def counting(plan, x, values=None):
            calls.append(plan)
            return float_body(plan, x, values)

        monkeypatch.setattr(Plan, "float_body", counting)
        counts = []
        for nodes in (2, 4):
            calls.clear()
            grid = straighten_commuting(pair, [0, 0, 0], box=0.3,
                                        nodes_per_axis=nodes)
            assert grid.certified and len(grid.nodes) == nodes ** 3
            counts.append(len(calls))
        assert counts[0] == counts[1] > 0

    def test_a_constant_plan_runs_once_per_flow(self, monkeypatch):
        # a plan that reads no coordinate runs once at the base point, once
        # per flow and once on the grid, whatever the RK4 step count; a plan
        # that reads one runs at each of the four stages of every step
        c = chart(("x", 0, 0), ("y", 0, 0), ("z", 0, 0))
        pair = [basis_field(c, "x"), vector_field(c, {"y": "1", "z": "cos(y)"})]
        calls = []
        float_body = Plan.float_body

        def counting(plan, x, values=None):
            calls.append(plan)
            return float_body(plan, x, values)

        monkeypatch.setattr(Plan, "float_body", counting)
        counts = []
        for box in (0.05, 0.3):
            calls.clear()
            assert straighten_commuting(pair, [0, 0, 0], box=box).certified
            counts.append([(bool(p.reads), calls.count(p))
                           for p in dict.fromkeys(calls)])     # first-call order
        small, large = counts
        extra = 4 * (math.ceil(0.3 / RK4_STEP) - math.ceil(0.05 / RK4_STEP))
        assert [r for r, _ in small] == [r for r, _ in large]
        assert [r for r, _ in small].count(True) == 2     # cos(y), -sin(y)
        for (reads, n_small), (_, n_large) in zip(small, large):
            assert n_large - n_small == (extra if reads else 0)
            assert reads or n_small in (1, 3)

    def test_constant_field_flows_in_closed_form(self):
        # the flow of dx is the translation x + u1, rounded once; summing
        # the RK4 increments of the same value rounds 50 times
        c = chart(("x", 0, 0), ("y", 0, 0), ("z", 0, 0))
        pair = [basis_field(c, "x"), vector_field(c, {"y": "1", "z": "cos(y)"})]
        grid = straighten_commuting(pair, [0.1, 0.2, 0.3], box=0.3,
                                    nodes_per_axis=3)
        assert grid.certified
        for u, x in grid.nodes:
            assert x[0] == 0.1 + u[0]

    def test_constant_field_never_differentiated(self, monkeypatch):
        # every coefficient is a nonzero constant, so the plans without
        # terms are the Jacobian entries: none runs, and the coefficients
        # run as often whatever the flow time
        c = chart(("x", 0, 0), ("y", 0, 0))
        X = vector_field(c, {"x": "1", "y": "2"})
        calls = []
        float_body = Plan.float_body

        def counting(plan, x, values=None):
            calls.append(plan)
            return float_body(plan, x, values)

        monkeypatch.setattr(Plan, "float_body", counting)
        counts = []
        for box in (0.05, 0.3):
            calls.clear()
            assert straighten_commuting([X], [0, 0], box=box).certified
            assert calls and all(p.terms for p in calls)
            counts.append(len(calls))
        assert counts[0] == counts[1]

    def test_only_a_field_that_reads_a_coordinate_is_differentiated(
            self, monkeypatch):
        # X1 = dx flows in closed form, so only X2's nine Jacobian entries
        # are derived
        c = chart(("x", 0, 0), ("y", 0, 0), ("z", 0, 0))
        fields = [basis_field(c, "x"),
                  vector_field(c, {"y": "1", "z": "1/2 + sin(y)/8 + z/10"})]
        calls = []
        partial = darboux.partial

        def counting(e, name):
            calls.append(name)
            return partial(e, name)

        monkeypatch.setattr(darboux, "partial", counting)
        grid = straighten_commuting(fields, [0.1, 0.2, -0.1], box=0.05,
                                    nodes_per_axis=2)
        assert grid.certified
        assert len(calls) == 9

    @pytest.mark.parametrize("coeff, base", [("10000000", 0.0), ("1", 2e6)],
                             ids=["flow-ends-outside", "base-outside"])
    def test_constant_field_leaving_domain_rejected(self, coeff, base):
        assert 2e6 > DOMAIN_LIMIT and 1e7 * 0.5 > DOMAIN_LIMIT
        c = chart(("x", 0, 0))
        X = vector_field(c, {"x": coeff})
        with pytest.raises(StraighteningError, match="domain"):
            straighten_commuting([X], [base], box=0.5, nodes_per_axis=3)

    def test_one_node_is_the_base_point(self):
        c = chart(("x", 0, 0), ("y", 0, 0))
        grid = straighten_commuting([basis_field(c, "x")], [0.25, -0.5],
                                    box=0.5, nodes_per_axis=1)
        ((u, x),) = grid.nodes
        assert u == (0.0, 0.0)
        assert x.tolist() == [0.25, -0.5]
        assert grid.certified

    def test_noncommuting_rejected(self):
        c = chart(("x", 0, 0), ("y", 0, 0))
        f1 = basis_field(c, "x")
        f2 = vector_field(c, {"y": "x"})
        with pytest.raises(StraighteningError):
            straighten_commuting([f1, f2], [0, 0])

    def test_dependent_at_base_rejected(self):
        c = chart(("x", 0, 0), ("y", 0, 0))
        with pytest.raises(StraighteningError):
            straighten_commuting([basis_field(c, "x"), basis_field(c, "x")],
                                 [0, 0])

    def test_the_scale_of_the_fields_decides_no_rank(self):
        # base-point rows are rank-tested at unit length, so 1e20 d/dy
        # keeps the slice axis x and is independent of d/dx
        c = chart(("x", 0, 0), ("y", 0, 0))
        big = vector_field(c, {"y": "1e20"})
        for fields, axes in (([big], [0]), ([basis_field(c, "x"), big], [])):
            grid = straighten_commuting(fields, [0, 0], box=1e-15,
                                        nodes_per_axis=3)
            assert grid.slice_axes == axes and grid.certified
        with pytest.raises(StraighteningError, match="^fields are dependent"):
            straighten_commuting([basis_field(c, "y"), big], [0, 0])

    def test_fields_not_finite_at_base_rejected(self):
        c = chart(("x", 0, 0), ("y", 0, 0))
        with pytest.raises(StraighteningError,
                           match="^fields are not finite at the base point$"):
            straighten_commuting([vector_field(c, {"x": "exp(x)*exp(x)"})],
                                 [358, 0])

    def test_fields_not_finite_at_a_grid_node_named(self):
        # exp(400*x)^2 is 1 at the base point and overflows at the slice
        # nodes x = 1, which start their flows there: the flow does not
        # leave the domain, the field is not finite where it starts
        c = chart(("x", 0, 0), ("y", 0, 0))
        f = vector_field(c, {"y": "exp(400*x)*exp(400*x)"})
        with pytest.raises(StraighteningError,
                           match=r"^fields are not finite at the grid node "
                                 r"u=\(-1\.0, 1\.0\)$"):
            straighten_commuting([f], [0, 0], box=1.0, nodes_per_axis=3)

    def test_singular_node_named(self):
        # on the slice point (0, 1) the field is parallel to the slice axis
        c = chart(("x", 0, 0), ("y", 0, 0))
        f = vector_field(c, {"x": "1 - y", "y": "y"})
        with pytest.raises(StraighteningError, match=r"at u=\(-1\.0, 1\.0\)"):
            straighten_commuting([f], [0, 0], box=1.0, nodes_per_axis=3)

    def test_jacobian_not_finite_fails_the_certificate(self):
        # the field stays between 1 and 3, but its derivative overflows on
        # the slice x = 0.7085, so the Jacobians there are not finite
        c = chart(("x", 0, 0), ("y", 0, 0))
        f = vector_field(c, {"y": "2 + sin(exp(1000*x))"})
        grid = straighten_commuting([f], [0, 0], box=0.7085, nodes_per_axis=3)
        bad = [u for (u, _), J in zip(grid.nodes, grid.jacobians)
               if not np.isfinite(J).all()]
        assert bad == [(-0.7085, 0.7085), (0.0, 0.7085), (0.7085, 0.7085)]
        assert grid.max_error == math.inf and not grid.certified

    def test_escaping_flow_rejected(self):
        # finite-time blow-up leaves the working domain
        c = chart(("x", 0, 0))
        f = vector_field(c, {"x": "10 + 100*x^2"})
        with pytest.raises(StraighteningError, match="domain"):
            straighten_commuting([f], [0.0], box=0.5, nodes_per_axis=3)

    @pytest.mark.parametrize("kwargs, message", [
        ({"base": [0.0]}, "base has 1 entries"),
        ({"base": [0.0, 0.0, 0.0]}, "base has 3 entries"),
        ({"nodes_per_axis": 0}, "at least one node"),
        ({"box": 0.0}, "positive and finite"),
        ({"box": -0.5}, "positive and finite"),
        ({"box": float("nan")}, "positive and finite"),
        ({"box": float("inf")}, "positive and finite"),
        ({"base": [float("nan"), 0.0]}, r"^base point \(nan, 0\.0\) is not finite$"),
        ({"base": [0.0, float("-inf")]}, r"^base point \(0\.0, -inf\) is not finite$"),
        ({"base": [0.0, 1e300]}, r"^base point \(0\.0, 1e\+300\) is outside the "
                                 r"working domain \|x\| <= 1e\+06$"),
        ({"nodes_per_axis": 2.0}, "^nodes_per_axis must be an integer, not 2.0$"),
    ], ids=["short-base", "long-base", "no-nodes", "zero-box", "negative-box",
            "nan-box", "inf-box", "nan-base", "inf-base", "far-base",
            "float-nodes"])
    def test_bad_grid_arguments_rejected(self, kwargs, message):
        c = chart(("x", 0, 0), ("y", 0, 0))
        args = {"base": [0.0, 0.0], "box": 0.5, "nodes_per_axis": 2, **kwargs}
        with pytest.raises(StraighteningError, match=message):
            straighten_commuting([basis_field(c, "x")], **args)

    def test_csv_export(self, tmp_path):
        c = chart(("x", 0, 0))
        grid = straighten_commuting([basis_field(c, "x")], [0.0], box=0.2,
                                    nodes_per_axis=3)
        out = tmp_path / "grid.csv"
        grid.to_csv(str(out))
        lines = out.read_text().splitlines()
        assert lines[0].startswith("# base=")
        assert lines[1] == "u1,x1"
        assert len(lines) == 5

    # (coefficients of the last field, base, box, nodes per axis); a 3-D
    # base puts d/dx first.  Every atom kind a float body evaluates, a field
    # that flows in closed form and a 2-D field, at 2 and 3 nodes per axis
    PINNED_GRIDS = [
        ({"y": "1", "z": "3/5 + sin(7/10*y)/10 + cos(z)/10"}, [0.1, 0.2, -0.1], 0.1, 2),
        ({"y": "1", "z": "exp(z/10)*cosh(3/10*y)"}, [-0.2, 0.1, 0.3], 0.1, 3),
        ({"y": "1", "z": "log(2 + y) + 1/(3 + z)"}, [0.0, -0.1, 0.2], 0.05, 3),
        ({"y": "1", "z": "1/2"}, [0.3, 0.0, -0.2], 0.2, 2),
        ({"x": "sin(y)/3", "y": "1 + x^2/4"}, [0.1, 0.4], 0.1, 3),
    ]
    PINNED_DIGEST = ("82cb9e0abcd70078d0aa8e73f08e7a26"
                     "0639ed754d73c1bf229e4f4397872933")

    def test_grids_are_pinned_bit_for_bit(self):
        """One SHA-256 over ``float.hex`` of every node, Jacobian and
        ``max_error`` of the pinned grids: a change to the evaluation or
        flow order that moves any of them by one bit changes it."""
        h = hashlib.sha256()
        for coeffs, base, box, nodes in self.PINNED_GRIDS:
            names = ("x", "y", "z")[:len(base)]
            c = chart(*((name, 0, 0) for name in names))
            fields = [vector_field(c, coeffs)]
            if len(base) == 3:
                fields.insert(0, basis_field(c, "x"))
            grid = straighten_commuting(fields, base, box=box,
                                        nodes_per_axis=nodes)
            assert grid.certified
            for (u, x), J in zip(grid.nodes, grid.jacobians):
                for v in (*u, *x.tolist(), *J.ravel().tolist()):
                    h.update(float(v).hex().encode() + b",")
            h.update(float(grid.max_error).hex().encode() + b";")
        assert h.hexdigest() == self.PINNED_DIGEST
