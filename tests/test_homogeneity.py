"""Weight fields, degrees, lifts, and graded distributions."""

import random
from fractions import Fraction

import pytest

from graded_darboux import (EqualityPolicy, chart, coord, diff,
                            eval_body_exact, gmul, parse_expr)
from graded_darboux.cartan import basis_field, vector_field
from graded_darboux.homogeneity import (Distribution, RankCollapseError,
                                        cotangent_lift, degree_of,
                                        distribution_homogeneous,
                                        involutive_check, tangent_lift,
                                        verify_weight_chart,
                                        weight_field_of_chart)
from graded_darboux.grexpr.chart import EVEN, ODD, weights_consistent
from helpers import random_chart, random_monomial


class TestWeightField:
    def test_cylinder(self):
        c = chart(("z", 0, 0), ("p", 0, 1), ("q", 0, -1))
        nab = weight_field_of_chart(c)
        assert verify_weight_chart(nab, c)
        assert nab.coefficient("z").is_zero()
        assert nab.coefficient("p") == coord(c, "p")
        assert nab.coefficient("q") == -coord(c, "q")

    def test_zero_weights(self):
        c = chart(("x", 0, 0), ("y", 0, 0))
        assert weight_field_of_chart(c).is_zero()

    def test_euler(self):
        c = chart(("y1", 0, 1), ("y2", 0, 1), ("t1", 1, 1))
        nab = weight_field_of_chart(c)
        for name in c.names:
            assert nab.coefficient(name) == coord(c, name)

    def test_verify(self):
        c = chart(("x", 0, 1))
        assert verify_weight_chart(vector_field(c, {"x": "x"}), c)
        assert not verify_weight_chart(vector_field(c, {"x": "x^2"}), c)
        z = chart(("x", 0, 0))
        assert verify_weight_chart(vector_field(z, {}), z)

    def test_verify_random_charts(self):
        rng = random.Random(12)
        for _ in range(25):
            c = random_chart(rng)
            assert verify_weight_chart(weight_field_of_chart(c), c)

    def test_weights_consistent(self):
        a = chart(("x", 0, 1), ("y", 0, -1))
        b = chart(("u", 0, -1), ("v", 0, 1))
        c = chart(("u", 0, 1), ("v", 0, 1))
        assert weights_consistent(a, b)
        assert not weights_consistent(a, c)


class TestDegree:
    def test_weight_zero_product(self):
        c = chart(("x", 0, 1), ("y", 0, -1))
        rep = degree_of(parse_expr("x*y", c), weight_field_of_chart(c))
        assert rep.homogeneous and rep.degree.weight == 0
        assert rep.degree.parity == EVEN

    def test_momentum_form(self):
        c = chart(("q", 0, 0), ("p", 0, 1))
        nab = vector_field(c, {"p": "p"})
        rep = degree_of(parse_expr("p*d(q)", c), nab)
        assert rep.homogeneous and rep.degree.weight == 1

    def test_inhomogeneous(self):
        c = chart(("x", 0, 1))
        rep = degree_of(parse_expr("x + x^2", c), weight_field_of_chart(c))
        assert not rep.homogeneous and rep.degree is None
        assert not rep.residual.is_zero()

    def test_vector_field_degree(self):
        c = chart(("z", 0, 0), ("p", 0, 1), ("q", 0, -1))
        nab = weight_field_of_chart(c)
        rep = degree_of(basis_field(c, "p"), nab)
        assert rep.homogeneous and rep.degree.weight == -1

    def test_odd_degree(self):
        c = chart(("x", 0, 1), ("t", 1, 2))
        rep = degree_of(parse_expr("x*t", c), weight_field_of_chart(c))
        assert rep.degree.parity == ODD and rep.degree.weight == 3

    def test_additivity_random(self):
        rng = random.Random(13)
        for _ in range(120):
            c = random_chart(rng)
            nab = weight_field_of_chart(c)
            a = random_monomial(c, rng, form_degree=rng.randint(0, 1))
            b = random_monomial(c, rng, form_degree=rng.randint(0, 1))
            ab = gmul(a, b)
            if ab.is_zero():
                continue
            ra, rb, rab = (degree_of(x, nab) for x in (a, b, ab))
            assert rab.degree.weight == ra.degree.weight + rb.degree.weight
            assert rab.degree.parity == (ra.degree.parity + rb.degree.parity) % 2

    def test_nonzero_weight_vanishes_at_origin(self):
        rng = random.Random(14)
        for _ in range(120):
            c = random_chart(rng)
            f = random_monomial(c, rng)
            rep = degree_of(f, weight_field_of_chart(c))
            if rep.degree is None or rep.degree.weight == 0:
                continue
            origin = {cd.name: Fraction(0) for cd in c.coords if cd.parity == EVEN}
            assert eval_body_exact(f, origin) == 0


class TestLifts:
    def test_tangent(self):
        c = chart(("x", 0, 1))
        lifted = tangent_lift(c)
        assert lifted.chart.names == ("x", "x_dot")
        assert lifted.chart.weight(1) == 1
        assert lifted.coefficient("x_dot") == coord(lifted.chart, "x_dot")

    def test_cotangent_sign_flip(self):
        c = chart(("x", 0, 1))
        lifted = cotangent_lift(c)
        assert lifted.chart.names == ("x", "p_x")
        assert lifted.chart.weight(1) == -1
        assert lifted.coefficient("p_x") == -coord(lifted.chart, "p_x")

    def test_zero_field_lifts_to_zero(self):
        c = chart(("x", 0, 0))
        assert tangent_lift(c).is_zero()
        assert cotangent_lift(c).is_zero()

    def test_two_coordinate_tangent_lift(self):
        c = chart(("a", 0, 1), ("b", 0, -1))
        lifted = tangent_lift(c)
        nonzero = [n for n in lifted.chart.names
                   if not lifted.coefficient(n).is_zero()]
        assert nonzero == ["a", "b", "a_dot", "b_dot"]

    def test_lift_degree_consistency(self):
        c = chart(("a", 0, 1), ("t", 1, -2))
        tl = tangent_lift(c)
        for name, sigma, w in [("a_dot", EVEN, 1), ("t_dot", ODD, -2)]:
            rep = degree_of(diff(tl.chart, name), tl)
            assert rep.degree.parity == sigma and rep.degree.weight == w
        clift = cotangent_lift(c)
        rep = degree_of(coord(clift.chart, "p_a"), clift)
        assert rep.degree.weight == -1

    def test_canonical_one_form_weight_zero(self):
        c = chart(("a", 0, 1), ("b", 0, -3))
        clift = cotangent_lift(c)
        theta = parse_expr("p_a*d(a) + p_b*d(b)", clift.chart)
        rep = degree_of(theta, clift)
        assert rep.homogeneous and rep.degree.weight == 0

    # the lifts take the chart, whose weights are the homogeneity structure;
    # a declared field reaches them only through the CLI, which lifts it
    # iff verify_weight_chart calls it the chart's own (tests/test_cli.py)
    def test_non_canonical_input_rejected(self):
        c = chart(("x", 0, 1))
        assert not verify_weight_chart(vector_field(c, {"x": "2*x"}), c)

    def test_hand_built_canonical_field_accepted(self):
        # canonicity is read off the coefficients, not declared: x d/dx is
        # the canonical field of (x:1) however it was built
        c = chart(("x", 0, 1))
        nab = vector_field(c, {"x": "x"})
        assert verify_weight_chart(nab, c)
        assert nab == weight_field_of_chart(c)

    @pytest.mark.parametrize("nabla", [
        {"x": "2*x"}, {"x": "x^2"}, {"x": "x", "y": "x"}, {}],
        ids=["doubled", "quadratic", "mixed", "zero"])
    def test_non_canonical_field_never_lifted(self, nabla):
        c = chart(("x", 0, 1), ("y", 0, 0))
        assert not verify_weight_chart(vector_field(c, nabla), c)

    def test_field_of_another_chart_never_lifted(self):
        c = chart(("x", 0, 1))
        other = chart(("x", 0, 2))
        assert not verify_weight_chart(weight_field_of_chart(other), c)
        assert verify_weight_chart(weight_field_of_chart(other), other)

    def test_name_collision_rejected(self):
        from graded_darboux.grexpr.chart import ChartError
        c = chart(("x", 0, 1), ("x_dot", 0, 1))
        with pytest.raises(ChartError):
            tangent_lift(c)

    def test_parity_of_lifted_coordinates(self):
        c = chart(("a", 0, 1), ("t", 1, 1))
        tl = tangent_lift(c)
        assert tl.chart.parity(tl.chart.index("t_dot")) == ODD
        cl = cotangent_lift(c)
        assert cl.chart.parity(cl.chart.index("p_t")) == ODD


class TestDistributions:
    def test_single_generator_homogeneous(self):
        c = chart(("x", 0, 1))
        D = Distribution(c, (basis_field(c, "x"),))
        assert distribution_homogeneous(D, weight_field_of_chart(c))

    def test_nonvanishing_transcendental_weight_field(self):
        c = chart(("q", 0, 0), ("p", 0, 0), ("z", 0, 0))
        nab = vector_field(c, {"z": "1", "q": "-sin(q)", "p": "p*cos(q)"})
        D = Distribution(c, (basis_field(c, "z"),))
        assert distribution_homogeneous(D, nab)

    def test_inhomogeneous_mixing_detected(self):
        c = chart(("x", 0, 1), ("y", 0, 0))
        # [nabla, X] = -d/dx + x d/dy points out of the span of X
        X = vector_field(c, {"x": "1", "y": "x"})
        D = Distribution(c, (X,))
        assert not distribution_homogeneous(D, weight_field_of_chart(c))

    def test_involutive_pairs(self):
        c = chart(("q", 0, 0), ("p", 0, 0), ("z", 0, 0))
        D = Distribution(c, (basis_field(c, "q"), basis_field(c, "p")))
        assert involutive_check(D)
        D2 = Distribution(c, (basis_field(c, "q"),
                              vector_field(c, {"p": "1", "z": "q"})))
        assert not involutive_check(D2)

    def test_exact_polynomial_path(self):
        # membership with a rational-function coefficient: [X1, X2] = d/dy
        # equals (1/x) * X2, inside the span over the function field
        c = chart(("x", 0, 0), ("y", 0, 0), default_box=(0.2, 0.9))
        X1 = vector_field(c, {"x": "1"})
        X2 = vector_field(c, {"y": "x"})
        D = Distribution(c, (X1, X2))
        assert involutive_check(D)

    @pytest.mark.parametrize("nabla, inside", [
        # [nabla, d/dx] = x^2 d/dx
        ({"x": "-x^3/3"}, True),
        # [nabla, d/dx] = y d/dx + x d/dy leaves span{d/dx} wherever x != 0
        ({"x": "-x*y", "y": "-x^2/2"}, False),
        # [nabla, d/dx] = x d/dx + (x/10^12) d/dy: a residual below rel_tol,
        # but exact
        ({"x": "-x^2/2", "y": "-x^2/(2*10^12)"}, False),
        # [nabla, d/dx] = x d/dx + (sinh(x)/10^12) d/dy: as small, but a
        # float entry sends the decision to least squares, within rel_tol
        ({"x": "-x^2/2", "y": "-cosh(x)/10^12"}, True),
    ], ids=["inside", "outside", "tiny-exact-residual", "tiny-float-residual"])
    def test_exact_membership_verdicts(self, nabla, inside):
        c = chart(("x", 0, 0), ("y", 0, 0))
        D = Distribution(c, (vector_field(c, {"x": "1"}),))
        nab = vector_field(c, nabla)
        assert distribution_homogeneous(D, nab) is inside

    def test_rel_tol_reaches_membership(self):
        # [nabla, d/dx] = -d/dx - 0.000001*exp(x) d/dy: a float residual
        # above the default rel_tol and below 1e-3
        c = chart(("x", 0, 0), ("y", 0, 0))
        D = Distribution(c, (basis_field(c, "x"),))
        nab = vector_field(c, {"x": "x", "y": "0.000001*exp(x)"})
        assert not distribution_homogeneous(D, nab)
        assert distribution_homogeneous(D, nab, EqualityPolicy(rel_tol=1e-3))

    def test_commuting_curved_pair_involutive(self):
        c = chart(("x", 0, 0), ("y", 0, 0), ("z", 0, 0))
        X1 = vector_field(c, {"x": "1"})
        X2 = vector_field(c, {"y": "1", "z": "y"})
        assert involutive_check(Distribution(c, (X1, X2)))

    def test_rank_collapse_witnessed(self):
        # the Euler field and d/dy become dependent where x is (numerically)
        # zero; a box pinned to the x = 0 slice must raise with a witness
        c = chart(("x", 0, 0, (-1e-12, 1e-12)), ("y", 0, 0))
        X = vector_field(c, {"x": "x", "y": "y"})
        D = Distribution(c, (X, basis_field(c, "y")))
        with pytest.raises(RankCollapseError):
            distribution_homogeneous(D, weight_field_of_chart(c))

    def test_odd_generator_self_bracket(self):
        c = chart(("x", 0, 0), ("t", 1, 0))
        Q = vector_field(c, {"x": "t", "t": "1"}, parity=ODD)
        D = Distribution(c, (Q,))
        # [Q, Q] = 2 d/dx which is not in the span of Q
        assert not involutive_check(D)
