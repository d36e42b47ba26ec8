"""Classification through the characteristic distribution, Reeb/Liouville
fields, and the wedge-power oracle."""

import random

import numpy as np
import pytest

from graded_darboux import (EqualityPolicy, chart, coord, diff, equal, gmul,
                            one, parse_expr, zero)
from graded_darboux import _linalg, pfaffian
from graded_darboux.cartan import (basis_field, exterior_d, interior,
                                   lie_bracket, lie_derivative, vector_field)
from graded_darboux.homogeneity import degree_of, weight_field_of_chart
from graded_darboux.pfaffian import (NotClosedError, PfaffianError,
                                     characteristic_class, darboux_class_oracle,
                                     flat_matrix, liouville, presymplectic_check,
                                     reeb)


@pytest.fixture
def cyl():
    return chart(("z", 0, 0), ("p", 0, 1), ("q", 0, -1), default_box=(-0.7, 0.7))


@pytest.fixture
def cyl_alpha(cyl):
    return parse_expr("d(z) - p*(2+sin(p*q))*d(q)", cyl)


class TestFlatMatrix:
    def test_constant_presymplectic(self):
        c = chart(("q", 0, 0), ("p", 0, 0), ("z", 0, 0))
        fm = flat_matrix(parse_expr("d(p)*d(q)", c), {"q": 0, "p": 0, "z": 0})
        assert fm.rank() == 2
        # even-even block is antisymmetric
        assert np.allclose(fm.even_block, -fm.even_block.T)

    def test_closed_one_form(self, cyl):
        fm = flat_matrix(parse_expr("d(z)", cyl), {"z": 0, "p": 0, "q": 0})
        assert np.allclose(fm.matrix, 0)
        assert list(fm.alpha_row) == [1.0, 0.0, 0.0]

    def test_cylinder_at_origin(self, cyl, cyl_alpha):
        fm = flat_matrix(cyl_alpha, {"z": 0, "p": 0, "q": 0})
        assert fm.rank() == 2
        assert fm.alpha_row[0] == 1.0

    def test_odd_block_symmetric(self):
        c = chart(("t1", 1, 0), ("t2", 1, 0))
        fm = flat_matrix(parse_expr("d(t1)*d(t2)", c), {})
        assert np.allclose(fm.odd_block, fm.odd_block.T)


class TestClassification:
    def test_cylinder_contact(self, cyl_alpha):
        rep = characteristic_class(cyl_alpha)
        assert rep.class_ == 3 and rep.kind == "contact"
        assert rep.case == "transversal"
        assert rep.class_ == cyl_alpha.chart.dim  # class parity link

    def test_one_elimination_per_exact_point(self, cyl, monkeypatch):
        """Rank and membership at an exact point come from one ``_rref``."""
        calls = []
        rref = _linalg._rref
        monkeypatch.setattr(_linalg, "_rref",
                            lambda *args: calls.append(1) or rref(*args))
        alpha = parse_expr("d(z) - p*d(q)", cyl)
        rep = characteristic_class(alpha, policy=EqualityPolicy(n_points=5))
        assert rep.kind == "contact"
        assert [e["residual"] for e in rep.evidence] == [None] * 5
        assert len(calls) == 5

    def test_theta_symplectic_potential(self):
        w = chart(("x", 0, 1), ("y", 0, -1), default_box=(0.1, 0.8))
        theta = parse_expr(
            "y*(cosh(x*y)+1)*(sinh(x*y)+x*y*cosh(x*y)+1)*d(x)"
            " + x^2*y*cosh(x*y)*(cosh(x*y)+1)*d(y)", w)
        rep = characteristic_class(theta)
        assert rep.kind == "symplectic-potential" and rep.class_ == 2
        assert rep.case == "contained"

    def test_closed(self, cyl):
        rep = characteristic_class(parse_expr("d(z)", cyl))
        assert rep.class_ == 1 and rep.kind == "closed"

    def test_precontact(self):
        c = chart(("z", 0, 0), ("p", 0, 1), ("q", 0, -1), ("u", 0, 0))
        rep = characteristic_class(parse_expr("d(z) + p*d(q)", c))
        assert rep.class_ == 3 and rep.kind == "precontact"

    def test_rel_tol_governs_rank(self):
        # the 1e-6 pair sits above the default tolerance and below 1e-3
        c = chart("q", "p", "u", "v", "z")
        alpha = parse_expr("d(z) + q*d(p) + 0.000001*exp(u)*d(v)", c)
        rep = characteristic_class(alpha)
        assert rep.class_ == 5 and rep.kind == "contact"
        rep = characteristic_class(alpha, policy=EqualityPolicy(rel_tol=1e-3))
        assert rep.class_ == 3 and rep.kind == "precontact"

    def test_vanishing_sample_reported(self):
        c = chart(("q", 0, 0), ("p", 0, 0))
        with pytest.raises(PfaffianError):
            characteristic_class(parse_expr("p*d(q)", c),
                                 points=[{"q": 0.5, "p": 0.0}])

    def test_mixed_parity_rejected(self):
        c = chart(("x", 0, 0), ("t", 1, 0))
        bad = parse_expr("d(x) + t*d(x)", c)
        with pytest.raises(PfaffianError):
            characteristic_class(bad)

    def test_contraction_rows_derived_once(self, cyl_alpha, monkeypatch):
        calls = []

        def counting_interior(X, w):
            calls.append(X)
            return interior(X, w)

        monkeypatch.setattr(pfaffian, "interior", counting_interior)
        counts = []
        for n_points in (4, 16):
            calls.clear()
            characteristic_class(cyl_alpha,
                                 policy=EqualityPolicy(n_points=n_points))
            counts.append(len(calls))
        assert counts[0] == counts[1] > 0


class TestPresymplectic:
    def test_constant_corank_one(self):
        c = chart(("q", 0, 0), ("p", 0, 0), ("z", 0, 0))
        rep = presymplectic_check(parse_expr("d(p)*d(q)", c))
        assert rep.rank == 2 and rep.constant_rank
        kernel = rep.kernel[:, 0]
        assert np.allclose(np.abs(kernel), [0, 0, 1])

    def test_rank_drop_witnessed(self):
        c = chart(("p", 0, 0), ("q", 0, 0))
        rep = presymplectic_check(parse_expr("p*d(p)*d(q)", c),
                                  points=[{"p": 0.5, "q": 0.5},
                                          {"p": 0.0, "q": 0.5}])
        assert not rep.constant_rank
        ranks = {e["rank"] for e in rep.evidence}
        assert ranks == {0, 2}

    def test_odd_rank(self):
        c = chart(("t", 1, 0))
        rep = presymplectic_check(parse_expr("d(t)*d(t)", c))
        assert rep.rank == 1 and rep.odd_rank == 1

    def test_not_closed_rejected(self):
        c = chart(("p", 0, 0), ("q", 0, 0), ("z", 0, 0))
        with pytest.raises(NotClosedError):
            presymplectic_check(parse_expr("z*d(p)*d(q)", c))

    def test_even_rank_split(self):
        c = chart(("q", 0, 0), ("p", 0, 0), ("t1", 1, 0))
        rep = presymplectic_check(parse_expr("d(p)*d(q) + d(t1)*d(t1)", c))
        assert rep.even_rank == 2 and rep.odd_rank == 1 and rep.rank == 3

    def test_block_ranks_exact_like_the_total(self):
        # a pair 10^10 times weaker than the other: exact data keep it
        c = chart(("p", 0, 0), ("q", 0, 0), ("u", 0, 0), ("v", 0, 0))
        rep = presymplectic_check(
            parse_expr("d(p)*d(q) + 1/10000000000*d(u)*d(v)", c))
        assert rep.rank == rep.even_rank == 4 and rep.odd_rank == 0

    def test_kernel_exact_like_the_rank(self):
        # the weak pair keeps the kernel empty, as it keeps the rank 4
        c = chart(("p", 0, 0), ("q", 0, 0), ("u", 0, 0), ("v", 0, 0))
        rep = presymplectic_check(
            parse_expr("d(p)*d(q) + 1/10000000000*d(u)*d(v)", c))
        assert rep.kernel.shape == (4, 4 - rep.rank)
        # one vector per free column of the reduced echelon form
        c = chart(("p", 0, 0), ("q", 0, 0), ("u", 0, 0))
        rep = presymplectic_check(parse_expr("d(p)*d(q) + d(p)*d(u)", c))
        assert rep.rank == 2
        assert rep.kernel.tolist() == [[0.0], [-1.0], [1.0]]


class TestReeb:
    def test_canonical(self):
        c = chart(("z", 0, 0), ("p", 0, 1), ("q", 0, -1))
        R = reeb(parse_expr("d(z) + p*d(q)", c))
        assert R.coefficient("z") == one(c)
        assert R.coefficient("p").is_zero()

    def test_cylinder(self, cyl, cyl_alpha):
        R = reeb(cyl_alpha)
        assert R.coefficient("z") == one(cyl)
        assert equal(interior(R, cyl_alpha), one(cyl))
        assert equal(interior(R, exterior_d(cyl_alpha)), zero(cyl))

    def test_eta_randomized(self):
        c = chart(("x", 0, 1), ("y", 0, -1), ("z", 0, 0), default_box=(-0.6, 0.6))
        eta = parse_expr(
            "y*(1 + sin(z) + cos(x*y)*(1+sin(z)) - sin(x*y)*(exp(z)"
            " + x*y*(1+sin(z))))*d(x) - x*sin(x*y)*(x*y*(sin(z)+1)"
            " + exp(z))*d(y) + exp(z)*cos(x*y)*d(z)", c)
        R = reeb(eta)
        assert equal(interior(R, eta), one(c))
        assert equal(interior(R, exterior_d(eta)), zero(c))

    def test_reeb_homogeneity(self):
        # degree of the Reeb field is minus the degree of the form
        c = chart(("U", 0, 1), ("q1", 0, 1), ("p1", 0, 0))
        gibbs = parse_expr("d(U) - p1*d(q1)", c)
        nab = weight_field_of_chart(c)
        assert degree_of(gibbs, nab).degree.weight == 1
        dr = degree_of(reeb(gibbs), nab)
        assert dr.homogeneous and dr.degree.weight == -1

    def test_non_contact_rejected(self):
        c = chart(("q", 0, 0), ("p", 0, 0), default_box=(0.2, 0.9))
        with pytest.raises(PfaffianError):
            reeb(parse_expr("p*d(q)", c))


class TestLiouville:
    def test_momentum_field(self):
        c = chart(("q", 0, 0), ("p", 0, 0))
        X = liouville(parse_expr("d(p)*d(q)", c), parse_expr("p*d(q)", c))
        assert X.coefficient("p") == coord(c, "p")
        assert X.coefficient("q").is_zero()

    def test_symmetric_potential(self):
        c = chart(("q", 0, 0), ("p", 0, 0))
        alpha = parse_expr("p*d(q)/2 - q*d(p)/2", c)
        X = liouville(parse_expr("d(p)*d(q)", c), alpha)
        assert X.coefficient("q") == parse_expr("q/2", c)
        assert X.coefficient("p") == parse_expr("p/2", c)

    def test_commutes_with_ambient_weight_field(self):
        c = chart(("q", 0, 1), ("p", 0, -1))
        nab = weight_field_of_chart(c).field
        X = liouville(parse_expr("d(p)*d(q)", c), parse_expr("p*d(q)", c))
        br = lie_bracket(nab, X)
        assert all(co.is_zero() for co in br.coefficients)

    def test_degenerate_rejected(self):
        c = chart(("q", 0, 0), ("p", 0, 0), ("z", 0, 0))
        with pytest.raises(PfaffianError):
            liouville(parse_expr("d(p)*d(q)", c), parse_expr("p*d(q)", c))

    def test_wrong_potential_rejected(self):
        c = chart(("q", 0, 0), ("p", 0, 0))
        with pytest.raises(PfaffianError):
            liouville(parse_expr("d(p)*d(q)", c), parse_expr("q*d(q)", c))


class TestOracle:
    def test_cylinder(self, cyl_alpha):
        assert darboux_class_oracle(cyl_alpha,
                                    {"z": 0.1, "p": 0.2, "q": 0.3}) == 3

    def test_closed(self, cyl):
        assert darboux_class_oracle(parse_expr("d(z)", cyl),
                                    {"z": 0, "p": 0, "q": 0}) == 1

    def test_even_class(self):
        c = chart(("q", 0, 0), ("p", 0, 0))
        assert darboux_class_oracle(parse_expr("p*d(q)", c),
                                    {"q": 0.5, "p": 0.5}) == 2

    def test_super_chart_rejected(self):
        c = chart(("x", 0, 0), ("t", 1, 0))
        with pytest.raises(PfaffianError):
            darboux_class_oracle(parse_expr("d(x)", c), {"x": 0.1})


class TestCharacteristicInvariance:
    def test_flat_kernel_generators(self):
        # chi(alpha) for alpha = dz + u dv + v du + p dq is spanned by
        # X = d/du - v d/dz and Y = d/dv - u d/dz
        c = chart(("z", 0, 0), ("p", 0, 0), ("q", 0, 0), ("u", 0, 0),
                  ("v", 0, 0))
        alpha = parse_expr("d(z) + u*d(v) + v*d(u) + p*d(q)", c)
        X = vector_field(c, {"u": "1", "z": "-v"})
        Y = vector_field(c, {"v": "1", "z": "-u"})
        da = exterior_d(alpha)
        for F in (X, Y):
            assert interior(F, alpha).is_zero()
            assert interior(F, da).is_zero()
        br = lie_bracket(X, Y)
        assert interior(br, alpha).is_zero() if not br.is_zero() else True
        for F in (X, Y):
            assert lie_derivative(F, alpha).is_zero()

    def test_simple_kernel(self):
        c = chart(("z", 0, 0), ("p", 0, 1), ("q", 0, -1), ("u", 0, 0),
                  ("v", 0, 0))
        alpha = parse_expr("d(z) + p*d(q)", c)
        X, Y = basis_field(c, "u"), basis_field(c, "v")
        da = exterior_d(alpha)
        for F in (X, Y):
            assert interior(F, alpha).is_zero()
            assert interior(F, da).is_zero()
            assert lie_derivative(F, alpha).is_zero()
        assert lie_bracket(X, Y).is_zero()


class TestWeightMembership:
    def test_nonvanishing_form_weight_in_gamma(self):
        # a homogeneous one-form that does not vanish at the origin (a zero
        # of the weight field) must have a coordinate weight as its weight
        rng = random.Random(15)
        for _ in range(40):
            weights = [rng.choice([-2, -1, 0, 1, 2]) for _ in range(3)]
            c = chart(*[(f"x{i}", 0, w) for i, w in enumerate(weights)])
            i = rng.randrange(3)
            alpha = diff(c, f"x{i}")
            # pad with a second homogeneous term of the matching weight
            for j in range(3):
                for k in range(3):
                    if weights[j] + weights[k] == weights[i]:
                        alpha = alpha + gmul(coord(c, f"x{j}"),
                                             diff(c, f"x{k}"))
                        break
                else:
                    continue
                break
            rep = degree_of(alpha, weight_field_of_chart(c))
            assert rep.homogeneous
            assert rep.degree.weight in weights
