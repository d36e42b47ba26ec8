"""Differential operators: d, contraction, Lie operations, pullback."""

import random

import pytest

from graded_darboux import chart, coord, diff, equal, gmul, one, parse_expr, zero
from graded_darboux.cartan import (ChartMap, VectorField, basis_field,
                                   exterior_d, interior, lie_bracket,
                                   lie_derivative, pullback, pushforward_vf,
                                   vector_field)
from graded_darboux import cartan
from graded_darboux.grexpr import expr
from graded_darboux.grexpr.chart import ChartError, EVEN, ODD
from helpers import (apply_oracle, leibniz_walk_oracle, random_atomic_field,
                     random_atomic_monomial, random_chart, random_expr,
                     random_field)


@pytest.fixture
def cyl():
    return chart(("z", 0, 0), ("p", 0, 1), ("q", 0, -1))


class TestExteriorD:
    def test_function(self, cyl):
        assert exterior_d(parse_expr("p^2", cyl)) == parse_expr("2*p*d(p)", cyl)

    def test_one_form(self, cyl):
        assert exterior_d(parse_expr("p*d(q)", cyl)) == parse_expr("d(p)*d(q)", cyl)

    def test_cylinder_differential(self, cyl):
        alpha = parse_expr("d(z) - p*(2+sin(p*q))*d(q)", cyl)
        expected = parse_expr("-(2 + sin(p*q) + p*q*cos(p*q))*d(p)*d(q)", cyl)
        assert equal(exterior_d(alpha), expected).mode == "exact"
        assert exterior_d(alpha) == expected

    def test_dd_zero_random(self):
        rng = random.Random(42)
        for _ in range(150):
            c = random_chart(rng)
            w = random_expr(c, rng, n_terms=2, form_degree=rng.randint(0, 2))
            assert exterior_d(exterior_d(w)).is_zero()

    def test_graded_leibniz_random(self):
        rng = random.Random(43)
        for _ in range(150):
            c = random_chart(rng)
            a = random_expr(c, rng, n_terms=2, form_degree=rng.randint(0, 2))
            b = random_expr(c, rng, n_terms=2, form_degree=rng.randint(0, 2))
            pa = a.form_degree()
            if pa is None:
                continue
            lhs = exterior_d(gmul(a, b))
            rhs = gmul(exterior_d(a), b) + gmul(a, exterior_d(b)) * ((-1) ** pa)
            assert lhs == rhs


class TestInterior:
    def test_unit_pairing(self, cyl):
        a = parse_expr("d(z) + p*d(q)", cyl)
        assert interior(basis_field(cyl, "z"), a) == one(cyl)

    def test_sign_from_passing(self, cyl):
        w = parse_expr("d(p)*d(q)", cyl)
        assert interior(basis_field(cyl, "q"), w) == -diff(cyl, "p")

    def test_zero_form_error(self, cyl):
        with pytest.raises(ValueError):
            interior(basis_field(cyl, "z"), one(cyl))
        assert interior(basis_field(cyl, "z"), zero(cyl)).is_zero()

    def test_odd_differential_power(self):
        c = chart(("t", 1, 0))
        w = parse_expr("d(t)*d(t)", c)
        assert interior(basis_field(c, "t"), w) == diff(c, "t") * 2

    def test_left_linearity_in_the_field(self):
        c = chart(("x", 0, 0), ("t", 1, 0))
        w = parse_expr("x*d(x)*d(t)", c)
        f = parse_expr("x^2", c)
        X = basis_field(c, "t")
        fX = VectorField(c, X.parity, tuple(gmul(f, co) for co in X.coefficients))
        assert interior(fX, w) == gmul(f, interior(X, w))


class TestLie:
    def test_euler_on_coordinate(self):
        c = chart(("x", 0, 1))
        X = vector_field(c, {"x": "x"})
        assert lie_derivative(X, coord(c, "x")) == coord(c, "x")

    def test_momentum_weight_one(self):
        c = chart(("q", 0, -1), ("p", 0, 1))
        X = vector_field(c, {"p": "p"})
        a = parse_expr("p*d(q)", c)
        assert lie_derivative(X, a) == a

    def test_weight_zero_product(self):
        c = chart(("x", 0, 1), ("y", 0, -1))
        nab = vector_field(c, {"x": "x", "y": "-y"})
        assert lie_derivative(nab, parse_expr("x*y", c)).is_zero()

    def test_brackets(self):
        c = chart(("x", 0, 0), ("y", 0, 0))
        assert lie_bracket(basis_field(c, "x"), basis_field(c, "y")).is_zero()
        b = lie_bracket(vector_field(c, {"x": "x"}), basis_field(c, "x"))
        assert b.coefficient("x") == -one(c)

    def test_cartan_magic_random(self):
        rng = random.Random(44)
        for _ in range(120):
            c = random_chart(rng, max_even=3, max_odd=2)
            X = random_field(c, rng, parity=rng.choice([EVEN, ODD]))
            w = random_expr(c, rng, n_terms=2, form_degree=rng.randint(1, 2))
            lhs = lie_derivative(X, w)
            rhs = interior(X, exterior_d(w)) + exterior_d(interior(X, w))
            assert lhs == rhs

    def test_lie_commutes_with_d_random(self):
        rng = random.Random(45)
        for _ in range(100):
            c = random_chart(rng, max_even=3, max_odd=2)
            X = random_field(c, rng, parity=rng.choice([EVEN, ODD]))
            w = random_expr(c, rng, n_terms=2, form_degree=rng.randint(0, 2))
            assert lie_derivative(X, exterior_d(w)) == \
                exterior_d(lie_derivative(X, w))

    def test_commutator_with_interior_random(self):
        # [L_X, i_Y] = i_[X,Y] as graded operators
        rng = random.Random(46)
        for _ in range(120):
            c = random_chart(rng, max_even=3, max_odd=2)
            X = random_field(c, rng, parity=rng.choice([EVEN, ODD]))
            Y = random_field(c, rng, parity=rng.choice([EVEN, ODD]))
            w = random_expr(c, rng, n_terms=2, form_degree=rng.randint(1, 2))
            sign = (-1) ** (X.parity * Y.parity)
            lhs = lie_derivative(X, interior(Y, w)) - \
                interior(Y, lie_derivative(X, w)) * sign
            rhs = interior(lie_bracket(X, Y), w)
            assert lhs == rhs

    def test_graded_jacobi_random(self):
        rng = random.Random(47)
        for _ in range(80):
            c = random_chart(rng, max_even=3, max_odd=2)
            X = random_field(c, rng, parity=rng.choice([EVEN, ODD]))
            Y = random_field(c, rng, parity=rng.choice([EVEN, ODD]))
            Z = random_field(c, rng, parity=rng.choice([EVEN, ODD]))
            sign = (-1) ** (X.parity * Y.parity)
            lhs = lie_bracket(X, lie_bracket(Y, Z))
            rhs = lie_bracket(lie_bracket(X, Y), Z)
            corr = lie_bracket(Y, lie_bracket(X, Z))
            for a, b, cc in zip(lhs.coefficients, rhs.coefficients,
                                corr.coefficients):
                assert a == b + cc * sign

    def test_contraction_anticommutation_random(self):
        # i_X i_Y = -(-1)**(sX*sY) i_Y i_X on 2-forms
        rng = random.Random(51)
        done = 0
        while done < 150:
            c = random_chart(rng, max_even=3, max_odd=2)
            X = random_field(c, rng, parity=rng.choice([EVEN, ODD]))
            Y = random_field(c, rng, parity=rng.choice([EVEN, ODD]))
            w = random_expr(c, rng, n_terms=2, form_degree=2)
            if w.form_degree() != 2:
                continue
            done += 1
            iy, ix = interior(Y, w), interior(X, w)
            lhs = interior(X, iy) if not iy.is_zero() else zero(c)
            rhs = interior(Y, ix) if not ix.is_zero() else zero(c)
            assert lhs == rhs * (-((-1) ** (X.parity * Y.parity)))

    def test_lie_derivation_rule_random(self):
        rng = random.Random(52)
        from helpers import random_monomial
        for _ in range(150):
            c = random_chart(rng, max_even=3, max_odd=2)
            X = random_field(c, rng, parity=rng.choice([EVEN, ODD]))
            a = random_monomial(c, rng, form_degree=rng.randint(0, 1))
            b = random_expr(c, rng, n_terms=2, form_degree=rng.randint(0, 1))
            lhs = lie_derivative(X, gmul(a, b))
            rhs = gmul(lie_derivative(X, a), b) + \
                gmul(a, lie_derivative(X, b)) * ((-1) ** (X.parity * a.parity()))
            assert lhs == rhs

    def test_odd_self_bracket(self):
        c = chart(("x", 0, 0), ("t", 1, 0))
        Q = vector_field(c, {"x": "t", "t": "x"}, parity=ODD)
        sq = lie_bracket(Q, Q)
        half = lie_derivative(Q, lie_derivative(Q, coord(c, "x"))) * 2
        assert lie_derivative(sq, coord(c, "x")) == half


class TestChartMaps:
    def test_pullback_theta(self):
        w = chart(("x", 0, 1), ("y", 0, -1))
        t = chart(("q", 0, 1), ("p", 0, -1))
        phi = ChartMap(w, t, {"q": parse_expr("x*(1+sinh(x*y))", w),
                              "p": parse_expr("y*(1+cosh(x*y))", w)})
        theta = pullback(phi, parse_expr("p*d(q)", t))
        displayed = parse_expr(
            "y*(cosh(x*y)+1)*(sinh(x*y)+x*y*cosh(x*y)+1)*d(x)"
            " + x^2*y*cosh(x*y)*(cosh(x*y)+1)*d(y)", w)
        assert theta == displayed

    def test_pullback_composition(self):
        rng = random.Random(53)
        a = chart(("a", 0, 1), ("b", 0, 1), ("s", 1, 1))
        b = chart(("u", 0, 1), ("v", 0, 1), ("t", 1, 1))
        cc = chart(("m", 0, 1), ("n", 0, 1), ("r", 1, 1))
        psi = ChartMap(a, b, {"u": parse_expr("a+b^2", a),
                              "v": parse_expr("a*b", a),
                              "t": parse_expr("s+a*s", a)})
        phi = ChartMap(b, cc, {"m": parse_expr("u*v", b),
                               "n": parse_expr("v", b),
                               "r": parse_expr("u*t", b)})
        comp = ChartMap(a, cc, {n: pullback(psi, img)
                                for n, img in phi.images.items()})
        for _ in range(40):
            w = random_expr(cc, rng, n_terms=2, form_degree=rng.randint(0, 2))
            assert pullback(comp, w) == pullback(psi, pullback(phi, w))

    def test_pullback_identity(self, cyl):
        phi = ChartMap.identity(cyl)
        a = parse_expr("d(z) + p*d(q)", cyl)
        assert pullback(phi, a) == a

    def test_pullback_commutes_with_d_random(self):
        rng = random.Random(48)
        src = chart(("x", 0, 1), ("y", 0, 1), ("t", 1, 1))
        tgt = chart(("u", 0, 1), ("v", 0, 1), ("s", 1, 1))
        phi = ChartMap(src, tgt, {
            "u": parse_expr("x + y^2", src),
            "v": parse_expr("x*y", src),
            "s": parse_expr("t + x*t", src),
        })
        for _ in range(60):
            w = random_expr(tgt, rng, n_terms=2, form_degree=rng.randint(0, 2))
            assert pullback(phi, exterior_d(w)) == exterior_d(pullback(phi, w))

    def test_pushforward_linear(self):
        a = chart(("x", 0, 1))
        b = chart(("u", 0, 1))
        m = ChartMap(a, b, {"u": parse_expr("2*x", a)},
                     {"x": parse_expr("u/2", b)})
        pf = pushforward_vf(m, basis_field(a, "x"))
        assert pf.coefficient("u") == one(b) * 2

    def test_pushforward_identity(self, cyl):
        phi = ChartMap.identity(cyl)
        X = vector_field(cyl, {"p": "p", "q": "-q"})
        pf = pushforward_vf(phi, X)
        assert all(x == y for x, y in zip(pf.coefficients, X.coefficients))

    def test_pushforward_duality_spot_check(self):
        # pullback(phi, i_{phi_* X} w) == i_X pullback(phi, w)
        src = chart(("x", 0, 1), ("y", 0, 1), default_box=(0.2, 0.8))
        tgt = chart(("u", 0, 1), ("v", 0, 1), default_box=(0.2, 0.8))
        phi = ChartMap(src, tgt,
                       {"u": parse_expr("x + y", src), "v": parse_expr("y", src)},
                       {"x": parse_expr("u - v", tgt), "y": parse_expr("v", tgt)})
        X = vector_field(src, {"x": "x", "y": "x*y"})
        pf = pushforward_vf(phi, X)
        rng = random.Random(49)
        for _ in range(20):
            w = random_expr(tgt, rng, n_terms=2, form_degree=1)
            assert pullback(phi, interior(pf, w)) == interior(X, pullback(phi, w))

    def test_pushforward_numeric_duality_without_inverse(self):
        # the sinh/cosh map has no inverse in the function class, so the
        # pushforward of x d/dx is only checked numerically: the jacobian
        # image of X must contract target forms the same way X contracts
        # their pullbacks
        import numpy as np
        from graded_darboux import eval_numeric
        from graded_darboux.grexpr.expr import partial as dpartial
        src = chart(("x", 0, 1), ("y", 0, -1))
        tgt = chart(("q", 0, 1), ("p", 0, -1))
        phi = ChartMap(src, tgt, {"q": parse_expr("x*(1+sinh(x*y))", src),
                                  "p": parse_expr("y*(1+cosh(x*y))", src)})
        X = vector_field(src, {"x": "x"})
        rng = random.Random(50)
        for _ in range(10):
            pt = {"x": rng.uniform(0.2, 0.8), "y": rng.uniform(0.2, 0.8)}
            tp = {n: eval_numeric(phi.images[n], pt).body for n in tgt.names}
            J = np.array([[eval_numeric(dpartial(phi.images[n], m), pt).body
                           for m in src.names] for n in tgt.names])
            Xv = np.array([eval_numeric(c, pt).body for c in X.coefficients])
            Yv = J @ Xv
            w = random_expr(tgt, rng, n_terms=2, form_degree=1)
            lhs = sum(Yv[b] * eval_numeric(w.coefficient_of_diff(n), tp).body
                      for b, n in enumerate(tgt.names))
            pw = pullback(phi, w)
            rhs = eval_numeric(interior(X, pw), pt).body
            assert abs(lhs - rhs) < 1e-9 * max(1.0, abs(lhs), abs(rhs))

    def test_missing_inverse_rejected(self):
        a = chart(("x", 0, 1))
        b = chart(("u", 0, 1))
        m = ChartMap(a, b, {"u": parse_expr("2*x", a)})
        with pytest.raises(ChartError):
            pushforward_vf(m, basis_field(a, "x"))

    def test_bad_inverse_rejected(self):
        a = chart(("x", 0, 1))
        b = chart(("u", 0, 1))
        with pytest.raises(ChartError):
            ChartMap(a, b, {"u": parse_expr("2*x", a)},
                     {"x": parse_expr("u", b)})


class TestLeibnizOracle:
    """The cofactor-slicing Leibniz walk against the literal factor-by-factor
    rule, on atoms of power >= 2, odd differentials of power >= 2 and float
    coefficients."""

    @staticmethod
    def _cases():
        rng = random.Random(4242)
        for i in range(60):
            c = random_chart(rng, max_even=3, max_odd=3)
            floats = i % 2 == 1
            fdeg = rng.randint(1, 3)
            w = zero(c)
            for _ in range(2):
                w = w + random_atomic_monomial(c, rng, floats, fdeg)
            f = random_atomic_monomial(c, rng, floats) + \
                random_atomic_monomial(c, rng, floats)
            parity = rng.randint(0, 1)
            yield c, w, f, random_atomic_field(c, rng, parity, floats)

    @staticmethod
    def _outputs(cases):
        out = []
        for c, w, f, X in cases:
            out.append(exterior_d(w))
            out.append(exterior_d(f))
            out.append(interior(X, w))
            out.append(lie_derivative(X, w))
            out.append(lie_derivative(X, f))
            out.extend(expr.partial(f, name) for name in c.names)
            out.extend(expr.partial(w, name) for name in c.names)
        return out

    @staticmethod
    def _insertions(e, tag, payload, img):
        """For each image term t of the factor in each monomial of e that
        holds it: whether t carries an atom of the cofactor's atoms, and
        whether t is odd with odd generators of the cofactor on both
        sides."""
        c, n = e.chart, e.chart.dim
        for m in e.terms:
            sw = m.masks(c)[3]
            if tag == "atom":
                key = payload.full_key()
                if key not in [a.full_key() for a in m.atoms]:
                    continue
                atoms = [a for a in m.atoms if a.full_key() != key]
                left, right = 0, sw
            else:
                i, k = payload
                if (m.cexp if tag == "coord" else m.dexp)[i] != k:
                    continue
                atoms = m.atoms
                bit = i if tag == "coord" else n + i
                left, right = sw & ((1 << bit) - 1), sw >> (bit + 1)
            keys = {a.merge_key() for a in atoms}
            for t in img.terms:
                yield (any(a.merge_key() in keys for a in t.atoms),
                       t.parity(c) == ODD and bool(left) and bool(right))

    def test_walk_matches_oracle(self, monkeypatch):
        cases = list(self._cases())
        seen = []
        walk = expr.leibniz_walk

        def recorded(e, op_p, op_s, image):
            def traced(tag, payload):
                img = image(tag, payload)
                if img is not None:
                    seen.extend(self._insertions(e, tag, payload, img))
                return img
            return walk(e, op_p, op_s, traced)

        monkeypatch.setattr(expr, "leibniz_walk", recorded)
        monkeypatch.setattr(cartan, "leibniz_walk", recorded)
        got = self._outputs(cases)
        monkeypatch.setattr(expr, "leibniz_walk", leibniz_walk_oracle)
        monkeypatch.setattr(cartan, "leibniz_walk", leibniz_walk_oracle)
        want = self._outputs(cases)
        assert got == want
        # the inputs do exercise what the identity suites never draw
        ws = [w for _, w, _, _ in cases]
        assert any(isinstance(m.coeff, float) for w in ws for m in w.terms)
        assert any(a.power >= 2 for w in ws for m in w.terms for a in m.atoms)
        assert any(k >= 2 and c.parity(i) == ODD for c, w, _, _ in cases
                   for m in w.terms for i, k in enumerate(m.dexp))
        assert sum(not e.is_zero() for e in got) > len(got) // 2
        # an image atom merges into the cofactor's atoms, and an odd image
        # term lands between odd generators of the cofactor
        assert any(merges for merges, _ in seen)
        assert any(between for _, between in seen)


class TestDerivationWalk:
    """L_X and X(f) come from one derivation walk; these check it against
    the Cartan calculus and the coordinate formula on exact atomic forms
    (atoms with powers, repeated odd differentials), with odd and even X."""

    @staticmethod
    def _cases(seed, n):
        rng = random.Random(seed)
        for _ in range(n):
            c = random_chart(rng, max_even=3, max_odd=2)
            w = random_atomic_monomial(c, rng, form_degree=rng.randint(1, 2))
            X = random_atomic_field(c, rng, rng.randint(0, 1))
            yield c, w, X, rng

    def test_cartan_formula(self):
        for c, w, X, _ in self._cases(61, 60):
            assert lie_derivative(X, w) == \
                interior(X, exterior_d(w)) + exterior_d(interior(X, w))

    def test_commutes_with_d(self):
        for c, w, X, rng in self._cases(62, 50):
            f = random_atomic_monomial(c, rng)
            for e in (w, f):
                assert lie_derivative(X, exterior_d(e)) == \
                    exterior_d(lie_derivative(X, e))

    def test_commutator_with_interior(self):
        for c, w, X, rng in self._cases(63, 40):
            Y = random_atomic_field(c, rng, rng.randint(0, 1))
            sign = (-1) ** (X.parity * Y.parity)
            lhs = lie_derivative(X, interior(Y, w)) - \
                interior(Y, lie_derivative(X, w)) * sign
            assert lhs == interior(lie_bracket(X, Y), w)

    def test_function_against_partials(self):
        seen = 0
        for c, _, X, rng in self._cases(64, 80):
            f = random_atomic_monomial(c, rng) + random_atomic_monomial(c, rng)
            got = lie_derivative(X, f)
            assert got == apply_oracle(X, f)
            seen += not got.is_zero()
        assert seen > 40

    def test_inputs_reach_atom_powers_and_odd_differential_powers(self):
        cases = list(self._cases(61, 40))
        assert any(a.power >= 2 for _, w, _, _ in cases
                   for m in w.terms for a in m.atoms)
        assert any(k >= 2 and c.parity(i) == ODD for c, w, _, _ in cases
                   for m in w.terms for i, k in enumerate(m.dexp))
        assert {X.parity for _, _, X, _ in cases} == {EVEN, ODD}

    def test_across_charts(self):
        a = chart(("x", 0, 1))
        b = chart(("u", 0, 1))
        X = basis_field(a, "x")
        for T in (coord(b, "u"), diff(b, "u"), parse_expr("u*d(u)", b)):
            with pytest.raises(ChartError):
                lie_derivative(X, T)


class TestWalkImages:
    """The walk asks ``image`` once per distinct factor and builds each
    term in one product."""

    @pytest.mark.parametrize("op", ["d", "i_X", "L_X"])
    def test_image_asked_once_per_distinct_factor(self, monkeypatch, op):
        # x^2, y, d(y) and sin(x) each sit in two terms; with d(x), five
        # distinct factors in nine places
        c = chart(("x", 0, 0), ("y", 0, 0), ("a", 1, 0))
        w = parse_expr("x^2*d(y) + sin(x)*x^2*y*d(y) + sin(x)*y*d(x)", c)
        X = vector_field(c, {"x": "y", "y": "sin(x)", "a": "a*x"})
        apply = {"d": exterior_d, "i_X": lambda e: interior(X, e),
                 "L_X": lambda e: lie_derivative(X, e)}[op]
        asked = []
        walk = expr.leibniz_walk

        def counted(e, op_p, op_s, image):
            calls = []
            asked.append(calls)

            def counting(tag, payload):
                calls.append((tag, payload.full_key() if tag == "atom"
                              else payload))
                return image(tag, payload)
            return walk(e, op_p, op_s, counting)

        for module in (expr, cartan):
            monkeypatch.setattr(module, "leibniz_walk", counted)
        got = apply(w)
        assert len(asked[0]) == len(set(asked[0])) == 5
        for module in (expr, cartan):
            monkeypatch.setattr(module, "leibniz_walk", leibniz_walk_oracle)
        assert got == apply(w)

    @pytest.mark.parametrize("k", [2, 3, 4, 5])
    def test_differential_of_a_power_is_one_monomial(self, k):
        c = chart(("x", 0, 1), ("a", 1, 0))
        x = coord(c, "x")
        want = gmul(gmul(one(c) * k, x ** (k - 1)), diff(c, "x"))
        got = exterior_d(x ** k)
        assert got.key() == want.key()
        assert type(got.terms[0].coeff) is int
        # d has bidegree (1, 0), so it crosses the odd 0-form a unsigned
        a = coord(c, "a")
        assert exterior_d(a * x ** k) == \
            gmul(diff(c, "a"), x ** k) + gmul(a, want)


class TestMemo:
    """A memo shares derivations within its scope and changes no result."""

    def test_memoized_operators_agree_with_unmemoized(self):
        """One memo across 500 forms on random charts; the charts reuse
        coordinate names, so equal expression keys meet on different
        charts, and the second call of each pair reads the memo."""
        rng = random.Random(151)
        memo = cartan.Memo()
        super_charts = 0
        for i in range(500):
            c = random_chart(rng, max_even=3, max_odd=0 if i % 2 else 2)
            super_charts += not c.is_purely_even()
            w = random_atomic_monomial(c, rng, floats=i % 3 == 0,
                                       form_degree=rng.randint(0, 2))
            X = random_atomic_field(c, rng, rng.randint(0, 1))
            want_d, want_l = exterior_d(w).key(), lie_derivative(X, w).key()
            for _ in range(2):
                assert exterior_d(w, memo=memo).key() == want_d
                assert lie_derivative(X, w, memo=memo).key() == want_l
        assert super_charts > 150

    def test_repeated_atom_argument_derived_once(self, monkeypatch):
        c = chart(("x", 0, 0), ("y", 0, 0), ("z", 0, 0))
        walked = []
        walk = expr.leibniz_walk
        monkeypatch.setattr(cartan, "leibniz_walk",
                            lambda e, *a: walked.append(str(e)) or walk(e, *a))
        w = parse_expr("sin(x*y)*cos(x*y)*d(z)", c)
        got = exterior_d(w)
        assert walked == [str(w), "x*y"]
        assert equal(got, parse_expr(
            "(cos(x*y)^2 - sin(x*y)^2)*(y*d(x) + x*d(y))*d(z)", c))

    def test_repeated_atom_argument_walked_once_by_lie_derivative(
            self, monkeypatch):
        """L_X walks x*y once for sin(x*y) and cos(x*y), memo or not; with
        X = x d/dx - y d/dy it is 0 on x*y, so L_X of the form is 0."""
        c = chart(("x", 0, 0), ("y", 0, 0), ("z", 0, 0))
        walked = []
        walk = expr.leibniz_walk

        def counted(e, *args):
            walked.append(str(e))
            return walk(e, *args)

        monkeypatch.setattr(expr, "leibniz_walk", counted)
        monkeypatch.setattr(cartan, "leibniz_walk", counted)
        X = vector_field(c, {"x": "x", "y": "-y"})
        w = parse_expr("sin(x*y)*cos(x*y)*d(z)", c)
        for memo in (None, cartan.Memo()):
            walked.clear()
            assert lie_derivative(X, w, memo=memo).is_zero()
            assert walked == [str(w), "x*y"]
