"""Core algebra: parsing, products, quotients, derivatives, substitution."""

import random
from fractions import Fraction

import pytest

from graded_darboux import (apply_func, canonicalize, chart, coord, diff,
                            equal, gdiv, gmul, one, parse_expr, partial,
                            substitute, zero, ParseError, ParityError)
from graded_darboux.cartan import exterior_d
from graded_darboux.grexpr.chart import ODD, ChartError
from graded_darboux.grexpr.expr import GradedExpr, Monomial, _mul_monomials
from helpers import (brute_force_reorder, random_atomic_monomial, random_chart,
                     random_monomial, word_to_expr)


@pytest.fixture
def cyl():
    return chart(("z", 0, 0), ("p", 0, 1), ("q", 0, -1))


@pytest.fixture
def sup():
    return chart(("x", 0, 1), ("y", 0, 1), ("xi", 1, 1), ("eta", 1, 1))


class TestParse:
    def test_cylinder_form(self, cyl):
        a = parse_expr("d(z) - p*(2+sin(p*q))*d(q)", cyl)
        assert a.form_degree() == 1
        assert len(a.terms) == 3

    def test_zero(self, cyl):
        assert parse_expr("0", cyl).is_zero()

    def test_odd_differential_square(self, sup):
        e = parse_expr("d(xi)*d(xi)", sup)
        assert not e.is_zero()
        assert e.form_degree() == 2

    def test_roundtrip(self, cyl):
        for text in ["d(z) - p*(2+sin(p*q))*d(q)", "1/2*p^2 - 3*q",
                     "p/(1+q^2)", "exp(p*q)*d(p)", "-z + 2/3"]:
            e = parse_expr(text, cyl)
            assert parse_expr(str(e), cyl) == e

    def test_rational_literals(self, cyl):
        assert parse_expr("3/4", cyl).constant_value() == Fraction(3, 4)
        assert parse_expr("2.5", cyl).constant_value() == Fraction(5, 2)
        assert parse_expr("1e-12", cyl).constant_value() == Fraction(1, 10 ** 12)

    def test_unknown_identifier(self, cyl):
        with pytest.raises(ParseError, match="unknown identifier"):
            parse_expr("p + w", cyl)

    def test_unknown_differential(self, cyl):
        with pytest.raises(ParseError, match="differential of unknown"):
            parse_expr("d(w)", cyl)

    def test_syntax_error_position(self, cyl):
        with pytest.raises(ParseError, match="position"):
            parse_expr("p + * q", cyl)

    def test_odd_transcendental_argument(self, sup):
        with pytest.raises(ParseError):
            parse_expr("sin(xi)", sup)

    def test_form_valued_transcendental_argument(self, cyl):
        with pytest.raises(ParseError):
            parse_expr("sin(d(p))", cyl)


class TestProduct:
    def test_even_differential_squares_to_zero(self, cyl):
        assert gmul(diff(cyl, "p"), diff(cyl, "p")).is_zero()

    def test_odd_differential_square_nonzero_and_symmetric(self, sup):
        d1 = diff(sup, "xi")
        assert gmul(d1, d1) == gmul(d1, d1)
        assert not gmul(d1, d1).is_zero()

    def test_wedge_antisymmetry_sign(self, cyl):
        a = gmul(coord(cyl, "p"), diff(cyl, "q"))
        b = diff(cyl, "p")
        assert gmul(a, b) == -gmul(b, a)

    def test_odd_coordinates_anticommute(self, sup):
        xi, eta = coord(sup, "xi"), coord(sup, "eta")
        assert (gmul(xi, eta) + gmul(eta, xi)).is_zero()
        assert gmul(xi, xi).is_zero()

    def test_mixed_chart_rejected(self, cyl, sup):
        with pytest.raises(Exception):
            gmul(coord(cyl, "p"), coord(sup, "x"))

    def test_sign_braiding_random(self):
        # gmul(a, b) == (-1)**(pa*pb + sa*sb) * gmul(b, a) on monomials
        rng = random.Random(11)
        for _ in range(300):
            c = random_chart(rng)
            a = random_monomial(c, rng, form_degree=rng.randint(0, 3))
            b = random_monomial(c, rng, form_degree=rng.randint(0, 3))
            pa, sa = a.form_degree(), a.parity()
            pb, sb = b.form_degree(), b.parity()
            sign = (-1) ** (pa * pb + sa * sb)
            assert gmul(a, b) == gmul(b, a) * sign

    def test_sign_oracle_all_pairs_2_2(self):
        # every ordered generator pair agrees with brute-force reordering
        c = chart(("x1", 0, 0), ("x2", 0, 0), ("t1", 1, 0), ("t2", 1, 0))
        gens = [(k, i) for k in ("c", "d") for i in range(4)]
        for g1 in gens:
            for g2 in gens:
                word = [g1, g2]
                got = word_to_expr(word, c)
                oracle = brute_force_reorder(word, c)
                if oracle is None:
                    assert got.is_zero()
                else:
                    sign, canon = oracle
                    assert got == word_to_expr(canon, c) * sign

    def test_sign_oracle_long_words(self):
        c = chart(("x1", 0, 0), ("x2", 0, 0), ("t1", 1, 0), ("t2", 1, 0))
        gens = [(k, i) for k in ("c", "d") for i in range(4)]
        rng = random.Random(607)
        for _ in range(800):
            word = [rng.choice(gens) for _ in range(rng.randint(4, 5))]
            got = word_to_expr(word, c)
            oracle = brute_force_reorder(word, c)
            if oracle is None:
                assert got.is_zero(), word
            else:
                sign, canon = oracle
                assert got == word_to_expr(canon, c) * sign, word

    def test_sign_oracle_split_products(self):
        # words of 4-8 generators, split in two and multiplied with gmul, so
        # both operands carry several generators; odd differentials repeat
        rng = random.Random(608)
        nonzero = 0
        for _ in range(600):
            c = random_chart(rng, max_even=4, max_odd=4)
            gens = [(k, i) for k in ("c", "d") for i in range(c.dim)]
            odd_d = [("d", i) for i in range(c.dim) if c.parity(i) == ODD]
            word = [rng.choice(gens) for _ in range(rng.randint(4, 8))]
            if odd_d and rng.random() < 0.6:
                g = rng.choice(odd_d)
                for _ in range(rng.randint(1, 2)):
                    if len(word) < 8:
                        word.insert(rng.randint(0, len(word)), g)
            cut = rng.randint(2, len(word) - 2)
            got = gmul(word_to_expr(word[:cut], c), word_to_expr(word[cut:], c))
            oracle = brute_force_reorder(word, c)
            if oracle is None:
                assert got.is_zero(), word
            else:
                sign, canon = oracle
                assert got == word_to_expr(canon, c) * sign, word
                nonzero += 1
        assert nonzero > 150

    def test_masks_follow_the_chart(self):
        # the same Monomial objects on two charts that differ only in the
        # parity of y: each chart's own square-zero and sign rules apply
        even = chart(("x", 0, 0), ("y", 0, 0), ("t", 1, 0))
        odd = chart(("x", 0, 0), ("y", 1, 0), ("t", 1, 0))
        one_ = Fraction(1)
        y = Monomial(one_, (), (0, 1, 0), (0, 0, 0))
        dy = Monomial(one_, (), (0, 0, 0), (0, 1, 0))
        xdx = Monomial(one_, (), (1, 0, 0), (1, 0, 0))
        yt = Monomial(one_, (), (0, 1, 1), (0, 0, 0))
        for c in (even, odd, even, odd):
            is_odd = c is odd
            assert (_mul_monomials(y, y, c) is None) == is_odd
            assert (_mul_monomials(dy, dy, c) is None) == (not is_odd)
            # d(y)*y = -y*d(y) when y is odd, +y*d(y) when even
            assert _mul_monomials(dy, y, c).coeff == (-1 if is_odd else 1)
            assert _mul_monomials(dy, xdx, c).coeff == -1
            assert y.parity(c) == dy.parity(c) == int(is_odd)
            assert GradedExpr(c, (yt,)).parity() == int(not is_odd)
            # y*t is a nilpotent divisor only where y is odd
            err = ZeroDivisionError if is_odd else ParityError
            with pytest.raises(err):
                gdiv(one(c), GradedExpr(c, (yt,)))


class TestQuotient:
    def test_log_contact_leading_term(self, cyl):
        e = gdiv(diff(cyl, "z"), coord(cyl, "z"))
        assert str(e) == "d(z)/(z)"

    def test_identity_divisor(self, cyl):
        p = coord(cyl, "p")
        assert gdiv(p, one(cyl)) == p

    def test_monomial_cancellation(self):
        c = chart(("x", 0, 1), ("y", 0, 1))
        num = parse_expr("x^2*y", c)
        den = parse_expr("x*y", c)
        q = gdiv(num, den)
        assert q == coord(c, "x")
        assert equal(q, coord(c, "x"))

    def test_partial_cancellation(self):
        c = chart(("x", 0, 1),)
        x = coord(c, "x")
        assert gmul(x, gdiv(one(c), x ** 2)) == gdiv(one(c), x)
        assert gdiv(one(c), gdiv(one(c), x)) == x

    def test_odd_denominator_rejected(self, sup):
        with pytest.raises(ParityError):
            gdiv(one(sup), coord(sup, "xi"))

    def test_nilpotent_denominator_rejected(self, sup):
        with pytest.raises(ZeroDivisionError):
            gdiv(one(sup), gmul(coord(sup, "xi"), coord(sup, "eta")))

    def test_form_denominator_rejected(self, cyl):
        with pytest.raises(ParityError):
            gdiv(one(cyl), diff(cyl, "p"))


class TestPartial:
    def test_polynomial(self):
        c = chart(("x", 0, 1), ("y", 0, 1))
        e = parse_expr("x^2*y", c)
        assert partial(e, "x") == parse_expr("2*x*y", c)

    def test_left_derivative_through_odd(self, sup):
        e = gmul(coord(sup, "xi"), coord(sup, "eta"))
        assert partial(e, "eta") == -coord(sup, "xi")
        assert partial(e, "xi") == coord(sup, "eta")

    def test_chain_rule(self):
        c = chart(("x", 0, 1), ("y", 0, 1))
        e = apply_func("sin", parse_expr("x*y", c))
        assert partial(e, "x") == parse_expr("y*cos(x*y)", c)

    def test_differentials_are_constants(self, cyl):
        e = parse_expr("p*d(q)", cyl)
        assert partial(e, "p") == diff(cyl, "q")
        assert partial(e, "q").is_zero()

    def test_graded_derivation_random(self):
        rng = random.Random(23)
        for _ in range(200):
            c = random_chart(rng)
            a = random_monomial(c, rng)
            b = random_monomial(c, rng)
            name = rng.choice(c.names)
            sx = c.parity(c.index(name))
            sa = a.parity()
            lhs = partial(gmul(a, b), name)
            rhs = gmul(partial(a, name), b) + \
                gmul(a, partial(b, name)) * ((-1) ** (sx * sa))
            assert lhs == rhs


class TestSubstitute:
    def test_renaming(self, cyl):
        e = parse_expr("p^2", cyl)
        out = substitute(e, {"p": coord(cyl, "q")})
        assert out == parse_expr("q^2", cyl)

    def test_nonlinear_even_image(self):
        c = chart(("x", 0, 1), ("y", 0, -1))
        img = parse_expr("x*(1+sinh(x*y))", c)
        out = substitute(coord(c, "x"), {"x": img})
        assert out == img

    def test_zero_stays_zero(self, cyl):
        assert substitute(zero(cyl), {"p": coord(cyl, "q")}).is_zero()

    def test_parity_mismatch_rejected(self, sup):
        with pytest.raises(ParityError):
            substitute(coord(sup, "x"), {"x": coord(sup, "xi")})

    def test_homomorphism(self):
        rng = random.Random(5)
        c = chart(("x", 0, 1), ("y", 0, 1), ("t", 1, 1))
        images = {"x": parse_expr("x + y^2", c), "y": parse_expr("2*y", c),
                  "t": parse_expr("t", c)}
        for _ in range(40):
            a = random_monomial(c, rng)
            b = random_monomial(c, rng)
            assert substitute(gmul(a, b), images) == \
                gmul(substitute(a, images), substitute(b, images))


    def test_homomorphism_on_atomic_forms_of_super_charts(self):
        """Atoms, differentials and odd coordinates: d(x) goes to d of the
        image of x, and a product goes to the product of the images."""
        rng = random.Random(14)
        nonzero = 0
        for _ in range(40):
            c = random_chart(rng, max_even=3, max_odd=2)
            images = {}
            for cd in c.coords:
                if rng.random() < 0.3:
                    continue
                m = random_monomial(c, rng, 2)
                if cd.parity == ODD:
                    images[cd.name] = m if m.parity() == ODD else zero(c)
                elif m.parity() == ODD:
                    images[cd.name] = coord(c, cd.name) + 1
                else:
                    # one monomial cannot cancel both x and 1, so every
                    # atom argument keeps a nonzero body
                    images[cd.name] = coord(c, cd.name) + 1 + m
            d_images = {name: exterior_d(img) for name, img in images.items()}
            a = random_atomic_monomial(c, rng, form_degree=rng.randint(0, 2))
            b = random_atomic_monomial(c, rng)
            lhs = substitute(gmul(a, b), images, d_images)
            rhs = gmul(substitute(a, images, d_images),
                       substitute(b, images, d_images))
            assert equal(lhs, rhs)
            assert equal(exterior_d(substitute(a, images, d_images)),
                         substitute(exterior_d(a), images, d_images))
            nonzero += not lhs.is_zero()
        assert nonzero >= 20

    @pytest.mark.parametrize("form, images, message", [
        ("x*y", {"y": "u"}, "no image declared for coordinate 'x'"),
        ("d(x)", {"x": "u"},
         "no image declared for d(x) (coordinate itself is remapped)"),
        ("d(x)", {"y": "u"}, "no image declared for d(x)"),
    ])
    def test_undeclared_images(self, form, images, message):
        c = chart(("x", 0, 1), ("y", 0, 1))
        u = chart(("u", 0, 1))
        imgs = {k: parse_expr(v, u) for k, v in images.items()}
        with pytest.raises(ChartError) as err:
            substitute(parse_expr(form, c), imgs)
        assert str(err.value) == message

    def test_vanished_term_reads_no_further_image(self):
        """A term that is already zero skips the factors after it, so a
        missing image there is never looked up."""
        c = chart(("x", 0, 1), ("y", 0, 1))
        u = chart(("u", 0, 1))
        images = {"y": zero(u)}
        assert substitute(parse_expr("sin(y)*x*d(x)", c), images) == zero(u)
        with pytest.raises(ChartError,
                           match="no image declared for coordinate 'x'"):
            substitute(parse_expr("cos(y)*x*d(x)", c), images)


class TestCanonicalize:
    def test_merge_commuting(self):
        c = chart(("x", 0, 1), ("y", 0, 1))
        e = gmul(coord(c, "x"), coord(c, "y")) + gmul(coord(c, "y"), coord(c, "x"))
        assert e == parse_expr("2*x*y", c)

    def test_odd_pair_cancels(self, sup):
        e = gmul(coord(sup, "xi"), coord(sup, "eta")) + \
            gmul(coord(sup, "eta"), coord(sup, "xi"))
        assert e.is_zero()

    def test_wedge_cancellation(self, cyl):
        e = gmul(diff(cyl, "p"), diff(cyl, "q")) + \
            gmul(diff(cyl, "q"), diff(cyl, "p"))
        assert e.is_zero()

    def test_idempotent(self, cyl):
        e = parse_expr("p*q + sin(p*q)*d(z)", cyl)
        assert canonicalize(e) == e
