"""Core algebra: parsing, products, quotients, derivatives, substitution."""

import random
from fractions import Fraction

import pytest

from graded_darboux import (apply_func, canonicalize, chart, coord, diff,
                            equal, gdiv, gmul, one, parse_expr, partial,
                            substitute, zero, ParseError, ParityError)
from graded_darboux.cartan import exterior_d, lie_derivative
from graded_darboux.grexpr.chart import ODD, ChartError
from graded_darboux.grexpr.expr import GradedExpr, Monomial, _mul_monomials, const
from graded_darboux.symsolve import SingularSystemError, solve_left_linear
from helpers import (brute_force_reorder, random_atomic_monomial, random_chart,
                     random_expr, random_field, random_monomial, word_to_expr)


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

    @pytest.mark.parametrize("den", ["7", "7*x", "7*x^2", "7*y",
                                     "7*x*sin(y)", "7 + y"])
    def test_one_quotient_rule(self, den):
        c = chart(("x", 0, 1), ("y", 0, 1))
        x, b = coord(c, "x"), parse_expr(den, c)
        # a float numerator is divided by the leading coefficient once, in
        # true division, whatever the divisor's shape
        assert [m.coeff for m in gdiv(x * 0.3, b).terms] == [0.3 / 7]
        q = gdiv(x, b)
        if len(b.terms) == 1:
            assert q * b == x
        else:
            assert equal(q * b, x)
        if den == "7*x^2":
            assert q == gdiv(one(c), x) * Fraction(1, 7)

    def test_inverse_of_an_inverse(self):
        # 1/(1/g) cancels the 1/g of each term that has one and is g in
        # each term that has none
        c = chart(("x", 0, 1), ("y", 0, 1))
        g = parse_expr("1/(1 + x)", c)
        assert gdiv(one(c), g) == parse_expr("1 + x", c)
        assert gdiv(parse_expr("x/(1 + x)", c), g) == coord(c, "x")
        assert gdiv(parse_expr("x/(1 + x) + y", c), g) == parse_expr("x + y + x*y", c)
        piv = parse_expr("3*exp(y)/(1 + x^2)^2", c)
        assert gdiv(piv, piv) == one(c)

    def test_a_power_of_a_sum_divides_as_the_power_of_its_inverse(self):
        # a/b^k for a sum b parses as a*(1/b)^k, so both spellings share a
        # key and an inverse pivot cancels against it
        c = chart(("x", 0, 1), ("y", 0, 1))
        assert parse_expr("1/(1 + x)^2", c).key() == \
            parse_expr("(1/(1 + x))^2", c).key()
        assert gdiv(parse_expr("x/(1 + x)^2", c), parse_expr("1/(1 + x)", c)) \
            == parse_expr("x/(1 + x)", c)
        assert parse_expr("y/(1 + x)^3", c) == \
            parse_expr("y/(1 + x)/(1 + x)/(1 + x)", c)
        # a monomial base, and the exponents 0 and 1, divide as before
        assert parse_expr("y/(2*x)^2", c) == gdiv(coord(c, "y"),
                                                  parse_expr("4*x^2", c))
        assert parse_expr("y/(1 + x)^0", c) == coord(c, "y")
        assert parse_expr("y/(1 + x)^1", c) == parse_expr("y/(1 + x)", c)

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

    @pytest.mark.parametrize("d_image, message", [
        ("y", r"image of d\(x\) must have form degree 1"),
        ("d(y)*d(t)", r"image of d\(x\) must have form degree 1"),
        ("d(a)", r"image of d\(x\) does not preserve parity"),
    ])
    def test_d_image_is_a_one_form_of_the_coordinate_parity(self, d_image,
                                                            message):
        """d(x) * d(x) = 0 for an even x, so d(x) may not go to the 0-form y,
        whose square is not 0."""
        c = chart(("x", 0, 0), ("y", 0, 0), ("t", 0, 0), ("a", 1, 0))
        with pytest.raises(ParityError, match=message):
            substitute(diff(c, "x"), {"x": coord(c, "y")},
                       {"x": parse_expr(d_image, c)})
        # d of the image, and a vanishing one, are accepted
        y = coord(c, "y")
        assert substitute(diff(c, "x"), {"x": y}, {"x": diff(c, "y")}) == \
            diff(c, "y")
        assert substitute(diff(c, "x"), {"x": y}, {"x": zero(c)}).is_zero()

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

    def test_coefficients_of_differentials_are_canonical(self):
        """``diff_components`` and ``coefficient_of_diff`` build their
        coefficients from the form's terms directly: the keys are those that
        canonicalizing the same terms gives, for forms with atoms, ``inv``
        atoms, odd coordinates and float coefficients."""
        rng = random.Random(31)
        for trial in range(60):
            c = random_chart(rng, max_even=3, max_odd=2)
            w = gdiv(random_expr(c, rng, n_terms=2, form_degree=1),
                     coord(c, "x0") ** 2 + 2)
            for fdeg in (0, 1, 1, 2):
                w = w + random_atomic_monomial(c, rng, floats=trial % 4 == 0,
                                               form_degree=fdeg)
            parts = list(w.diff_components().values())
            parts += [w.coefficient_of_diff(name) for name in c.names]
            assert any(a.kind == "inv" for e in parts for m in e.terms
                       for a in m.atoms)
            for e in parts:
                assert e.key() == GradedExpr.from_terms(c, e.terms).key()


def _coefficients(e):
    """Every coefficient of an expression, atom arguments included."""
    for m in e.terms:
        yield m.coeff
        for a in m.atoms:
            yield from _coefficients(a.arg)


class TestIntCoefficients:
    """A constant or parsed integral coefficient is an int, a product may
    leave an integral Fraction, the two share a key and a printed form, and
    no exact operation gives a float."""

    def test_integral_fraction_and_int_are_one_constant(self, cyl):
        a, b = const(cyl, Fraction(6, 2)), const(cyl, 3)
        assert a.key() == b.key() and hash(a) == hash(b) and a == b
        assert str(a) == str(b) == "3"
        assert [type(m.coeff) for m in a.terms + b.terms] == [int, int]

    def test_integral_fraction_of_a_product_keys_and_prints_as_an_int(self):
        c = chart(("x", 0, 0), ("y", 0, 0))
        for made, plain in (
                (parse_expr("2/3*x", c) * parse_expr("3/2*y", c), "x*y"),
                (exterior_d(parse_expr("1/2*x^2", c)), "x*d(x)")):
            spelt = parse_expr(plain, c)
            assert [type(m.coeff) for m in made.terms + spelt.terms] == [
                Fraction, int]
            assert made.key() == spelt.key() and hash(made) == hash(spelt)
            assert str(made) == str(spelt) == plain

    def test_parsed_coefficients(self, cyl):
        (m,) = parse_expr("4*p/2", cyl).terms
        assert type(m.coeff) is int and m.coeff == 2
        (m,) = parse_expr("p/2", cyl).terms
        assert type(m.coeff) is Fraction and m.coeff == Fraction(1, 2)

    def test_constant_value_is_a_fraction(self, cyl):
        for text, want in (("3", 3), ("6/2", 3), ("6*p/(2*p)", 3), ("-4", -4),
                           ("0", 0), ("3/4", Fraction(3, 4))):
            v = parse_expr(text, cyl).constant_value()
            assert type(v) is Fraction and v == want
        assert type(const(cyl, 0.5).constant_value()) is float

    def test_exact_operations_never_give_a_float(self):
        rng = random.Random(18)
        for _ in range(25):
            c = random_chart(rng, max_even=3, max_odd=2)
            f = random_expr(c, rng, n_terms=3)
            w = random_expr(c, rng, n_terms=2, form_degree=1)
            X = random_field(c, rng)
            k = rng.choice([2, 3, -6])
            out = [exterior_d(f), exterior_d(w), lie_derivative(X, w),
                   lie_derivative(X, f), gdiv(f, const(c, k)), gdiv(w, const(c, k))]
            # pivots 2 or 3 plus a monomial, off-diagonal entries in quarters
            ev = random_chart(rng, max_even=3, max_odd=0)
            n = ev.dim
            M = [[one(ev) * rng.choice([2, 3]) + random_expr(ev, rng, n_terms=1)
                  if a == b else random_expr(ev, rng, n_terms=1) * Fraction(1, 4)
                  for b in range(n)] for a in range(n)]
            out += solve_left_linear(M, [random_expr(ev, rng, n_terms=2)
                                         for _ in range(n)])[0]
            for e in out:
                assert e.is_exact()
                assert not any(isinstance(v, float) for v in _coefficients(e))


class TestSolveLeftLinear:
    def test_kernel_vectors_solve_the_homogeneous_system(self):
        """Each kernel vector k of ``sum_a R^a M[a][b] = rhs[b]`` gives
        ``sum_a k_a M[a][b] = 0`` by ``equal``, and the solution solves the
        system, on systems with a dependent unknown or more unknowns than
        equations, multi-term pivots included."""
        # a box away from 0, so that no monomial pivot comes near zero
        ev = chart(("x", 0, 1), ("y", 0, -1), ("w", 0, 0),
                   default_box=(0.5, 1.0))
        rng = random.Random(19)
        kernels = 0
        for trial in range(30):
            n, m = rng.randint(2, 4), rng.randint(1, 3)
            M = [[random_expr(ev, rng, n_terms=rng.choice([1, 2]), max_deg=2)
                  for b in range(m)] for a in range(n)]
            if trial % 2:
                c0 = random_expr(ev, rng, n_terms=2, max_deg=1)
                M[-1] = [gmul(c0, M[0][b]) - M[1][b] for b in range(m)]
            R = [random_expr(ev, rng, n_terms=1, max_deg=1) for a in range(n)]
            rhs = [sum((gmul(R[a], M[a][b]) for a in range(n)), zero(ev))
                   for b in range(m)]
            sol, kernel = solve_left_linear(M, rhs)
            kernels += len(kernel)
            for b in range(m):
                got = sum((gmul(sol[a], M[a][b]) for a in range(n)), zero(ev))
                assert equal(got, rhs[b])
            for f, k in kernel.items():
                assert k[f] == one(ev)
                assert all(k[g].is_zero() for g in kernel if g != f)
                for b in range(m):
                    assert equal(sum((gmul(k[a], M[a][b]) for a in range(n)),
                                     zero(ev)), zero(ev))
        assert kernels >= 30

    def test_an_odd_coefficient_is_never_a_pivot(self, sup):
        """Odd elements are not central, so an equation whose only nonzero
        coefficient is odd takes no pivot and leaves the system degenerate;
        an even pivot elsewhere still solves the rest."""
        xi, x = coord(sup, "xi"), coord(sup, "x")
        with pytest.raises(SingularSystemError, match="degenerate"):
            solve_left_linear([[xi]], [zero(sup)])
        sol, kernel = solve_left_linear([[x, zero(sup)], [xi, one(sup)]],
                                        [x, zero(sup)])
        assert sol == [one(sup), zero(sup)] and kernel == {}
