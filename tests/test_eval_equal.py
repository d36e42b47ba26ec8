"""Grassmann evaluation and the two-mode equality service."""

import math
import random
from fractions import Fraction

import numpy as np
import pytest

from graded_darboux import (EqualityPolicy, apply_func, chart, const, coord,
                            diff, equal, eval_body_exact, eval_numeric, gdiv,
                            gmul, one, parse_expr, partial, substitute,
                            zero)
from graded_darboux.grexpr import equality, grassmann
from graded_darboux.grexpr.expr import EvaluationError
from graded_darboux.grexpr.grassmann import (GrassmannValue, Plan, _product,
                                             body_values)
from helpers import random_chart, random_expr


class TestEvalNumeric:
    def test_polynomial(self):
        c = chart(("x", 0, 1), ("y", 0, 1))
        v = eval_numeric(parse_expr("x^2*y", c), {"x": 2, "y": 3})
        assert v.body == 12.0

    def test_scaled_generators(self):
        c = chart(("xi", 1, 0), ("eta", 1, 0))
        v = eval_numeric(parse_expr("xi*eta", c), {"xi": 2, "eta": 3})
        assert v.data == {(0, 1): 6.0}

    def test_nilpotent_inverse(self):
        c = chart(("xi", 1, 0), ("eta", 1, 0))
        e = gdiv(one(c), one(c) + parse_expr("xi*eta", c))
        v = eval_numeric(e, {})
        w = eval_numeric(one(c) + parse_expr("xi*eta", c), {})
        back = GrassmannValue(_product(v.row[None], w.row[None])[0])
        assert back.data == {(): 1.0}

    def test_division_by_zero_body(self):
        c = chart(("x", 0, 0))
        e = gdiv(one(c), coord(c, "x"))
        with pytest.raises(EvaluationError):
            eval_numeric(e, {"x": 0.0})

    def test_overflowed_inverse_series_raises(self):
        # 1/b^2 overflows at b = 1e-200; the soul term must not read nan
        c = chart(("x", 0, 0), ("a", 1, 0), ("b", 1, 0))
        e = parse_expr("1/(x + a*b)", c)
        with pytest.raises(OverflowError):
            eval_numeric(e, {"x": 1e-200})
        v = eval_numeric(e, {"x": 1e-150}).data
        assert v == pytest.approx({(): 1e150, (0, 1): -1e300}, rel=1e-12)

    def test_only_the_coordinates_read_need_a_value(self):
        c = chart(("x", 0, 1), ("y", 0, 1))
        assert eval_numeric(parse_expr("x^2", c), {"x": 3}).body == 9.0
        with pytest.raises(EvaluationError, match="no value for coordinate 'y'"):
            eval_numeric(parse_expr("x*y", c), {"x": 3})

    def test_log_nonpositive_body(self):
        c = chart(("x", 0, 0))
        with pytest.raises(EvaluationError):
            eval_numeric(apply_func("log", coord(c, "x")), {"x": -1.0})

    def test_forms_rejected(self):
        c = chart(("x", 0, 0))
        with pytest.raises(EvaluationError):
            eval_numeric(diff(c, "x"), {"x": 0.5})

    def test_taylor_matches_direct(self):
        # sin(x + xi*eta) = sin(x) + cos(x) xi eta on two generators
        import math
        c = chart(("x", 0, 0), ("xi", 1, 0), ("eta", 1, 0))
        e = apply_func("sin", coord(c, "x") + parse_expr("xi*eta", c))
        v = eval_numeric(e, {"x": 0.7, "xi": 1, "eta": 1})
        assert abs(v.data[()] - math.sin(0.7)) < 1e-12
        assert abs(v.data[(0, 1)] - math.cos(0.7)) < 1e-12

    def test_homomorphism_random(self):
        rng = random.Random(3)
        for _ in range(100):
            c = random_chart(rng, max_even=3, max_odd=2)
            a = random_expr(c, rng, n_terms=2)
            b = random_expr(c, rng, n_terms=2)
            pt = {cd.name: rng.uniform(-1, 1) for cd in c.coords
                  if cd.parity == 0}
            va, vb = eval_numeric(a, pt), eval_numeric(b, pt)
            vab = eval_numeric(gmul(a, b), pt)
            prod = GrassmannValue(_product(va.row[None], vb.row[None])[0])
            keys = set(vab.data) | set(prod.data)
            for k in keys:
                assert abs(vab.data.get(k, 0.0) - prod.data.get(k, 0.0)) < 1e-12
            vsum = eval_numeric(a + b, pt)
            plus = GrassmannValue(va.row + vb.row)
            keys = set(vsum.data) | set(plus.data)
            for k in keys:
                assert abs(vsum.data.get(k, 0.0) - plus.data.get(k, 0.0)) < 1e-12

    def test_exact_body(self):
        c = chart(("x", 0, 1), ("t", 1, 1))
        e = parse_expr("x^2/4 + x*t", c)
        assert eval_body_exact(e, {"x": Fraction(1, 2)}) == Fraction(1, 16)
        # only the coordinates the expression reads need a value
        c2 = chart(("x", 0, 1), ("y", 0, 1))
        assert eval_body_exact(parse_expr("x^2", c2), {"x": 3}) == 9
        with pytest.raises(EvaluationError):
            eval_body_exact(parse_expr("x*y", c2), {"x": 3})


def _even_part(c, rng):
    """A random nonzero even polynomial, fit to be an atom argument."""
    while True:
        e = random_expr(c, rng, n_terms=2, max_deg=2)
        if e.parity() == 0:
            return e


class TestPlan:
    def test_number_kinds_agree_at_dyadic_points(self):
        rng = random.Random(11)
        batch_rng = random.Random(12)
        for _ in range(150):
            c = random_chart(rng, max_even=3, max_odd=2)
            e = random_expr(c, rng, n_terms=2)
            kind = rng.choice(["poly", "sin", "cos", "exp", "sinh", "cosh",
                               "log", "quotient"])
            if kind == "quotient":
                b = _even_part(c, rng)
                e = gdiv(e, one(c) * 2 + gmul(b, b))
            elif kind == "log":
                x = coord(c, c.coords[c.even_indices[0]].name)
                e = gmul(e, apply_func("log", one(c) * 3 + x))
            elif kind != "poly":
                e = gmul(e, apply_func(kind, _even_part(c, rng)))
            point = {c.coords[i].name: Fraction(rng.randint(-64, 64), 64)
                     for i in c.even_indices}
            plan = Plan(e)
            xf = [float(point.get(name, 0)) for name in c.names]
            odd_zero = {**{n: float(v) for n, v in point.items()},
                        **{c.coords[i].name: 0.0 for i in c.odd_indices}}
            assert plan.float_body(xf).hex() == \
                eval_numeric(e, odd_zero).body.hex()
            points = [xf] + [[batch_rng.randint(-64, 64) / 64
                              if i in c.even_indices else 0.0
                              for i in range(c.dim)] for _ in range(4)]
            batch = np.broadcast_to(plan.float_body(np.array(points).T),
                                    len(points))
            assert [v.hex() for v in batch.tolist()] == \
                [plan.float_body(p).hex() for p in points]
            assert plan.exact or kind != "poly"
            if plan.exact:
                xq = [Fraction(point.get(name, 0)) for name in c.names]
                want = substitute(e, {n: const(c, 0) if c.parity(c.index(n))
                                      else const(c, point[n])
                                      for n in c.names}).constant_value()
                assert plan.exact_body(xq) == eval_body_exact(e, point) == want

    @pytest.mark.parametrize("box", [(-0.7, 0.7), (0.3, 0.9), (0.1, 1e5)])
    def test_sample_points_are_floats_inside_the_box(self, box):
        """The exact and float paths see the same point only if every
        sampled value is a float, also where the box ends are not dyadic."""
        c = chart(("x", 0, 0), ("y", 0, 1), ("t", 1, 0), default_box=box)
        for seed in range(3):
            for p in grassmann.sample_body_points(c, 16, seed):
                assert set(p) == {"x", "y"}
                for v in p.values():
                    assert Fraction(float(v)) == v
                    assert box[0] <= v <= box[1]

    def test_body_values_exact_where_the_plan_is(self):
        c = chart(("x", 0, 0), ("y", 0, 0), ("t", 1, 0))
        exprs = [parse_expr("x^2/3 + y", c), parse_expr("t*y", c), zero(c),
                 coord(c, "x") * 0.5, parse_expr("sin(x)", c)]
        plans = [Plan(e) for e in exprs]
        (vals,), failure = body_values(plans, [{"x": Fraction(1, 2), "y": 2}])
        assert failure is None
        assert vals[:3] == [Fraction(25, 12), 0, 0]
        assert [type(v) for v in vals] == [Fraction] * 3 + [float] * 2
        assert [p.exact for p in plans] == [True] * 3 + [False] * 2
        assert vals[3:] == [0.25, math.sin(0.5)]

    def test_overflowed_trig_argument_on_every_path(self):
        """x*y overflows to inf silently; the float and Grassmann paths both
        raise the typed error of the atom table there."""
        c = chart(("x", 0, 0), ("y", 0, 0))
        plan = Plan(parse_expr("cos(x*y)", c))
        big = np.array([1.0, 1e200])
        with pytest.raises(OverflowError, match="^cos of an overflowed argument$"):
            plan.float_body([1e200, 1e200])
        with np.errstate(over="ignore"), \
                pytest.raises(OverflowError, match="^cos of an overflowed argument$"):
            plan.float_body([big, big])
        with pytest.raises(OverflowError, match="^cos of an overflowed argument$"):
            eval_numeric(parse_expr("cos(x*y)", c), {"x": 1e200, "y": 1e200})
        batch = plan.grassmann([big, big])
        assert [grassmann.FAILURES[f] for f in batch.failure] == [None, "arithmetic"]
        assert str(batch.error) == "cos of an overflowed argument"

    def test_coefficient_beyond_float_range(self):
        c = chart(("x", 0, 0))
        e = parse_expr("10^400*x + 1", c)
        assert eval_body_exact(e, {"x": 1}) == 10 ** 400 + 1
        with pytest.raises(OverflowError):
            eval_numeric(e, {"x": 1.0})
        with pytest.raises(OverflowError):
            Plan(e).float_body([1.0])


class TestEqual:
    def test_exact_polynomial(self):
        c = chart(("x", 0, 1))
        x = coord(c, "x")
        r = equal(x + x, x * 2)
        assert r and r.mode == "exact"

    def test_trig_identity_randomized(self):
        c = chart(("u", 0, 0))
        u = coord(c, "u")
        lhs = apply_func("sin", u * 2)
        rhs = gmul(apply_func("sin", u), apply_func("cos", u)) * 2
        r = equal(lhs, rhs)
        assert r and r.mode == "randomized"

    def test_tiny_exact_difference_detected(self):
        c = chart(("x", 0, 1))
        x = coord(c, "x")
        r = equal(x, x + parse_expr("1e-12", c) * x ** 2)
        assert not r and r.mode == "exact"

    def test_failure_carries_witness(self):
        c = chart(("u", 0, 0))
        u = coord(c, "u")
        r = equal(apply_func("sin", u), apply_func("cos", u))
        assert not r
        assert r.witness is not None and "point" in r.witness

    def test_reflexive_symmetric(self):
        rng = random.Random(9)
        for _ in range(50):
            c = random_chart(rng, max_even=3, max_odd=2)
            a = random_expr(c, rng, n_terms=2, form_degree=rng.randint(0, 2))
            b = random_expr(c, rng, n_terms=2, form_degree=rng.randint(0, 2))
            assert equal(a, a)
            assert bool(equal(a, b)) == bool(equal(b, a))

    def test_exact_mode_implies_randomized_agrees(self):
        rng = random.Random(10)
        pol = EqualityPolicy(mode="randomized", n_points=8, seed=4)
        for _ in range(25):
            c = random_chart(rng, max_even=3, max_odd=2)
            a = random_expr(c, rng, n_terms=2)
            b = random_expr(c, rng, n_terms=2)
            exact = equal(a, b)
            if exact.mode == "exact":
                assert bool(equal(a, b, pol)) == bool(exact)

    def test_policy_needs_a_point(self):
        with pytest.raises(ValueError):
            EqualityPolicy(n_points=0)

    def test_forced_randomized_mode(self):
        c = chart(("x", 0, 1))
        x = coord(c, "x")
        r = equal(x, x, EqualityPolicy(mode="randomized", n_points=4))
        assert r and r.mode == "randomized"

    @pytest.mark.parametrize("box, lhs, rhs, reason", [
        # a pole inside the box: some divisor bodies fall under the floor
        ((-1e-5, 1e-5), "(1 + x)/(x + x^2)*x", "1", "divisor-floor"),
        # log of a nonpositive body raises an EvaluationError
        ((-1.0, 1.0), "2*log(x)", "log(x^2)", "evaluation"),
        # exp(2*x) overflows above x = 354.9
        ((300.0, 400.0), "exp(x)*exp(x)", "exp(2*x)", "arithmetic"),
    ])
    def test_redraws_counted_by_reason(self, box, lhs, rhs, reason):
        c = chart(("x", 0, 1), default_box=box)
        r = equal(parse_expr(lhs, c), parse_expr(rhs, c))
        assert r and r.mode == "randomized"
        assert r.detail == "32 points, rel_tol=1e-09"
        assert list(r.redraws) == [reason] and r.redraws[reason] > 0

    def test_overflowed_value_is_a_redraw_not_a_difference(self):
        # exp(x)*exp(x) is inf above x = 354.9, and inf - inf reads nan there
        lhs, rhs = "exp(x)*exp(x) - exp(x - 1)*exp(x + 1) + 1", "1"
        policy = EqualityPolicy(mode="randomized")
        c = chart(("x", 0, 0), default_box=(360, 380))
        with pytest.raises(EvaluationError, match="could not sample"):
            equal(parse_expr(lhs, c), parse_expr(rhs, c), policy)
        # nor is an inf close to a finite value
        with pytest.raises(EvaluationError, match="could not sample"):
            equal(parse_expr("exp(x)*exp(x)*exp(-x)", c), parse_expr("5", c))

    def test_overflowed_points_are_redrawn(self):
        c = chart(("x", 0, 0), default_box=(340, 370))
        r = equal(parse_expr("exp(x)*exp(x)*exp(-x)", c), parse_expr("exp(x)", c))
        assert r and r.mode == "randomized"
        assert list(r.redraws) == ["arithmetic"] and r.redraws["arithmetic"] > 0

    def test_forms_compared_componentwise(self):
        c = chart(("p", 0, 1), ("q", 0, -1))
        a = parse_expr("p*d(q) + d(p)", c)
        b = parse_expr("d(p) + p*d(q)", c)
        assert equal(a, b)
        assert not equal(a, a + diff(c, "q"))

    @pytest.mark.parametrize("error", [ValueError, TypeError])
    def test_evaluator_bug_propagates(self, monkeypatch, error):
        def broken(self, x, floor=0.0, values=None):
            raise error("planted evaluator bug")

        monkeypatch.setattr(grassmann.Plan, "grassmann", broken)
        c = chart(("x", 0, 1))
        x = coord(c, "x")
        with pytest.raises(error, match="planted evaluator bug"):
            equal(x, x, EqualityPolicy(mode="randomized", n_points=4))


def _pole_draws(seed, box, n):
    """Replay equal()'s draws on a one-coordinate chart: each draw with
    whether the divisor x + x^2 of "(1 + x)/(x + x^2)*x" clears the floor."""
    rng = random.Random(seed)
    xs = [rng.uniform(*box) for _ in range(n)]
    return [(x, abs(x + x * x) >= equality.DIVISOR_FLOOR) for x in xs]


class _ScriptedRandom:
    """A stand-in for equal()'s generator that draws a fixed script."""

    def __init__(self, values):
        self.values = iter(values)

    def uniform(self, lo, hi):
        return next(self.values)


class TestBatchedDecisions:
    """Batched evaluation decides as if the points were checked one at a time
    in draw order."""

    POLE = "(1 + x)/(x + x^2)*x"

    def test_pole_redraws_match_hand_counted_draws(self):
        box = (-1e-5, 1e-5)
        c = chart(("x", 0, 1), default_box=box)
        draws = _pole_draws(0, box, 200)
        accepted = [i for i, (_, ok) in enumerate(draws) if ok][:32]
        failed = accepted[-1] + 1 - 32
        assert failed > 0
        r = equal(parse_expr(self.POLE, c), parse_expr("1", c))
        assert r and r.detail == "32 points, rel_tol=1e-09"
        assert r.redraws == {"divisor-floor": failed}

    def test_earlier_difference_beats_later_failure(self):
        # d(y) sorts before d(x): at each point the d(y) components differ
        # before the d(x) components hit the pole at y = 0
        c = chart(("x", 0, 0, (0.5, 1.0)), ("y", 0, 0, (-1e-7, 1e-7)))
        r = equal(parse_expr("x*d(y) + 1/y*d(x)", c),
                  parse_expr("2*x*d(y) + 1/y*d(x)", c))
        assert not r and r.mode == "randomized"
        assert r.witness["component"] == (0, 1) and r.redraws == {}
        # the later component alone fails at every point
        with pytest.raises(EvaluationError, match="could not sample"):
            equal(parse_expr("1/y*d(x)", c), parse_expr("2/y*d(x)", c))

    def test_redraws_before_the_witness_only(self):
        box = (-1.25e-6, 1.25e-6)
        c = chart(("x", 0, 1), default_box=box)
        draws = _pole_draws(1, box, 32)
        first = [ok for _, ok in draws].index(True)
        # failed draws follow the witness point in the same batch too
        assert first > 0 and not all(ok for _, ok in draws[first:])
        r = equal(parse_expr(self.POLE, c), parse_expr("2", c),
                  EqualityPolicy(seed=1))
        assert not r
        assert r.redraws == {"divisor-floor": first}
        assert r.witness["point"] == {"x": draws[first][0]}
        assert r.witness["lhs"] == pytest.approx(1.0) and r.witness["rhs"] == 2.0

    @pytest.mark.parametrize("failures, raises", [(397, False), (398, True)])
    def test_redraw_cap_at_the_sequential_draw_count(self, monkeypatch,
                                                     failures, raises):
        # 4 points: the cap is 400 draws beyond the checked points; three
        # good draws, then ``failures`` draws at the pole, then good ones
        script = [0.5] * 3 + [0.0] * failures + [0.5] * 8
        monkeypatch.setattr(equality.random, "Random",
                            lambda seed: _ScriptedRandom(script))
        c = chart(("x", 0, 1))
        policy = EqualityPolicy(n_points=4)
        assert equality.MAX_REDRAWS * policy.n_points == 400
        lhs, rhs = parse_expr(self.POLE, c), parse_expr("1", c)
        if raises:
            with pytest.raises(EvaluationError, match="could not sample"):
                equal(lhs, rhs, policy)
        else:
            r = equal(lhs, rhs, policy)
            assert r and r.redraws == {"divisor-floor": failures}

    def test_one_evaluation_per_plan_and_batch(self, monkeypatch):
        c = chart(("x", 0, 0), ("y", 0, 0), ("t", 1, 0), ("s", 1, 0))
        lhs = parse_expr("(sin(x + t*s)^2 + cos(x + t*s)^2)*d(x)"
                         " + exp(x)*exp(y + t*s)*d(y)", c)
        rhs = parse_expr("d(x) + exp(x + y + t*s)*d(y)", c)
        calls = []
        original = grassmann.Plan.grassmann

        def counting(self, x, floor=0.0, values=None):
            calls.append(np.shape(x[0])[:1])
            return original(self, x, floor, values)

        monkeypatch.setattr(grassmann.Plan, "grassmann", counting)
        r = equal(lhs, rhs)
        assert r and r.mode == "randomized" and r.redraws == {}
        # two differential components, each side evaluated once at 32 points
        assert calls == [(32,)] * 4

    @pytest.mark.parametrize("seed", [0, 5])
    @pytest.mark.parametrize("inner", ["exp(x)*exp(x)", "exp(2*x)"])
    def test_overflowed_trig_argument_is_an_arithmetic_redraw(self, seed, inner):
        # exp(x)^2 overflows to inf above x ~ 354.9, exp(2*x) raises there;
        # sin and cos of the overflowed argument fail the point, not the call
        box = (300.0, 400.0)
        c = chart(("x", 0, 0), default_box=box)
        rng = random.Random(seed)
        xs = [rng.uniform(*box) for _ in range(32)]
        failed = [math.isinf(math.exp(x) * math.exp(x)) for x in xs].index(False)
        assert failed > 0
        r = equal(parse_expr(f"sin({inner})", c),
                  parse_expr("cos(exp(x)*exp(x))", c), EqualityPolicy(seed=seed))
        assert not r and r.mode == "randomized"
        assert r.redraws == {"arithmetic": failed}
        assert r.witness["point"] == {"x": xs[failed]}


def _replay(seed, boxes, outcome, n_points=32):
    """Replay equal()'s draws one point at a time: ``outcome(point)`` is None
    for a point that passes, the reason it fails, or True where the sides
    differ.  Returns (redraws by reason, the differing point or None)."""
    rng = random.Random(seed)
    redraws, checked = {}, 0
    while checked < n_points:
        point = [rng.uniform(*box) for box in boxes]
        got = outcome(point)
        if got is None:
            checked += 1
        elif got is True:
            return redraws, point
        else:
            redraws[got] = redraws.get(got, 0) + 1
    return redraws, None


def _shared(exprs, x, floor):
    """Each expression's batch, all compiled with one compile table and
    evaluated in order with one value table."""
    compiled, values = {}, {}
    return [Plan(e, compiled).grassmann(x, floor, values) for e in exprs]


def _assert_bit_identical(shared, exprs, x, floor):
    # each plan compiled and evaluated alone, with fresh tables
    for s, e in zip(shared, exprs):
        a = Plan(e).grassmann(x, floor)
        assert s.values.tobytes() == a.values.tobytes()
        assert s.failure.tobytes() == a.failure.tobytes()
        assert repr(s.error) == repr(a.error)


class TestSharedTables:
    """One compile table and one value table per check: each distinct atom
    argument is compiled once, and each atom value computed once per batch
    where no failure tells the evaluations apart."""

    def test_shared_atom_is_compiled_and_evaluated_once_per_batch(self, monkeypatch):
        c = chart(("x", 0, 0), ("y", 0, 0), ("t", 1, 0), ("s", 1, 0))
        lhs = parse_expr("sin(x + t*s)*d(x) + 2*sin(x + t*s)*d(y)", c)
        rhs = parse_expr("sin(x + t*s)*d(x) + (sin(x + t*s) + sin(x + t*s)*cos(y)^2"
                         " + sin(x + t*s)*sin(y)^2)*d(y)", c)
        arg = parse_expr("x + t*s", c).key()
        compiled, atoms = [], []
        init, atom = Plan.__init__, grassmann._Kernel.atom

        def counting_init(self, e, compiled_=None):
            compiled.append(e.key())
            init(self, e, compiled_)

        def counting_atom(self, kind, v):
            atoms.append((kind, v.ndim))
            return atom(self, kind, v)

        monkeypatch.setattr(Plan, "__init__", counting_init)
        monkeypatch.setattr(grassmann._Kernel, "atom", counting_atom)
        r = equal(lhs, rhs)
        assert r and r.mode == "randomized" and r.redraws == {}
        assert compiled.count(arg) == 1
        # one batch of 32 points: sin(x + t*s) has a dense argument, and
        # cos(y) and sin(y) read a body alone
        assert sorted(atoms) == [("cos", 1), ("sin", 1), ("sin", 2)]

    @pytest.mark.parametrize("x_box", [(0.5, 2.0), (-0.5, 2.0)])
    @pytest.mark.parametrize("rhs_dx", ["log(x)/y", "2*log(x)/y"])
    def test_failing_shared_atom_matches_a_one_point_replay(self, monkeypatch,
                                                          x_box, rhs_dx):
        # d(y) sorts before d(x).  log(x) fails where x <= 0; in the d(x)
        # component the unshared factor 1/y has already failed the points
        # near y = 0 before log(x) is reached, so log(x) must not be taken
        # from the d(y) component there
        y_box = (-4e-6, 4e-6)
        c = chart(("x", 0, 0, x_box), ("y", 0, 0, y_box))
        lhs = parse_expr("log(x)*d(y) + log(x)/y*d(x)", c)
        rhs = parse_expr(f"log(x)*d(y) + {rhs_dx}*d(x)", c)
        logs = []
        atom = grassmann._Kernel.atom

        def counting_atom(self, kind, v):
            logs.append(kind == "log")
            return atom(self, kind, v)

        def outcome(point):
            x, y = point
            if x <= 0:
                return "evaluation"
            if abs(y) < equality.DIVISOR_FLOOR:
                return "divisor-floor"
            return None if rhs_dx == "log(x)/y" else True

        monkeypatch.setattr(grassmann._Kernel, "atom", counting_atom)
        for seed in range(4):
            logs.clear()
            r = equal(lhs, rhs, EqualityPolicy(mode="randomized", seed=seed))
            redraws, differs = _replay(seed, [x_box, y_box], outcome)
            assert r.equal is (differs is None)
            assert r.redraws == redraws
            if differs is None:
                assert r.detail == "32 points, rel_tol=1e-09"
            else:
                x, y = differs
                assert r.witness["point"] == {"x": x, "y": y}
                assert r.witness["component"] == (1, 0)
                assert r.witness["lhs"] == pytest.approx(math.log(x) / y)
                assert r.witness["rhs"] == pytest.approx(2 * math.log(x) / y)
        points = equality._draw_points(c, random.Random(0), 64)
        assert any(abs(y) < equality.DIVISOR_FLOOR for _, y in points)
        x = grassmann._coordinates(c, points)
        exprs = [side.diff_components()[pat] for pat in [(0, 1), (1, 0)]
                 for side in (lhs, rhs)]
        logs.clear()
        shared = _shared(exprs, x, equality.DIVISOR_FLOOR)
        if x_box[0] > 0:
            # once clean, for d(y); once after 1/y failed, for the lhs of
            # d(x), whose value the rhs of d(x) reads
            assert sum(logs) == 2
        _assert_bit_identical(shared, exprs, x, equality.DIVISOR_FLOOR)

    def test_shared_values_are_bit_identical_to_unshared(self):
        """Plans of random super charts with 1 to 4 odd generators share
        atoms that fail at some points: a log, and a quotient under a
        divisor floor of 0.2."""
        rng = random.Random(17)
        failed = set()
        for _ in range(40):
            c = random_chart(rng, max_even=2, max_odd=4)
            while not c.odd_indices:
                c = random_chart(rng, max_even=2, max_odd=4)
            den = _even_part(c, rng)
            while all(any(m.cexp[i] for i in c.odd_indices) for m in den.terms):
                den = _even_part(c, rng)        # a divisor needs a body
            pool = [apply_func(rng.choice(["sin", "exp", "cosh"]), _even_part(c, rng)),
                    apply_func("log", _even_part(c, rng)), gdiv(one(c), den)]
            exprs = []
            for _ in range(4):
                e = zero(c)
                for _ in range(rng.randint(1, 3)):
                    factor = random_expr(c, rng, n_terms=2)
                    for _ in range(rng.randint(1, 2)):
                        factor = gmul(factor, rng.choice(pool))
                    e = e + factor
                exprs.append(e)
            x = grassmann._coordinates(c, equality._draw_points(c, rng, 24))
            shared = _shared(exprs, x, 0.2)
            _assert_bit_identical(shared, exprs, x, 0.2)
            failed.update(b.failure.any() for b in shared)
        assert failed == {True, False}

    def test_shared_float_bodies_are_bit_identical_to_fresh_ones(self, monkeypatch):
        """h = g(y)*exp(3z), dh/dy and dh/dz compiled through one table
        evaluate exp(3z) once per value table, to the bits of a fresh
        table, at one point and at per-coordinate arrays of points."""
        c = chart(("x", 0, 0), ("y", 0, 0), ("z", 0, 0))
        h = parse_expr("(7/10 + 1/10*sin(4/5*y))*exp(3*z)", c)
        compiled = {}
        plans = [Plan(e, compiled) for e in (h, partial(h, "y"), partial(h, "z"))]
        atoms = []
        body_atom = grassmann._body_atom

        def counting(kind, body):
            atoms.append(kind)
            return body_atom(kind, body)

        monkeypatch.setattr(grassmann, "_body_atom", counting)
        rng = random.Random(3)
        cols = [np.array([rng.uniform(-1, 1) for _ in range(16)]) for _ in range(3)]
        for x in ([0.3, -0.2, 0.45], cols):
            atoms.clear()
            fresh = [np.atleast_1d(p.float_body(x)) for p in plans]
            assert atoms.count("exp") == 3
            atoms.clear()
            table = {}
            shared = [np.atleast_1d(p.float_body(x, values=table)) for p in plans]
            assert atoms.count("exp") == 1
            assert [[v.hex() for v in a.tolist()] for a in shared] == \
                [[v.hex() for v in a.tolist()] for a in fresh]
