"""The batched numeric stage of sampled checks: the integer sampler, batched
body evaluation, the per-point replay of its callers, and the compiled float
stage of straightening's RK4 flows."""

import math
import random
import re
import warnings
from fractions import Fraction

import numpy as np
import pytest

from graded_darboux import (EqualityPolicy, apply_func, chart, const, coord,
                            gmul, parse_expr)
from graded_darboux.cartan import VectorField, basis_field, vector_field
from graded_darboux.darboux import straighten_commuting
from graded_darboux.grexpr import grassmann
from graded_darboux.grexpr.expr import EvaluationError
from graded_darboux.grexpr.grassmann import (Plan, body_values, float_stage,
                                             sample_body_points)
from graded_darboux.grexpr.chart import ChartSpec, CoordinateDecl
from graded_darboux.homogeneity import (Distribution, RankCollapseError,
                                        _span_contains)
from graded_darboux.pfaffian import (PfaffianError, characteristic_class,
                                     presymplectic_check)
from helpers import random_chart, random_expr


def _fraction_sampler(chart_, n_points, seed):
    """The sampler as a formula on Fractions: lo + (hi - lo)·k/64 for a
    drawn k, rounded once to the nearest float."""
    rng = random.Random(seed)
    pts = []
    for _ in range(n_points):
        p = {}
        for i in chart_.even_indices:
            lo, hi = chart_.box_for(i)
            t = Fraction(rng.randint(0, 64), 64)
            exact = Fraction(lo) + (Fraction(hi) - Fraction(lo)) * t
            p[chart_.coords[i].name] = Fraction(float(exact))
        pts.append(p)
    return pts


BOXES = [(-1.0, 1.0), (0.1, 0.8), (-3, 5), (0, 1), (1e-3, 1e5),
         (-1e300, 1e300), (1.0, 1.0 + 2.0 ** -40), (0.1, 0.1 + 1e-15),
         (5e-324, 1e-320), (-7.3, -7.2999999)]


@pytest.mark.parametrize("box", BOXES, ids=str)
@pytest.mark.parametrize("n_points", [1, 8, 32])
def test_sampler_matches_the_fraction_formula(box, n_points):
    rng = random.Random(f"{box}-{n_points}")
    for _ in range(4):
        c = random_chart(rng)
        c = type(c)(c.coords, default_box=box)
        for seed in range(5):
            got = sample_body_points(c, n_points, seed)
            want = _fraction_sampler(c, n_points, seed)
            assert [{k: float(v).hex() for k, v in p.items()} for p in got] == \
                [{k: float(v).hex() for k, v in p.items()} for p in want]
            assert all(type(v) is float for p in got for v in p.values())


def test_sampler_reads_each_coordinates_own_box():
    c = chart(("x", 0, 0, (0.1, 0.8)), ("t", 1, 0), ("y", 0, 0, (-3, 5)),
              ("z", 0, 0), default_box=(2, 3))
    for seed in range(10):
        assert sample_body_points(c, 8, seed) == _fraction_sampler(c, 8, seed)


def _one_at_a_time(plans, point):
    """Each plan's body at one point, in plan order, as a plan is evaluated
    alone; the first failure raises."""
    xq = grassmann._body_point(plans[0].chart.dim,
                               grassmann._even_reads(plans), point)
    return [p.exact_body(xq) if p.exact else p.float_body([float(v) for v in xq])
            for p in plans]


def test_batch_matches_per_point_evaluation():
    rng = random.Random(7)
    for _ in range(60):
        c = random_chart(rng, max_even=3, max_odd=2)
        x0 = c.coords[c.even_indices[0]].name
        exprs = [random_expr(c, rng, n_terms=2),
                 parse_expr(f"sin({x0}) + 1/3", c),
                 parse_expr(f"exp({x0})*cos({x0}^2)/(2 + {x0}^2)", c),
                 parse_expr("2/7", c),                 # reads no coordinate
                 parse_expr("0.5", c),                 # reads no coordinate
                 parse_expr("sin(2)*cosh(1)", c),      # reads no coordinate
                 random_expr(c, rng, n_terms=3) * 0.25]
        plans = [Plan(e) for e in exprs]
        points = sample_body_points(c, 9, rng.randrange(100))
        batch, failure = body_values(plans, points)
        assert failure is None and len(batch) == len(points)
        reads = grassmann._even_reads(plans)
        for point, vals in zip(points, batch):
            assert [type(v) for v in vals] == \
                [Fraction if p.exact else float for p in plans]
            want = [p.exact_body(grassmann._body_point(c.dim, reads, point))
                    if p.exact else
                    p.float_body(grassmann._body_point(c.dim, reads, point, float))
                    for p in plans]
            assert [v if p.exact else v.hex() for p, v in zip(plans, vals)] == \
                [v if p.exact else v.hex() for p, v in zip(plans, want)]


def test_each_point_keeps_the_error_of_its_first_failing_plan():
    c = chart(("x", 0, 0), ("y", 0, 0))
    plans = [Plan(parse_expr("log(y)", c)), Plan(parse_expr("x^2", c)),
             Plan(parse_expr("1/x", c))]
    points = [{"x": 1.0, "y": 2.0},     # evaluates
              {"x": 0.0, "y": 2.0},     # 1/x fails
              {"x": 1.0, "y": -1.0},    # log(y) fails
              {"x": 0.0, "y": 0.0},     # both fail; log(y) comes first
              {"x": 2.0, "y": 1.0}]     # evaluates
    zero_body = "^division by a value with zero body$"
    nonpositive = "^log of a value with nonpositive body$"
    errors = {1: zero_body, 2: nonpositive, 3: nonpositive}
    for i, point in enumerate(points):
        values, failure = body_values(plans, [point])
        if i in errors:
            with pytest.raises(EvaluationError, match=errors[i]):
                _one_at_a_time(plans, point)
            assert values == [] and isinstance(failure, EvaluationError)
            assert re.search(errors[i], str(failure))
        else:
            assert (values, failure) == ([_one_at_a_time(plans, point)], None)
    # a batch stops at its first failing point, with that point's own error
    for start, stop in ((0, 1), (1, 1), (2, 2), (3, 3)):
        values, failure = body_values(plans, points[start:])
        assert values == [_one_at_a_time(plans, p) for p in points[start:stop]]
        assert re.search(errors[stop], str(failure))
    assert body_values(plans, points[4:]) == ([[0.0, 4.0, 0.5]], None)


def test_points_missing_a_coordinate_fail_alone(monkeypatch):
    """A point missing a coordinate fails with its own error, after the
    points before it, and no point after it is converted or evaluated."""
    c = chart(("x", 0, 0), ("y", 0, 0))
    plans = [Plan(parse_expr("x*y", c))]
    points = [{"x": 1.0, "y": 3.0}, {"x": 2.0}, {"x": 1.0, "y": 0.5}]
    converted = []
    body_point = grassmann._body_point

    def recorded(dim, reads, point, *args):
        converted.append(point)
        return body_point(dim, reads, point, *args)

    monkeypatch.setattr(grassmann, "_body_point", recorded)
    values, failure = body_values(plans, points)
    assert values == [[3.0]] and converted == points[:2]
    assert isinstance(failure, EvaluationError)
    assert str(failure) == "no value for coordinate 'y'"
    assert body_values(plans, points[2:]) == ([[0.5]], None)
    assert body_values([], [{}, {}]) == ([[], []], None)


def test_coordinates_read_are_found_once_per_batch(monkeypatch):
    c = chart(("x", 0, 0), ("y", 0, 0), ("z", 0, 0))
    plans = [Plan(parse_expr("x*y", c)), Plan(parse_expr("sin(y)", c)),
             Plan(parse_expr("2", c))]
    found = []
    even_reads = grassmann._even_reads
    monkeypatch.setattr(grassmann, "_even_reads",
                        lambda plans: found.append(even_reads(plans)) or found[-1])
    values, failure = body_values(plans, sample_body_points(c, 8, 1))
    assert failure is None and len(values) == 8
    assert found == [[(0, "x"), (1, "y")]]


def test_classification_raises_the_first_point_error_in_sample_order():
    c = chart(("z", 0, 0), ("q", 0, 0), ("x", 0, 0))
    alpha = parse_expr("d(z) - (1/x)*d(q)", c)
    fine = {"z": 0.5, "q": 0.5, "x": 0.5}
    pole = {"z": 0.5, "q": 0.5, "x": 0.0}
    with pytest.raises(EvaluationError, match="^division by a value with zero body$"):
        characteristic_class(alpha, [fine, pole, fine])
    # a point where the form vanishes comes first, so its error decides
    beta = parse_expr("z*d(z) - (1/x)*d(q)", c)
    gone = {"z": 0.0, "q": 0.5, "x": 1e300}
    with pytest.raises(PfaffianError, match="form vanishes"):
        characteristic_class(beta, [fine, gone, pole])


def test_classification_raises_the_first_non_finite_or_vanishing_point():
    """Of a point whose flat map overflowed and a point where the form
    vanishes, the first in sample order raises; an evaluation error at a
    later point comes only after both."""
    c = chart(("z", 0, 0), ("y", 0, 0), ("x", 0, 0), ("w", 0, 0), ("q", 0, 0))
    alpha = parse_expr("z*d(z) + y*exp(x)*exp(x)*d(y) + (z/w)*d(q)", c)
    fine = {"z": 0.5, "y": 0.5, "x": 0.5, "w": 0.5, "q": 0.5}
    huge = {**fine, "x": 358.0}         # exp(x)*exp(x) overflows
    gone = {**fine, "z": 0.0, "y": 0.0}
    pole = {**fine, "w": 0.0}
    for points, match, witness in (
            ([fine, huge, gone, pole], "not finite", huge),
            ([fine, gone, huge, pole], "form vanishes", gone),
            ([fine, huge, pole], "not finite", huge)):
        with pytest.raises(PfaffianError, match=match) as exc:
            characteristic_class(alpha, points)
        assert exc.value.witness == witness
    with pytest.raises(EvaluationError, match="zero body"):
        characteristic_class(alpha, [fine, pole, huge, gone])


def test_presymplectic_check_raises_a_non_finite_point_in_order():
    c = chart(("x", 0, 0), ("y", 0, 0), ("w", 0, 0), ("q", 0, 0))
    omega = parse_expr("exp(x)*exp(x)*d(x)*d(y) + (1/w)*d(w)*d(q)", c)
    fine = {"x": 0.5, "y": 0.5, "w": 0.5, "q": 0.5}
    huge, pole = {**fine, "x": 358.0}, {**fine, "w": 0.0}
    with pytest.raises(PfaffianError, match="not finite") as exc:
        presymplectic_check(omega, [fine, huge, pole])
    assert exc.value.witness == huge
    with pytest.raises(EvaluationError, match="zero body"):
        presymplectic_check(omega, [fine, pole, huge])


def _overflow_box_chart():
    # exp(x)*exp(x) overflows for x above about 354.9
    return ChartSpec((CoordinateDecl("x", 0, 0, box=(350, 360)),
                      CoordinateDecl("y")))


def _policy_whose_first_point(c, overflows: bool) -> EqualityPolicy:
    return next(EqualityPolicy(seed=s) for s in range(100)
                if (sample_body_points(c, 32, s)[0]["x"] > 355) == overflows
                and any(p["x"] > 355 for p in sample_body_points(c, 32, s))
                and any(p["x"] < 354 for p in sample_body_points(c, 32, s)))


def test_span_check_decides_guard_then_membership_point_by_point():
    c = _overflow_box_chart()
    D = Distribution(c, (basis_field(c, "x"),))
    Y = vector_field(c, {"y": "exp(x)*exp(x)"})
    # outside the span at a finite first point, whatever overflows later
    assert _span_contains(D, Y, _policy_whose_first_point(c, False)) is False
    policy = _policy_whose_first_point(c, True)
    with pytest.raises(RankCollapseError, match="not finite") as exc:
        _span_contains(D, Y, policy)
    assert exc.value.witness == sample_body_points(c, 32, policy.seed)[0]
    # a generator that vanishes at the first point collapses there, before
    # the field's membership is asked
    first = sample_body_points(c, 32, policy.seed)[0]["x"]
    x = coord(c, "x")
    G = VectorField(c, 0, (x - Fraction(first), 0 * x))
    with pytest.raises(RankCollapseError, match="drop to rank 0"):
        _span_contains(Distribution(c, (G,)), Y, policy)


def _outside_then_failing(points):
    # log(x) != 0 at the first point, and log(x) fails at a later one
    xs = [p["x"] for p in points]
    return 0 < xs[0] != 1 and min(xs) <= 0


def test_span_check_keeps_its_false_before_a_point_that_fails():
    c = chart(("x", 0, 0), ("y", 0, 0))
    D = Distribution(c, (basis_field(c, "x"),))
    Y = vector_field(c, {"y": "log(x)"})
    policy = next(EqualityPolicy(seed=s) for s in range(100)
                  if _outside_then_failing(sample_body_points(c, 32, s)))
    assert _span_contains(D, Y, policy) is False
    with pytest.raises(EvaluationError):
        _span_contains(D, vector_field(c, {"x": "log(x)"}), policy)


def test_batch_is_silent_when_a_float_body_overflows():
    c = chart(("x", 0, 0), ("y", 0, 0))
    plans = [Plan(parse_expr("x*y", c)), Plan(parse_expr("cos(x*y)", c))]
    points = [{"x": 1.0, "y": 2.0}, {"x": 1e200, "y": 1e200}]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        batch = body_values(plans, points)
    # a warning raised as an error would only send the batch point by point;
    # recorded, it shows whether numpy warned at all
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        again = body_values(plans, points)
    assert caught == []
    for values, failure in (batch, again):
        assert values == [[2.0, math.cos(2.0)]]
        assert isinstance(failure, OverflowError)
        assert str(failure) == "cos of an overflowed argument"


def test_straightening_is_silent_and_typed_on_an_overflowed_argument():
    c = chart(("x", 0, 0), ("y", 0, 0))
    X = vector_field(c, {"x": "cos(x*y)"})
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(OverflowError, match="^cos of an overflowed argument$"):
            straighten_commuting([X], [1e200, 1e200])
    assert caught == []


@pytest.mark.parametrize("coeffs", [{"x": "log(-1)"}, {"x": "1", "y": "log(-1)*x"}])
def test_straightening_raises_the_typed_error_of_a_failing_constant(coeffs):
    c = chart(("x", 0, 0), ("y", 0, 0))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(EvaluationError,
                           match="^log of a value with nonpositive body$"):
            straighten_commuting([vector_field(c, coeffs)], [0.0, 0.0])
    assert caught == []


@pytest.mark.parametrize("spoiled", [math.nan, math.inf, "not a number"])
def test_a_coordinate_no_plan_reads_is_not_converted(spoiled):
    c = chart(("x", 0, 0), ("y", 0, 0), ("z", 0, 0))
    plans = [Plan(parse_expr(t, c)) for t in ("x^2 + 1/3", "sin(x)*z", "7")]
    points = sample_body_points(c, 8, 3)
    batch, failure = body_values(plans, points)
    assert failure is None and len(batch) == len(points)
    assert body_values(plans, [dict(p, y=spoiled) for p in points]) == \
        (batch, None)
    for point, vals in zip(points, batch):
        assert _one_at_a_time(plans, dict(point, y=spoiled)) == vals


def test_a_plan_that_reads_no_coordinate_runs_once_per_batch(monkeypatch):
    c = chart(("x", 0, 0), ("y", 0, 0))
    plans = [Plan(parse_expr(t, c)) for t in ("sin(x)*y", "3/2", "0", "x^2 + 1/3")]
    calls = []
    exact_body = Plan.exact_body

    def counted(plan, x):
        calls.append(plans.index(plan))
        return exact_body(plan, x)

    monkeypatch.setattr(Plan, "exact_body", counted)
    points = sample_body_points(c, 16, 5)
    batch, failure = body_values(plans, points)
    assert failure is None
    assert [calls.count(k) for k in range(len(plans))] == [0, 1, 1, 16]
    for point, vals in zip(points, batch):
        assert vals == _one_at_a_time(plans, point)
        assert vals[1:3] == [Fraction(3, 2), Fraction(0)]
        assert [type(v) for v in vals] == [float, Fraction, Fraction, Fraction]


def test_a_failing_plan_that_reads_no_coordinate_fails_every_point():
    c = chart(("x", 0, 0), ("y", 0, 0))
    plans = [Plan(parse_expr(t, c)) for t in ("x*y", "0", "log(-1)", "3/2")]
    assert not plans[2].reads and not plans[2].exact
    points = sample_body_points(c, 16, 5)
    points[3] = {"x": 0.5}      # fails first, on the coordinate it lacks
    met = []
    for i, point in enumerate(points):
        with pytest.raises(EvaluationError) as caught:
            _one_at_a_time(plans, point)
        # alone, and as the first point of a batch, each point fails
        for batch in ([point], points[i:]):
            values, failure = body_values(plans, batch)
            assert values == [] and str(failure) == str(caught.value)
        met.append(str(caught.value))
    nonpositive = "log of a value with nonpositive body"
    assert met == [nonpositive] * 3 + ["no value for coordinate 'y'"] \
        + [nonpositive] * 12


# -- the compiled float stage ------------------------------------------------------


def _walked(plans, points):
    """The plans' float bodies at the points by the walk with one value
    table, as the first call of a ``float_stage`` evaluator gives them."""
    cols = list(np.array(points, dtype=float).T)
    values = {}
    with np.errstate(all="ignore"):
        return np.stack([np.broadcast_to(p.float_body(cols, values), len(points))
                         for p in plans], axis=1)


def _warmed(plans, point):
    """A ``float_stage`` evaluator of the plans after its first call, the
    walk, at one point, so that its next call runs the compiled stage."""
    stage = float_stage(plans)
    stage(np.array([point], dtype=float))
    return stage


def _bits(evaluate):
    """Every value's ``float.hex`` in point order, or the error raised."""
    try:
        return [v.hex() for v in evaluate().ravel().tolist()]
    except Exception as exc:
        return type(exc), str(exc)


STAGE_ATOMS = ("sin", "cos", "exp", "log", "inv")


def _stage_expr(c, rng):
    """A polynomial times up to two atoms, each of power 1 to 3, whose
    argument is a polynomial or, one time in four, a nonzero constant."""
    e = random_expr(c, rng, n_terms=rng.randint(1, 3), max_deg=2)
    for _ in range(rng.randint(0, 2)):
        if rng.random() < 0.25:
            arg = const(c, Fraction(rng.choice([-3, -1, 1, 2, 5]), 2))
        else:
            arg = random_expr(c, rng, n_terms=rng.randint(1, 2), max_deg=2)
        if arg.is_zero():
            continue
        e = gmul(e, apply_func(rng.choice(STAGE_ATOMS), arg) ** rng.randint(1, 3))
    return e * rng.choice([1, 0.1, -1 / 3])


def test_the_compiled_stage_is_the_walk_bit_for_bit():
    """Lists of plans on even charts, sharing one compile table as a
    field's do, at points that include zeros, where log and 1/b have no
    value, and values near 1e200, whose products overflow to inf and, in
    inf - inf or inf * 0, to nan.  Each evaluator is first called at a
    point where every plan evaluates, so that the call compared, on the
    trial's points, is a compiled one."""
    rng = random.Random(3701)
    kinds = {"values": 0, "error": 0, "inf": 0, "nan": 0, "power": 0,
             "constant": 0}
    seen = set()
    for trial in range(300):
        c = random_chart(rng, max_even=3, max_odd=0)
        compiled = {}
        plans = [Plan(_stage_expr(c, rng), compiled)
                 for _ in range(rng.randint(1, 4))]
        points = [[rng.choice([0.0, 1e200, -1e200]) if rng.random() < 0.15
                   else rng.uniform(-2, 2) for _ in range(c.dim)]
                  for _ in range(rng.randint(1, 8))]
        # the warm-up point has its own draws, so the trials are the same
        # whether or not one is found
        warm = random.Random(trial)
        for _ in range(50):
            point = [warm.uniform(-2, 2) for _ in range(c.dim)]
            if not isinstance(_bits(lambda: _walked(plans, [point])), tuple):
                break
        else:
            continue
        stage = _warmed(plans, point)
        want = _bits(lambda: _walked(plans, points))
        assert _bits(lambda: stage(np.array(points))) == want, trial
        if isinstance(want, tuple):
            kinds["error"] += 1
        else:
            kinds["values"] += 1
            kinds["inf"] += any(v in ("inf", "-inf") for v in want)
            kinds["nan"] += "nan" in want
        atoms = [(node, k) for p in plans for _, ats, _ in p.terms
                 for node, k in ats]
        seen.update(node[0] for node, _ in atoms)
        kinds["power"] += any(k >= 2 for _, k in atoms)
        kinds["constant"] += any(not node[1].reads for node, _ in atoms)
    # every case the comparison is meant to reach is reached, ten times or
    # more
    assert min(kinds.values()) >= 10, kinds
    assert seen == set(STAGE_ATOMS)


def test_the_compiled_stage_raises_the_first_error_of_the_walk():
    """1/y comes before log(x) in the walk.  At the first point log(x)
    fails and 1/y does not; at the second, 1/y fails.  The walk computes
    1/y at every point first, so its error is the one raised, although
    one point's own operations meet log first.  Each evaluator is warmed
    at (1, 1), so the calls that raise are compiled ones."""
    c = chart(("x", 0, 0), ("y", 0, 0))
    plan = Plan(parse_expr("log(x)/y", c))
    assert [node[0] for node, _ in plan.terms[0][1]] == ["inv", "log"]
    points = np.array([[-1.0, 1.0], [1.0, 0.0]])
    with pytest.raises(EvaluationError, match="^division by a value with zero body$"):
        _walked([plan], points)
    with pytest.raises(EvaluationError, match="^division by a value with zero body$"):
        _warmed([plan], [1.0, 1.0])(points)
    # at the first point alone, log(x) is the error
    with pytest.raises(EvaluationError, match="^log of a value with nonpositive body$"):
        _warmed([plan], [1.0, 1.0])(points[:1])


def test_a_coefficient_beyond_float_range_keeps_the_walk():
    """10^400 stays an exact coefficient; the walk raises OverflowError at
    it, after the plans before it, at the first call and, through the
    compiled stage, at every later one.  The plan without it is compiled
    alone and gives math.sin bit for bit."""
    c = chart(("x", 0, 0))
    plans = [Plan(parse_expr(t, c)) for t in ("sin(x)", "10^400*x + 1")]
    assert [coeff[1] for coeff, _, _ in plans[1].terms] == [1.0, 10 ** 400]
    points = np.array([[0.5], [1.0]])
    want = _bits(lambda: _walked(plans, points))
    assert want[0] is OverflowError
    stage = float_stage(plans)
    assert [_bits(lambda: stage(points)) for _ in range(3)] == [want] * 3
    assert _bits(lambda: _warmed(plans[:1], [0.25])(points)) == \
        [math.sin(v).hex() for v in (0.5, 1.0)]
