"""The dense Grassmann kernel against the dict-keyed product and series it
replaced (``helpers.grassmann_mul_oracle``) and the brute-force Koszul
signs."""

import math
import random

import numpy as np
import pytest

from graded_darboux import (apply_func, chart, coord, eval_numeric, gmul,
                            parse_expr, zero)
from graded_darboux.grexpr import equality, expr, grassmann
from graded_darboux.grexpr.grassmann import (_ATOMS, FAILURES, Plan, _Generator,
                                             _Kernel, _blade, _coordinates,
                                             _pair_table, _product)
from helpers import (brute_force_reorder, grassmann_mul_oracle,
                     grassmann_series_oracle, random_expr)

N_POINTS = 4


def _random_rows(rng, ngens, body=(-1.0, 1.0)):
    """N_POINTS dense values with every blade nonzero, so that every pair of
    the table contributes."""
    rows = np.array([[rng.uniform(0.1, 1.0) * rng.choice([-1, 1])
                      for _ in range(1 << ngens)] for _ in range(N_POINTS)])
    rows[:, 0] = [rng.uniform(*body) for _ in range(N_POINTS)]
    return rows


def _as_dict(row):
    return {_blade(b): x for b, x in enumerate(row.tolist()) if x != 0.0}


def _assert_matches(row, want: dict):
    dense = np.zeros(len(row))
    for blade, x in want.items():
        dense[sum(1 << i for i in blade)] = x
    scale = max(1.0, float(np.max(np.abs(dense))))
    assert float(np.max(np.abs(row - dense))) <= 1e-12 * scale, (row, dense)


@pytest.mark.parametrize("ngens", range(7))
def test_products_match_the_dict_oracle(ngens):
    rng = random.Random(100 + ngens)
    u, v = _random_rows(rng, ngens), _random_rows(rng, ngens)
    got = _product(u, v)
    for i in range(N_POINTS):
        want = grassmann_mul_oracle(_as_dict(u[i]), _as_dict(v[i]))
        _assert_matches(got[i], want)


@pytest.mark.parametrize("ngens", range(6))
def test_pair_signs_match_brute_force_reorder(ngens):
    # generator g is the odd coordinate at chart index g + 1
    c = chart(("x", 0, 0), *[(f"t{g}", 1, 0) for g in range(ngens)])
    left, right, sign, starts = _pair_table(ngens)
    assert len(left) == 3 ** ngens
    assert np.all(left & right == 0) and np.all(np.diff(left | right) >= 0)
    assert starts.tolist() == np.searchsorted(left | right,
                                              range(1 << ngens)).tolist()
    for a, b, s in zip(left.tolist(), right.tolist(), sign.tolist()):
        word = [("c", g + 1) for g in _blade(a) + _blade(b)]
        want, _ = brute_force_reorder(word, c)
        assert s == want, (a, b)


def _derivs(kind, b):
    if kind == "inv":
        return lambda k: (-1.0) ** k * math.factorial(k) / b ** (k + 1)
    if kind == "log":
        return lambda k: (math.log(b) if k == 0
                          else (-1.0) ** (k - 1) * math.factorial(k - 1) / b ** k)
    cycle = {"sin": (math.sin, math.cos, lambda t: -math.sin(t), lambda t: -math.cos(t)),
             "cos": (math.cos, lambda t: -math.sin(t), lambda t: -math.cos(t), math.sin),
             "exp": (math.exp,),
             "sinh": (math.sinh, math.cosh),
             "cosh": (math.cosh, math.sinh)}[kind]
    return lambda k: cycle[k % len(cycle)](b)


def test_every_atom_kind_has_one_rule_and_one_derivative():
    assert set(_ATOMS) == set(expr.ATOM_KINDS)
    assert set(expr._DERIV_TABLE) == set(expr.ATOM_KINDS)


@pytest.mark.parametrize("kind", expr.ATOM_KINDS)
def test_atoms_match_the_oracle_series(kind):
    for ngens in range(7):
        rng = random.Random(ngens)
        u = _random_rows(rng, ngens, body=(0.5, 1.5))
        kern = _Kernel(N_POINTS, ngens, 0.0)
        got = kern.atom(kind, u)
        assert kern.failure.tolist() == [0] * N_POINTS
        for i in range(N_POINTS):
            want = grassmann_series_oracle(_as_dict(u[i]), _derivs(kind, u[i, 0]),
                                           ngens)
            _assert_matches(got[i], want)


@pytest.mark.parametrize("ngens", range(7))
def test_inverse_and_log_satisfy_their_identities(ngens):
    """Independent of the derivative formulas: u * inv(u) is the unit and
    exp(log(u)) is u, blade by blade."""
    rng = random.Random(200 + ngens)
    u = _random_rows(rng, ngens, body=(0.5, 1.5))
    kern = _Kernel(N_POINTS, ngens, 0.0)
    unit = _product(kern.atom("inv", u), u)
    back = kern.atom("exp", kern.atom("log", u))
    assert kern.failure.tolist() == [0] * N_POINTS
    for i in range(N_POINTS):
        _assert_matches(unit[i], {(): 1.0})
        _assert_matches(back[i], _as_dict(u[i]))


def test_failures_are_recorded_per_point():
    body = np.array([1.0, 1e-9, 0.0, -1.0])
    floored = _Kernel(4, 0, 1e-6)
    floored.atom("inv", body)
    assert [FAILURES[f] for f in floored.failure] == \
        [None, "divisor-floor", "divisor-floor", None]
    exact = _Kernel(4, 0, 0.0)
    exact.atom("inv", body)
    exact.atom("log", body)
    assert [FAILURES[f] for f in exact.failure] == \
        [None, None, "evaluation", "evaluation"]
    big = _Kernel(2, 0, 0.0)
    big.atom("exp", np.array([1.0, 1000.0]))
    assert [FAILURES[f] for f in big.failure] == [None, "arithmetic"]
    assert isinstance(big.error, OverflowError)


@pytest.mark.parametrize("ngens", range(1, 7))
def test_odd_coordinate_products_match_the_pair_product(ngens):
    """A finite value times an odd coordinate equals the pair product as
    numbers; a value holding inf or nan takes the pair product itself, so
    an overflowed blade that the generator annihilates still reads nan."""
    rng = random.Random(300 + ngens)
    scale = np.array([rng.uniform(0.5, 1.5) for _ in range(N_POINTS)])
    top = (1 << ngens) - 1      # holds every generator
    for g in range(ngens):
        t = _Generator(g, ngens, scale)
        u = _random_rows(rng, ngens)
        assert np.array_equal(_Kernel.mul(u, t), _product(u, t.dense))
        for bad in (np.inf, -np.inf, np.nan):
            w = u.copy()
            w[1, top] = bad
            w[2, rng.randrange(top + 1)] = bad
            with np.errstate(all="ignore"):
                assert _Kernel.mul(w, t).tobytes() == _product(w, t.dense).tobytes()


def _souled_argument(c, rng):
    """An even atom argument whose soul has one blade or several."""
    while True:
        e = random_expr(c, rng, n_terms=rng.randint(1, 3), max_deg=2)
        if e.parity() == 0:
            return coord(c, "x0") + e


@pytest.mark.parametrize("n_odd", range(1, 5))
def test_plans_agree_at_generator_and_dense_coordinates(n_odd):
    """Seeded expressions with atoms whose arguments carry souls evaluate
    alike at the generator coordinates of ``_coordinates`` and at their
    dense form, failures included (a divisor floor of 0.2 fails some
    points)."""
    rng = random.Random(400 + n_odd)
    c = chart(("x0", 0, 0), ("x1", 0, 0), *[(f"t{g}", 1, 0) for g in range(n_odd)])
    failed = set()
    for _ in range(30):
        e = zero(c)
        for _ in range(rng.randint(1, 3)):
            factor = random_expr(c, rng, n_terms=2)
            for _ in range(rng.randint(0, 2)):
                kind, arg = rng.choice(expr.ATOM_KINDS), _souled_argument(c, rng)
                if kind == "log":
                    arg = gmul(arg, arg) + 1
                factor = gmul(factor, apply_func(kind, arg))
            e = e + factor
        x = _coordinates(c, equality._draw_points(c, rng, 16))
        dense = [v.dense if isinstance(v, _Generator) else v for v in x]
        a, b = Plan(e).grassmann(x, 0.2), Plan(e).grassmann(dense, 0.2)
        assert np.array_equal(a.values, b.values, equal_nan=True)
        assert a.failure.tobytes() == b.failure.tobytes()
        assert repr(a.error) == repr(b.error)
        failed.add(bool(a.failure.any()))
    assert failed == {True, False}


@pytest.mark.parametrize("text, n_odd, want", [
    ("x*t0*t1*t2*t3", 4, {(0, 1, 2, 3): 0.5}),
    # the soul t0*t1 squares to zero, so the series stops after one term
    ("exp(x + t0*t1)", 2, {(): math.exp(0.5), (0, 1): math.exp(0.5)}),
])
def test_odd_coordinates_and_one_blade_souls_need_no_pair_product(
        monkeypatch, text, n_odd, want):
    c = chart(("x", 0, 0), *[(f"t{g}", 1, 0) for g in range(n_odd)])
    calls = []

    def counting(u, v):
        calls.append(u.shape)
        return _product(u, v)

    monkeypatch.setattr(grassmann, "_product", counting)
    assert eval_numeric(parse_expr(text, c), {"x": 0.5}).data == want
    assert calls == []
