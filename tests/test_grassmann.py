"""The dense Grassmann kernel against the dict-keyed product and series it
replaced (``helpers.grassmann_mul_oracle``) and the brute-force Koszul
signs."""

import math
import random

import numpy as np
import pytest

from graded_darboux import chart
from graded_darboux.grexpr import expr
from graded_darboux.grexpr.grassmann import (_ATOMS, FAILURES, _Kernel, _blade,
                                             _pair_table, _product)
from helpers import (brute_force_reorder, grassmann_mul_oracle,
                     grassmann_series_oracle)

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
