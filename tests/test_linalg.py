"""``_linalg.rank`` and ``_linalg.contains`` choose the exact path when every
body value is a Fraction, and the float path as soon as one entry is a float."""

from fractions import Fraction

from graded_darboux import _linalg

TINY = Fraction(1, 10 ** 12)
ONE, ZERO = Fraction(1), Fraction(0)


def test_rank_exact_unless_an_entry_is_float():
    assert _linalg.rank([[ONE, ZERO], [ZERO, TINY]], 1e-9) == 2
    assert _linalg.rank([[ONE, ZERO], [ZERO, float(TINY)]], 1e-9) == 1
    assert _linalg.rank([], 1e-9) == 0


def test_contains_exact_path():
    assert _linalg.contains([[ONE, ZERO]], [ONE * 2, ZERO], 1e-9) == (True, 0.0)
    assert _linalg.contains([[ONE, ZERO]], [ZERO, TINY], 1e-9) == (False, None)
    assert _linalg.contains([], [ZERO, ZERO], 1e-9) == (True, 0.0)


def test_contains_one_float_entry_takes_the_float_path():
    inside, residual = _linalg.contains([[ONE, ZERO]], [ZERO, float(TINY)], 1e-9)
    assert inside is True
    assert type(residual) is float and abs(residual - 1e-12) < 1e-24
    inside, residual = _linalg.contains([[ONE, 0.0]], [ZERO, TINY], 1e-15)
    assert inside is False and type(residual) is float
