"""``_linalg.rank`` and ``_linalg.contains`` choose the exact path when every
body value is a Fraction, and the float path as soon as one entry is a float."""

import random
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


def _reference_rref(rows):
    """Reduced row echelon form over the rationals, column by column: the
    pivot row is scaled to a leading 1 and cleared from every other row."""
    m = [[Fraction(v) for v in r] for r in rows]
    pivots = []
    for col in range(len(m[0]) if m else 0):
        below = [i for i in range(len(pivots), len(m)) if m[i][col] != 0]
        if not below:
            continue
        r = len(pivots)
        m[r], m[below[0]] = m[below[0]], m[r]
        lead = m[r][col]
        m[r] = [v / lead for v in m[r]]
        for i in range(len(m)):
            if i != r:
                m[i] = [a - m[i][col] * b for a, b in zip(m[i], m[r])]
        pivots.append(col)
    return m, pivots


DENOMINATORS = (1, 1, 2, 4, 64, 2 ** 20, 3, 7, 21)


def _rational_matrix(rng, nrows, ncols):
    """A seeded rational matrix, now and then with a zero row or column, a
    repeated row or a combination of two rows."""
    m = [[Fraction(rng.randint(-9, 9), rng.choice(DENOMINATORS))
          if rng.random() < 0.75 else Fraction(0) for _ in range(ncols)]
         for _ in range(nrows)]
    shape = rng.choice(["full", "zero-row", "zero-col", "repeat", "combination"])
    if shape == "zero-row":
        m[rng.randrange(nrows)] = [Fraction(0)] * ncols
    elif shape == "zero-col":
        j = rng.randrange(ncols)
        for row in m:
            row[j] = Fraction(0)
    elif nrows > 1 and shape == "repeat":
        m[-1] = list(m[0])
    elif nrows > 2 and shape == "combination":
        a, b = Fraction(1, 3), Fraction(-5, 7)
        m[-1] = [a * u + b * v for u, v in zip(m[0], m[1])]
    return m


def test_exact_elimination_matches_a_reference_rref():
    rng = random.Random(13)
    for trial in range(600):
        nrows, ncols = rng.choice([(1, 1), (1, 4), (4, 1)]) if trial % 5 == 0 \
            else (rng.randint(1, 6), rng.randint(1, 6))
        rows = _rational_matrix(rng, nrows, ncols)
        ref, pivots = _reference_rref(rows)
        assert _linalg.exact_rank(rows) == _linalg.rank(rows, 1e-9) == len(pivots)
        # the kernel: one vector per free column, the RREF entries rounded once
        free = [j for j in range(ncols) if j not in pivots]
        want = [[0.0] * len(free) for _ in range(ncols)]
        for col, j in enumerate(free):
            want[j][col] = 1.0
            for r, p in enumerate(pivots):
                want[p][col] = float(-ref[r][j])
        got = _linalg.nullspace(rows, 1e-9)
        assert got.shape == (ncols, len(free))
        assert [[v.hex() for v in r] for r in got.tolist()] == \
            [[v.hex() for v in r] for r in want]
        # membership: in the row space iff appending it keeps the rank
        targets = [[Fraction(rng.randint(-9, 9), rng.choice(DENOMINATORS))
                    for _ in range(ncols)],
                   [sum((Fraction(k, 3) * r[j] for k, r in enumerate(rows, 1)),
                        Fraction(0)) for j in range(ncols)],
                   [Fraction(0)] * ncols]
        for target in targets:
            inside = len(_reference_rref(rows + [target])[1]) == len(pivots)
            assert _linalg.exact_solve_membership(rows, target) is inside
            assert _linalg.contains(rows, target, 1e-9) == \
                ((True, 0.0) if inside else (False, None))
