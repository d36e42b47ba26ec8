"""``_linalg.rank`` and ``_linalg.contains`` decide a stack of matrices, one a
point.  They choose the exact path when every body value of the stack is a
Fraction, and the float path, one SVD over the stack, as soon as one entry
is a float; ``contains`` returns the rank of the rows from its one
elimination or SVD."""

import math
import random
from fractions import Fraction

import numpy as np
import pytest

from graded_darboux import _linalg
from helpers import float_decision_oracle

TINY = Fraction(1, 10 ** 12)
ONE, ZERO = Fraction(1), Fraction(0)


def test_rank_exact_unless_an_entry_is_float():
    assert _linalg.rank([[[ONE, ZERO], [ZERO, TINY]]], 1e-9)[0] == 2
    assert _linalg.rank([[[ONE, ZERO], [ZERO, float(TINY)]]], 1e-9)[0] == 1
    assert _linalg.rank([[]], 1e-9)[0] == 0


def test_contains_exact_path():
    assert _linalg.contains([[[ONE, ZERO]]], [[ONE * 2, ZERO]], 1e-9)[0] == (1, True, 0.0)
    assert _linalg.contains([[[ONE, ZERO]]], [[ZERO, TINY]], 1e-9)[0] == (1, False, None)
    assert _linalg.contains([[]], [[ZERO, ZERO]], 1e-9)[0] == (0, True, 0.0)


def test_contains_one_float_entry_takes_the_float_path():
    r, inside, residual = _linalg.contains([[[ONE, ZERO]]], [[ZERO, float(TINY)]], 1e-9)[0]
    assert r == 1 and inside is True
    assert type(residual) is float and abs(residual - 1e-12) < 1e-24
    r, inside, residual = _linalg.contains([[[ONE, 0.0]]], [[ZERO, TINY]], 1e-15)[0]
    assert r == 1 and inside is False and type(residual) is float


def test_contains_keeps_the_exact_rank_of_exact_rows():
    # the float rank of these rows is 1; only the target is float
    rows = [[ONE, ZERO], [ZERO, TINY]]
    assert _linalg.contains([rows], [[ONE, 0.0]], 1e-9)[0][:2] == (2, True)
    assert _linalg.contains([[[ONE, ZERO], [ZERO, float(TINY)]]],
                            [[ONE, 0.0]], 1e-9)[0][:2] == (1, True)


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
        assert _linalg.exact_rank(rows) == _linalg.rank([rows], 1e-9)[0] == len(pivots)
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
            assert _linalg.exact_solve_membership(rows, target) == \
                (len(pivots), inside)
            assert _linalg.contains([rows], [target], 1e-9)[0] == \
                ((len(pivots), True, 0.0) if inside else (len(pivots), False, None))


def _targets(rng, rows, ncols):
    """A random rational vector, a combination of the rows and zero."""
    return [[Fraction(rng.randint(-9, 9), rng.choice(DENOMINATORS))
             for _ in range(ncols)],
            [sum((Fraction(k, 3) * r[j] for k, r in enumerate(rows, 1)),
                 Fraction(0)) for j in range(ncols)],
            [Fraction(0)] * ncols]


def test_stacked_exact_decisions_match_a_reference_rref():
    """The exact path is chosen once per stack and decides each point as the
    reference RREF does, stacks of no rows (k = 0) included; one float entry
    anywhere sends the whole stack to the float path, where exact rows keep
    their exact rank."""
    rng = random.Random(24)
    for trial in range(300):
        N, k, n = rng.randint(1, 5), rng.randint(0, 4), rng.randint(1, 4)
        stack = [_rational_matrix(rng, k, n) if k else [] for _ in range(N)]
        targets = [rng.choice(_targets(rng, rows, n)) for rows in stack]
        ranks = [len(_reference_rref(rows)[1]) for rows in stack]
        inside = [len(_reference_rref(rows + [t])[1]) == r
                  for rows, t, r in zip(stack, targets, ranks)]
        assert _linalg.rank(stack, 1e-9) == ranks
        assert _linalg.contains(stack, targets, 1e-9) == \
            [(r, ins, 0.0 if ins else None) for r, ins in zip(ranks, inside)]
        # one float entry, at a random point of the vectors
        j = rng.randrange(N)
        floated = [list(t) for t in targets]
        floated[j][rng.randrange(n)] = float(floated[j][0])
        got = _linalg.contains(stack, floated, 1e-9)
        for rows, t, r, (gr, ins, res) in zip(stack, floated, ranks, got):
            _, want, want_res = float_decision_oracle(rows, t, 1e-9)
            assert gr == r and ins == want and type(res) is float
            # rows made singular by a rational combination keep a singular
            # value of rounding size, next to lstsq's cut, which two SVD
            # routines may place on either side: the residuals then agree to
            # the decision's tolerance, not to the last bits
            assert abs(res - want_res) <= 1e-9 * max(1.0, math.hypot(*t))


def _copy(rows):
    """An equal matrix that shares no object with ``rows``."""
    return [[Fraction(v.numerator, v.denominator) for v in r] for r in rows]


def test_runs_of_equal_matrices_take_one_elimination_each(monkeypatch):
    """The exact path eliminates once per run of consecutive equal matrices,
    whether they are one object or equal copies, and still decides each
    point as the reference RREF does: runs of one to four points, runs of
    one point between them, and the empty stack."""
    calls = []
    eliminate = _linalg.eliminate
    monkeypatch.setattr(_linalg, "eliminate",
                        lambda *args: calls.append(1) or eliminate(*args))
    assert _linalg.rank([], 1e-9) == [] and _linalg.contains([], [], 1e-9) == []
    assert calls == []
    rng = random.Random(32)
    repeats = 0
    for trial in range(300):
        k, n = rng.randint(0, 4), rng.randint(1, 4)
        stack = []
        for _ in range(rng.randint(1, 4)):
            rows = _rational_matrix(rng, k, n) if k else []
            length = rng.choice([1, 1, 2, 3, 4])
            stack += [rows if rng.random() < 0.5 else _copy(rows)
                      for _ in range(length)]
        targets = [rng.choice(_targets(rng, rows, n)) for rows in stack]
        ranks = [len(_reference_rref(rows)[1]) for rows in stack]
        inside = [len(_reference_rref(rows + [t])[1]) == r
                  for rows, t, r in zip(stack, targets, ranks)]
        runs = sum(i == 0 or stack[i] != stack[i - 1] for i in range(len(stack)))
        repeats += runs < len(stack)
        calls.clear()
        assert _linalg.rank(stack, 1e-9) == ranks
        assert len(calls) == (runs if k else 0)
        calls.clear()
        assert _linalg.contains(stack, targets, 1e-9) == \
            [(r, ins, 0.0 if ins else None) for r, ins in zip(ranks, inside)]
        assert len(calls) == runs
        # exact rows with float vectors keep their exact rank, one
        # elimination a run
        calls.clear()
        floated = [[float(v) for v in t] for t in targets]
        assert [d[0] for d in _linalg.contains(stack, floated, 1e-9)] == ranks
        assert len(calls) == (runs if k else 0)
    assert repeats > 200


def _float_stack(rng, N, k, n):
    """N float k x n matrices with one vector each: full rank or made rank
    deficient by a repeated row, a row combination or a zero row; each
    matrix scaled by a power of ten from 1e-12 to 1e8; the vectors random,
    combinations of the rows, or zero."""
    mats = rng.integers(-9, 10, (N, k, n)) / rng.choice([1, 2, 3, 7], (N, k, 1))
    shape = rng.choice(["full", "full", "repeat", "combination", "zero-row"])
    if k >= 2 and shape == "repeat":
        mats[:, -1] = mats[:, 0]
    elif k >= 3 and shape == "combination":
        mats[:, -1] = mats[:, 0] / 3 - 5 * mats[:, 1] / 7
    elif k >= 1 and shape == "zero-row":
        mats[:, -1] = 0.0
    if rng.random() < 0.3:
        mats = mats + rng.standard_normal((N, k, n))
    mats = mats * 10.0 ** rng.choice([-12, -8, 0, 0, 8], (N, 1, 1))
    kind = rng.choice(["random", "inside", "zero"])
    if kind == "random" or k == 0:
        vecs = rng.standard_normal((N, n)) * 10.0 ** rng.choice([-6, 0, 6])
    elif kind == "inside":
        vecs = np.einsum("pk,pkn->pn", rng.integers(-3, 4, (N, k)) * 1.0, mats)
    else:
        vecs = np.zeros((N, n))
    return mats, vecs


def test_stacked_float_decisions_match_a_per_point_oracle():
    """One SVD over the stack gives each point the rank, the membership and
    the residual that a per-point least-squares solve gives: rank-deficient,
    scaled and empty (k = 0) stacks of rows included."""
    rng = np.random.default_rng(24)
    points = 0
    for trial in range(600):
        N, k, n = (int(v) for v in rng.integers(1, [6, 5, 5], endpoint=True))
        k -= 1      # from 0
        mats, vecs = _float_stack(rng, N, k, n)
        got = _linalg.contains(mats.tolist(), vecs.tolist(), 1e-9)
        ranks = _linalg.rank(mats.tolist(), 1e-9) if k else [0] * N
        assert len(got) == len(ranks) == N
        for i in range(N):
            r, inside, res = float_decision_oracle(mats[i], vecs[i], 1e-9)
            scale = max(1.0, float(np.linalg.norm(vecs[i])))
            assert got[i][:2] == (r, inside) and ranks[i] == r
            assert abs(got[i][2] - res) <= 1e-12 * scale
            points += 1
    assert points > 1500


NON_FINITE = (math.inf, -math.inf, math.nan)


def _vanishes(vecs, tol):
    """Per vector: whether its one-row matrix has rank 0, None where it is
    not finite."""
    return [None if r is None else r == 0
            for r in _linalg.float_rank([[v] for v in vecs], tol)]


def test_vanishing_per_point():
    """A vector vanishes where its one-row rank is 0: for every tol < 1,
    where its Euclidean norm is at most tol."""
    vecs = [[0.0, 0.0], [1e-10, -1e-10], [1e-9, 1e-9], [1.0, 0.0],
            [1e200, 1e200], [Fraction(1, 10 ** 12), ZERO]]
    want = [math.hypot(*map(float, v)) <= 1e-9 for v in vecs]
    assert want == [True, True, False, False, False, True]
    assert _vanishes(vecs, 1e-9) == want
    assert _linalg.float_rank([], 1e-9) == []
    for bad in NON_FINITE:
        got = _vanishes(vecs[:3] + [[0.0, bad]] + vecs, 1e-9)
        assert got == want[:3] + [None] + want
    rng = np.random.default_rng(28)
    for tol in (1e-15, 1e-9, 1e-3, 0.5, 0.999):
        vecs = rng.standard_normal((200, 3)) * tol * rng.uniform(0.5, 1.5, (200, 1))
        assert _vanishes(vecs.tolist(), tol) == \
            (np.linalg.norm(vecs, axis=1) <= tol).tolist()


def test_a_vector_whose_squares_overflow_has_rank_one():
    # the singular value overflows to inf although every entry is finite
    assert _linalg.float_rank([[[1.5e308, 1.5e308]]], 1e-9) == [1]
    assert _vanishes([[1.5e308, 1.5e308], [0.0, 0.0]], 1e-9) == [False, True]


def test_decisions_on_a_matrix_whose_singular_values_overflow():
    """Rank, membership and kernel of a finite matrix are those of its
    multiple over its largest entry."""
    big = [[1.5e308, 1.5e308, 0.0], [0.0, 0.0, 1.5e308]]
    assert _linalg.float_rank([big, [[1.0, 1.0, 0.0], [0.0, 0.0, 1.0]]],
                              1e-9) == [2, 2]
    assert _linalg.rank([big + [[3e307, 3e307, -1e308]]], 1e-9) == [2]
    got = _linalg.contains([big], [[1.0, 1.0, 5.0]], 1e-9)[0]
    assert got[:2] == (2, True) and got[2] < 1e-9
    assert _linalg.contains([big], [[1.0, -1.0, 0.0]], 1e-9)[0][:2] == (2, False)
    kernel = _linalg.nullspace(big + [[0.0, 0.0, 0.0]], 1e-9)
    assert kernel.shape == (3, 1)
    assert np.allclose(abs(kernel[:, 0]), [2 ** -0.5, 2 ** -0.5, 0.0])
    assert kernel[0, 0] == -kernel[1, 0]


@pytest.fixture
def finite_svd(monkeypatch):
    """``np.linalg.svd`` behind a check that LAPACK sees only finite data."""
    svd = np.linalg.svd

    def checked(a, *args, **kwargs):
        assert np.isfinite(a).all(), "LAPACK called on a non-finite stack"
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", checked)


@pytest.mark.parametrize("bad", NON_FINITE)
def test_a_non_finite_point_is_none_and_never_reaches_lapack(bad, finite_svd):
    rows = [[[1.0, 0.0], [0.0, 1.0]] for _ in range(4)]
    vecs = [[1.0, 1.0] for _ in range(4)]
    for where in ("rows", "vector"):
        for j in range(4):
            r = [[list(row) for row in m] for m in rows]
            v = [list(x) for x in vecs]
            if where == "rows":
                r[j][1][0] = bad
            else:
                v[j][1] = bad
            want = [None if i == j else (2, True, 0.0) for i in range(4)]
            assert _linalg.contains(r, v, 1e-9) == want
            ranks = [None if i == j and where == "rows" else 2
                     for i in range(4)]
            assert _linalg.rank(r, 1e-9) == ranks
            assert _linalg.float_rank(np.array(r), 1e-9) == ranks
    # exact rows keep their exact rank where the vector is finite
    exact = [[[ONE, ZERO]], [[ONE, ZERO]]]
    assert _linalg.contains(exact, [[bad, 0.0], [2.0, 0.0]], 1e-9) == \
        [None, (1, True, 0.0)]


def test_finite_points_are_decided_as_if_alone(finite_svd):
    """The points around a non-finite one get the decisions they get when
    they are decided without it."""
    rng = np.random.default_rng(25)
    cases = 0
    for trial in range(200):
        N, k, n = (int(v) for v in rng.integers(1, [6, 4, 4], endpoint=True))
        mats, vecs = _float_stack(rng, N, k, n)
        bad = rng.random(N) < 0.4
        for i in np.flatnonzero(bad):
            stack = mats if rng.random() < 0.5 else vecs
            stack[i].flat[rng.integers(stack[i].size)] = rng.choice(NON_FINITE)
        for decide, args in ((_linalg.contains, (mats, vecs)),
                             (_linalg.rank, (mats,)),
                             (_linalg.float_rank, (vecs[:, None],))):
            finite = np.logical_and.reduce(
                [np.isfinite(a.reshape(N, -1)).all(axis=1) for a in args])
            got = decide(*(a.tolist() for a in args), 1e-9)
            alone = iter(decide(*(a[finite].tolist() for a in args), 1e-9))
            assert got == [next(alone) if f else None for f in finite]
            cases += not finite.all()
    assert cases > 200


def test_membership_of_a_vector_whose_squares_overflow():
    # |v|^2 overflows although v is finite, so the norms are taken scaled
    rows = [[[1.0, 0.0]]]
    assert _linalg.contains(rows, [[0.0, 1e305]], 1e-9)[0] == (1, False, 1e305)
    assert _linalg.contains(rows, [[1e305, 0.0]], 1e-9)[0] == (1, True, 0.0)


def test_kernel_of_the_integer_elimination_is_exact():
    """The one elimination over the integers: its pivot columns are the
    reference RREF's, and each kernel vector read from its pivots and
    reduced rows, one per free column, is annihilated by the rows exactly
    and holds the reference RREF's entries."""
    rng = random.Random(31)
    for trial in range(400):
        rows = _rational_matrix(rng, rng.randint(1, 6), rng.randint(1, 6))
        ncols = len(rows[0])
        ref, ref_pivots = _reference_rref(rows)
        pivots, m = _linalg.eliminate(_linalg._integers(rows), ncols,
                                      _linalg.INTEGERS)
        assert [j for _, j in pivots] == ref_pivots
        for j in range(ncols):
            if j in ref_pivots:
                continue
            k = [Fraction(0)] * ncols
            k[j] = Fraction(1)
            for i, c in pivots:
                k[c] = Fraction(-m[i][j], m[i][c])
            assert all(sum(a * b for a, b in zip(row, k)) == 0 for row in rows)
            assert [k[c] for c in ref_pivots] == \
                [-ref[r][j] for r in range(len(ref_pivots))]
