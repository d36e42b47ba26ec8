"""Small dense linear algebra helpers: exact rational and float paths.
Every float zero, rank and membership decision of the package is made here,
and ``rank``, ``contains`` and ``nullspace`` alone choose between the two
paths.

Decisions take a stack: one matrix (and one vector) per sample point.  The
exact path is chosen once per stack and eliminates once per run of
consecutive equal matrices, with the package's one exact elimination
``eliminate`` over the integers (``symsolve`` runs it over expressions): a
membership takes every vector of the run as one right-hand-side column.  A
constant flat map gives every point the same value objects, so its run is
found by identity checks.  The float path decides the points whose data are
finite from one SVD over them (Golub & Van Loan, *Matrix Computations*, 4th
ed., section 5.5) and returns None at every other point, so no inf or nan
reaches LAPACK.  A finite matrix whose singular values overflow is decided
from its SVD over its largest entry.  A vector vanishes where its one-row
matrix has rank 0 under ``float_rank``: for tol < 1, where its norm is at
most tol.  A caller walks the points once, in order, and raises at the first
one it cannot decide."""

from __future__ import annotations

import math
import operator
from fractions import Fraction
from functools import wraps
from itertools import groupby
from numbers import Real
from typing import (Callable, List, NamedTuple, Optional, Sequence, Tuple,
                    Union)

import numpy as np

from .grexpr.equality import threshold


class Ring(NamedTuple):
    """An integral domain for ``eliminate``: ``zero(v)`` tests an entry,
    ``pivot(rows, free_rows, free_cols)`` picks the next pivot (row, column)
    among those not taken, or None, and ``step(rows, i, j, last)`` clears
    column j off every other row with row i, ``last`` the pivot before."""
    zero: Callable
    pivot: Callable
    step: Callable


def eliminate(rows: list, ncols: int, ring: Ring):
    """Gauss-Jordan elimination of ``rows`` in place, with pivots in the
    first ``ncols`` columns and the later ones carried as right-hand sides,
    until the ring's pivot rule finds none.  Returns the pivots (row,
    column) in the order taken and the reduced rows."""
    pivots, free_rows, free_cols = [], list(range(len(rows))), list(range(ncols))
    while free_rows and (found := ring.pivot(rows, free_rows, free_cols)):
        ring.step(rows, *found, pivots[-1] if pivots else None)
        pivots.append(found)
        free_rows.remove(found[0])
        free_cols.remove(found[1])
    return pivots, rows


def consistent(rows: list, pivots, start: int, zero: Callable,
               stop: Optional[int] = None) -> bool:
    """Whether every reduced row with no pivot is zero in the columns from
    ``start`` up to ``stop`` (to the end when None): the equations it stands
    for are trivial."""
    taken = {i for i, _ in pivots}
    return all(zero(v) for i, row in enumerate(rows) if i not in taken
               for v in row[start:stop])


def _bareiss_step(m: List[List[int]], i: int, j: int, last) -> None:
    p, prev = m[i][j], m[last[0]][last[1]] if last else 1
    for k, row in enumerate(m):
        if k != i:
            f = row[j]
            m[k] = [(p * a - f * b) // prev for a, b in zip(row, m[i])]


# fraction-free Gauss-Jordan elimination (Bareiss, Math. Comp. 22, 1968) on
# integer rows, pivots in column order: each step divides by the previous
# pivot exactly, and a pivot row is its reduced row times its pivot
INTEGERS = Ring(operator.not_, lambda m, rows, cols: next(
    ((i, j) for j in cols for i in rows if m[i][j]), None), _bareiss_step)


def _integers(rows: Sequence[Sequence[Fraction]]) -> List[List[int]]:
    """Each row of Fractions times the lcm of its denominators, which leaves
    the row space alone."""
    dens = [math.lcm(*(v.denominator for v in row)) for row in rows]
    return [[v.numerator * (d // v.denominator) for v in row]
            for row, d in zip(rows, dens)]


def exact_rank(rows: Sequence[Sequence[Fraction]]) -> int:
    """Rank of a matrix of Fractions by fraction-free elimination."""
    return len(eliminate(_integers(rows), len(rows[0]), INTEGERS)[0]
               if rows else [])


def exact_solve_membership(rows: Sequence[Sequence[Fraction]],
                           *targets: Sequence[Fraction]) -> Tuple:
    """Rank of ``rows`` and, per target in order, whether it is a
    combination of them, from one elimination."""
    k = len(rows)
    # eliminate on the augmented (ncols x k+m) system rows^T C = targets,
    # whose right-hand-side columns never mix, so each reads as if alone
    pivots, aug = eliminate(_integers([[r[i] for r in rows]
                                       + [t[i] for t in targets]
                                       for i in range(len(targets[0]))]),
                            k, INTEGERS)
    return (len(pivots), *(consistent(aug, pivots, c, INTEGERS.zero, c + 1)
                           for c in range(k, k + len(targets))))


def negligible(x: float, tol: float, scale: float = 0.0) -> bool:
    """Whether |x| is at most ``tol`` relative to ``scale``: the package's
    float zero test."""
    return bool(abs(x) <= threshold(tol, scale))


def _finite_points(decide):
    """``decide(*stacks, *numbers)`` over the points where every float stack
    is finite, in one call, and None at every other point, so that no inf or
    nan reaches LAPACK; the stacks share their leading axis, one entry a
    point, and the trailing numbers (a tolerance) pass through."""
    @wraps(decide)
    def at_finite(*args):
        k = next((i for i, a in enumerate(args) if isinstance(a, Real)),
                 len(args))
        stacks, rest = args[:k], args[k:]
        if not len(stacks[0]):
            return []
        stacks = [np.asarray(a, dtype=float) for a in stacks]
        bad = np.zeros(len(stacks[0]), dtype=bool)
        for a in stacks:
            bad |= ~np.isfinite(a).all(axis=tuple(range(1, a.ndim)))
        if not bad.any():
            return decide(*stacks, *rest)
        out = iter(decide(*(a[~bad] for a in stacks), *rest))
        return [None if f else next(out) for f in bad.tolist()]
    return at_finite


def _norms(a: np.ndarray) -> np.ndarray:
    """Euclidean norm of each row of a finite float array; a row whose
    squares overflow is divided by its largest entry first."""
    with np.errstate(over="ignore"):
        norms = np.linalg.norm(a, axis=1)
    big = np.isinf(norms)
    if big.any():
        top = np.abs(a[big]).max(axis=1, keepdims=True)
        norms[big] = top[:, 0] * np.linalg.norm(a[big] / top, axis=1)
    return norms


def unit_rows(a: np.ndarray) -> np.ndarray:
    """Each row of a float array over its Euclidean norm; a zero row stays
    zero, and a row that is not finite stays so."""
    with np.errstate(invalid="ignore"):     # inf/inf is nan
        norms = _norms(a)
        return a / np.where(norms == 0, 1.0, norms)[:, None]


def _svd(a: np.ndarray, **kwargs):
    """``np.linalg.svd`` of a finite stack, where a matrix whose singular
    values overflow is taken over its largest entry: its singular vectors
    stay, and its singular values keep their ratios."""
    out = np.linalg.svd(a, **kwargs)
    s = out if isinstance(out, np.ndarray) else out.S
    big = ~np.isfinite(s).all(axis=-1)
    if big.any():
        top = np.abs(a[big]).max(axis=(-2, -1), keepdims=True)
        scaled = np.linalg.svd(a[big] / top, **kwargs)
        for whole, part in [(out, scaled)] if s is out else zip(out, scaled):
            whole[big] = part
    return out


def _ranks(s: np.ndarray, tol: float) -> List[int]:
    """Per matrix, the number of singular values above ``tol`` relative to
    its largest."""
    return np.sum(s > threshold(tol, s[:, :1]), axis=1).tolist()


@_finite_points
def float_rank(mats: np.ndarray, tol: float) -> List[Optional[int]]:
    """Rank of each matrix of a float stack, from one SVD over its finite
    matrices; None at the others."""
    return _ranks(_svd(mats, compute_uv=False), tol)


@_finite_points
def float_contains(mats: np.ndarray, vecs: np.ndarray,
                   tol: float) -> List[Optional[Tuple[int, bool, float]]]:
    """Rank of each matrix of a float stack (N, k, n), membership of the
    matching vector of ``vecs`` (N, n) in its row space, and the residual,
    from one SVD over the points whose matrix and vector are finite; None
    at the others.  The residual is |v - U_q U_q^T v| for the first q left
    singular vectors of the transpose, q counting the singular values above
    lstsq's default cut eps·max(k, n)·s_max: the least-squares residual."""
    k, n = mats.shape[1:]
    u, s, _ = _svd(mats.transpose(0, 2, 1), full_matrices=False)
    cut = np.finfo(float).eps * max(k, n) * s[:, :1]
    coef = np.einsum("pij,pi->pj", u, vecs) * (s > cut)
    res = _norms(vecs - np.einsum("pij,pj->pi", u, coef))
    inside = res <= threshold(tol, _norms(vecs))
    return list(zip(_ranks(s, tol), inside.tolist(), res.tolist()))


@_finite_points
def float_solve(mats: np.ndarray, rhs: np.ndarray) -> List[Optional[np.ndarray]]:
    """Solution X of A X = B for each square matrix A of a float stack and
    the matching B, from one ``np.linalg.solve`` over the points where both
    are finite; None at the others."""
    return list(np.linalg.solve(mats, rhs))


def _exact(*stacks: Sequence) -> bool:
    return all(isinstance(v, Fraction)
               for st in stacks for m in st for r in m for v in r)


def rank(stack: Sequence[Sequence[Sequence[Union[Fraction, float]]]],
         tol: float) -> List[Optional[int]]:
    """Rank of each matrix of a stack of body values, all k x n: exact when
    every entry of the stack is a Fraction, else from one SVD, with None
    where a matrix is not finite."""
    if _exact(stack):
        out = []
        for rows, run in groupby(stack):
            out += [exact_rank(rows)] * len(list(run))
        return out
    return float_rank(np.array(stack, dtype=float), tol)


def contains(stack: Sequence[Sequence[Sequence[Union[Fraction, float]]]],
             vecs: Sequence[Sequence[Union[Fraction, float]]],
             tol: float) -> List[Optional[Tuple[int, bool, Optional[float]]]]:
    """Per point: rank of the k x n rows, membership of the n-vector in
    their row space and its residual.  Exact (residual 0.0, or None
    outside) when every entry of the stack and the vectors is a Fraction,
    by one elimination per run of equal matrices, each point's vector one
    right-hand side; else from one SVD over the stack, where exact rows keep
    their exact rank, and None where the rows or the vector are not
    finite."""
    if _exact(stack, [vecs]):
        out = []
        for rows, run in groupby(zip(stack, vecs), key=operator.itemgetter(0)):
            r, *inside = exact_solve_membership(rows, *(v for _, v in run))
            out += [(r, True, 0.0) if i else (r, False, None) for i in inside]
        return out
    vecs = np.array(vecs, dtype=float)
    mats = np.array(stack, dtype=float).reshape(len(vecs), -1, vecs.shape[1])
    out = float_contains(mats, vecs, tol)
    if _exact(stack):
        out = [None if d is None else (r,) + d[1:]
               for r, d in zip(rank(stack, tol), out)]
    return out


def nullspace(rows: Sequence[Sequence[Union[Fraction, float]]],
              tol: float) -> np.ndarray:
    """Basis of the kernel of a matrix of body values, as float columns: one
    vector per free column of the reduced row echelon form when every entry
    is a Fraction, an orthonormal basis from the singular vectors
    otherwise."""
    if _exact([rows]):
        pivots, m = eliminate(_integers(rows), len(rows[0]), INTEGERS)
        taken = [j for _, j in pivots]
        free = [j for j in range(len(rows[0])) if j not in taken]
        basis = np.zeros((len(rows[0]), len(free)))
        for col, j in enumerate(free):
            basis[j, col] = 1.0
            # int true division rounds the rational entry correctly, as
            # Fraction.__float__ does; + 0.0 reads -0.0 as 0.0
            basis[taken, col] = [-m[i][j] / m[i][c] + 0.0 for i, c in pivots]
        return basis
    u, s, vt = _svd(np.array(rows, dtype=float)[None])
    return vt[0, _ranks(s, tol)[0]:].T
