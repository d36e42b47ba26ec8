"""Small dense linear algebra helpers: exact rational and float paths.
Every float zero, rank and membership decision of the package is made here,
and ``rank``, ``contains`` and ``nullspace`` alone choose between the two
paths."""

from __future__ import annotations

import math
from fractions import Fraction
from typing import List, Optional, Sequence, Tuple, Union

import numpy as np

from .grexpr.equality import threshold


def _rref(rows: Sequence[Sequence[Fraction]],
          ncols: int) -> Tuple[List[List[int]], List[int]]:
    """Fraction-free Gauss-Jordan elimination (Bareiss, Math. Comp. 22,
    1968) over the first ``ncols`` columns of ``rows``.

    Each row is first cleared of its denominators, which leaves its row
    space alone; every step then divides by the previous pivot exactly.
    Returns the integer matrix ``m`` and its pivot columns: for r <
    ``len(pivots)``, row r is row r of the reduced row echelon form times
    ``m[r][pivots[r]]``, and every later row is zero in the first ``ncols``
    columns and a nonzero multiple of the rational elimination's row."""
    m = []
    for row in rows:
        den = math.lcm(*(v.denominator for v in row))
        m.append([v.numerator * (den // v.denominator) for v in row])
    pivots: List[int] = []
    prev = 1
    for col in range(ncols):
        r = len(pivots)
        if r == len(m):
            break
        piv = next((i for i in range(r, len(m)) if m[i][col]), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        top = m[r]
        p = top[col]
        for i, row in enumerate(m):
            if i != r:
                f = row[col]
                m[i] = [(p * a - f * b) // prev for a, b in zip(row, top)]
        pivots.append(col)
        prev = p
    return m, pivots


def exact_rank(rows: Sequence[Sequence[Fraction]]) -> int:
    """Rank of a matrix of Fractions by fraction-free elimination."""
    return len(_rref(rows, len(rows[0]))[1]) if rows else 0


def exact_solve_membership(rows: Sequence[Sequence[Fraction]],
                           target: Sequence[Fraction]) -> Tuple[int, bool]:
    """Rank of ``rows`` and whether ``target`` is a combination of them."""
    k = len(rows)
    # eliminate on the augmented (ncols x k+1) system rows^T c = target
    aug, pivots = _rref([[r[i] for r in rows] + [t]
                         for i, t in enumerate(target)], k)
    return len(pivots), not any(row[k] for row in aug[len(pivots):])


def negligible(x: float, tol: float, scale: float = 0.0) -> bool:
    """Whether |x| is at most ``tol`` relative to ``scale``: the package's
    float zero test."""
    return bool(abs(x) <= threshold(tol, scale))


def vanishes(vec: np.ndarray, tol: float) -> bool:
    """Whether the Euclidean norm of ``vec`` is negligible."""
    return negligible(float(np.linalg.norm(vec)), tol)


def _rank(s: np.ndarray, tol: float) -> int:
    """Number of singular values above ``tol`` relative to the largest."""
    return int(np.sum(s > threshold(tol, float(s[0])))) if s.size else 0


def float_rank(mat: np.ndarray, tol: float) -> int:
    return _rank(np.linalg.svd(mat, compute_uv=False), tol)


def in_row_space(mat: np.ndarray, vec: np.ndarray,
                 tol: float) -> Tuple[int, bool, float]:
    """Rank of ``mat`` and least-squares membership of ``vec`` in its row
    space, with the residual."""
    sol, _, _, s = np.linalg.lstsq(mat.T, vec, rcond=None)
    res = float(np.linalg.norm(mat.T @ sol - vec))
    return _rank(s, tol), negligible(res, tol, float(np.linalg.norm(vec))), res


def _exact(*mats: Sequence[Sequence]) -> bool:
    return all(isinstance(v, Fraction) for m in mats for r in m for v in r)


def rank(rows: Sequence[Sequence[Union[Fraction, float]]], tol: float) -> int:
    """Rank of a matrix of body values: exact when every entry is a
    Fraction, by singular values otherwise."""
    if _exact(rows):
        return exact_rank(rows)
    # each Fraction is rounded once to the nearest float
    return float_rank(np.array(rows, dtype=float), tol)


def contains(rows: Sequence[Sequence[Union[Fraction, float]]],
             vec: Sequence[Union[Fraction, float]],
             tol: float) -> Tuple[int, bool, Optional[float]]:
    """Rank of ``rows``, membership of ``vec`` in their row space and its
    residual, from one elimination: exact (residual 0.0, or None outside)
    when every entry is a Fraction, by least squares otherwise; exact rows
    keep their exact rank."""
    if _exact(rows, [vec]):
        r, inside = exact_solve_membership(rows, vec)
        return r, inside, 0.0 if inside else None
    mat = np.array(rows, dtype=float).reshape(len(rows), len(vec))
    r, inside, res = in_row_space(mat, np.array(vec, dtype=float), tol)
    return (exact_rank(rows) if _exact(rows) else r), inside, res


def nullspace(rows: Sequence[Sequence[Union[Fraction, float]]],
              tol: float) -> np.ndarray:
    """Basis of the kernel of a matrix of body values, as float columns: one
    vector per free column of the reduced row echelon form when every entry
    is a Fraction, an orthonormal basis from the singular vectors
    otherwise."""
    if _exact(rows):
        m, pivots = _rref(rows, len(rows[0]))
        free = [j for j in range(len(m[0])) if j not in pivots]
        basis = np.zeros((len(m[0]), len(free)))
        for col, j in enumerate(free):
            basis[j, col] = 1.0
            # int true division rounds the rational entry correctly, as
            # Fraction.__float__ does; + 0.0 reads -0.0 as 0.0
            basis[pivots, col] = [-m[r][j] / m[r][piv] + 0.0
                                  for r, piv in enumerate(pivots)]
        return basis
    u, s, vt = np.linalg.svd(np.array(rows, dtype=float))
    return vt[_rank(s, tol):].T

