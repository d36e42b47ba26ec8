"""Small dense linear algebra helpers: exact rational and float paths.
Every float zero, rank and membership decision of the package is made here,
and ``rank``, ``contains`` and ``nullspace`` alone choose between the two
paths.

Decisions take a stack: one matrix (and one vector) per sample point.  The
exact path is chosen once per stack and eliminates point by point; the
float path decides every point of the stack from one SVD (Golub & Van Loan,
*Matrix Computations*, 4th ed., section 5.5), after refusing a stack that
holds an inf or nan with ``NonFiniteError`` before any LAPACK call."""

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


class NonFiniteError(ValueError):
    """A float decision met inf or nan; ``index`` is the first matrix of the
    stack that holds one."""

    def __init__(self, index: int):
        super().__init__(f"matrix {index} of the stack is not finite")
        self.index = index


def _refuse_nonfinite(*stacks: np.ndarray) -> None:
    """Raise ``NonFiniteError`` at the first point where a float stack holds
    an inf or nan; the stacks share their leading axis, one entry a point."""
    bad = np.zeros(len(stacks[0]), dtype=bool)
    for a in stacks:
        bad |= ~np.isfinite(a).all(axis=tuple(range(1, a.ndim)))
    if bad.any():
        raise NonFiniteError(int(bad.argmax()))


def vanishes(vecs: Sequence[Sequence], tol: float) -> List[bool]:
    """Whether the Euclidean norm of each vector of a float stack is
    negligible; one whose squares overflow does not vanish."""
    if not len(vecs):
        return []
    vecs = np.array(vecs, dtype=float)
    _refuse_nonfinite(vecs)
    with np.errstate(over="ignore"):
        return (np.linalg.norm(vecs, axis=1) <= threshold(tol)).tolist()


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


def _ranks(s: np.ndarray, tol: float) -> List[int]:
    """Per matrix, the number of singular values above ``tol`` relative to
    its largest."""
    return np.sum(s > threshold(tol, s[:, :1]), axis=1).tolist()


def float_rank(mats: np.ndarray, tol: float) -> List[int]:
    """Rank of each matrix of a float stack, from one SVD over the stack."""
    _refuse_nonfinite(mats)
    return _ranks(np.linalg.svd(mats, compute_uv=False), tol)


def float_contains(mats: np.ndarray, vecs: np.ndarray,
                   tol: float) -> List[Tuple[int, bool, float]]:
    """Rank of each matrix of a float stack (N, k, n), membership of the
    matching vector of ``vecs`` (N, n) in its row space, and the residual,
    from one SVD over the stack.  The residual is |v - U_q U_q^T v| for the
    first q left singular vectors of the transpose, q counting the singular
    values above lstsq's default cut eps·max(k, n)·s_max: the least-squares
    residual."""
    _refuse_nonfinite(mats, vecs)
    k, n = mats.shape[1:]
    u, s, _ = np.linalg.svd(mats.transpose(0, 2, 1), full_matrices=False)
    cut = np.finfo(float).eps * max(k, n) * s[:, :1]
    coef = np.einsum("pij,pi->pj", u, vecs) * (s > cut)
    res = _norms(vecs - np.einsum("pij,pj->pi", u, coef))
    inside = res <= threshold(tol, _norms(vecs))
    return list(zip(_ranks(s, tol), inside.tolist(), res.tolist()))


def before_refusal(decide, *stacks, tol: float):
    """``decide(*stacks, tol)`` and None; or, when it refuses the point at
    some index, the decisions of the points before it and the refusal, so
    that a caller walking the points in order meets the refusal where it
    comes."""
    try:
        return decide(*stacks, tol), None
    except NonFiniteError as exc:
        return decide(*(st[:exc.index] for st in stacks), tol), exc


def _exact(*stacks: Sequence) -> bool:
    return all(isinstance(v, Fraction)
               for st in stacks for m in st for r in m for v in r)


def rank(stack: Sequence[Sequence[Sequence[Union[Fraction, float]]]],
         tol: float) -> List[int]:
    """Rank of each matrix of a stack of body values, all k x n: exact when
    every entry of the stack is a Fraction, else from one SVD."""
    if _exact(stack):
        return [exact_rank(m) for m in stack]
    return float_rank(np.array(stack, dtype=float), tol)


def contains(stack: Sequence[Sequence[Sequence[Union[Fraction, float]]]],
             vecs: Sequence[Sequence[Union[Fraction, float]]],
             tol: float) -> List[Tuple[int, bool, Optional[float]]]:
    """Per point: rank of the k x n rows, membership of the n-vector in
    their row space and its residual.  Exact (residual 0.0, or None
    outside) when every entry of the stack and the vectors is a Fraction,
    by one elimination per point; else from one SVD over the stack, where
    exact rows keep their exact rank."""
    if _exact(stack, [vecs]):
        out = []
        for rows, vec in zip(stack, vecs):
            r, inside = exact_solve_membership(rows, vec)
            out.append((r, inside, 0.0 if inside else None))
        return out
    vecs = np.array(vecs, dtype=float)
    mats = np.array(stack, dtype=float).reshape(len(vecs), -1, vecs.shape[1])
    out = float_contains(mats, vecs, tol)
    if _exact(stack):
        out = [(exact_rank(rows), inside, res)
               for rows, (_, inside, res) in zip(stack, out)]
    return out


def nullspace(rows: Sequence[Sequence[Union[Fraction, float]]],
              tol: float) -> np.ndarray:
    """Basis of the kernel of a matrix of body values, as float columns: one
    vector per free column of the reduced row echelon form when every entry
    is a Fraction, an orthonormal basis from the singular vectors
    otherwise."""
    if _exact([rows]):
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
    return vt[_ranks(s[None], tol)[0]:].T
