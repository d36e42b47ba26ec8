"""Symbolic linear algebra over the expression algebra.

Solves small left-linear systems  sum_a  R^a * M[a][b] = rhs[b]  with
expression entries by the one elimination of ``_linalg``, over the
expression ring below.  Pivots must be even (even elements are central, so
dividing by them is unambiguous); a candidate pivot that is not obviously
nonzero is screened with randomized equality when it is the one to be taken.
Callers verify a solution against the equations it is meant to satisfy.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

from ._linalg import Ring, consistent, eliminate
from .grexpr.chart import EVEN
from .grexpr.equality import DEFAULT_POLICY, EqualityPolicy, equal
from .grexpr.expr import GradedExpr, gdiv, gmul, one, zero


class SingularSystemError(RuntimeError):
    pass


def _pivot_quality(e: GradedExpr) -> Tuple[int, int]:
    """Lower is better: constants, then single monomials, then the rest."""
    if e.constant_value() is not None:
        return (0, 0)
    if len(e.terms) == 1 and not e.terms[0].atoms:
        return (1, 0)
    return (2, len(e.terms))


def _expressions(policy: EqualityPolicy) -> Ring:
    """The expression ring: an entry is zero when it has no terms, or several
    that randomized equality finds zero; the pivot is the first even nonzero
    candidate in ``_pivot_quality`` order, then row and column order; a step
    divides the pivot row by the pivot and subtracts its multiples from the
    other rows.  Randomized equality runs once per entry up to sign: negation
    is exact and the comparison symmetric, so e and -e share one verdict."""
    verdicts: Dict[tuple, bool] = {}

    def is_zero(e: GradedExpr) -> bool:
        if len(e.terms) < 2:
            return not e.terms
        found = verdicts.get(e.key())
        if found is None:
            found = bool(equal(e, zero(e.chart), policy))
            verdicts[e.key()] = verdicts[(-e).key()] = found
        return found

    def pivot(rows, free_rows, free_cols):
        order = sorted((_pivot_quality(rows[i][j]), i, j) for i in free_rows
                       for j in free_cols if not rows[i][j].is_zero())
        return next(((i, j) for _, i, j in order if rows[i][j].parity()
                     in (EVEN, None) and not is_zero(rows[i][j])), None)

    def step(rows, i, j, last):
        top = rows[i] = [gdiv(c, rows[i][j]) for c in rows[i]]
        top[j] = one(top[j].chart)
        for k, row in enumerate(rows):
            if k != i and not row[j].is_zero():
                rows[k] = [c if t.is_zero() else c - gmul(t, row[j])
                           for c, t in zip(row, top)]

    return Ring(is_zero, pivot, step)


def solve_left_linear(M: Sequence[Sequence[GradedExpr]],
                      rhs: Sequence[GradedExpr],
                      policy: EqualityPolicy = DEFAULT_POLICY
                      ) -> Tuple[List[GradedExpr], Dict[int, List[GradedExpr]]]:
    """Solve ``sum_a R^a M[a][b] = rhs[b]`` for the R^a.

    Returns one solution, zero at every unknown with no pivot, and the
    kernel: for each such free unknown f, the solution of the system with
    zero right-hand side that is 1 at f and 0 at the other free unknowns.
    Raises SingularSystemError when an equation with no pivot is not
    trivial: its right-hand side, or an odd coefficient, is not zero.
    """
    n = len(M)
    if n == 0:
        raise ValueError("empty system")
    ring, chart = _expressions(policy), rhs[0].chart
    # one row per equation b: its coefficients, then its right-hand side
    pivots, rows = eliminate([[M[a][b] for a in range(n)] + [r]
                              for b, r in enumerate(rhs)], n, ring)
    if not consistent(rows, pivots, 0, ring.zero):
        raise SingularSystemError("inconsistent or degenerate linear system")
    row_of = {a: i for i, a in pivots}
    sol = [rows[row_of[a]][n] if a in row_of else zero(chart) for a in range(n)]
    return sol, {f: [-rows[row_of[a]][f] if a in row_of else
                     one(chart) if a == f else zero(chart) for a in range(n)]
                 for f in range(n) if f not in row_of}
