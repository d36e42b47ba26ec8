"""Symbolic linear algebra over the expression algebra.

Solves small left-linear systems  sum_a  R^a * M[a][b] = rhs[b]  with
expression entries by Gaussian elimination.  Pivots must be even (even
elements are central, so dividing by them is unambiguous); candidate pivots
that are not obviously nonzero are screened with randomized equality.
Callers verify a solution against the equations it is meant to satisfy.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

from .grexpr.chart import EVEN
from .grexpr.equality import DEFAULT_POLICY, EqualityPolicy, equal
from .grexpr.expr import GradedExpr, gdiv, gmul, zero


class SingularSystemError(RuntimeError):
    pass


def _pivot_quality(e: GradedExpr) -> Tuple[int, int]:
    """Lower is better: constants, then single monomials, then the rest."""
    if e.constant_value() is not None:
        return (0, 0)
    if len(e.terms) == 1 and not e.terms[0].atoms:
        return (1, 0)
    return (2, len(e.terms))


def _usable_pivot(e: GradedExpr, policy: EqualityPolicy) -> bool:
    if e.is_zero():
        return False
    if e.parity() not in (EVEN, None):
        return False
    if len(e.terms) == 1:
        return True
    # multi-term pivot: make sure it is not secretly zero
    return not equal(e, zero(e.chart), policy)


def solve_left_linear(M: Sequence[Sequence[GradedExpr]],
                      rhs: Sequence[GradedExpr],
                      policy: EqualityPolicy = DEFAULT_POLICY
                      ) -> List[GradedExpr]:
    """Solve ``sum_a R^a M[a][b] = rhs[b]`` for the R^a.

    Unknowns absent from every equation are set to zero.  Raises SingularSystemError when no even nonzero pivot can
    be found for an unknown that appears, or when a leftover equation is
    inconsistent.
    """
    n = len(M)
    if n == 0:
        raise ValueError("empty system")
    m = len(rhs)
    chart = rhs[0].chart

    # equations as (coeff per unknown, rhs)
    eqs = [([M[a][b] for a in range(n)], rhs[b]) for b in range(m)]
    pivot_rows: List[Tuple[int, List[GradedExpr], GradedExpr]] = []
    remaining = set(range(n))
    active = list(range(m))

    while True:
        best = None
        for ei in active:
            coeffs, _ = eqs[ei]
            for a in remaining:
                c = coeffs[a]
                if c.is_zero():
                    continue
                q = _pivot_quality(c)
                if best is None or q < best[0]:
                    if _usable_pivot(c, policy):
                        best = (q, ei, a)
        if best is None:
            break
        _, ei, a = best
        coeffs, r = eqs[ei]
        piv = coeffs[a]
        norm_coeffs = [gdiv(c, piv) for c in coeffs]
        norm_rhs = gdiv(r, piv)
        pivot_rows.append((a, norm_coeffs, norm_rhs))
        remaining.discard(a)
        active.remove(ei)
        for ej in active:
            cj, rj = eqs[ej]
            f = cj[a]
            if f.is_zero():
                continue
            newc = [c2 - gmul(cn, f) for c2, cn in zip(cj, norm_coeffs)]
            newr = rj - gmul(norm_rhs, f)
            eqs[ej] = (newc, newr)

    # leftover equations must be trivial
    for ei in active:
        coeffs, r = eqs[ei]
        nontrivial = [c for c in coeffs if not c.is_zero()]
        if nontrivial or not r.is_zero():
            if all(equal(c, zero(chart), policy) for c in coeffs) \
                    and equal(r, zero(chart), policy):
                continue
            raise SingularSystemError("inconsistent or degenerate linear system")

    sol: List[GradedExpr] = [zero(chart) for _ in range(n)]
    for a, coeffs, r in reversed(pivot_rows):
        acc = r
        for a2 in range(n):
            if a2 != a and not coeffs[a2].is_zero():
                acc = acc - gmul(sol[a2], coeffs[a2])
        sol[a] = acc
    return sol

