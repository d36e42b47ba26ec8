"""Characteristic distribution, class of a Pfaffian form, and Reeb and
Liouville fields.

Rank decisions happen at body points (odd coordinates set to zero), where
the coefficient matrix of a 2-form splits into an even-even and an odd-odd
block.  The class of a regular one-form alpha is the corank of
ker(alpha) /\\ ker(d alpha); it equals rank(flat) + 1 when alpha stays off
the image of flat (transversal case) and rank(flat) when it is contained.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from . import _linalg
from .cartan import Memo, VectorField, basis_field, exterior_d, interior
from .grexpr.chart import ChartSpec, EVEN
from .grexpr.equality import DEFAULT_POLICY, EqualityPolicy, equal
from .grexpr.expr import GradedExpr, one, zero
from .grexpr.grassmann import Plan, body_values, sample_body_points
from .symsolve import SingularSystemError, solve_left_linear


class PfaffianError(ValueError):
    def __init__(self, msg, witness=None):
        super().__init__(msg)
        self.witness = witness


class NotClosedError(PfaffianError):
    pass


# -- the flat map at a point ---------------------------------------------------


@dataclass
class FlatMatrix:
    """Coefficient matrix of v -> i_v beta at a body point.

    ``rows[a][b]`` is the d(x^b)-coefficient of i_{d/dx^a} beta evaluated
    at the point; for one-forms the extra ``alpha`` holds the form itself.
    Entries are body values (see ``body_values``).
    """

    point: Dict[str, float]
    rows: List[list]
    alpha: Optional[list] = None


def _interior_rows(beta: GradedExpr) -> List[List[GradedExpr]]:
    """Rows M[a][b]: the d(x^b)-coefficient of i_{d/dx^a} beta (left-linear),
    by one ``interior`` walk per row."""
    chart = beta.chart
    return [[row.coefficient_of_diff(b) for b in chart.names]
            for row in (interior(basis_field(chart, a), beta)
                        for a in chart.names)]


class _FlatMap:
    """The flat map of a form, derived once and evaluated at many points:
    of d(form) for 1-forms, with the form itself as an extra row, of the
    form itself for 2-forms.  ``memo.take("flat", form, _FlatMap, form,
    memo)`` derives it once per memo."""

    def __init__(self, form: GradedExpr, memo: Memo):
        chart = self.chart = form.chart
        deg = form.form_degree()
        if deg == 1:
            beta = exterior_d(form, memo=memo)
            alpha = [form.coefficient_of_diff(name) for name in chart.names]
        elif deg == 2:
            beta, alpha = form, []
        else:
            raise PfaffianError("flat_matrix expects a 1-form or a 2-form")
        self.one_form = deg == 1
        self.rows = memo.take("rows", beta, _interior_rows, beta)
        self.plans = [Plan(e) for row in self.rows + [alpha] for e in row]

    def at(self, points: Sequence[Dict[str, object]]
           ) -> Tuple[List[FlatMatrix], Optional[Exception]]:
        """The flat matrices at the points before the first one that failed
        to evaluate, in order, from one batch evaluation, and that point's
        error (None when every point evaluated)."""
        n = self.chart.dim
        points = list(points)
        batch, failure = body_values(self.plans, points)
        return [FlatMatrix(point={k: float(v) for k, v in point.items()},
                           rows=[vals[a * n:(a + 1) * n] for a in range(n)],
                           alpha=vals[n * n:] if self.one_form else None)
                for point, vals in zip(points, batch)], failure


def flat_matrix(form: GradedExpr, point: Dict[str, object], *,
                memo: Optional[Memo] = None) -> FlatMatrix:
    """Flat matrix at a body point: of d(form) for 1-forms (with the form
    appended as an extra row), of the form itself for 2-forms."""
    memo = Memo() if memo is None else memo
    fms, failure = memo.take("flat", form, _FlatMap, form, memo).at([point])
    if failure is not None:
        raise failure
    return fms[0]


def _not_finite(fm: FlatMatrix) -> PfaffianError:
    return PfaffianError("flat matrix is not finite at a sample point",
                         witness=fm.point)


# -- classification -------------------------------------------------------------


@dataclass
class ClassificationReport:
    class_: Optional[int]
    case: str        # closed | transversal | contained | irregular
    kind: str        # closed | contact | symplectic-potential | precontact
    #                  | presymplectic-potential | irregular
    evidence: List[dict] = field(default_factory=list)

    def __bool__(self):
        return self.kind != "irregular"


def _body_points(chart: ChartSpec, points, policy: EqualityPolicy):
    """The given body points, else the policy's sampled ones; never none."""
    if points is None:
        return sample_body_points(chart, policy.n_points, policy.seed)
    if not points:
        raise PfaffianError("a sampled decision needs at least one point")
    return points


def characteristic_class(alpha: GradedExpr,
                         points: Optional[Sequence[Dict[str, object]]] = None,
                         policy: EqualityPolicy = DEFAULT_POLICY, *,
                         memo: Optional[Memo] = None
                         ) -> ClassificationReport:
    """Class and kind of a nowhere-vanishing one-form at the given body
    points, or at the policy's sampled ones."""
    chart = alpha.chart
    if alpha.form_degree() != 1:
        raise PfaffianError("classification expects a one-form")
    if alpha.parity() is None:
        raise PfaffianError("classification expects a form of definite parity")
    points = _body_points(chart, points, policy)

    memo = Memo() if memo is None else memo
    dalpha = exterior_d(alpha, memo=memo)
    fmap = memo.take("flat", alpha, _FlatMap, alpha, memo)
    fms, failure = fmap.at(points)
    tol = policy.rel_tol
    alphas = [fm.alpha for fm in fms]
    ranks = _linalg.float_rank([[a] for a in alphas], tol)
    decided = _linalg.contains([fm.rows for fm in fms], alphas, tol)
    # a flat matrix of rank >= 1 at a body point shows d alpha != 0; in every
    # other case the randomized test decides, and its errors come first
    shown = (failure is None and None not in decided
             and any(r for r, _, _ in decided))
    closed = not shown and bool(equal(dalpha, zero(chart), policy))
    # the first point, in order, that cannot be decided raises
    for i, fm in enumerate(fms):
        if ranks[i] is None:
            raise _not_finite(fm)
        if ranks[i] == 0:
            raise PfaffianError("form vanishes at a sample point",
                                witness=fm.point)
        if not closed and decided[i] is None:
            raise _not_finite(fm)
    if failure is not None:
        raise failure
    if closed:
        return ClassificationReport(1, "closed", "closed", [
            {"point": fm.point, "rank": 0, "case": "closed"} for fm in fms])
    evidence = [{"point": fm.point, "rank": r,
                 "case": "contained" if contained else "transversal",
                 "class": r if contained else r + 1, "residual": residual}
                for fm, (r, contained, residual) in zip(fms, decided)]
    outcomes = {(r, contained) for r, contained, _ in decided}
    if len(outcomes) != 1:
        return ClassificationReport(None, "irregular", "irregular", evidence)
    r, contained = outcomes.pop()
    cls = r if contained else r + 1
    dim = chart.dim
    if contained:
        kind = "symplectic-potential" if cls == dim else "presymplectic-potential"
        case = "contained"
    else:
        kind = "contact" if cls == dim else "precontact"
        case = "transversal"
    return ClassificationReport(cls, case, kind, evidence)


@dataclass
class PresymplecticReport:
    constant_rank: bool
    rank: Optional[int]
    even_rank: Optional[int]
    odd_rank: Optional[int]
    kernel: Optional[np.ndarray]
    evidence: List[dict] = field(default_factory=list)

    def __bool__(self):
        return self.constant_rank


def _block_kernel(rows, blocks, tol: float) -> np.ndarray:
    """The kernel of a matrix that is block diagonal over ``blocks`` (index
    tuples that partition the coordinates): each block's kernel vectors,
    put at the block's coordinates, merged by their last nonzero coordinate
    so that each block keeps its own order.  On exact data that is the order
    of the whole matrix's free columns, in which ``nullspace`` gives them."""
    cols = []
    for idx in filter(None, blocks):
        sub = _linalg.nullspace([[rows[a][b] for b in idx] for a in idx], tol)
        full = np.zeros((len(rows), sub.shape[1]))
        full[list(idx)] = sub
        cols.append(full.T)
    merged = heapq.merge(*cols, key=lambda v: np.flatnonzero(v)[-1])
    return np.array(list(merged)).reshape(-1, len(rows)).T


def presymplectic_check(omega: GradedExpr,
                        points: Optional[Sequence[Dict[str, object]]] = None,
                        policy: EqualityPolicy = DEFAULT_POLICY, *,
                        memo: Optional[Memo] = None
                        ) -> PresymplecticReport:
    """Closedness plus constant-rank verdict for a 2-form of definite parity,
    at the given body points or at the policy's sampled ones."""
    chart = omega.chart
    if omega.form_degree() != 2:
        raise PfaffianError("expected a two-form")
    par = omega.parity()
    if par is None:
        raise PfaffianError("expected a form of definite parity")
    memo = Memo() if memo is None else memo
    domega = exterior_d(omega, memo=memo)
    if not equal(domega, zero(chart), policy):
        raise NotClosedError("form is not closed", witness=str(domega))
    points = _body_points(chart, points, policy)

    fmap = memo.take("flat", omega, _FlatMap, omega, memo)
    fms, failure = fmap.at(points)
    # at a body point the flat matrix of an even form is block diagonal, so
    # its rank and kernel are its blocks': each block's rank is relative to
    # the block's own scale, never to the other block's
    even = par == EVEN
    blocks = ((chart.even_indices, chart.odd_indices) if even
              else (tuple(range(chart.dim)),))
    ranks = [_linalg.rank([[[fm.rows[a][b] for b in idx] for a in idx]
                           for fm in fms], policy.rel_tol)
             for idx in blocks]
    evidence = []
    for fm, rs in zip(fms, zip(*ranks)):
        if None in rs:
            raise _not_finite(fm)
        entry = {"point": fm.point, "rank": sum(rs)}
        if even:
            entry["even_rank"], entry["odd_rank"] = rs
        evidence.append(entry)
    if failure is not None:
        raise failure
    outcomes = {(e["rank"], e.get("even_rank"), e.get("odd_rank"))
                for e in evidence}
    kernel = _block_kernel(fms[0].rows, blocks, policy.rel_tol)
    constant = len(outcomes) == 1
    if constant:
        r, er, orank = outcomes.pop()
    else:
        r = er = orank = None
    return PresymplecticReport(constant, r, er, orank, kernel, evidence)


# -- Reeb and Liouville fields ---------------------------------------------------


def reeb(alpha: GradedExpr, policy: EqualityPolicy = DEFAULT_POLICY, *,
         memo: Optional[Memo] = None) -> VectorField:
    """The unique field with i_R alpha = 1 and i_R d(alpha) = 0; a
    PfaffianError where there is none, or more than one."""
    chart = alpha.chart
    if alpha.form_degree() != 1:
        raise PfaffianError("Reeb field of a one-form only")
    memo = Memo() if memo is None else memo
    dalpha = exterior_d(alpha, memo=memo)
    K = memo.take("rows", dalpha, _interior_rows, dalpha)
    A = [interior(basis_field(chart, name), alpha) for name in chart.names]

    n = chart.dim
    M = [[K[a][b] for b in range(n)] + [A[a]] for a in range(n)]
    rhs = [zero(chart) for _ in range(n)] + [one(chart)]
    try:
        sol, kernel = solve_left_linear(M, rhs, policy)
    except SingularSystemError as exc:
        raise PfaffianError(f"no Reeb field: {exc}") from exc
    if kernel:
        raise PfaffianError("no unique Reeb field: free unknowns "
                            + ", ".join(chart.names[a] for a in kernel))

    par = alpha.parity()
    R = VectorField(chart, par if par is not None else EVEN, tuple(sol))
    if not (equal(interior(R, alpha), one(chart), policy)
            and (dalpha.is_zero()
                 or equal(interior(R, dalpha), zero(chart), policy))):
        raise PfaffianError("Reeb system solved but verification failed")
    return R


def liouville(omega: GradedExpr, alpha: GradedExpr,
              policy: EqualityPolicy = DEFAULT_POLICY, *,
              memo: Optional[Memo] = None) -> VectorField:
    """Solve i_X omega = alpha for the field X (omega symplectic)."""
    chart = omega.chart
    if omega.form_degree() != 2 or alpha.form_degree() != 1:
        raise PfaffianError("liouville expects a two-form and a one-form")
    memo = Memo() if memo is None else memo
    if not equal(exterior_d(alpha, memo=memo), omega, policy):
        raise PfaffianError("one-form is not a potential of the two-form")
    fmap = memo.take("flat", omega, _FlatMap, omega, memo)
    fms, failure = fmap.at(sample_body_points(chart, 3, seed=policy.seed))
    for fm, r in zip(fms, _linalg.rank([fm.rows for fm in fms],
                                       policy.rel_tol)):
        if r is None:
            raise _not_finite(fm)
        if r < chart.dim:
            raise PfaffianError("degenerate two-form: flat map is singular",
                                witness=fm.point)
    if failure is not None:
        raise failure
    rhs = [alpha.coefficient_of_diff(name) for name in chart.names]
    try:
        # the flat map has full rank, so the kernel is empty
        sol = solve_left_linear(fmap.rows, rhs, policy)[0]
    except SingularSystemError as exc:
        raise PfaffianError(f"degenerate two-form: {exc}") from exc
    sa, so = alpha.parity(), omega.parity()
    par = ((sa or 0) + (so or 0)) % 2
    X = VectorField(chart, par, tuple(sol))
    if not equal(interior(X, omega), alpha, policy):
        raise PfaffianError("liouville system solved but verification failed")
    return X

