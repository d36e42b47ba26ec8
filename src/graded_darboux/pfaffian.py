"""Characteristic distribution, class of a Pfaffian form, Reeb and Liouville
fields, and the purely-even wedge-power class oracle.

Rank decisions happen at body points (odd coordinates set to zero), where
the coefficient matrix of a 2-form splits into an even-even and an odd-odd
block.  The class of a regular one-form alpha is the corank of
ker(alpha) /\\ ker(d alpha); it equals rank(flat) + 1 when alpha stays off
the image of flat (transversal case) and rank(flat) when it is contained.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from . import _linalg
from .cartan import VectorField, basis_field, exterior_d, interior
from .grexpr.chart import EVEN
from .grexpr.equality import DEFAULT_POLICY, EqualityPolicy, equal
from .grexpr.expr import GradedExpr, gmul, one, zero
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
    Entries are body values (see ``body_values``); ``matrix`` and
    ``alpha_row`` read them as floats.
    """

    point: Dict[str, float]
    rows: List[list]
    even_indices: Tuple[int, ...]
    odd_indices: Tuple[int, ...]
    alpha: Optional[list] = None

    @property
    def matrix(self) -> np.ndarray:
        return np.array(self.rows, dtype=float)

    @property
    def alpha_row(self) -> Optional[np.ndarray]:
        return None if self.alpha is None else np.array(self.alpha, dtype=float)

    @property
    def even_block(self) -> np.ndarray:
        return self.matrix[np.ix_(self.even_indices, self.even_indices)]

    @property
    def odd_block(self) -> np.ndarray:
        return self.matrix[np.ix_(self.odd_indices, self.odd_indices)]

    def rank(self, policy: EqualityPolicy = DEFAULT_POLICY,
             indices: Optional[Sequence[int]] = None) -> int:
        """Rank of the matrix, or of its block on rows and columns ``indices``."""
        rows = self.rows if indices is None else \
            [[self.rows[a][b] for b in indices] for a in indices]
        return _linalg.rank(rows, policy.rel_tol)


def _interior_rows(beta: GradedExpr) -> List[List[GradedExpr]]:
    """Rows M[a][b]: d(x^b)-coefficient of i_{d/dx^a} beta (left-linear)."""
    chart = beta.chart
    rows = []
    for a in range(chart.dim):
        ia = interior(basis_field(chart, chart.coords[a].name), beta) \
            if not beta.is_zero() else zero(chart)
        rows.append([ia.coefficient_of_diff(name) for name in chart.names])
    return rows


class _FlatMap:
    """The flat map of a form, derived once and evaluated at many points:
    of d(form) for 1-forms, with the form itself as an extra row, of the
    form itself for 2-forms."""

    def __init__(self, form: GradedExpr, two_form: Optional[GradedExpr] = None):
        chart = self.chart = form.chart
        deg = form.form_degree()
        if deg == 1:
            beta = two_form if two_form is not None else exterior_d(form)
            alpha = [form.coefficient_of_diff(name) for name in chart.names]
        elif deg == 2:
            beta, alpha = form, []
        else:
            raise PfaffianError("flat_matrix expects a 1-form or a 2-form")
        self.one_form = deg == 1
        self.rows = _interior_rows(beta)
        self.plans = [Plan(e) for row in self.rows + [alpha] for e in row]

    def at(self, points: Sequence[Dict[str, object]]) -> Iterator[FlatMatrix]:
        """The flat matrix at each point, in order, from one batch
        evaluation; a point that failed to evaluate raises its error when
        it is reached."""
        n = self.chart.dim
        points = list(points)
        for point, vals in zip(points, body_values(self.plans, points)):
            yield FlatMatrix(
                point={k: float(v) for k, v in point.items()},
                rows=[vals[a * n:(a + 1) * n] for a in range(n)],
                even_indices=self.chart.even_indices,
                odd_indices=self.chart.odd_indices,
                alpha=vals[n * n:] if self.one_form else None,
            )


def flat_matrix(form: GradedExpr, point: Dict[str, object]) -> FlatMatrix:
    """Flat matrix at a body point: of d(form) for 1-forms (with the form
    appended as an extra row), of the form itself for 2-forms."""
    return next(_FlatMap(form).at([point]))


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


def characteristic_class(alpha: GradedExpr,
                         points: Optional[Sequence[Dict[str, object]]] = None,
                         policy: EqualityPolicy = DEFAULT_POLICY
                         ) -> ClassificationReport:
    """Class and kind of a nowhere-vanishing one-form at the given body
    points, or at the policy's sampled ones."""
    chart = alpha.chart
    if alpha.form_degree() != 1:
        raise PfaffianError("classification expects a one-form")
    if alpha.parity() is None:
        raise PfaffianError("classification expects a form of definite parity")
    if points is None:
        points = sample_body_points(chart, policy.n_points, policy.seed)

    dalpha = exterior_d(alpha)
    fmap = _FlatMap(alpha, dalpha)
    closed = bool(equal(dalpha, zero(chart), policy))
    evidence = []
    outcomes = set()
    for fm in fmap.at(points):
        if _linalg.vanishes(fm.alpha_row, policy.rel_tol):
            raise PfaffianError("form vanishes at a sample point",
                                witness=fm.point)
        if closed:
            evidence.append({"point": fm.point, "rank": 0, "case": "closed"})
            continue
        r, contained, residual = _linalg.contains(fm.rows, fm.alpha,
                                                  policy.rel_tol)
        cls = r if contained else r + 1
        outcomes.add((r, contained))
        evidence.append({"point": fm.point, "rank": r,
                         "case": "contained" if contained else "transversal",
                         "class": cls, "residual": residual})

    if closed:
        return ClassificationReport(1, "closed", "closed", evidence)
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


def presymplectic_check(omega: GradedExpr,
                        points: Optional[Sequence[Dict[str, object]]] = None,
                        policy: EqualityPolicy = DEFAULT_POLICY
                        ) -> PresymplecticReport:
    """Closedness plus constant-rank verdict for a 2-form of definite parity,
    at the given body points or at the policy's sampled ones."""
    chart = omega.chart
    if omega.form_degree() != 2:
        raise PfaffianError("expected a two-form")
    par = omega.parity()
    if par is None:
        raise PfaffianError("expected a form of definite parity")
    domega = exterior_d(omega)
    if not equal(domega, zero(chart), policy):
        raise NotClosedError("form is not closed", witness=str(domega))
    if points is None:
        points = sample_body_points(chart, policy.n_points, policy.seed)

    fmap = _FlatMap(omega)
    evidence = []
    ranks = set()
    kernel = None
    for fm in fmap.at(points):
        r = fm.rank(policy)
        entry = {"point": fm.point, "rank": r}
        if par == EVEN:
            entry["even_rank"] = fm.rank(policy, fm.even_indices)
            entry["odd_rank"] = fm.rank(policy, fm.odd_indices)
        ranks.add((r, entry.get("even_rank"), entry.get("odd_rank")))
        evidence.append(entry)
        if kernel is None:
            kernel = _linalg.nullspace(fm.rows, policy.rel_tol)
    constant = len(ranks) == 1
    if constant:
        r, er, orank = ranks.pop()
    else:
        r = er = orank = None
    return PresymplecticReport(constant, r, er, orank, kernel, evidence)


# -- Reeb and Liouville fields ---------------------------------------------------


def reeb(alpha: GradedExpr,
         policy: EqualityPolicy = DEFAULT_POLICY) -> VectorField:
    """The unique field with i_R alpha = 1 and i_R d(alpha) = 0."""
    chart = alpha.chart
    if alpha.form_degree() != 1:
        raise PfaffianError("Reeb field of a one-form only")
    dalpha = exterior_d(alpha)
    K = _interior_rows(dalpha)
    A = [interior(basis_field(chart, name), alpha) for name in chart.names]

    n = chart.dim
    M = [[K[a][b] for b in range(n)] + [A[a]] for a in range(n)]
    rhs = [zero(chart) for _ in range(n)] + [one(chart)]
    try:
        sol = solve_left_linear(M, rhs, policy)
    except SingularSystemError as exc:
        raise PfaffianError(f"no Reeb field: {exc}") from exc

    par = alpha.parity()
    R = VectorField(chart, par if par is not None else EVEN, tuple(sol))
    if not (equal(interior(R, alpha), one(chart), policy)
            and (dalpha.is_zero()
                 or equal(interior(R, dalpha), zero(chart), policy))):
        raise PfaffianError("Reeb system solved but verification failed")
    return R


def liouville(omega: GradedExpr, alpha: GradedExpr,
              policy: EqualityPolicy = DEFAULT_POLICY) -> VectorField:
    """Solve i_X omega = alpha for the field X (omega symplectic)."""
    chart = omega.chart
    if omega.form_degree() != 2 or alpha.form_degree() != 1:
        raise PfaffianError("liouville expects a two-form and a one-form")
    if not equal(exterior_d(alpha), omega, policy):
        raise PfaffianError("one-form is not a potential of the two-form")
    fmap = _FlatMap(omega)
    for fm in fmap.at(sample_body_points(chart, 3, seed=policy.seed)):
        if fm.rank(policy) < chart.dim:
            raise PfaffianError("degenerate two-form: flat map is singular",
                                witness=fm.point)
    rhs = [alpha.coefficient_of_diff(name) for name in chart.names]
    try:
        sol = solve_left_linear(fmap.rows, rhs, policy)
    except SingularSystemError as exc:
        raise PfaffianError(f"degenerate two-form: {exc}") from exc
    sa, so = alpha.parity(), omega.parity()
    par = ((sa or 0) + (so or 0)) % 2
    X = VectorField(chart, par, tuple(sol))
    if not equal(interior(X, omega), alpha, policy):
        raise PfaffianError("liouville system solved but verification failed")
    return X


# -- wedge-power class oracle (purely even charts) --------------------------------


def _form_nonzero_at(w: GradedExpr, point: Dict[str, object]) -> bool:
    plans = [Plan(c) for c in w.diff_components().values()]
    vals = np.array(body_values(plans, [point])[0], dtype=float)
    return not all(_linalg.negligible(v, DEFAULT_POLICY.rel_tol) for v in vals)


def darboux_class_oracle(alpha: GradedExpr, point: Dict[str, object]) -> int:
    """Class by wedge powers: the largest s with alpha /\\ (d alpha)^s != 0
    at the point decides 2s+1 or 2s+2.  Undefined on super charts, where top
    powers of odd differentials never vanish."""
    chart = alpha.chart
    if not chart.is_purely_even():
        raise PfaffianError("wedge-power class oracle needs a purely even chart")
    if alpha.form_degree() != 1:
        raise PfaffianError("class oracle expects a one-form")
    if not _form_nonzero_at(alpha, point):
        raise PfaffianError("form vanishes at the point", witness=point)

    dalpha = exterior_d(alpha)
    powers = [one(chart)]
    while True:
        nxt = gmul(powers[-1], dalpha)
        powers.append(nxt)
        if nxt.is_zero() or 2 * len(powers) > chart.dim + 2:
            break

    s = 0
    while True:
        if s + 1 >= len(powers):
            break
        w = gmul(alpha, powers[s + 1])
        if w.is_zero() or not _form_nonzero_at(w, point):
            break
        s += 1

    next_power = powers[s + 1] if s + 1 < len(powers) else zero(chart)
    if next_power.is_zero() or not _form_nonzero_at(next_power, point):
        return 2 * s + 1
    return 2 * s + 2
