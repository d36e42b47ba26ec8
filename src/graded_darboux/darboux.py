"""Construction and verification of homogeneous normal forms.

Constructive pieces: the weight-compatible solution of df/dy = g by
definite integration, a radial homotopy primitive for closed polynomial
forms, the logarithmic primitive for closed weight-zero one-forms near a
point where the weight field does not vanish, linear normal forms of
constant even two-forms by congruence, assembly of one-form normal forms on
top of a chart that canonicalizes the differential, and numeric
straightening of commuting even vector fields by composed flows.  Every
construction ends in a certificate-style verification.
"""

from __future__ import annotations

import csv
import math
import warnings
from dataclasses import dataclass, field, replace
from fractions import Fraction
from itertools import combinations, product as iproduct
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from . import _linalg
from .cartan import (ChartMap, Memo, VectorField, exterior_d, interior,
                     lie_bracket, lie_derivative, pullback)
from .grexpr.chart import (ChartError, ChartSpec, CoordinateDecl, EVEN, ODD)
from .grexpr.equality import (DEFAULT_POLICY, DOMAIN_LIMIT, GRID_CERTIFICATE,
                              RK4_STEP, EqualityPolicy, equal)
from .grexpr.expr import (GradedExpr, Monomial, apply_func, const, coord, diff,
                          gdiv, gmul, is_exact_coeff, partial, substitute,
                          zero)
from .grexpr.integrate import NonIntegrable, integrate_univariate
from .grexpr.grassmann import Plan, body_values
from .homogeneity import DegreeReport, degree_of, weight_field_of_chart
from .pfaffian import PfaffianError, characteristic_class, flat_matrix


# -- normal form descriptors -----------------------------------------------------


def _require_integer(name: str, v) -> None:
    if isinstance(v, bool) or not isinstance(v, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, not {v!r}")


@dataclass(frozen=True)
class NormalFormSpec:
    """Shape of a canonical form: variant, pair count r, odd count s, signs."""

    variant: str                  # contact | contact-log | potential | presymplectic
    r: int
    s: int = 0
    eps: Tuple[int, ...] = ()
    residual: int = 0             # leftover coordinates not in the normal form

    def __post_init__(self):
        if self.variant not in ("contact", "contact-log", "potential",
                                "presymplectic"):
            raise ValueError(f"unknown variant {self.variant!r}")
        for name in ("r", "s", "residual"):
            _require_integer(name, getattr(self, name))
        eps = tuple(int(e) for e in self.eps)
        if len(eps) != self.s or any(e not in (1, -1) for e in eps):
            raise ValueError("eps must hold s entries of +/-1")
        if tuple(sorted(eps, reverse=True)) != eps:
            raise ValueError("eps must list +1 entries before -1 entries")
        object.__setattr__(self, "eps", eps)

    def coordinate_roles(self, chart: ChartSpec) -> Dict[str, List[str]]:
        """Positional naming convention on the normal-form chart:
        (q_1..q_r, p_1..p_r, [z,] y_1..y_s, rest)."""
        names = list(chart.names)
        need = 2 * self.r + self.s + (1 if self.variant.startswith("contact") else 0)
        if len(names) < need:
            raise ChartError("normal-form chart has too few coordinates")
        roles = {"q": names[:self.r], "p": names[self.r:2 * self.r]}
        at = 2 * self.r
        if self.variant.startswith("contact"):
            roles["z"] = [names[at]]
            at += 1
        roles["y"] = names[at:at + self.s]
        roles["rest"] = names[at + self.s:]
        return roles


def canonical_expr(spec: NormalFormSpec, chart: ChartSpec) -> GradedExpr:
    """The canonical form of the given shape over a normal-form chart."""
    roles = spec.coordinate_roles(chart)
    out = zero(chart)
    if spec.variant == "contact":
        out = out + diff(chart, roles["z"][0])
    elif spec.variant == "contact-log":
        zc = roles["z"][0]
        out = out + gdiv(diff(chart, zc), coord(chart, zc))
    for qn, pn in zip(roles["q"], roles["p"]):
        if spec.variant == "presymplectic":
            out = out + gmul(diff(chart, pn), diff(chart, qn))
        else:
            out = out + gmul(coord(chart, pn), diff(chart, qn))
    for yn, e in zip(roles["y"], spec.eps):
        if chart.parity(chart.index(yn)) != ODD:
            raise ChartError(f"coordinate {yn!r} must be odd")
        if spec.variant == "presymplectic":
            out = out + gmul(diff(chart, yn), diff(chart, yn)) * e
        else:
            out = out + gmul(coord(chart, yn), diff(chart, yn)) * e
    return out


@dataclass
class CheckEntry:
    name: str
    passed: bool
    detail: str = ""


@dataclass
class VerificationReport:
    passed: bool
    entries: List[CheckEntry]
    mode: str = "exact"

    def __bool__(self):
        return self.passed


@dataclass
class DarbouxResult:
    status: str                       # ok | verification-only | not-guaranteed
    chart_map: Optional[ChartMap] = None
    spec: Optional[NormalFormSpec] = None
    verification: Optional[VerificationReport] = None
    new_weights: Dict[str, object] = field(default_factory=dict)
    notes: List[str] = field(default_factory=list)

    def __bool__(self):
        return self.status == "ok" and bool(self.verification)


# -- the homogeneous ODE step ------------------------------------------------------


def homog_solve_pde(g: GradedExpr, y1: str) -> GradedExpr:
    """Solve df/dy1 = g by f = integral of g from 0 to y1.

    For g homogeneous of weight w under the chart's weights the solution
    has weight w + weight(y1) and vanishes wherever the integration segment
    collapses (in particular at the chart origin).  Non-homogeneous inputs
    are integrated anyway, with a warning: the weight law no longer applies.
    """
    chart = g.chart
    if not degree_of(g, weight_field_of_chart(chart)).homogeneous:
        warnings.warn("integrand is not homogeneous: the weight claim "
                      "for the solution is dropped", stacklevel=2)
    return integrate_univariate(g, y1, 0, coord(chart, y1))


# -- radial homotopy primitive ------------------------------------------------------


def _euler_field(chart: ChartSpec) -> VectorField:
    return VectorField(chart, EVEN,
                       tuple(coord(chart, c.name) for c in chart.coords))


def homotopy(w: GradedExpr) -> GradedExpr:
    """Radial homotopy operator K on polynomial forms: d K + K d = id.

    Monomial-wise K(m) = i_E(m) / (poly degree + form degree) with E the
    standard Euler field of the chart; i_E is linear, so each monomial is
    scaled first and E contracts them all in one walk.
    """
    if not w.is_polynomial():
        raise NonIntegrable("homotopy operator needs a polynomial form")
    chart = w.chart
    return interior(_euler_field(chart), GradedExpr.from_terms(chart, (
        Monomial(m.coeff * Fraction(1, sum(m.cexp) + p), m.atoms, m.cexp,
                 m.dexp) for m in w.terms if (p := m.form_degree()))))


def poincare_primitive(w: GradedExpr,
                       center: Optional[Dict[str, object]] = None) -> GradedExpr:
    """Primitive of a closed polynomial form that preserves homogeneity.

    The radial scaling commutes with every diagonal linear flow, so the
    primitive of a homogeneous form is homogeneous of the same degree, and
    it vanishes at the center.  The center must be a zero of the weight
    field: nonzero entries are allowed exactly in even weight-zero
    coordinates (the homotopy is run in translated coordinates).
    """
    chart = w.chart
    deg = w.form_degree()
    if deg is None or deg < 1:
        raise ValueError("expected a form of definite degree >= 1")
    if not w.is_polynomial():
        raise NonIntegrable("transcendental input: no polynomial primitive")
    if not exterior_d(w).is_zero():
        raise PfaffianError("form is not closed",
                            witness=str(exterior_d(w)))

    shift: Dict[str, object] = {}
    if center:
        for name, v in center.items():
            i = chart.index(name)
            val = Fraction(v) if not isinstance(v, float) else v
            if val == 0:
                continue
            if chart.parity(i) == ODD or chart.weight(i) != 0:
                raise ValueError(
                    "center must be a zero of the weight field: nonzero "
                    f"entry at {name!r} (weight {chart.weight(i)})")
            shift[name] = val

    if shift:
        # run the homotopy in coordinates translated so the center is 0
        d_id = {n: diff(chart, n) for n in shift}
        fwd = {n: coord(chart, n) + const(chart, v) for n, v in shift.items()}
        back = {n: coord(chart, n) - const(chart, v) for n, v in shift.items()}
        prim = homotopy(substitute(w, fwd, d_id))
        return substitute(prim, back, d_id)
    return homotopy(w)


# -- zig-zag primitive for closed one-forms -----------------------------------------


def primitive_by_quadrature(beta: GradedExpr,
                            base: Optional[Dict[str, object]] = None) -> GradedExpr:
    """Primitive of a closed one-form by coordinate-wise quadrature.

    Integrates each even component along its axis (earlier coordinates at
    their final values, later ones frozen at the base point); odd components
    are absorbed algebraically.  Works for the transcendental function class
    as long as every component matches a supported integration pattern; the
    result vanishes at the base point.
    """
    chart = beta.chart
    if beta.is_zero():
        return zero(chart)
    if beta.form_degree() != 1:
        raise ValueError("expected a one-form")
    base = dict(base or {})
    for c in chart.coords:
        base.setdefault(c.name, 0)
        if c.parity == ODD and base[c.name] != 0:
            raise ValueError("odd base coordinates must be zero")

    names = list(chart.names)
    g = zero(chart)
    for i, name in enumerate(names):
        comp = beta.coefficient_of_diff(name)
        if comp.is_zero():
            continue
        freeze = {n: const(chart, Fraction(base[n]) if not isinstance(base[n], float)
                           else base[n]) for n in names[i + 1:]}
        comp = substitute(comp, freeze) if freeze else comp
        if chart.parity(i) == EVEN:
            g = g + integrate_univariate(comp, name, base[name], coord(chart, name))
        else:
            # a term m*d(xi) of beta has m = (-1)**parity(m) * d f / d xi
            comp0 = substitute(comp, {name: zero(chart)})
            g = g + gmul(coord(chart, name), GradedExpr(chart, tuple(
                Monomial(-m.coeff if m.parity(chart) else m.coeff, m.atoms,
                         m.cexp, m.dexp) for m in comp0.terms)))
    return g


def log_primitive(w: GradedExpr, policy: EqualityPolicy = DEFAULT_POLICY
                  ) -> Tuple[GradedExpr, GradedExpr]:
    """Split a closed weight-zero one-form as c * d(x)/x + d(g) near a point
    where the chart's weight field reads x d/dx, x = 1.

    The chart must be in that normal form: exactly one coordinate of weight
    one (even), all others weight zero.  Returns (c, g) with c a constant
    expression and g independent of x, vanishing at the distinguished point.
    """
    chart = w.chart
    nabla = weight_field_of_chart(chart)
    special = [i for i in range(chart.dim) if chart.weight(i) != 0]
    if (len(special) != 1 or chart.weight(special[0]) != 1
            or chart.parity(special[0]) != EVEN):
        raise ValueError("chart must have exactly one even coordinate of "
                         "weight 1 (the x of x d/dx) and weight 0 elsewhere")
    xname = chart.coords[special[0]].name
    if not equal(exterior_d(w), zero(chart), policy):
        raise PfaffianError("form is not closed")
    rep = degree_of(w, nabla, policy)
    if not rep.homogeneous or rep.degree is None or rep.degree.weight != 0:
        raise ValueError("log primitive needs a homogeneous weight-0 one-form")

    c_expr = interior(nabla, w)
    cval = c_expr.constant_value()
    if cval is None:
        raise ValueError(f"i_nabla of the form is not constant: {c_expr}")

    beta = w - gdiv(diff(chart, xname), coord(chart, xname)) * cval
    if not beta.coefficient_of_diff(xname).is_zero():
        raise ValueError("residual d(x)-component after removing c*d(x)/x")
    for name in chart.names:
        if name != xname and beta.coefficient_of_diff(name).depends_on(xname):
            raise ValueError("residual x-dependence: form is not in the "
                             "normal-form chart")
    base = {xname: 1}
    g = primitive_by_quadrature(beta, base)
    if not equal(exterior_d(g), beta, policy):
        raise ValueError("quadrature primitive failed verification")
    return const(chart, cval), g


# -- linear Darboux at a point -------------------------------------------------------


@dataclass
class LinearDarbouxResult:
    chart_map: ChartMap
    spec: NormalFormSpec
    residual: float


def _sqrt(x):
    """Square root of x >= 0: a Fraction where x is a rational square."""
    if is_exact_coeff(x):
        root = Fraction(math.isqrt(x.numerator), math.isqrt(x.denominator))
        if root * root == x:
            return root
    return math.sqrt(x)


def _congruence(B: List[list], count: int, skew: bool):
    """``count`` pivots of the skew or symmetric form B, the largest first,
    by congruence on whatever numbers B holds.  Slot k starts as e_k; ``G``
    holds the pairings B(w_k, w_l) of the slots and ``R[k]`` the functional
    B(w_k, .).  A pivot is a pair (i, j) with val = B(w_i, w_j), i = j when
    symmetric; every other slot then loses its pairings with it, so it stays
    e_k plus multiples of pivots.  Returns the pivots (i, j, val), the slots
    left over and R."""
    G, R = [list(row) for row in B], [list(row) for row in B]
    slots, pivots = list(range(len(B))), []
    for _ in range(count):
        # skew: prefer positive pairings below the diagonal, so canonical
        # inputs come back as the identity map; symmetric: the diagonal
        i, j = max(((i, j) for i in slots for j in slots
                    if (i != j if skew else i <= j)),
                   key=lambda p: (abs(G[p[0]][p[1]]), G[p[0]][p[1]] > 0
                                  and p[0] > p[1] if skew else p[0] == p[1]))
        if not skew and i != j:
            # every |B(w, w)| is smaller: pivot on w_j + sigma w_i, where
            # B(w, w) > |B(w_i, w_j)|, then on the rest of their span
            sigma = 1 if G[i][j] > 0 else -1
            for M in (G, R):
                M[j] = [x + sigma * y for x, y in zip(M[j], M[i])]
            for row in G:
                row[j] += sigma * row[i]
            i = j
        val = G[i][j]
        if not val:     # a float rank above what rounding leaves
            break
        slots = [k for k in slots if k not in (i, j)]
        for k in slots:
            cs = ([(i, G[k][j] / val), (j, -G[k][i] / val)] if skew
                  else [(i, G[k][i] / val)])
            for M in (G, R):
                M[k] = [x - sum(c * M[p][l] for p, c in cs)
                        for l, x in enumerate(M[k])]
        pivots.append((i, j, val))
    return pivots, slots, R


def linear_darboux(omega0: GradedExpr, policy: EqualityPolicy = DEFAULT_POLICY
                   ) -> LinearDarbouxResult:
    """Linear normal form of a constant-coefficient even two-form.

    The even-even block (skew) is brought to the standard pair form and the
    odd-odd block (symmetric) is congruence-diagonalized to +/-1 entries;
    kernel directions become residual coordinates.  The pivot counts are
    ``_linalg.rank`` of each block, as in ``presymplectic_check``.  A pivot
    pair (u, v) gives q = B(u, .) and p = B(., v), an odd pivot w with
    d = B(w, w) gives y = sqrt(|d|/2) B(w, .)/d, and a slot left over keeps
    its own coordinate, so the map is invertible and exact on exact data,
    up to an irrational sqrt.  The transform is checked by pulling the
    canonical form back."""
    chart = omega0.chart
    if omega0.form_degree() not in (0, 2):
        raise ValueError("expected a two-form")
    if omega0.parity() not in (EVEN, None):
        raise PfaffianError("odd two-forms are verified only, not constructed")
    if any(c.constant_value() is None
           for c in omega0.diff_components().values()):
        raise ValueError("expected constant coefficients")

    fm = flat_matrix(omega0, {c.name: 0 for c in chart.coords})
    idxs = (chart.even_indices, chart.odd_indices)
    ev, od = ([chart.names[k] for k in idx] for idx in idxs)
    blocks = [[[fm.rows[a][b] for b in idx] for a in idx] for idx in idxs]
    ranks = [_linalg.rank([m], policy.rel_tol)[0] for m in blocks]
    if None in ranks:
        raise PfaffianError("flat matrix is not finite", witness=fm.point)
    pairs, even_left, Re = _congruence(blocks[0], ranks[0] // 2, True)
    squares, odd_left, Ro = _congruence(blocks[1], ranks[1], False)
    squares.sort(key=lambda piv: piv[2] < 0)        # +1 block before -1 block

    def image(row, scale, names: List[str]) -> GradedExpr:
        return sum((coord(chart, n) * (scale * v) for v, n in zip(row, names)
                    if v), zero(chart))

    groups = [("q", [image(Re[i], 1, ev) for i, _, _ in pairs]),
              ("p", [image(Re[j], -1 / val, ev) for _, j, val in pairs]),
              ("y", [image(Ro[i], _sqrt(abs(val) / 2) / val, od)
                     for i, _, val in squares]),
              ("z", [coord(chart, ev[k]) for k in even_left]),
              ("w", [coord(chart, od[k]) for k in odd_left])]
    images = {f"{prefix}{j + 1}": e for prefix, exprs in groups
              for j, e in enumerate(exprs)}
    target = ChartSpec(tuple(CoordinateDecl(n, ODD if n[0] in "yw" else EVEN, 0)
                             for n in images))
    spec = NormalFormSpec("presymplectic", len(pairs), len(squares),
                          tuple(1 if val > 0 else -1 for _, _, val in squares),
                          residual=len(even_left) + len(odd_left))
    phi = ChartMap(chart, target, images)
    back = pullback(phi, canonical_expr(spec, target))
    return LinearDarbouxResult(phi, spec, (back - omega0).max_abs_coeff())


# -- one-form Darboux assembly ---------------------------------------------------


def _jacobian_nonsingular(images: Sequence[GradedExpr], chart: ChartSpec,
                          base: Dict[str, object],
                          policy: EqualityPolicy) -> bool:
    """Whether the Jacobian of the images at the base point is finite and of
    full float rank, a conditioning guard like the others."""
    n = chart.dim
    if len(images) != n:
        return False
    plans = [Plan(partial(img, name)) for img in images for name in chart.names]
    vals, failure = body_values(plans, [base])
    if failure is not None:
        raise failure
    J = np.array(vals, dtype=float).reshape(1, n, n)
    return _linalg.float_rank(J, policy.rel_tol) == [n]


def one_form_darboux(alpha: GradedExpr, presymp_chart: ChartMap,
                     r: int, s: int = 0, eps: Tuple[int, ...] = (),
                     nabla: Optional[VectorField] = None,
                     base_point: Optional[Dict[str, object]] = None,
                     policy: EqualityPolicy = DEFAULT_POLICY, *,
                     memo: Optional[Memo] = None) -> DarbouxResult:
    """Assemble a homogeneous normal form for a regular one-form, given a
    chart map that canonicalizes its differential: after the guard on the
    weight field, the map is checked to put d(alpha) in presymplectic
    normal form (r, s, eps), and ``_assemble`` builds on it."""
    chart = alpha.chart
    if presymp_chart.source != chart:
        raise ChartError("chart map must start at the form's chart")
    _require_integer("r", r)
    _require_integer("s", s)
    nabla = nabla or weight_field_of_chart(chart)
    memo = Memo() if memo is None else memo
    base = {c.name: 0 for c in chart.coords}
    if base_point:
        base.update(base_point)

    # guard: nabla(base) nonzero and inside the characteristic space, that
    # is alpha(nabla) and i_nabla d(alpha) have one-row rank 0 there; None
    # where not finite, and entries are tested before the products (0*inf)
    vals, failure = body_values([Plan(c) for c in nabla.coefficients], [base])
    if failure is not None:
        raise failure
    nvec = np.array(vals[0], dtype=float)
    ranks = _linalg.float_rank([[nvec]], policy.rel_tol)
    if ranks == [1]:
        fm = flat_matrix(alpha, base, memo=memo)
        a, m = (np.array(v, dtype=float) for v in (fm.alpha, fm.rows))
        ok = np.isfinite(a).all() and np.isfinite(m).all()
        with np.errstate(over="ignore"):    # an overflow is inf, so None
            ranks += [_linalg.float_rank([[v]], policy.rel_tol)[0]
                      for v in ([nvec @ a], nvec @ m)] if ok else [None]
    if None in ranks:
        raise PfaffianError("weight field or flat matrix is not finite at "
                            "the base point", witness=base)
    if ranks[1:] == [0, 0]:
        return DarbouxResult(
            status="not-guaranteed",
            notes=["weight field is nonzero at the base point and lies "
                   "in the characteristic space: no homogeneous normal "
                   "form is guaranteed there"])

    target = presymp_chart.target
    pre_spec = NormalFormSpec("presymplectic", r, s, tuple(eps),
                              residual=target.dim - 2 * r - s)
    if not equal(exterior_d(alpha, memo=memo),
                 pullback(presymp_chart, canonical_expr(pre_spec, target),
                          memo=memo), policy):
        raise PfaffianError("the supplied chart does not canonicalize the "
                            "differential of the form")
    return _assemble(alpha, presymp_chart, pre_spec, nabla, ranks[0] == 0,
                     base, policy, memo)


class _Downgrade(Exception):
    """A step that cannot be taken: its message is the result's note."""


def _assemble(alpha: GradedExpr, phi: ChartMap, pre_spec: NormalFormSpec,
              nabla: VectorField, nabla_vanishes: bool,
              base: Dict[str, object], policy: EqualityPolicy,
              memo: Memo) -> DarbouxResult:
    """The normal form of alpha on top of any chart ``phi`` that puts
    d(alpha) in the presymplectic normal form ``pre_spec``.

    The construction follows the classification: transversal forms gain a
    primitive coordinate z (or exp of a primitive in the weight-zero,
    nonvanishing-weight-field case); contained forms must already reduce to
    the pair part, or the q-dependent correction is absorbed into the
    momenta.  Whatever is constructed is verified; failures downgrade the
    result instead of faking it.
    """
    chart, target = alpha.chart, phi.target
    notes: List[str] = []

    potential = canonical_expr(replace(pre_spec, variant="potential",
                                       residual=0), target)
    alpha_prime = alpha - pullback(phi, potential, memo=memo)
    if not equal(exterior_d(alpha_prime, memo=memo), zero(chart), policy):
        raise PfaffianError("residual one-form is not closed")

    rep = degree_of(alpha, nabla, policy, memo=memo)
    w = rep.degree.weight if rep.degree else None
    if not rep.homogeneous:
        notes.append("input form is not homogeneous: weight-law checks "
                     "will be reported as failures")

    cls = characteristic_class(alpha, policy=replace(policy, n_points=8),
                               memo=memo)
    if cls.kind == "irregular":
        raise PfaffianError("form has no constant class on the sample box")
    contact_like = cls.kind in ("contact", "precontact", "closed")

    log_branch = (not nabla_vanishes) and (w == 0) and contact_like

    roles = pre_spec.coordinate_roles(target)
    q, p, y, rest = roles["q"], roles["p"], roles["y"], roles["rest"]
    images = dict(phi.images)

    try:
        if contact_like:
            variant = "contact-log" if log_branch else "contact"
            # Cartan: w alpha' = L_nabla alpha' = d(i_nabla alpha'), as
            # d(alpha') = 0, so i_nabla alpha' / w is a primitive of weight w
            z_img = (interior(nabla, alpha_prime) * (1 / w) if w
                     else primitive_by_quadrature(alpha_prime, base))
            if log_branch:
                if lie_derivative(nabla, z_img,
                                  memo=memo).constant_value() is None:
                    raise _Downgrade("weight field applied to the primitive "
                                     "is not constant: cannot form the "
                                     "exponential coordinate")
                z_img = apply_func("exp", z_img)

            # z replaces one residual coordinate; pick one that keeps the
            # jacobian nonsingular at the base point
            for keep in [rest[:j] + rest[j + 1:] for j in range(len(rest))] or [[]]:
                # the roles are positional, so any name not kept will do
                kept = q + p + y + keep
                names = ["z"] + [f"z{i}" for i in range(1, len(kept) + 1)]
                zname = next(n for n in names if n not in kept)
                new_names = q + p + [zname] + y + keep
                new_images = ([images[n] for n in q + p] + [z_img]
                              + [images[n] for n in y + keep])
                if _jacobian_nonsingular(new_images, chart, base, policy):
                    break
            else:
                raise _Downgrade("could not replace a residual coordinate "
                                 "with z while keeping the chart nonsingular"
                                 if rest else "no residual coordinate "
                                 "available and the candidate chart is "
                                 "singular at the base point")
        else:
            # contained: the residual must vanish or absorb into the momenta
            variant, keep = "potential", rest
            if not equal(alpha_prime, zero(chart), policy):
                if phi.inverse_images is None:
                    raise _Downgrade("nonzero residual one-form and no "
                                     "inverse images to absorb it: "
                                     "construction downgraded")
                ap_t = pullback(phi.inverse(), alpha_prime, memo=memo)
                zt = primitive_by_quadrature(ap_t,
                                             {n: 0 for n in target.names})
                bad = [n for n in target.names
                       if n not in q and zt.depends_on(n)]
                if bad:
                    raise _Downgrade(f"residual primitive depends on {bad}: "
                                     "momentum absorption does not apply")
                for qn, pn in zip(q, p):
                    images[pn] = images[pn] + substitute(partial(zt, qn),
                                                         phi.images)
                notes.append("residual primitive absorbed into the momenta")
            new_names = q + p + y + rest
            new_images = [images[n] for n in new_names]
    except (_Downgrade, NonIntegrable) as exc:
        notes.append(str(exc) if isinstance(exc, _Downgrade)
                     else f"primitive construction failed: {exc}")
        return DarbouxResult("verification-only", notes=notes)
    out_spec = replace(pre_spec, variant=variant, residual=len(keep))

    # weights of the new coordinates
    decls = []
    weights: Dict[str, object] = {}
    coord_reps: Dict[str, DegreeReport] = {}
    for name, img in zip(new_names, new_images):
        drep = coord_reps[name] = degree_of(img, nabla, policy, memo=memo)
        wgt = weights[name] = drep.degree.weight if drep.degree else None
        if wgt is None:
            notes.append(f"new coordinate {name!r} is not homogeneous")
        par = img.parity()
        decls.append(CoordinateDecl(name, par if par is not None else EVEN,
                                    wgt if isinstance(wgt, Fraction) else 0))
    new_chart = ChartSpec(tuple(decls), default_box=chart.default_box)
    phi_out = ChartMap(chart, new_chart, dict(zip(new_names, new_images)))
    report = _verify_normal_form(alpha, phi_out, out_spec, rep, coord_reps,
                                 policy, memo)
    status = "ok" if report.passed else "verification-only"
    return DarbouxResult(status, phi_out, out_spec, report, weights, notes)


# -- verification ---------------------------------------------------------------


def verify_normal_form(alpha: GradedExpr, phi: ChartMap, spec: NormalFormSpec,
                       nabla: Optional[VectorField] = None,
                       policy: EqualityPolicy = DEFAULT_POLICY, *,
                       memo: Optional[Memo] = None) -> VerificationReport:
    """Certificate check of a candidate normal-form chart.

    (1) the canonical form pulls back to the form, (2) every new coordinate
    is homogeneous, (3) the recorded weights are consistent with the degree
    of the form.  Failures become report entries, never exceptions.
    """
    nabla = nabla or weight_field_of_chart(alpha.chart)
    memo = Memo() if memo is None else memo
    return _verify_normal_form(
        alpha, phi, spec, degree_of(alpha, nabla, policy, memo=memo),
        {name: degree_of(phi.images[name], nabla, policy, memo=memo)
         for name in phi.target.names}, policy, memo)


def _verify_normal_form(alpha: GradedExpr, phi: ChartMap, spec: NormalFormSpec,
                        wdeg: DegreeReport, coord_reps: Dict[str, DegreeReport],
                        policy: EqualityPolicy, memo: Memo) -> VerificationReport:
    """``verify_normal_form`` given the degree reports of the form and of
    each new coordinate's image."""
    entries: List[CheckEntry] = []

    canonical = canonical_expr(spec, phi.target)
    res = equal(pullback(phi, canonical, memo=memo), alpha, policy)
    entries.append(CheckEntry("pullback-matches-form", bool(res),
                              res.mode if res else f"witness: {res.witness}"))
    mode = res.mode

    roles = spec.coordinate_roles(phi.target)
    w = wdeg.degree.weight if wdeg.degree else None
    entries.append(CheckEntry("form-homogeneous", wdeg.homogeneous,
                              f"degree {wdeg.degree}" if wdeg.degree else wdeg.note))

    coord_weights: Dict[str, object] = {}
    for name in phi.target.names:
        rep = coord_reps[name]
        ok = rep.homogeneous
        coord_weights[name] = rep.degree.weight if rep.degree else None
        entries.append(CheckEntry(f"coordinate-{name}-homogeneous", ok,
                                  f"weight {coord_weights[name]}"))

    if w is not None:
        # pairs and odd squares carry the weight of the form, 0 in the log case
        want = Fraction(0) if spec.variant == "contact-log" else w
        for qn, pn in zip(roles["q"], roles["p"]):
            wq, wp = coord_weights[qn], coord_weights[pn]
            tot = None if wq is None or wp is None else wq + wp
            entries.append(CheckEntry(
                f"pair-weight-{qn}-{pn}", tot == want,
                f"w({qn})+w({pn}) = {tot}, expected {want}"))
        for yn in roles["y"]:
            ww = coord_weights[yn]
            tot = None if ww is None else 2 * ww
            entries.append(CheckEntry(
                f"odd-weight-{yn}", tot == want,
                f"2*w({yn}) = {tot}, expected {want}"))
        if spec.variant == "contact":
            zn = roles["z"][0]
            entries.append(CheckEntry(
                "z-weight", coord_weights[zn] == w,
                f"w(z) = {coord_weights[zn]}, expected {w}"))
        if spec.variant == "contact-log":
            entries.append(CheckEntry("weight-zero-case", w == 0,
                                      f"form weight {w}"))

    passed = all(e.passed for e in entries)
    return VerificationReport(passed, entries, mode)


# -- numeric straightening ---------------------------------------------------------


class StraighteningError(RuntimeError):
    pass


def _evaluator(plans: Sequence[Plan], N: int):
    """Float bodies of the plans at N points, as a function of the (N, n)
    points that fills one (N, len(plans)) buffer and returns it; the plans
    of one call share one value table.  The first call evaluates every plan
    in plan order, later ones only the plans that read a coordinate."""
    out = np.empty((N, len(plans)))
    todo = list(enumerate(plans))
    reading = [(j, p) for j, p in todo if p.reads]

    def evaluate(x: np.ndarray) -> np.ndarray:
        nonlocal todo
        values: dict = {}
        cols = list(x.T)
        for j, p in todo:
            out[:, j] = p.float_body(cols, values)
        todo = reading
        return out
    return evaluate


def _in_domain(x: np.ndarray) -> np.ndarray:
    if not np.abs(x).max() <= DOMAIN_LIMIT:     # also true for nan
        raise StraighteningError(
            "flow left the working domain; reduce the box or step")
    return x


def _rk4_flow(plans: Sequence[Plan], x: np.ndarray, J: np.ndarray,
              t: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Flow of a field f from every row of x for its own time t, with the
    variational equation for J; ``plans`` holds Df, row-major, then f, and
    may leave out Df when f reads no coordinate.  Such a field moves x to
    x + t f and leaves J (Df = 0); the domain is convex, so checking both
    ends checks the path.  Any other takes fixed-step RK4 in rescaled time
    s in [0, 1], dx/ds = t f(x) and dJ/ds = t Df(x) J, with one step count
    for all rows."""
    N, n = x.shape
    if not any(p.reads for p in plans):
        f = _evaluator(plans[-n:], N)(x)
        return _in_domain(_in_domain(x) + t[:, None] * f), J
    steps = max(1, math.ceil(float(np.max(np.abs(t))) / RK4_STEP))
    dt = (t / steps)[:, None]
    field = _evaluator(plans, N)
    k = np.empty((4, N, n + n * n))      # the four stages' derivatives

    def rhs(y, out):
        v = field(y[:, :n])
        out[:, :n] = v[:, n * n:]
        out[:, n:] = (v[:, :n * n].reshape(N, n, n)
                      @ y[:, n:].reshape(N, n, n)).reshape(N, -1)
        return out

    half, sixth = 0.5 * dt, dt / 6.0
    y = np.hstack([x, J.reshape(N, -1)])
    for _ in range(steps):
        k1 = rhs(y, k[0])
        k2 = rhs(y + half * k1, k[1])
        k3 = rhs(y + half * k2, k[2])
        k4 = rhs(y + dt * k3, k[3])
        y = y + sixth * (k1 + 2 * k2 + 2 * k3 + k4)
        _in_domain(y[:, :n])
    return y[:, :n], y[:, n:].reshape(N, n, n)


@dataclass
class StraighteningGrid:
    base: np.ndarray
    slice_axes: List[int]
    nodes: List[Tuple[Tuple[float, ...], np.ndarray]]
    jacobians: List[np.ndarray]
    max_error: float
    certified: bool

    def to_csv(self, path: str):
        n = len(self.base)
        with open(path, "w", newline="") as fh:
            fh.write(f"# base={list(map(float, self.base))} rk4_step={RK4_STEP}\n")
            writer = csv.writer(fh)
            writer.writerow([f"u{i + 1}" for i in range(n)]
                            + [f"x{i + 1}" for i in range(n)])
            for u, x in self.nodes:
                writer.writerow([f"{v:.12g}" for v in u]
                                + [f"{v:.12g}" for v in x])


# an overflowed float body fails the domain check, or raises the typed error
# of its atom, so numpy's overflow warnings would only reach stderr
@np.errstate(all="ignore")
def straighten_commuting(fields: Sequence[VectorField],
                         base: Sequence[float],
                         box: float = 0.5,
                         nodes_per_axis: int = 5,
                         policy: EqualityPolicy = DEFAULT_POLICY
                         ) -> StraighteningGrid:
    """Numeric straightening of commuting independent even fields.

    Coordinates are built by composing flows from a transversal slice, with
    every grid node in one integration per field: a field that reads no
    coordinate flows in closed form, as a translation, and any other by
    fixed-step RK4.  The variational equation carries the Jacobian of the
    coordinate map along the same flows, and the certificate checks that it
    pushes each field forward to the corresponding coordinate derivation on
    every grid node.  The grid has ``nodes_per_axis`` nodes on each axis,
    spanning [-box, box]; a single node is the base point.
    """
    if not fields:
        raise ValueError("need at least one field")
    chart = fields[0].chart
    if not chart.is_purely_even():
        raise StraighteningError("numeric straightening handles purely even "
                                 "charts; verify super cases symbolically")
    for X in fields:
        if X.parity != EVEN or X.chart != chart:
            raise StraighteningError("fields must be even and share one chart")
    if len(base) != chart.dim:
        raise StraighteningError(f"base has {len(base)} entries for a chart "
                                 f"of dimension {chart.dim}")
    base = np.array([float(b) for b in base])
    if not np.isfinite(base).all():
        raise StraighteningError(f"base point {tuple(base.tolist())} is not finite")
    if not isinstance(nodes_per_axis, (int, np.integer)):
        raise StraighteningError(
            f"nodes_per_axis must be an integer, not {nodes_per_axis!r}")
    if nodes_per_axis < 1:
        raise StraighteningError("need at least one node per axis")
    if not (math.isfinite(box) and box > 0):
        raise StraighteningError(f"box must be positive and finite, not {box!r}")
    for i, j in combinations(range(len(fields)), 2):
        for c in lie_bracket(fields[i], fields[j]).coefficients:
            if not equal(c, zero(chart), policy):
                raise StraighteningError(
                    f"fields {i} and {j} do not commute: [X_i,X_j] != 0")

    n = chart.dim
    k = len(fields)
    plans, jac_plans = [], []
    for X in fields:
        compiled: dict = {}     # one compile table per field
        plans.append([Plan(c, compiled) for c in X.coefficients])
        # a field that reads no coordinate flows in closed form, so Df = 0
        jac_plans.append([Plan(partial(c, name), compiled)
                          for c in X.coefficients for name in chart.names]
                         if any(p.reads for p in plans[-1]) else [])

    # rank tests on unit rows, so that the fields' scale decides nothing
    M = _linalg.unit_rows(np.vstack([_evaluator(ps, 1)(base[None])
                                     for ps in plans]))
    # only now, so that a field's own typed error at the base point, such as
    # an atom of an overflowed argument, comes first
    if (np.abs(base) > DOMAIN_LIMIT).any():
        raise StraighteningError(
            f"base point {tuple(base.tolist())} is outside the working "
            f"domain |x| <= {DOMAIN_LIMIT:g}")
    r = _linalg.float_rank(M[None], policy.rel_tol)[0]
    if r is None:
        raise StraighteningError("fields are not finite at the base point")
    if r < k:
        raise StraighteningError("fields are dependent at the base point")

    # the slices complete the fields to a basis, so the grid has n axes
    slice_axes: List[int] = []
    for j in range(n):
        cand = np.vstack([M, np.eye(n)[slice_axes + [j]]])
        if (len(cand) <= n
                and _linalg.float_rank(cand[None], policy.rel_tol)[0] == len(cand)):
            slice_axes.append(j)

    axis = (np.linspace(-box, box, nodes_per_axis) if nodes_per_axis > 1
            else np.zeros(1))
    combos = list(iproduct(axis, repeat=n))
    U = np.array(combos)
    x = np.tile(base, (len(combos), 1))
    J = np.zeros((len(combos), n, n))
    for m, ax in enumerate(slice_axes):
        x[:, ax] += U[:, k + m]
        J[:, ax, k + m] = 1.0
    fs = [_evaluator(ps, len(combos)) for ps in plans]
    for i in reversed(range(k)):
        bad = ~np.isfinite(fs[i](x)).all(axis=1)    # where each flow starts
        if bad.any():
            raise StraighteningError("fields are not finite at the grid node "
                                     f"u={tuple(map(float, U[bad.argmax()]))}")
        x, J = _rk4_flow(jac_plans[i] + plans[i], x, J, U[:, i])
        J[:, :, i] = fs[i](x)

    nodes = [(tuple(map(float, combo)), row) for combo, row in zip(combos, x)]
    # rank tests on unit columns, as at the base point; a Jacobian that is
    # not finite is left to the certificate
    cols = _linalg.unit_rows(J.transpose(0, 2, 1).reshape(-1, n)).reshape(J.shape)
    singular = [u for (u, _), r in zip(nodes, _linalg.float_rank(cols, policy.rel_tol))
                if r is not None and r < n]
    if singular:
        raise StraighteningError(f"singular jacobian on the grid at u={singular[0]}")
    F = np.stack([f(x) for f in fs], axis=-1)
    # a node whose Jacobian or fields are not finite fails the certificate
    eye = np.eye(n)[:, :k]
    max_err = float(np.max([math.inf if sol is None else np.max(np.abs(sol - eye))
                            for sol in _linalg.float_solve(J, F)]))
    return StraighteningGrid(base, slice_axes, nodes, list(J),
                             max_err, _linalg.negligible(max_err, GRID_CERTIFICATE))
