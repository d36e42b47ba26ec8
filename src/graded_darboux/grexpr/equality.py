"""Exact and randomized equality of expressions.

Two canonical expressions with exact coefficients that are structurally
identical are equal, full stop.  Pure polynomials with exact coefficients
are decided exactly either way.  Everything else (transcendental atoms,
quotients, float coefficients) falls back to randomized identity testing:
evaluate both sides at sampled points, even coordinates drawn uniformly
from the chart's declared boxes, odd coordinates mapped to scaled distinct
generators, and compare all Grassmann coefficients of all differential
components within a relative tolerance.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from .chart import ChartSpec, EVEN
from .expr import EvaluationError, GradedExpr
from .grassmann import FAILURES, GrassmannValue, Plan, _blade, _coordinates


@dataclass(frozen=True)
class EqualityPolicy:
    """How every sampled decision is made: how many body points, drawn from
    which seed, compared at which tolerance."""

    n_points: int = 32
    rel_tol: float = 1e-9       # every rank, membership and vanishing decision
    seed: int = 0
    mode: str = "auto"          # auto | randomized (force sampling)

    def __post_init__(self):
        if self.n_points < 1:
            raise ValueError("a sampled decision needs at least one point")
        if not 0 < self.rel_tol < np.inf:      # also rejects nan
            raise ValueError(f"tolerance must be a positive finite number, "
                             f"not {self.rel_tol!r}")


DEFAULT_POLICY = EqualityPolicy()

# Thresholds that do not follow rel_tol, each fixed by what it guards.
MAX_REDRAWS = 100           # sample draws per requested point before giving up
DIVISOR_FLOOR = 1e-6        # a divisor body this close to 0 is a pole: redraw
NOISE_FLOOR = 1e-12         # a pivot, determinant or field value this small is 0
COEFF_DROP = 1e-15          # a float coefficient this small is left out of a chart map
EIGEN_CLUSTER = 1e-8        # eigenvalues this close are one (imaginary parts: 0)
EIGENSPACE_TOL = 1e-7       # looser than EIGEN_CLUSTER: the shift by a cluster mean
GRID_CERTIFICATE = 1e-6     # push-forward error a straightening grid may keep
RK4_STEP = 1e-3             # flow time per RK4 step of straightening
DOMAIN_LIMIT = 1e6          # a flow leaving |x| <= this has diverged


def threshold(tol: float, scale=0.0):
    """``tol`` relative to ``scale``, and absolute below scale 1; elementwise
    for an array of scales."""
    return tol * np.maximum(1.0, scale)


@dataclass
class EqualityResult:
    equal: bool
    mode: str                   # exact | randomized
    witness: Optional[dict] = None
    detail: str = ""
    redraws: Dict[str, int] = field(default_factory=dict)  # by reason, see equal()

    def __bool__(self) -> bool:
        return self.equal


ODD_SCALES = (0.5, 1.5)     # an odd coordinate is a generator scaled from here
ARITHMETIC = FAILURES.index("arithmetic")


def _draw_points(chart: ChartSpec, rng: random.Random, n: int) -> List[list]:
    """n sample points, in draw order: even coordinates uniform in their
    boxes, odd ones the scale of their generator."""
    boxes = [chart.box_for(i) if c.parity == EVEN else ODD_SCALES
             for i, c in enumerate(chart.coords)]
    return [[rng.uniform(lo, hi) for lo, hi in boxes] for _ in range(n)]


def _close(a, b, rel_tol: float):
    return np.abs(a - b) <= threshold(rel_tol, np.maximum(np.abs(a), np.abs(b)))


def _outcomes(plans, chart: ChartSpec, points: List[list], rel_tol: float) -> list:
    """Each point's outcome, decided as if the points were checked one at a
    time: components in order, lhs evaluated before rhs, and the first
    component that fails to evaluate or differs decides.  None: the point
    passes; a string: why it failed; a dict: the witness of a difference,
    at the first blade, in bitmask order, where the sides differ."""
    x = _coordinates(chart, points)
    out: list = [None] * len(points)
    undecided = np.ones(len(points), dtype=bool)
    for pat, plan_a, plan_b in plans:
        va = plan_a.grassmann(x, DIVISOR_FLOOR)
        vb = plan_b.grassmann(x, DIVISOR_FLOOR)
        failure = np.where(va.failure != 0, va.failure, vb.failure)
        # a value that overflowed to inf or nan proves no difference
        failure[(failure == 0) & ~(np.isfinite(va.values).all(axis=1)
                                   & np.isfinite(vb.values).all(axis=1))] = ARITHMETIC
        with np.errstate(all="ignore"):
            differ = ~_close(va.values, vb.values, rel_tol)
        decided = undecided & ((failure != 0) | differ.any(axis=1))
        for i in np.flatnonzero(decided).tolist():
            if failure[i]:
                out[i] = FAILURES[failure[i]]
                continue
            m = int(np.argmax(differ[i]))
            out[i] = {
                "point": {c.name: (v if c.parity == EVEN
                                   else repr(GrassmannValue(xc[i])))
                          for c, v, xc in zip(chart.coords, points[i], x)},
                "component": pat,
                "generators": _blade(m),
                # + 0.0 reads a negative zero as the 0.0 of an absent blade
                "lhs": float(va.values[i, m]) + 0.0,
                "rhs": float(vb.values[i, m]) + 0.0,
            }
        undecided &= ~decided
        if not undecided.any():
            break
    return out


def equal(a: GradedExpr, b: GradedExpr,
          policy: EqualityPolicy = DEFAULT_POLICY) -> EqualityResult:
    """Decide a == b; exact when possible, else randomized per the policy.

    The sample points are drawn, and each plan evaluated, a batch at a
    time; a point whose evaluation fails is replaced by the next draw.
    ``redraws`` counts the failed draws by reason: ``divisor-floor`` (a
    divisor body under ``DIVISOR_FLOOR``), ``evaluation`` (another
    ``EvaluationError``) or ``arithmetic`` (an ``ArithmeticError`` such as
    an overflow, or a value that is inf or nan).  The verdict, witness and
    counts are those of checking the points one at a time in draw order."""
    if a.chart != b.chart:
        raise ValueError("cannot compare expressions over different charts")
    chart = a.chart

    force_random = policy.mode == "randomized"

    if not force_random:
        if a.key() == b.key():
            return EqualityResult(True, "exact")
        if (a.is_polynomial() and b.is_polynomial()
                and a.is_exact() and b.is_exact()):
            d = a - b
            witness = {"residual": str(d)}
            return EqualityResult(d.is_zero(), "exact",
                                  None if d.is_zero() else witness)

    # randomized identity testing, differential component by component
    comps_a = a.diff_components()
    comps_b = b.diff_components()
    z = GradedExpr(chart, ())
    plans = [(pat, Plan(comps_a.get(pat, z)), Plan(comps_b.get(pat, z)))
             for pat in sorted(set(comps_a) | set(comps_b))]
    rng = random.Random(policy.seed)

    checked = 0
    redraws: Dict[str, int] = {}
    while checked < policy.n_points:
        points = _draw_points(chart, rng, policy.n_points - checked)
        for outcome in _outcomes(plans, chart, points, policy.rel_tol):
            if checked + sum(redraws.values()) > MAX_REDRAWS * policy.n_points:
                raise EvaluationError(
                    "could not sample a valid evaluation point "
                    "(check chart boxes against singularities)")
            if outcome is None:
                checked += 1
            elif isinstance(outcome, str):
                redraws[outcome] = redraws.get(outcome, 0) + 1
            else:
                return EqualityResult(False, "randomized", outcome,
                                      redraws=redraws)
    return EqualityResult(True, "randomized",
                          detail=f"{checked} points, rel_tol={policy.rel_tol}",
                          redraws=redraws)
