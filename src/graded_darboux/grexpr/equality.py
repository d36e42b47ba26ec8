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
from typing import Dict, Optional

from .chart import ChartSpec, EVEN
from .expr import EvaluationError, GradedExpr
from .grassmann import DivisorFloorError, GrassmannValue, Plan, grassmann_point


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


def threshold(tol: float, scale: float = 0.0) -> float:
    """``tol`` relative to ``scale``, and absolute below scale 1."""
    return tol * max(1.0, scale)


@dataclass
class EqualityResult:
    equal: bool
    mode: str                   # exact | randomized
    witness: Optional[dict] = None
    detail: str = ""
    redraws: Dict[str, int] = field(default_factory=dict)  # by reason, see equal()

    def __bool__(self) -> bool:
        return self.equal


def _sample_point(chart: ChartSpec, rng: random.Random) -> Dict[str, object]:
    point: Dict[str, object] = {}
    ngens = len(chart.odd_indices)
    g = 0
    for i, c in enumerate(chart.coords):
        if c.parity == EVEN:
            lo, hi = chart.box_for(i)
            point[c.name] = rng.uniform(lo, hi)
        else:
            point[c.name] = GrassmannValue.generator(g, ngens,
                                                     scale=rng.uniform(0.5, 1.5))
            g += 1
    return point


def _close(a: float, b: float, rel_tol: float) -> bool:
    return abs(a - b) <= threshold(rel_tol, max(abs(a), abs(b)))


def equal(a: GradedExpr, b: GradedExpr,
          policy: EqualityPolicy = DEFAULT_POLICY) -> EqualityResult:
    """Decide a == b; exact when possible, else randomized per the policy.

    A sample point whose evaluation fails is redrawn; ``redraws`` counts the
    redraws by reason: ``divisor-floor`` (a divisor body under
    ``DIVISOR_FLOOR``), ``evaluation`` (another ``EvaluationError``) or
    ``arithmetic`` (an ``ArithmeticError`` such as an overflow)."""
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
        if checked + sum(redraws.values()) > MAX_REDRAWS * policy.n_points:
            raise EvaluationError(
                "could not sample a valid evaluation point "
                "(check chart boxes against singularities)")
        point = _sample_point(chart, rng)
        values = grassmann_point(chart, point)
        try:
            for pat, plan_a, plan_b in plans:
                # a divisor body under the floor raises: redraw off the pole
                va = plan_a.grassmann(values, DIVISOR_FLOOR)
                vb = plan_b.grassmann(values, DIVISOR_FLOOR)
                keys = set(va.data) | set(vb.data)
                for k in keys:
                    x, y = va.data.get(k, 0.0), vb.data.get(k, 0.0)
                    if not _close(x, y, policy.rel_tol):
                        witness = {
                            "point": {n: (v if not isinstance(v, GrassmannValue)
                                          else repr(v)) for n, v in point.items()},
                            "component": pat,
                            "generators": k,
                            "lhs": x,
                            "rhs": y,
                        }
                        return EqualityResult(False, "randomized", witness,
                                              redraws=redraws)
        except (EvaluationError, ArithmeticError) as exc:
            reason = ("divisor-floor" if isinstance(exc, DivisorFloorError)
                      else "evaluation" if isinstance(exc, EvaluationError)
                      else "arithmetic")
            redraws[reason] = redraws.get(reason, 0) + 1
            continue
        checked += 1
    return EqualityResult(True, "randomized",
                          detail=f"{checked} points, rel_tol={policy.rel_tol}",
                          redraws=redraws)
