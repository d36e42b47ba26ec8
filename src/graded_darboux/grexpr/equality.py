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
from dataclasses import dataclass
from typing import Dict, Optional

from .chart import ChartSpec, EVEN
from .expr import EvaluationError, GradedExpr
from .grassmann import GrassmannValue, Plan, grassmann_point


@dataclass(frozen=True)
class EqualityPolicy:
    n_points: int = 32
    rel_tol: float = 1e-9
    seed: int = 0
    mode: str = "auto"          # auto | randomized (force sampling)
    max_redraws: int = 100
    body_floor: float = 1e-6    # redraw if a divisor body gets this close to 0


DEFAULT_POLICY = EqualityPolicy()


@dataclass
class EqualityResult:
    equal: bool
    mode: str                   # exact | randomized
    witness: Optional[dict] = None
    detail: str = ""

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
    return abs(a - b) <= rel_tol * max(1.0, abs(a), abs(b))


def equal(a: GradedExpr, b: GradedExpr,
          policy: EqualityPolicy = DEFAULT_POLICY) -> EqualityResult:
    """Decide a == b; exact when possible, else randomized per the policy."""
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
    attempts = 0
    while checked < policy.n_points:
        if attempts > policy.max_redraws * max(1, policy.n_points):
            raise EvaluationError(
                "could not sample a valid evaluation point "
                "(check chart boxes against singularities)")
        attempts += 1
        point = _sample_point(chart, rng)
        values = grassmann_point(chart, point)
        try:
            for pat, plan_a, plan_b in plans:
                # a divisor body under the floor raises: redraw off the pole
                va = plan_a.grassmann(values, policy.body_floor)
                vb = plan_b.grassmann(values, policy.body_floor)
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
                        return EqualityResult(False, "randomized", witness)
        except (EvaluationError, ArithmeticError):
            continue
        checked += 1
    return EqualityResult(True, "randomized",
                          detail=f"{checked} points, rel_tol={policy.rel_tol}")
