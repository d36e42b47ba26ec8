"""The wrong-answer ledger: known hard inputs with answers from the theory.

Each case is one library call and the answer written by hand, never taken
from the code.  ``LEDGER`` lists every case whose outcome differs from its
answer today, with the outcome class and the ROADMAP item meant to fix it:

- ``wrong``: a verdict that contradicts the answer;
- ``refused``: a typed error, or the ``irregular`` verdict, where the answer
  is something else.

The test fails on a new wrong answer and on a fix that leaves its entry in
place: a change that fixes a case removes its entry and says so.
"""

from dataclasses import dataclass
from typing import Callable, Tuple

import numpy as np

from graded_darboux import chart, parse_expr
from graded_darboux.cartan import basis_field, vector_field
from graded_darboux.darboux import (StraighteningError, linear_darboux,
                                    straighten_commuting)
from graded_darboux.grexpr.chart import ChartSpec, CoordinateDecl
from graded_darboux.grexpr.equality import EqualityPolicy, equal
from graded_darboux.grexpr.parser import format_expr
from graded_darboux.pfaffian import (PfaffianError, characteristic_class,
                                     presymplectic_check, reeb)

TYPED = (PfaffianError, StraighteningError)


@dataclass(frozen=True)
class Refused:
    message: str


IRREGULAR = ("irregular", None)
CONTACT_3 = ("contact", 3)


@dataclass(frozen=True)
class Case:
    items: str
    call: Callable[[], object]
    answer: object


def _classify(expr: str, c: ChartSpec) -> Tuple[str, object]:
    rep = characteristic_class(parse_expr(expr, c))
    return rep.kind, rep.class_


def _equal(a: str, b: str, c: ChartSpec, **policy) -> bool:
    return equal(parse_expr(a, c), parse_expr(b, c),
                 EqualityPolicy(**policy)).equal


def _presymplectic(expr: str, c: ChartSpec,
                   factor=1) -> Tuple[bool, object, list]:
    """Constant-rank verdict, rank, and the kernel as one row per basis
    vector, scaled so that its first nonzero entry is 1, of the form times
    ``factor`` (1.0 makes its coefficients floats)."""
    rep = presymplectic_check(parse_expr(expr, c) * factor)
    lines = [v / v[np.flatnonzero(np.round(v, 9))[0]] for v in rep.kernel.T]
    return rep.constant_rank, rep.rank, np.round(lines, 9).tolist()


def _linear_darboux(expr: str, c: ChartSpec) -> Tuple[int, int, tuple]:
    spec = linear_darboux(parse_expr(expr, c)).spec
    return spec.r, spec.s, spec.eps


def _straighten(fields, **kwargs) -> Tuple[list, bool]:
    grid = straighten_commuting(fields, [0, 0], nodes_per_axis=3, **kwargs)
    return grid.slice_axes, grid.certified


README = chart(("z", 0, 0), ("p", 0, 1), ("q", 0, -1),
               default_box=(-0.7, 0.7))
LINE = chart(("x", 0, 0), default_box=(340, 370))
BIG_X = ChartSpec((CoordinateDecl("x", 0, 0, box=(340, 354)),
                   CoordinateDecl("y", 0, 0, box=(0.5, 1)),
                   CoordinateDecl("z")))
SUPER = chart(("x", 0, 0), ("y", 0, 0), ("a", 1, 0), ("b", 1, 0),
              default_box=(-0.7, 0.7))
# T*[1]M over (x, y): odd fibre coordinates of weight 1
T1M = chart(("x", 0, 0), ("y", 0, 0), ("u", 1, 1), ("v", 1, 1))
PLANE = chart(("x", 0, 0), ("y", 0, 0))
EVEN4 = chart(("x", 0, 0), ("y", 0, 0), ("u", 0, 0), ("v", 0, 0))
# the README chart with a fourth coordinate, u
PRECONTACT = chart(("z", 0, 0), ("p", 0, 1), ("q", 0, -1), ("u", 0, 0))
# exp(x)*exp(x) is finite up to x = 354.89, but a singular value of twice it
# overflows
EDGE = chart(("x", 0, 0), ("y", 0, 0), ("z", 0, 0),
             default_box=(354.75, 354.85))

CASES = {
    # item 1: small, badly scaled and cancelling values
    "small-sines-differ": Case(
        "1", lambda: _equal("1e-10*sin(x)", "2e-10*sin(x)", LINE), False),
    # the dq components differ by 1e-10*p*(2 + sin(p*q)), as small as the
    # sines above
    "small-contact-term-differs": Case(
        "1", lambda: _equal("d(z) - 1e-10*p*(2+sin(p*q))*d(q)", "d(z)", README),
        False),
    "small-contact-term": Case(
        "1", lambda: _classify("d(z) - 1e-10*p*(2+sin(p*q))*d(q)", README),
        CONTACT_3),
    "small-contact-form": Case(
        "1", lambda: _classify("1e-12*(d(z) - p*(2+sin(p*q))*d(q))", README),
        CONTACT_3),
    "cancelling-exponentials": Case(
        "1", lambda: _equal("exp(x)*exp(x) - exp(x-1)*exp(x+1) + 1", "1",
                            LINE, mode="randomized"), True),
    # item 18: alpha ^ d(alpha) = -c (2 + sin u + u cos u) dz dp dq with
    # u = pq, and sin u + u cos u >= -0.91 for |u| <= 0.49, so the form is
    # contact for every c != 0; its Reeb field is d/dz
    "large-contact-term-1e9": Case(
        "1, 18", lambda: _classify("d(z) - 1e9*p*(2+sin(p*q))*d(q)", README),
        CONTACT_3),
    "large-contact-term-1e10": Case(
        "1, 18", lambda: _classify("d(z) - 1e10*p*(2+sin(p*q))*d(q)", README),
        CONTACT_3),
    "large-contact-term-1e12": Case(
        "1, 18", lambda: _classify("d(z) - 1e12*p*(2+sin(p*q))*d(q)", README),
        CONTACT_3),
    # the same form at c = 1e-10 (small-contact-term): its Reeb field is
    # d/dz, as at c = 1 and c = 1e6
    "small-contact-reeb": Case(
        "1, 18", lambda: reeb(parse_expr("d(z) - 1e-10*p*(2+sin(p*q))*d(q)",
                                         README)),
        basis_field(README, "z")),
    # d(alpha) = 2 exp(2x) y dx dy and alpha ^ d(alpha) vanish nowhere
    "large-component": Case(
        "1", lambda: _classify("d(z) + exp(x)*exp(x)*y*d(y)", BIG_X),
        CONTACT_3),
    # item 5: d(alpha) has only nilpotent coefficients, so the rank is not
    # constant over the Grassmann algebra
    "nilpotent-differential": Case(
        "5", lambda: _classify("d(x) + a*b*d(y)", SUPER), IRREGULAR),
    "nilpotent-factor": Case(
        "5", lambda: _classify("(1+a*b)*d(x)", SUPER), IRREGULAR),
    # d(alpha) = d(a) d(x) + d(b) d(y) is nondegenerate: a symplectic
    # potential on R^{2|2}, whose coefficients vanish on the body
    "odd-coefficient-potential": Case(
        "5", lambda: _classify("a*d(x) + b*d(y)", SUPER),
        ("symplectic-potential", 4)),
    # the Liouville form of T*[1]M, the same form with graded weights
    "cotangent-odd-potential": Case(
        "5, 12", lambda: _classify("u*d(x) + v*d(y)", T1M),
        ("symplectic-potential", 4)),
    # the flow starting at x = 1 would leave y = 0 at speed exp(800): no
    # float grid exists, and the refusal names the field, not the flow
    "field-overflows-at-a-node": Case(
        "finding", lambda: straighten_commuting(
            [vector_field(PLANE, {"y": "exp(400*x)*exp(400*x)"})], [0, 0],
            box=1.0, nodes_per_axis=3),
        Refused("fields are not finite at the grid node u=(-1.0, 1.0)")),
    # the same at base (354.5, 0): the slice axis x reaches x = 355.5,
    # where exp(x)*exp(x) overflows
    "field-overflows-on-its-slice": Case(
        "finding", lambda: straighten_commuting(
            [vector_field(PLANE, {"y": "exp(x)*exp(x)"})], [354.5, 0],
            box=1.0, nodes_per_axis=3),
        Refused("fields are not finite at the grid node u=(-1.0, 1.0)")),
    # omega = exp(2x) d(x) d(y + z) has rank 2 everywhere, and its kernel is
    # spanned by d/dy - d/dz
    "overflowing-two-form": Case(
        "finding", lambda: _presymplectic(
            "exp(x)*exp(x)*(d(x)*d(y) + d(x)*d(z))", EDGE),
        (True, 2, [[0.0, 1.0, -1.0]])),
    # an even form: its flat matrix is block diagonal, the pair d(x) d(y)
    # has rank 2 and the odd square rank 1 whatever the other block's
    # scale, and d/db spans the kernel, on float data as on exact data
    "float-blocks-of-two-scales": Case(
        "finding", lambda: _presymplectic(
            "d(x)*d(y) + 1e12*d(a)*d(a)", SUPER, 1.0),
        (True, 3, [[0.0, 0.0, 0.0, 1.0]])),
    # a constant field is straight: its flow and the x slice are coordinates
    "large-constant-field": Case(
        "finding", lambda: _straighten(
            [vector_field(PLANE, {"y": "1e20"})], box=1e-15),
        ([0], True)),
    # d/dx and 1e20 d/dy commute and are independent everywhere
    "large-independent-pair": Case(
        "finding", lambda: _straighten(
            [basis_field(PLANE, "x"), vector_field(PLANE, {"y": "1e20"})],
            box=1e-15),
        ([], True)),
    # a constant nonzero field is straight at every scale: the Jacobian
    # [[0, 1], [1e-20, 0]] of its grid has full rank
    "small-constant-field": Case(
        "finding", lambda: _straighten(
            [vector_field(PLANE, {"y": "1e-20"})], box=0.5),
        ([0], True)),
    # item 19: d(d(z)) = 0, so i_R d(z) = 1 fixes R^z alone, and
    # d/dz + a d/dp + b d/dq solves the Reeb system for all a, b
    "closed-form-reeb": Case(
        "19", lambda: reeb(parse_expr("d(z)", README)),
        Refused("no unique Reeb field: free unknowns p, q")),
    # d(alpha) = d(p) d(q) reads no u, so d/du is in the kernel
    "precontact-reeb": Case(
        "19", lambda: reeb(parse_expr("d(z) + p*d(q)", PRECONTACT)),
        Refused("no unique Reeb field: free unknowns u")),
    # item 17: constant two-forms of rank 4, exact at every scale; the even
    # pairs have Pfaffians 1e-12 and 1e12, the odd squares are positive
    "small-symplectic-pair": Case(
        "17", lambda: _linear_darboux("1e-12*d(x)*d(y) + d(u)*d(v)", EVEN4),
        (2, 0, ())),
    "large-symplectic-pair": Case(
        "17", lambda: _linear_darboux("1e12*d(x)*d(y) + d(u)*d(v)", EVEN4),
        (2, 0, ())),
    "small-odd-square": Case(
        "17", lambda: _linear_darboux(
            "d(x)*d(y) + 1e-12*d(a)*d(a) + d(b)*d(b)", SUPER), (1, 2, (1, 1))),
    # (1/3) d(p1) d(q1) with p1 = x: q1 = y/3, whose coefficient is exact
    "rational-pair-image": Case(
        "17", lambda: format_expr(linear_darboux(parse_expr(
            "(1/3)*d(x)*d(y)", EVEN4)).chart_map.images["q1"]), "1/3*y"),
    # y d/dx vanishes on y = 0, where the grid from base (0, 0.5) ends
    "field-vanishing-on-the-grid": Case(
        "finding", lambda: straighten_commuting(
            [vector_field(PLANE, {"x": "y"})], [0, 0.5], box=0.5,
            nodes_per_axis=3),
        Refused("singular jacobian on the grid at u=(-0.5, -0.5)")),
}

LEDGER = {
    "small-sines-differ": ("wrong", "1"),
    "small-contact-term-differs": ("wrong", "1"),
    "small-contact-term": ("wrong", "1"),
    "small-contact-form": ("refused", "1"),
    "cancelling-exponentials": ("wrong", "1"),
    "large-contact-term-1e9": ("refused", "1"),
    "large-contact-term-1e10": ("refused", "1"),
    "large-contact-term-1e12": ("wrong", "1"),
    "small-contact-reeb": ("refused", "1"),
    "large-component": ("wrong", "1"),
    "nilpotent-differential": ("wrong", "5"),
    "nilpotent-factor": ("wrong", "5"),
    "odd-coefficient-potential": ("refused", "5"),
    "cotangent-odd-potential": ("refused", "5"),
}


def _outcome(case: Case) -> object:
    try:
        return case.call()
    except TYPED as exc:
        return Refused(str(exc))


def _judge(case: Case):
    got = _outcome(case)
    if got == case.answer:
        return None
    return "refused" if isinstance(got, Refused) or got == IRREGULAR else "wrong"


def test_the_ledger_lists_exactly_the_cases_that_differ():
    differing = {name: _judge(case) for name, case in CASES.items()}
    differing = {name: c for name, c in differing.items() if c is not None}
    assert differing == {name: c for name, (c, _) in LEDGER.items()}


def test_each_entry_names_its_case_item():
    for name, (_, item) in LEDGER.items():
        assert item in CASES[name].items.split(", ")
