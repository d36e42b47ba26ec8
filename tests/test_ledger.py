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

from graded_darboux import chart, parse_expr
from graded_darboux.cartan import vector_field
from graded_darboux.darboux import StraighteningError, straighten_commuting
from graded_darboux.grexpr.chart import ChartSpec, CoordinateDecl
from graded_darboux.grexpr.equality import EqualityPolicy, equal
from graded_darboux.pfaffian import PfaffianError, characteristic_class

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

CASES = {
    # item 1: small, badly scaled and cancelling values
    "small-sines-differ": Case(
        "1", lambda: _equal("1e-10*sin(x)", "2e-10*sin(x)", LINE), False),
    "small-contact-term": Case(
        "1", lambda: _classify("d(z) - 1e-10*p*(2+sin(p*q))*d(q)", README),
        CONTACT_3),
    "small-contact-form": Case(
        "1", lambda: _classify("1e-12*(d(z) - p*(2+sin(p*q))*d(q))", README),
        CONTACT_3),
    "cancelling-exponentials": Case(
        "1", lambda: _equal("exp(x)*exp(x) - exp(x-1)*exp(x+1) + 1", "1",
                            LINE, mode="randomized"), True),
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
    # (exp(x)*exp(x) at base (354.5, 0) keeps no slice axis, and its flow
    # does leave the working domain)
    "field-overflows-at-a-node": Case(
        "finding", lambda: straighten_commuting(
            [vector_field(PLANE, {"y": "exp(400*x)*exp(400*x)"})], [0, 0],
            box=1.0, nodes_per_axis=3),
        Refused("fields are not finite at the grid node u=(-1.0, 1.0)")),
}

LEDGER = {
    "small-sines-differ": ("wrong", "1"),
    "small-contact-term": ("wrong", "1"),
    "small-contact-form": ("refused", "1"),
    "cancelling-exponentials": ("wrong", "1"),
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
