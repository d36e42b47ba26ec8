"""Commands that answer the same question must agree.

The linear Darboux relation: on a constant even two-form, ``linear_darboux``
finds r pairs and s odd squares, so 2r + s is the rank of the form and
2r + s plus the leftover coordinates is the dimension.  ``presymplectic_check``
reads the same block ranks off the same flat matrix, so the two agree at
every scale, on exact and on float data alike.

The Reeb relation: a unique Reeb field exists on the box iff the class is
the dimension n (Geiges, *An Introduction to Contact Topology*, section
1.1), so ``reeb`` succeeds iff ``characteristic_class`` says contact of
class n.  ``KNOWN_DISAGREEMENTS`` lists each input where they differ today,
with the ROADMAP item meant to fix it; the test requires the list to be
exact in both directions.

The class relation: for a nonzero one-form, chi(alpha) = ker alpha /\\ ker
d(alpha), so the class is rank(d alpha) or rank(d alpha) + 1 (Bryant et
al., *Exterior Differential Systems*, 1991, ch. II), and
``characteristic_class``'s class minus ``presymplectic_check``'s rank of
d(alpha) is 0 or 1.  ``KNOWN_CLASS_DISAGREEMENTS`` is exact in the same way.
"""

import json
import random
from fractions import Fraction
from pathlib import Path

from graded_darboux import chart, cli, diff, gmul, parse_expr, zero
from graded_darboux.cartan import exterior_d
from graded_darboux.darboux import linear_darboux
from graded_darboux.grexpr.equality import EqualityPolicy
from graded_darboux.grexpr.expr import is_exact_coeff
from graded_darboux.grexpr.parser import format_expr
from graded_darboux.pfaffian import (PfaffianError, characteristic_class,
                                     presymplectic_check, reeb)
from test_ledger import BIG_X, PRECONTACT, SUPER as LEDGER_SUPER, T1M

SUPER = chart(*[(f"x{i}", 0, 0) for i in range(6)],
              *[(f"t{i}", 1, 0) for i in range(3)])


def _scaled_form(rng: random.Random, c):
    """A constant even two-form with entries k/4 * 10^e, e in -14..14, some
    of them zero: skew on the even coordinates, symmetric on the odd ones."""
    w = zero(c)
    for idx, odd in ((c.even_indices, False), (c.odd_indices, True)):
        names = [c.names[i] for i in idx]
        for a, x in enumerate(names):
            for y in names[a + (0 if odd else 1):]:
                v = Fraction(rng.randint(-8, 8), 4) * Fraction(10) ** rng.randint(-14, 14)
                if v:
                    w = w + gmul(diff(c, x), diff(c, y)) * v
    return w


def test_linear_darboux_agrees_with_presymplectic_at_every_scale():
    """2r + s is presymplectic's rank, and both commands take r and s from
    the same block ranks, on exact and on float data.  Exact images leave
    residual 0.0; an irrational odd scale leaves rounding alone."""
    rng = random.Random(1718)
    for trial in range(24):
        exact = _scaled_form(rng, SUPER)
        for w in (exact, exact * 1.0):
            res = linear_darboux(w)
            rep = presymplectic_check(w)
            spec = res.spec
            assert (2 * spec.r, spec.s) == (rep.even_rank, rep.odd_rank), trial
            assert 2 * spec.r + spec.s + spec.residual == SUPER.dim
            assert 2 * spec.r + spec.s == rep.rank, trial
            if w is exact:
                images = res.chart_map.images.values()
                if all(is_exact_coeff(m.coeff) for e in images for m in e.terms):
                    assert res.residual == 0.0, trial
                else:
                    assert res.residual <= 1e-15 * w.max_abs_coeff(), trial


def test_even_forms_get_exact_normal_forms_at_every_scale():
    c = chart(*[(f"x{i}", 0, 0) for i in range(6)])
    rng = random.Random(17)
    for trial in range(48):
        w = _scaled_form(rng, c)
        res = linear_darboux(w)
        assert 2 * res.spec.r == presymplectic_check(w).rank, trial
        assert res.residual == 0.0, trial


def test_odd_pairing_with_zero_diagonal():
    """d(a) d(b) on odd (a, b) is ((a + b)/2)^2 - ((a - b)/2)^2 in the
    differentials: every diagonal entry is zero, yet s = 2."""
    c = chart(("a", 1, 0), ("b", 1, 0))
    res = linear_darboux(parse_expr("d(a)*d(b)", c))
    assert (res.spec.r, res.spec.s, res.spec.eps) == (0, 2, (1, -1))
    assert {k: format_expr(e) for k, e in res.chart_map.images.items()} == {
        "y1": "1/2*b + 1/2*a", "y2": "-1/2*b + 1/2*a"}
    assert res.residual == 0.0


def test_a_tolerance_below_rounding_stops_at_an_exact_zero_pivot():
    """alpha ^ beta has rank 2, but under rel_tol 1e-300 the rounding of its
    float entries counts as rank 4; the congruence then meets an exact zero
    pairing after one pair and stops there, dividing by nothing."""
    c = chart(("x", 0, 0), ("y", 0, 0), ("u", 0, 0), ("v", 0, 0))
    a, b = (0.2, 3.0, 3.0, 0.2), (0.5, 3.0, 1.0, 0.7)
    w = zero(c)
    for i in range(4):
        for j in range(i + 1, 4):
            w = w + gmul(diff(c, c.names[i]), diff(c, c.names[j])) * (
                a[i] * b[j] - a[j] * b[i])
    res = linear_darboux(w, EqualityPolicy(rel_tol=1e-300))
    assert (res.spec.r, res.spec.residual) == (1, 2)
    assert res.residual <= 1e-15


README = chart(("z", 0, 0), ("p", 0, 1), ("q", 0, -1), default_box=(-0.7, 0.7))

# input -> the ROADMAP item meant to fix the disagreement
KNOWN_DISAGREEMENTS = {
    "d(z) - 1e9*p*(2+sin(p*q))*d(q)": "1",
    "d(z) - 1e10*p*(2+sin(p*q))*d(q)": "1",
    "d(z) - 1e12*p*(2+sin(p*q))*d(q)": "1",
}


def _reeb_found(alpha) -> bool:
    try:
        reeb(alpha)
    except PfaffianError:
        return False
    return True


def test_reeb_exists_iff_the_form_is_contact_of_full_class():
    """alpha ^ d(alpha) = -c (2 + sin u + u cos u) dz dp dq with u = pq, so
    the form is contact for every c != 0; the relation needs no hand answer."""
    disagree = set()
    for c in ("1e-10", "1", "1e6", "1e9", "1e10", "1e12"):
        text = f"d(z) - {c}*p*(2+sin(p*q))*d(q)"
        alpha = parse_expr(text, README)
        rep = characteristic_class(alpha)
        contact = (rep.kind, rep.class_) == ("contact", README.dim)
        if _reeb_found(alpha) != contact:
            disagree.add(text)
    assert disagree == set(KNOWN_DISAGREEMENTS)


MANIFESTS = Path(cli.__file__).parent / "manifests"

# the one-form inputs of the ledger's classification and Reeb cases
LEDGER_ONE_FORMS = [
    (text, README) for text in (
        "d(z) - 1e-10*p*(2+sin(p*q))*d(q)",
        "1e-12*(d(z) - p*(2+sin(p*q))*d(q))",
        "d(z) - 1e9*p*(2+sin(p*q))*d(q)",
        "d(z) - 1e10*p*(2+sin(p*q))*d(q)",
        "d(z) - 1e12*p*(2+sin(p*q))*d(q)",
        "d(z)")] + [
    ("d(z) + exp(x)*exp(x)*y*d(y)", BIG_X),
    ("d(x) + a*b*d(y)", LEDGER_SUPER),
    ("(1+a*b)*d(x)", LEDGER_SUPER),
    ("a*d(x) + b*d(y)", LEDGER_SUPER),
    ("u*d(x) + v*d(y)", T1M),
    ("d(z) + p*d(q)", PRECONTACT),
]

# input -> the ROADMAP item meant to fix the disagreement
KNOWN_CLASS_DISAGREEMENTS = {}


def _class_and_rank(alpha):
    """``characteristic_class``'s class and ``presymplectic_check``'s rank
    of d(alpha), each None where that command gives no verdict: a typed
    refusal, the ``irregular`` kind or a rank that is not constant."""
    try:
        cls = characteristic_class(alpha).class_
    except PfaffianError:
        cls = None
    try:
        rank = presymplectic_check(exterior_d(alpha)).rank
    except PfaffianError:
        rank = None
    return cls, rank


def test_the_class_is_the_rank_of_the_differential_or_one_more():
    forms = {}
    for path in sorted(MANIFESTS.glob("*.json")):
        ws, _ = cli.load_manifest(json.loads(path.read_text()))
        forms.update({f"{path.name}:{name}": form
                      for name, form in ws.forms.items()
                      if form.form_degree() == 1})
    manifest_forms = set(forms)
    forms.update({text: parse_expr(text, c) for text, c in LEDGER_ONE_FORMS})
    disagree, decided = set(), set()
    for label, alpha in forms.items():
        cls, rank = _class_and_rank(alpha)
        if cls is None or rank is None:
            continue
        decided.add(label)
        if cls - rank not in (0, 1):
            disagree.add(label)
    # every shipped one-form gets both verdicts
    assert len(manifest_forms) == 6 and manifest_forms <= decided
    assert disagree == set(KNOWN_CLASS_DISAGREEMENTS)
