"""Classification through the characteristic distribution, Reeb/Liouville
fields, and the wedge-power oracle."""

import io
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from graded_darboux import (EqualityPolicy, chart, coord, diff, equal, gmul,
                            one, parse_expr, zero)
from graded_darboux import _linalg, cartan, cli, pfaffian, symsolve
from graded_darboux.grexpr import expr
from graded_darboux.grexpr.chart import ChartSpec, CoordinateDecl
from graded_darboux.cartan import (basis_field, exterior_d, interior,
                                   lie_bracket, lie_derivative, vector_field)
from graded_darboux.homogeneity import degree_of, weight_field_of_chart
from graded_darboux.pfaffian import (NotClosedError, PfaffianError,
                                     characteristic_class, flat_matrix,
                                     liouville, presymplectic_check, reeb)
from helpers import darboux_class_oracle, random_atomic_monomial, random_chart


MANIFESTS = Path(__file__).resolve().parents[1] / "src" / "graded_darboux" / "manifests"


def _count_equal(monkeypatch) -> list:
    """The arguments of every call classification makes to ``equal``."""
    calls, real = [], pfaffian.equal
    monkeypatch.setattr(pfaffian, "equal",
                        lambda *args: calls.append(args) or real(*args))
    return calls


@pytest.fixture
def cyl():
    return chart(("z", 0, 0), ("p", 0, 1), ("q", 0, -1), default_box=(-0.7, 0.7))


@pytest.fixture
def cyl_alpha(cyl):
    return parse_expr("d(z) - p*(2+sin(p*q))*d(q)", cyl)


class TestFlatMatrix:
    def test_constant_presymplectic(self):
        c = chart(("q", 0, 0), ("p", 0, 0), ("z", 0, 0))
        fm = flat_matrix(parse_expr("d(p)*d(q)", c), {"q": 0, "p": 0, "z": 0})
        assert _linalg.rank([fm.rows], 1e-9)[0] == 2
        # even-even block is antisymmetric
        m = np.array(fm.rows, dtype=float)
        even = m[np.ix_(c.even_indices, c.even_indices)]
        assert np.allclose(even, -even.T)

    def test_closed_one_form(self, cyl):
        fm = flat_matrix(parse_expr("d(z)", cyl), {"z": 0, "p": 0, "q": 0})
        assert np.allclose(np.array(fm.rows, dtype=float), 0)
        assert list(np.array(fm.alpha, dtype=float)) == [1.0, 0.0, 0.0]

    def test_cylinder_at_origin(self, cyl, cyl_alpha):
        fm = flat_matrix(cyl_alpha, {"z": 0, "p": 0, "q": 0})
        assert _linalg.rank([fm.rows], 1e-9)[0] == 2
        assert np.array(fm.alpha, dtype=float)[0] == 1.0

    def test_odd_block_symmetric(self):
        c = chart(("t1", 1, 0), ("t2", 1, 0))
        fm = flat_matrix(parse_expr("d(t1)*d(t2)", c), {})
        m = np.array(fm.rows, dtype=float)
        odd = m[np.ix_(c.odd_indices, c.odd_indices)]
        assert np.allclose(odd, odd.T)


class TestClassification:
    def test_cylinder_contact(self, cyl_alpha):
        rep = characteristic_class(cyl_alpha)
        assert rep.class_ == 3 and rep.kind == "contact"
        assert rep.case == "transversal"
        assert rep.class_ == cyl_alpha.chart.dim  # class parity link

    def test_one_elimination_per_exact_point(self, cyl, monkeypatch):
        """Rank and membership at exact points come from one ``eliminate``
        per run of equal flat matrices: d(z - p dq) = dq^dp is the same
        matrix at every point, so its five points take one."""
        calls = []
        eliminate = _linalg.eliminate
        monkeypatch.setattr(_linalg, "eliminate",
                            lambda *args: calls.append(1) or eliminate(*args))
        alpha = parse_expr("d(z) - p*d(q)", cyl)
        rep = characteristic_class(alpha, policy=EqualityPolicy(n_points=5))
        assert rep.kind == "contact"
        assert [e["residual"] for e in rep.evidence] == [None] * 5
        assert len(calls) == 1

    def test_one_elimination_per_point_of_a_varying_flat_map(self, cyl,
                                                              monkeypatch):
        """d(z - p^2 dq) = 2p dq^dp differs at every sampled point, so each
        point takes its own ``eliminate``."""
        calls = []
        eliminate = _linalg.eliminate
        monkeypatch.setattr(_linalg, "eliminate",
                            lambda *args: calls.append(1) or eliminate(*args))
        alpha = parse_expr("d(z) - p^2*d(q)", cyl)
        rep = characteristic_class(alpha, policy=EqualityPolicy(n_points=5))
        assert rep.kind == "contact"
        assert len({e["point"]["p"] for e in rep.evidence}) == 5
        assert len(calls) == 5

    def test_closedness_is_tested_only_where_every_flat_rank_is_zero(
            self, cyl, cyl_alpha, monkeypatch):
        """d(z) is closed, so its flat matrices are zero and the randomized
        test decides; cylinder's form has flat rank 2, which shows that
        d(alpha) != 0 without it."""
        calls = _count_equal(monkeypatch)
        assert characteristic_class(parse_expr("d(z)", cyl)).kind == "closed"
        assert len(calls) == 1
        calls.clear()
        assert characteristic_class(cyl_alpha).kind == "contact"
        assert calls == []

    def test_a_nonzero_flat_rank_agrees_with_the_closedness_test(
            self, monkeypatch):
        """Every one-form of the shipped manifests and of the ledger's
        classifications whose flat map has rank >= 1 at some sample point
        is not closed by the randomized test, and is classified without
        it."""
        import test_ledger
        forms = []
        for path in sorted(MANIFESTS.glob("*.json")):
            ws, _ = cli.load_manifest(json.loads(path.read_text()))
            forms += [f for f in ws.forms.values() if f.form_degree() == 1]

        class Seen(Exception):
            pass

        def seen(alpha, *args, **kwargs):
            forms.append(alpha)
            raise Seen

        with monkeypatch.context() as m:
            m.setattr(test_ledger, "characteristic_class", seen)
            for case in test_ledger.CASES.values():
                try:
                    case.call()
                except (Seen, *test_ledger.TYPED):
                    pass
        calls = _count_equal(monkeypatch)
        policy, shown = EqualityPolicy(), 0
        for alpha in forms:
            points = pfaffian._body_points(alpha.chart, None, policy)
            fms, failure = pfaffian._FlatMap(alpha, cartan.Memo()).at(points)
            decided = _linalg.contains([fm.rows for fm in fms],
                                       [fm.alpha for fm in fms], policy.rel_tol)
            if (failure is not None or None in decided
                    or not any(d[0] for d in decided)):
                continue
            shown += 1
            assert not equal(exterior_d(alpha), zero(alpha.chart))
            calls.clear()
            try:
                characteristic_class(alpha)
            except PfaffianError:
                pass
            assert calls == []
        # of 16 forms, the two nilpotent ledger cases and the two small
        # contact forms have flat rank 0 at every point
        assert (len(forms), shown) == (16, 12)

    def test_theta_symplectic_potential(self):
        w = chart(("x", 0, 1), ("y", 0, -1), default_box=(0.1, 0.8))
        theta = parse_expr(
            "y*(cosh(x*y)+1)*(sinh(x*y)+x*y*cosh(x*y)+1)*d(x)"
            " + x^2*y*cosh(x*y)*(cosh(x*y)+1)*d(y)", w)
        rep = characteristic_class(theta)
        assert rep.kind == "symplectic-potential" and rep.class_ == 2
        assert rep.case == "contained"

    def test_closed(self, cyl):
        rep = characteristic_class(parse_expr("d(z)", cyl))
        assert rep.class_ == 1 and rep.kind == "closed"

    def test_precontact(self):
        c = chart(("z", 0, 0), ("p", 0, 1), ("q", 0, -1), ("u", 0, 0))
        rep = characteristic_class(parse_expr("d(z) + p*d(q)", c))
        assert rep.class_ == 3 and rep.kind == "precontact"

    def test_rel_tol_governs_rank(self):
        # the 1e-6 pair sits above the default tolerance and below 1e-3
        c = chart("q", "p", "u", "v", "z")
        alpha = parse_expr("d(z) + q*d(p) + 0.000001*exp(u)*d(v)", c)
        rep = characteristic_class(alpha)
        assert rep.class_ == 5 and rep.kind == "contact"
        rep = characteristic_class(alpha, policy=EqualityPolicy(rel_tol=1e-3))
        assert rep.class_ == 3 and rep.kind == "precontact"

    def test_vanishing_sample_reported(self):
        c = chart(("q", 0, 0), ("p", 0, 0))
        with pytest.raises(PfaffianError):
            characteristic_class(parse_expr("p*d(q)", c),
                                 points=[{"q": 0.5, "p": 0.0}])

    def test_mixed_parity_rejected(self):
        c = chart(("x", 0, 0), ("t", 1, 0))
        bad = parse_expr("d(x) + t*d(x)", c)
        with pytest.raises(PfaffianError):
            characteristic_class(bad)

    def test_contraction_rows_derived_once(self, cyl_alpha, monkeypatch):
        calls = []
        rows = pfaffian._interior_rows

        def counting_rows(beta):
            calls.append(beta)
            return rows(beta)

        monkeypatch.setattr(pfaffian, "_interior_rows", counting_rows)
        counts = []
        for n_points in (4, 16):
            calls.clear()
            characteristic_class(cyl_alpha,
                                 policy=EqualityPolicy(n_points=n_points))
            counts.append(len(calls))
        assert counts[0] == counts[1] > 0


class TestNonFiniteFlatMatrix:
    """A float product can overflow to inf.  A flat matrix that holds one is
    refused, with the first such point as the witness, before least squares
    can spin on it or a nan singular value can read as rank 0."""

    CLASSIFY = "d(z) + exp(x)*exp(x)*y*d(y)"

    @staticmethod
    def _chart(lo, *names):
        return ChartSpec((CoordinateDecl("x", 0, 0, box=(lo, 360)),)
                         + tuple(CoordinateDecl(n) for n in names))

    def test_classification_refuses_an_overflowed_point(self):
        alpha = parse_expr(self.CLASSIFY, self._chart(350, "y", "z"))
        with pytest.raises(PfaffianError, match="^flat matrix is not finite") as exc:
            characteristic_class(alpha)
        # exp(x)*exp(x) overflows above x = 354.89
        assert exc.value.witness["x"] > 354.8

    def test_a_closed_form_is_not_read_off_a_nan(self):
        # the form is zero; its two overflowed terms leave inf - inf = nan
        alpha = parse_expr("(exp(x)*exp(x) - exp(x - 1)*exp(x + 1))*d(x)",
                           self._chart(356, "y"))
        with pytest.raises(PfaffianError, match="^flat matrix is not finite"):
            characteristic_class(alpha)

    def test_presymplectic_check_refuses_instead_of_rank_zero(self):
        omega = parse_expr("exp(x)*exp(x)*d(x)*d(y)", self._chart(356, "y"))
        with pytest.raises(PfaffianError, match="^flat matrix is not finite"):
            presymplectic_check(omega)

    def test_a_manifest_run_ends_with_the_task_failed(self, tmp_path):
        manifest = tmp_path / "overflow.json"
        manifest.write_text(json.dumps({
            "charts": {"M": {"coords": [["x", "even", "0"], ["y", "even", "0"],
                                        ["z", "even", "0"]],
                             "box": {"x": [350, 360]}}},
            "forms": {"alpha": {"chart": "M", "expr": self.CLASSIFY}},
            "tasks": [{"cmd": "classify", "args": {"form": "alpha"}}]}))
        src = str(Path(pfaffian.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": src}
        # a hang in the float path must fail this test, not stall the suite
        proc = subprocess.run([sys.executable, "-m", "graded_darboux.cli", "run",
                               str(manifest)], capture_output=True, text=True,
                              env=env, timeout=60)
        assert proc.returncode == 1
        assert "classify :: flat matrix is not finite" in proc.stdout


class TestPresymplectic:
    def test_constant_corank_one(self):
        c = chart(("q", 0, 0), ("p", 0, 0), ("z", 0, 0))
        rep = presymplectic_check(parse_expr("d(p)*d(q)", c))
        assert rep.rank == 2 and rep.constant_rank
        kernel = rep.kernel[:, 0]
        assert np.allclose(np.abs(kernel), [0, 0, 1])

    def test_rank_drop_witnessed(self):
        c = chart(("p", 0, 0), ("q", 0, 0))
        rep = presymplectic_check(parse_expr("p*d(p)*d(q)", c),
                                  points=[{"p": 0.5, "q": 0.5},
                                          {"p": 0.0, "q": 0.5}])
        assert not rep.constant_rank
        ranks = {e["rank"] for e in rep.evidence}
        assert ranks == {0, 2}

    def test_odd_rank(self):
        c = chart(("t", 1, 0))
        rep = presymplectic_check(parse_expr("d(t)*d(t)", c))
        assert rep.rank == 1 and rep.odd_rank == 1

    def test_not_closed_rejected(self):
        c = chart(("p", 0, 0), ("q", 0, 0), ("z", 0, 0))
        with pytest.raises(NotClosedError):
            presymplectic_check(parse_expr("z*d(p)*d(q)", c))

    def test_even_rank_split(self):
        c = chart(("q", 0, 0), ("p", 0, 0), ("t1", 1, 0))
        rep = presymplectic_check(parse_expr("d(p)*d(q) + d(t1)*d(t1)", c))
        assert rep.even_rank == 2 and rep.odd_rank == 1 and rep.rank == 3

    def test_block_ranks_on_an_interleaved_chart(self):
        # the blocks are taken on the chart's even and odd indices, (0, 2)
        # and (1,), not on leading and trailing ones
        c = chart(("q", 0, 0), ("t1", 1, 0), ("p", 0, 0))
        rep = presymplectic_check(parse_expr("d(p)*d(q) + d(t1)*d(t1)", c))
        assert rep.even_rank == 2 and rep.odd_rank == 1 and rep.rank == 3

    def test_block_ranks_exact_like_the_total(self):
        # a pair 10^10 times weaker than the other: exact data keep it
        c = chart(("p", 0, 0), ("q", 0, 0), ("u", 0, 0), ("v", 0, 0))
        rep = presymplectic_check(
            parse_expr("d(p)*d(q) + 1/10000000000*d(u)*d(v)", c))
        assert rep.rank == rep.even_rank == 4 and rep.odd_rank == 0

    def test_kernel_exact_like_the_rank(self):
        # the weak pair keeps the kernel empty, as it keeps the rank 4
        c = chart(("p", 0, 0), ("q", 0, 0), ("u", 0, 0), ("v", 0, 0))
        rep = presymplectic_check(
            parse_expr("d(p)*d(q) + 1/10000000000*d(u)*d(v)", c))
        assert rep.kernel.shape == (4, 4 - rep.rank)
        # one vector per free column of the reduced echelon form
        c = chart(("p", 0, 0), ("q", 0, 0), ("u", 0, 0))
        rep = presymplectic_check(parse_expr("d(p)*d(q) + d(p)*d(u)", c))
        assert rep.rank == 2
        assert rep.kernel.tolist() == [[0.0], [-1.0], [1.0]]

    def test_float_blocks_at_their_own_scales(self):
        # an even form's flat matrix is block diagonal: the weak even pair
        # counts beside the strong odd square, and the kernel is the direct
        # sum of the blocks' kernels, here d/dt2, exact or float
        c = chart(("q", 0, 0), ("t1", 1, 0), ("p", 0, 0), ("t2", 1, 0))
        omega = parse_expr("d(p)*d(q) + 1e12*d(t1)*d(t1)", c)
        for w in (omega, omega * 1.0):
            rep = presymplectic_check(w)
            assert (rep.rank, rep.even_rank, rep.odd_rank) == (3, 2, 1)
            assert {e["rank"] for e in rep.evidence} == {3}
            assert np.abs(rep.kernel).tolist() == [[0.0], [0.0], [0.0], [1.0]]

    def test_block_kernel_keeps_the_free_column_order(self):
        # on exact data the blocks' kernels interleave as the whole
        # matrix's free columns do: d/dt1 (odd), d/dz (even), d/dt2 (odd)
        c = chart(("q", 0, 0), ("t1", 1, 0), ("p", 0, 0), ("z", 0, 0),
                  ("t2", 1, 0))
        rep = presymplectic_check(parse_expr("d(p)*d(q)", c))
        assert rep.kernel.T.tolist() == [[0.0, 1.0, 0.0, 0.0, 0.0],
                                         [0.0, 0.0, 0.0, 1.0, 0.0],
                                         [0.0, 0.0, 0.0, 0.0, 1.0]]

    def test_float_kernel_spans_the_exact_one(self):
        # float coefficients take the SVD path; the kernel it finds spans
        # the same space as the rational-RREF kernel of the exact twin
        c = chart(("p", 0, 0), ("q", 0, 0), ("u", 0, 0), ("v", 0, 0))
        omega = parse_expr("d(p)*d(q) + d(p)*d(u) + 2*d(q)*d(u)", c)
        exact = presymplectic_check(omega).kernel
        inexact = presymplectic_check(omega * 0.5).kernel
        assert exact.shape == inexact.shape == (4, 2)
        assert np.allclose(inexact.T @ inexact, np.eye(2))
        assert np.linalg.matrix_rank(np.hstack([exact, inexact]), tol=1e-9) == 2


class TestEmptySample:
    """No points, no certificate: an empty point list is an error, not a
    verdict."""

    @pytest.mark.parametrize("text", ["d(z)", "d(z) - p*d(q)"],
                             ids=["closed", "contact"])
    def test_classification(self, text):
        c = chart(("z", 0, 0), ("p", 0, 0), ("q", 0, 0))
        with pytest.raises(PfaffianError, match="at least one point"):
            characteristic_class(parse_expr(text, c), points=[])

    def test_presymplectic(self):
        c = chart(("p", 0, 0), ("q", 0, 0))
        with pytest.raises(PfaffianError, match="at least one point"):
            presymplectic_check(parse_expr("d(p)*d(q)", c), points=[])


class TestReeb:
    def test_canonical(self):
        c = chart(("z", 0, 0), ("p", 0, 1), ("q", 0, -1))
        R = reeb(parse_expr("d(z) + p*d(q)", c))
        assert R.coefficient("z") == one(c)
        assert R.coefficient("p").is_zero()

    def test_cylinder(self, cyl, cyl_alpha):
        R = reeb(cyl_alpha)
        assert R.coefficient("z") == one(cyl)
        assert equal(interior(R, cyl_alpha), one(cyl))
        assert equal(interior(R, exterior_d(cyl_alpha)), zero(cyl))

    def test_cylinder_screens_a_pivot_once_up_to_sign(self, cyl_alpha,
                                                       monkeypatch):
        """The elimination meets 2 + sin(pq) + pq cos(pq) and its negation;
        randomized equality decides the first, and the second shares its
        verdict."""
        calls, real = [], symsolve.equal
        monkeypatch.setattr(symsolve, "equal",
                            lambda *args: calls.append(args) or real(*args))
        reeb(cyl_alpha)
        assert [str(e) for e, _, _ in calls] == ["2 + sin(p*q) + cos(p*q)*p*q"]

    def test_eta_randomized(self):
        c = chart(("x", 0, 1), ("y", 0, -1), ("z", 0, 0), default_box=(-0.6, 0.6))
        eta = parse_expr(
            "y*(1 + sin(z) + cos(x*y)*(1+sin(z)) - sin(x*y)*(exp(z)"
            " + x*y*(1+sin(z))))*d(x) - x*sin(x*y)*(x*y*(sin(z)+1)"
            " + exp(z))*d(y) + exp(z)*cos(x*y)*d(z)", c)
        R = reeb(eta)
        assert equal(interior(R, eta), one(c))
        assert equal(interior(R, exterior_d(eta)), zero(c))

    def test_reeb_homogeneity(self):
        # degree of the Reeb field is minus the degree of the form
        c = chart(("U", 0, 1), ("q1", 0, 1), ("p1", 0, 0))
        gibbs = parse_expr("d(U) - p1*d(q1)", c)
        nab = weight_field_of_chart(c)
        assert degree_of(gibbs, nab).degree.weight == 1
        dr = degree_of(reeb(gibbs), nab)
        assert dr.homogeneous and dr.degree.weight == -1

    def test_non_contact_rejected(self):
        c = chart(("q", 0, 0), ("p", 0, 0), default_box=(0.2, 0.9))
        with pytest.raises(PfaffianError):
            reeb(parse_expr("p*d(q)", c))

    def test_no_unique_field_rejected(self):
        """Where the system i_R alpha = 1, i_R d(alpha) = 0 has a kernel,
        every field plus a kernel vector solves it: no field is the Reeb
        field, and the refusal names the unknowns left free."""
        c = chart(("z", 0, 0), ("p", 0, 1), ("q", 0, -1))
        with pytest.raises(PfaffianError, match="^no unique Reeb field: "
                                                "free unknowns p, q$"):
            reeb(parse_expr("d(z)", c))
        c = chart(("z", 0, 0), ("p", 0, 1), ("q", 0, -1), ("u", 0, 0))
        with pytest.raises(PfaffianError, match="^no unique Reeb field: "
                                                "free unknowns u$"):
            reeb(parse_expr("d(z) + p*d(q)", c))


class TestLiouville:
    def test_momentum_field(self):
        c = chart(("q", 0, 0), ("p", 0, 0))
        X = liouville(parse_expr("d(p)*d(q)", c), parse_expr("p*d(q)", c))
        assert X.coefficient("p") == coord(c, "p")
        assert X.coefficient("q").is_zero()

    def test_symmetric_potential(self):
        c = chart(("q", 0, 0), ("p", 0, 0))
        alpha = parse_expr("p*d(q)/2 - q*d(p)/2", c)
        X = liouville(parse_expr("d(p)*d(q)", c), alpha)
        assert X.coefficient("q") == parse_expr("q/2", c)
        assert X.coefficient("p") == parse_expr("p/2", c)

    def test_commutes_with_ambient_weight_field(self):
        c = chart(("q", 0, 1), ("p", 0, -1))
        nab = weight_field_of_chart(c)
        X = liouville(parse_expr("d(p)*d(q)", c), parse_expr("p*d(q)", c))
        br = lie_bracket(nab, X)
        assert all(co.is_zero() for co in br.coefficients)

    def test_degenerate_rejected(self):
        c = chart(("q", 0, 0), ("p", 0, 0), ("z", 0, 0))
        with pytest.raises(PfaffianError):
            liouville(parse_expr("d(p)*d(q)", c), parse_expr("p*d(q)", c))

    def test_wrong_potential_rejected(self):
        c = chart(("q", 0, 0), ("p", 0, 0))
        with pytest.raises(PfaffianError):
            liouville(parse_expr("d(p)*d(q)", c), parse_expr("q*d(q)", c))


class TestOracle:
    def test_cylinder(self, cyl_alpha):
        assert darboux_class_oracle(cyl_alpha,
                                    {"z": 0.1, "p": 0.2, "q": 0.3}) == 3

    def test_closed(self, cyl):
        assert darboux_class_oracle(parse_expr("d(z)", cyl),
                                    {"z": 0, "p": 0, "q": 0}) == 1

    def test_even_class(self):
        c = chart(("q", 0, 0), ("p", 0, 0))
        assert darboux_class_oracle(parse_expr("p*d(q)", c),
                                    {"q": 0.5, "p": 0.5}) == 2

    def test_super_chart_rejected(self):
        c = chart(("x", 0, 0), ("t", 1, 0))
        with pytest.raises(PfaffianError):
            darboux_class_oracle(parse_expr("d(x)", c), {"x": 0.1})


class TestCharacteristicInvariance:
    def test_flat_kernel_generators(self):
        # chi(alpha) for alpha = dz + u dv + v du + p dq is spanned by
        # X = d/du - v d/dz and Y = d/dv - u d/dz
        c = chart(("z", 0, 0), ("p", 0, 0), ("q", 0, 0), ("u", 0, 0),
                  ("v", 0, 0))
        alpha = parse_expr("d(z) + u*d(v) + v*d(u) + p*d(q)", c)
        X = vector_field(c, {"u": "1", "z": "-v"})
        Y = vector_field(c, {"v": "1", "z": "-u"})
        da = exterior_d(alpha)
        for F in (X, Y):
            assert interior(F, alpha).is_zero()
            assert interior(F, da).is_zero()
        br = lie_bracket(X, Y)
        assert interior(br, alpha).is_zero() if not br.is_zero() else True
        for F in (X, Y):
            assert lie_derivative(F, alpha).is_zero()

    def test_simple_kernel(self):
        c = chart(("z", 0, 0), ("p", 0, 1), ("q", 0, -1), ("u", 0, 0),
                  ("v", 0, 0))
        alpha = parse_expr("d(z) + p*d(q)", c)
        X, Y = basis_field(c, "u"), basis_field(c, "v")
        da = exterior_d(alpha)
        for F in (X, Y):
            assert interior(F, alpha).is_zero()
            assert interior(F, da).is_zero()
            assert lie_derivative(F, alpha).is_zero()
        assert lie_bracket(X, Y).is_zero()


class TestWeightMembership:
    def test_nonvanishing_form_weight_in_gamma(self):
        # a homogeneous one-form that does not vanish at the origin (a zero
        # of the weight field) must have a coordinate weight as its weight
        rng = random.Random(15)
        for _ in range(40):
            weights = [rng.choice([-2, -1, 0, 1, 2]) for _ in range(3)]
            c = chart(*[(f"x{i}", 0, w) for i, w in enumerate(weights)])
            i = rng.randrange(3)
            alpha = diff(c, f"x{i}")
            # pad with a second homogeneous term of the matching weight
            for j in range(3):
                for k in range(3):
                    if weights[j] + weights[k] == weights[i]:
                        alpha = alpha + gmul(coord(c, f"x{j}"),
                                             diff(c, f"x{k}"))
                        break
                else:
                    continue
                break
            rep = degree_of(alpha, weight_field_of_chart(c))
            assert rep.homogeneous
            assert rep.degree.weight in weights


# on (x even | t, u odd): each 2-form and the nonzero entries of its flat
# map, M[a][b] = the d(x^b)-coefficient of i_{d/dx^a} beta, by hand.  The
# contraction i_{d/dx^a} has bidegree (-1, |x^a|) and crosses a factor of
# bidegree (p, q) with the sign (-1)**(p + q*|x^a|): so d(x) costs -1 for
# every contraction, an odd coordinate or d(t) costs -1 for an odd one only,
# and i_{d/dt} d(t)^2 = 2 d(t).
HAND_ROWS = {
    "d(t)^2": {("t", "t"): "2"},
    "d(x)*d(t)": {("x", "t"): "1", ("t", "x"): "-1"},
    "t*d(x)*d(u)": {("x", "u"): "t", ("u", "x"): "t"},
    "x*d(t)*d(u)": {("t", "u"): "x", ("u", "t"): "x"},
    "t*d(u)^2": {("u", "u"): "-2*t"},
    "u*x*d(t)^2": {("t", "t"): "-2*u*x"},
    "t*d(t)*d(u)": {("t", "u"): "-t", ("u", "t"): "-t"},
    "t*u*d(x)*d(t)": {("x", "t"): "t*u", ("t", "x"): "-t*u"},
    "d(x)*d(t) + t*d(u)^2": {("x", "t"): "1", ("t", "x"): "-1",
                             ("u", "u"): "-2*t"},
    "3*d(t)^2 - 3*d(t)^2": {},
}


class TestInteriorRows:
    @pytest.mark.parametrize("text", sorted(HAND_ROWS))
    def test_rows_match_the_hand_derivation(self, text):
        c = chart(("x", 0, 0), ("t", 1, 0), ("u", 1, 0))
        rows = pfaffian._interior_rows(parse_expr(text, c))
        got = {(a, b): rows[i][j] for i, a in enumerate(c.names)
               for j, b in enumerate(c.names) if not rows[i][j].is_zero()}
        assert got == {k: parse_expr(v, c) for k, v in HAND_ROWS[text].items()}


class TestMemo:
    def test_interior_rows_agree_with_unmemoized(self):
        """One memo across 500 forms of degree 1 and 2 on random even and
        super charts that reuse coordinate names."""
        rng = random.Random(152)
        memo = pfaffian.Memo()
        for i in range(500):
            c = random_chart(rng, max_even=3, max_odd=0 if i % 2 else 2)
            beta = random_atomic_monomial(c, rng, floats=i % 3 == 0,
                                          form_degree=rng.randint(1, 2))
            want = [[e.key() for e in row]
                    for row in pfaffian._interior_rows(beta)]
            for _ in range(2):
                got = memo.take("rows", beta, pfaffian._interior_rows, beta)
                assert [[e.key() for e in row] for row in got] == want

    def test_a_run_derives_each_form_once_and_keeps_nothing(self, monkeypatch):
        """theta's four tasks take d(theta) once; a second run walks as much
        as the first, so no entry outlives its run."""
        path = Path(pfaffian.__file__).parent / "manifests" / "theta.json"
        theta = str(cli.load_manifest(json.loads(path.read_text()))[0]
                    .form("theta"))
        walk, d = expr.leibniz_walk, cartan._exterior_d
        walks, derived = [], []

        def counted(e, *args):
            walks.append(1)
            return walk(e, *args)

        monkeypatch.setattr(cartan, "leibniz_walk", counted)
        monkeypatch.setattr(expr, "leibniz_walk", counted)
        monkeypatch.setattr(cartan, "_exterior_d",
                            lambda w, memo: derived.append(str(w)) or d(w, memo))
        counts = []
        for _ in range(2):
            walks.clear()
            derived.clear()
            assert cli.run(str(path), stream=io.StringIO()) == 0
            counts.append(len(walks))
            assert derived.count(theta) == 1
        assert counts[0] == counts[1]
