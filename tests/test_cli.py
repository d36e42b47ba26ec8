"""Manifest execution: exit codes, determinism, report round-trips."""

import hashlib
import json
import math
import os
from pathlib import Path

import pytest

from graded_darboux import apply_func, chart, coord, equal, parse_expr
from graded_darboux import cli
from graded_darboux.cli import Workspace, load_manifest, main, run, run_task
from graded_darboux.grexpr.equality import EqualityPolicy

MANIFESTS = Path(__file__).resolve().parents[1] / "src" / "graded_darboux" / "manifests"
GOLDEN = Path(__file__).resolve().parent / "golden"
ALL = ["cylinder.json", "theta.json", "eta.json", "liouville.json",
       "counterexample.json", "thermodynamics.json"]


def test_shipped_manifests_pass(tmp_path):
    for name in ALL:
        code = run(str(MANIFESTS / name), json_out=str(tmp_path / name),
                   stream=open(os.devnull, "w"))
        assert code == 0, name


def test_empty_task_list(tmp_path):
    m = tmp_path / "empty.json"
    m.write_text(json.dumps({"charts": {}, "tasks": []}))
    assert run(str(m), stream=open(os.devnull, "w")) == 0


def test_exit_one_on_failing_expectation(tmp_path):
    m = tmp_path / "bad.json"
    m.write_text(json.dumps({
        "charts": {"M": {"coords": [["x", "even", "1"]]}},
        "forms": {"f": {"chart": "M", "expr": "d(x)"}},
        "tasks": [{"cmd": "classify", "args": {"form": "f"},
                   "expect": {"kind": "contact"}}],
    }))
    assert run(str(m), stream=open(os.devnull, "w")) == 1


def test_exit_two_on_bad_json(tmp_path):
    m = tmp_path / "broken.json"
    m.write_text("{not json")
    assert run(str(m), stream=open(os.devnull, "w")) == 2


def test_exit_two_on_schema_violation(tmp_path):
    m = tmp_path / "schema.json"
    m.write_text(json.dumps({
        "charts": {"M": {"coords": [["x", "even", "1"]]}},
        "forms": {"f": {"chart": "NOPE", "expr": "d(x)"}},
        "tasks": [],
    }))
    assert run(str(m), stream=open(os.devnull, "w")) == 2


def test_exit_two_on_unknown_command(tmp_path):
    m = tmp_path / "cmd.json"
    m.write_text(json.dumps({
        "charts": {"M": {"coords": [["x", "even", "1"]]}},
        "tasks": [{"cmd": "frobnicate", "args": {}}],
    }))
    assert run(str(m), stream=open(os.devnull, "w")) == 2


def test_exit_two_on_bad_expression(tmp_path):
    m = tmp_path / "expr.json"
    m.write_text(json.dumps({
        "charts": {"M": {"coords": [["x", "even", "1"]]}},
        "forms": {"f": {"chart": "M", "expr": "d(x) + *"}},
        "tasks": [],
    }))
    assert run(str(m), stream=open(os.devnull, "w")) == 2


@pytest.mark.parametrize("payload, message", [
    ({"charts": {"M": {"coords": [["x", "even"]]}}, "tasks": []},
     "error: bad manifest: chart 'M': coordinate ['x', 'even'] is not "
     "[name, parity, weight]"),
    ({"charts": {"M": {"coords": [["x", "even", "1"]]}},
      "tasks": [{"cmd": "classify", "args": {}}]},
     "error: task 0: missing argument 'form'"),
    ({"charts": {}, "tasks": ["classify"]},
     "error: bad manifest: task 0 is not an object with object 'args'"),
    ({"charts": {"M": {"coords": [["x", "even", "1"]], "box": [0.5]}},
      "tasks": []},
     "error: bad manifest: chart 'M': box [0.5] is not [low, high]"),
    ({"charts": {"M": {"coords": [["x", "even", "1"]]}},
      "tasks": [{"cmd": "straighten", "args": {"fields": []}}]},
     "error: task 0: straighten needs at least one field"),
    ({"charts": {"M": {"coords": [["x", "even", "1"]]}},
      "tasks": [{"cmd": "dist", "args": {"generators": []}}]},
     "error: task 0: dist needs at least one generator"),
    ({"charts": {}, "tasks": [{"cmd": ["classify"]}]},
     "error: task 0: unknown command ['classify']"),
    ({"charts": {}, "tasks": [{"cmd": "lift", "args": {"kind": "tangent"}}]},
     "error: task 0: missing argument 'nabla'"),
])
def test_exit_two_on_malformed_manifest(tmp_path, capsys, payload, message):
    m = tmp_path / "malformed.json"
    m.write_text(json.dumps(payload))
    assert run(str(m), stream=open(os.devnull, "w")) == 2
    assert capsys.readouterr().err == message + "\n"


def test_determinism_same_seed(tmp_path):
    for name in ALL:
        outs = []
        for i in (1, 2):
            out = tmp_path / f"r{i}_{name}"
            code = run(str(MANIFESTS / name), json_out=str(out),
                       seed=7, stream=open(os.devnull, "w"))
            assert code == 0, name
            outs.append(out.read_bytes())
        assert outs[0] == outs[1], name


DIGESTS = json.loads((GOLDEN / "digests.json").read_text())


@pytest.mark.parametrize("name", ALL)
def test_reports_match_golden(tmp_path, name):
    """Reports are byte-identical to the committed ones: seed 0 in full,
    seeds 1-9 by SHA-256 in ``digests.json``.  When a report is meant to
    change, rewrite its file or digest from ``run(..., json_out=)`` and say
    why in the change."""
    out = tmp_path / name
    for seed in range(10):
        assert run(str(MANIFESTS / name), json_out=str(out), seed=seed,
                   stream=open(os.devnull, "w")) == 0
        got = out.read_bytes()
        if seed == 0:
            assert got == (GOLDEN / name).read_bytes()
        else:
            assert hashlib.sha256(got).hexdigest() == DIGESTS[name][str(seed)], \
                f"{name} seed {seed}"


def test_samples_below_eight_sample_eight_points(tmp_path):
    """One policy carries the sample count: ``samples=0`` classifies at 8
    points, as every other decision of the run does, and the report says 8."""
    out = tmp_path / "cylinder.json"
    assert run(str(MANIFESTS / "cylinder.json"), json_out=str(out), samples=0,
               stream=open(os.devnull, "w")) == 0
    assert json.loads(out.read_text())["samples"] == 8


@pytest.mark.parametrize("tol", [math.nan, -1.0, 0.0, math.inf])
def test_exit_two_on_a_tolerance_that_is_not_positive_and_finite(
        tmp_path, capsys, tol):
    """A bad ``--tol`` is one error line, not a wrong class or a failed task."""
    out = tmp_path / "cylinder.json"
    assert run(str(MANIFESTS / "cylinder.json"), json_out=str(out), tol=tol,
               stream=open(os.devnull, "w")) == 2
    assert capsys.readouterr().err == \
        f"error: tolerance must be a positive finite number, not {tol!r}\n"
    assert not out.exists()


def test_degree_mode_exact_when_inhomogeneous(tmp_path):
    """An inhomogeneous polynomial is decided by exact coefficient matching."""
    m = tmp_path / "inhom.json"
    m.write_text(json.dumps({
        "charts": {"M": {"coords": [["x", "even", "1"], ["y", "even", "2"]]}},
        "forms": {"f": {"chart": "M", "expr": "x + y"}},
        "tasks": [{"cmd": "degree", "args": {"of": "f"},
                   "expect": {"homogeneous": False}}],
    }))
    out = tmp_path / "rep.json"
    assert run(str(m), json_out=str(out), stream=open(os.devnull, "w")) == 0
    task = json.loads(out.read_text())["tasks"][0]
    assert task["homogeneous"] is False
    assert task["mode"] == "exact"


def test_degree_mode_randomized_when_residual_is_sampled():
    """Float coefficients leave a rounding residual (about 4e-16*sin(y)*x*y)
    that only randomized equality can dismiss."""
    c = chart(("x", 0, 3), ("y", 0, 0))
    x, y = coord(c, "x"), coord(c, "y")
    s = apply_func("sin", y)
    ws = Workspace(charts={"M": c}, forms={"f": x * s * 0.1 + x * y * s * 0.7})
    out = run_task({"cmd": "degree", "args": {"of": "f"}}, ws,
                   EqualityPolicy(n_points=16))
    assert out["homogeneous"] is True
    assert out["mode"] == "randomized"


def test_linear_darboux_follows_tol():
    """The congruence residual (about 1.2e-7, rounding at scale 1e9) passes
    under rel_tol 1e-6 and fails under the default."""
    c = chart(("a", 0, 0), ("b", 0, 0), ("e", 0, 0), ("f", 0, 0))
    ws = Workspace(charts={"M": c}, forms={"w": parse_expr(
        "1000000000*d(a)*d(b) + 3*d(a)*d(e) + 7*d(b)*d(f) + 5*d(e)*d(f)", c)})
    task = {"cmd": "linear-darboux", "args": {"form": "w"}}
    loose = run_task(task, ws, EqualityPolicy(rel_tol=1e-6))
    assert 1e-9 < loose["residual"] < 1e-6
    assert loose["status"] == "pass"
    assert run_task(task, ws, EqualityPolicy())["status"] == "fail"


OVERFLOWING = {
    "classify": {
        "charts": {"M": {"coords": [["x", "even", "0"], ["y", "even", "0"]],
                         "box": [800, 900]}},
        "forms": {"a": {"chart": "M", "expr": "d(y) + exp(x)*d(x)"}},
        "tasks": [{"cmd": "classify", "args": {"form": "a"}}]},
    "straighten": {
        "charts": {"M": {"coords": [["x", "even", "0"], ["y", "even", "0"]]}},
        "fields": {"X": {"chart": "M", "coeffs": {"x": "1", "y": "exp(x)"}}},
        "tasks": [{"cmd": "straighten",
                   "args": {"fields": ["X"], "base": [800, 0]}}]},
}


@pytest.mark.parametrize("cmd", sorted(OVERFLOWING))
def test_float_overflow_fails_the_task(tmp_path, cmd):
    """exp(800) overflows in float evaluation: the task fails with the
    error, and the run goes on to its report."""
    m = tmp_path / "overflow.json"
    m.write_text(json.dumps(OVERFLOWING[cmd]))
    out = tmp_path / "rep.json"
    assert run(str(m), json_out=str(out), stream=open(os.devnull, "w")) == 1
    (task,) = json.loads(out.read_text())["tasks"]
    assert task == {"task": cmd, "seed": 0, "status": "fail",
                    "error": "math range error"}


@pytest.mark.parametrize("args, error", [
    ({"nodes": 0}, "need at least one node per axis"),
    ({"base": [0.0]}, "base has 1 entries for a chart of dimension 2"),
    # json reads NaN
    ({"base": [float("nan"), 0.0]}, "base point (nan, 0.0) is not finite"),
], ids=["no-nodes", "short-base", "nan-base"])
def test_bad_straighten_arguments_fail_the_task(tmp_path, args, error):
    """A grid that cannot be built fails its task; the run still reports."""
    m = tmp_path / "grid.json"
    m.write_text(json.dumps({
        "charts": {"M": {"coords": [["x", "even", "0"], ["y", "even", "0"]]}},
        "fields": {"X": {"chart": "M", "coeffs": {"x": "1"}}},
        "tasks": [{"cmd": "straighten", "args": {"fields": ["X"], **args}}]}))
    out = tmp_path / "rep.json"
    assert run(str(m), json_out=str(out), stream=open(os.devnull, "w")) == 1
    (task,) = json.loads(out.read_text())["tasks"]
    assert task == {"task": "straighten", "seed": 0, "status": "fail",
                    "error": error}


def test_odd_weight_field_fails_the_task(tmp_path):
    m = tmp_path / "odd.json"
    m.write_text(json.dumps({
        "charts": {"M": {"coords": [["x", "even", "0"], ["t", "odd", "0"]]}},
        "fields": {"Q": {"chart": "M", "parity": "odd",
                         "coeffs": {"x": "t"}}},
        "forms": {"a": {"chart": "M", "expr": "d(x)"}},
        "tasks": [{"cmd": "degree", "args": {"of": "a", "nabla": "Q"}}]}))
    out = tmp_path / "rep.json"
    assert run(str(m), json_out=str(out), stream=open(os.devnull, "w")) == 1
    (task,) = json.loads(out.read_text())["tasks"]
    assert task == {"task": "degree", "seed": 0, "status": "fail",
                    "error": "weight vector fields are even"}


@pytest.mark.parametrize("nabla, calls, status", [
    (None, 0, "pass"), ("nab", 1, "pass"), ("twice", 1, "fail"),
], ids=["none", "canonical", "not-canonical"])
def test_poincare_checks_only_a_declared_weight_field(
        tmp_path, monkeypatch, nabla, calls, status):
    """Without ``nabla`` the task builds and checks no weight field; a
    declared one is still checked, and a wrong one fails the task."""
    counted = []
    check = cli.verify_weight_chart

    def counting(f, c):
        counted.append(f)
        return check(f, c)

    monkeypatch.setattr(cli, "verify_weight_chart", counting)
    args = {"form": "w"} if nabla is None else {"form": "w", "nabla": nabla}
    m = tmp_path / "poincare.json"
    m.write_text(json.dumps({
        "charts": {"P": {"coords": [["a", "even", "1"], ["b", "even", "-1"]]}},
        "fields": {"nab": {"chart": "P", "coeffs": {"a": "a", "b": "-b"}},
                   "twice": {"chart": "P", "coeffs": {"a": "2*a", "b": "-b"}}},
        "forms": {"w": {"chart": "P", "expr": "d(a)*d(b)"}},
        "tasks": [{"cmd": "poincare", "args": args}]}))
    out = tmp_path / "rep.json"
    run(str(m), json_out=str(out), stream=open(os.devnull, "w"))
    (task,) = json.loads(out.read_text())["tasks"]
    assert len(counted) == calls
    assert task["status"] == status
    if status == "pass":
        assert task["output_exprs"] == ["1/2*a*d(b) - 1/2*b*d(a)"]
    else:
        assert task["error"] == "expected the canonical weight field of the chart"


# the commands whose homogeneity structure is the chart's own weights, each
# with arguments on the chart L = (x:1, y:0)
_OWN_WEIGHTS = {
    "poincare": {"form": "w"},
    "log-primitive": {"form": "log"},
    "pde-solve": {"g": "g", "y1": "x"},
    "lift": {"chart": "L", "kind": "cotangent"},
}


def _run_own_weights(tmp_path, nabla):
    extra = {} if nabla is None else {"nabla": nabla}
    m = tmp_path / "own.json"
    m.write_text(json.dumps({
        "charts": {"L": {"coords": [["x", "even", "1"], ["y", "even", "0"]],
                         "box": [0.3, 0.9]},
                   "O": {"coords": [["x", "even", "2"]]}},
        "fields": {"hand": {"chart": "L", "coeffs": {"x": "x"}},
                   "doubled": {"chart": "L", "coeffs": {"x": "2*x"}},
                   "quadratic": {"chart": "L", "coeffs": {"x": "x^2"}},
                   "mixed": {"chart": "L", "coeffs": {"x": "x", "y": "x"}},
                   "zero": {"chart": "L", "coeffs": {}},
                   "other-chart": {"chart": "O", "coeffs": {"x": "2*x"}}},
        "forms": {"w": {"chart": "L", "expr": "x*d(x)"},
                  "log": {"chart": "L", "expr": "3*d(x)/x + y*d(y)"},
                  "g": {"chart": "L", "expr": "y^2"}},
        "tasks": [{"cmd": cmd, "args": {**args, **extra}}
                  for cmd, args in _OWN_WEIGHTS.items()]}))
    out = tmp_path / "own_report.json"
    run(str(m), json_out=str(out), stream=open(os.devnull, "w"))
    return json.loads(out.read_text())["tasks"]


@pytest.mark.parametrize("nabla", [
    "doubled", "quadratic", "mixed", "zero", "other-chart"])
def test_a_weight_field_not_the_charts_own_fails_the_task(tmp_path, nabla):
    """The chart's weights are the homogeneity structure of these commands:
    any other declared field fails each task with one message, 2x d/dx on
    log-primitive included, where the library once reported a residual
    d(x)-component instead."""
    tasks = _run_own_weights(tmp_path, nabla)
    assert [t["task"] for t in tasks] == list(_OWN_WEIGHTS)
    for task in tasks:
        assert task["status"] == "fail"
        assert task["error"] == ("expected the canonical weight field of "
                                 "the chart")


def test_a_hand_built_canonical_field_is_the_charts_own(tmp_path):
    """Canonicity is read off the coefficients: x d/dx built by hand gives
    the reports of a task that declares no field."""
    tasks = _run_own_weights(tmp_path, "hand")
    assert [t["status"] for t in tasks] == ["pass"] * 4
    assert tasks == _run_own_weights(tmp_path, None)
    assert tasks[1]["constant"] == "3"
    assert ["p_x", "even", "-1"] in tasks[3]["chart"]


def test_arithmetic_bug_in_a_handler_raises(tmp_path, monkeypatch):
    """Only evaluation errors fail a task; a ZeroDivisionError is a bug."""
    def broken(args, ws, policy):
        return {"x": 1 / 0}, "pass"

    monkeypatch.setitem(cli._HANDLERS, "reeb", broken)
    with pytest.raises(ZeroDivisionError):
        run(str(MANIFESTS / "cylinder.json"), stream=open(os.devnull, "w"))


def test_report_exprs_reparse(tmp_path):
    out = tmp_path / "theta.json"
    assert run(str(MANIFESTS / "theta.json"), json_out=str(out),
               stream=open(os.devnull, "w")) == 0
    payload = json.loads(out.read_text())
    with open(MANIFESTS / "theta.json") as fh:
        ws, _tasks = load_manifest(json.load(fh))
    target = ws.maps["phi"].target
    for task in payload["tasks"]:
        exprs = task.get("output_exprs")
        if isinstance(exprs, dict):
            for name, text in exprs.items():
                if name in target.names:
                    e = parse_expr(text, ws.charts["M"])
                    assert equal(e, ws.maps["phi"].images[name])


def test_remaining_commands(tmp_path):
    m = tmp_path / "ops.json"
    m.write_text(json.dumps({
        "charts": {
            "L": {"coords": [["x", "even", "1"], ["y", "even", "0"]],
                  "box": [0.3, 0.9]},
            "P": {"coords": [["a", "even", "1"], ["b", "even", "-1"]],
                  "box": [0.3, 0.9]},
        },
        "fields": {
            "nabP": {"chart": "P", "coeffs": {"a": "a", "b": "-b"}},
            "nabL": {"chart": "L", "coeffs": {"x": "x"}},
        },
        "forms": {
            "omega_lin": {"chart": "P", "expr": "2*d(a)*d(b)"},
            "omega_log": {"chart": "L", "expr": "d(x)/x + d(y)"},
            "g_pde": {"chart": "P", "expr": "b^2"},
            "omega_poin": {"chart": "P", "expr": "d(a)*d(b)"},
        },
        "tasks": [
            {"cmd": "lift", "args": {"kind": "tangent", "nabla": "nabP"}},
            {"cmd": "lift", "args": {"kind": "cotangent", "nabla": "nabP"}},
            {"cmd": "poincare", "args": {"form": "omega_poin", "nabla": "nabP"}},
            {"cmd": "log-primitive", "args": {"form": "omega_log", "nabla": "nabL"},
             "expect": {"constant": "1"}},
            {"cmd": "pde-solve", "args": {"g": "g_pde", "y1": "a", "nabla": "nabP"}},
            {"cmd": "linear-darboux", "args": {"form": "omega_lin"},
             "expect": {"r": 1}},
        ],
    }))
    out = tmp_path / "ops_report.json"
    assert run(str(m), json_out=str(out), stream=open(os.devnull, "w")) == 0
    tasks = json.loads(out.read_text())["tasks"]
    assert [t["status"] for t in tasks] == ["pass"] * 6
    assert ["a", "even", "1"] in tasks[0]["chart"]
    assert ["a_dot", "even", "1"] in tasks[0]["chart"]
    assert ["p_a", "even", "-1"] in tasks[1]["chart"]
    assert tasks[2]["output_exprs"] == ["1/2*a*d(b) - 1/2*b*d(a)"]
    assert tasks[3]["output_exprs"] == ["y"]
    assert tasks[4]["output_exprs"] == ["a*b^2"]
    assert tasks[5]["residual"] < 1e-12


def test_straighten_command_writes_csv(tmp_path):
    csv_path = tmp_path / "grid.csv"
    m = tmp_path / "line.json"
    m.write_text(json.dumps({
        "charts": {"M": {"coords": [["x", "even", "0"]]}},
        "fields": {"X": {"chart": "M", "coeffs": {"x": "2+sin(x)"}}},
        "tasks": [{"cmd": "straighten",
                   "args": {"fields": ["X"], "base": [0.0], "box": 0.3,
                            "nodes": 5, "csv": str(csv_path)}}],
    }))
    out = tmp_path / "rep.json"
    assert run(str(m), json_out=str(out), stream=open(os.devnull, "w")) == 0
    payload = json.loads(out.read_text())
    task = payload["tasks"][0]
    assert task["certified"] and task["max_error"] < 1e-6
    assert task["mode"] == "numeric"
    assert csv_path.exists()
    lines = csv_path.read_text().splitlines()
    assert lines[1] == "u1,x1" and len(lines) == 7


def test_main_entrypoint(tmp_path):
    out = tmp_path / "o.json"
    code = main(["run", str(MANIFESTS / "liouville.json"),
                 "--json", str(out), "--seed", "3"])
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["seed"] == 3
    assert payload["status"] == "pass"


def _cylinder_with_reeb_expectation(tmp_path, field):
    payload = json.loads((MANIFESTS / "cylinder.json").read_text())
    (task,) = [t for t in payload["tasks"] if t["cmd"] == "reeb"]
    task["expect"] = {"field": field}
    payload["tasks"] = [task]
    m = tmp_path / "reeb.json"
    m.write_text(json.dumps(payload))
    out = tmp_path / "reeb_report.json"
    code = run(str(m), json_out=str(out), stream=open(os.devnull, "w"))
    return code, json.loads(out.read_text())["tasks"][0]


def test_field_expectation_compared_by_equal(tmp_path):
    code, task = _cylinder_with_reeb_expectation(tmp_path, {"z": "2/2"})
    assert code == 0 and task["status"] == "pass"
    assert task["field"] == {"z": "1"}


def test_field_expectation_key_on_one_side_fails(tmp_path):
    code, task = _cylinder_with_reeb_expectation(tmp_path,
                                                 {"z": "1", "p": "0"})
    assert code == 1 and task["status"] == "fail"
    assert task["expect_failures"][0].startswith("field:")
    code, task = _cylinder_with_reeb_expectation(tmp_path, {})
    assert code == 1 and task["status"] == "fail"


def test_field_expectation_that_does_not_parse_fails(tmp_path):
    code, task = _cylinder_with_reeb_expectation(tmp_path, {"z": "1 +"})
    assert code == 1 and task["status"] == "fail"
    assert task["error"] == "unexpected 'end of input' (at position 3)"
