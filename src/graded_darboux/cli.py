"""Batch front-end: run task manifests and emit deterministic reports.

A manifest is a JSON file with five sections: ``charts`` declare coordinates
(name, parity, weight) and sampling boxes; ``fields``, ``forms`` and ``maps``
declare named objects by expression strings over those charts; ``tasks``
lists commands with arguments and optional expectations.  Reports are
deterministic for a fixed manifest and seed: exit 0 iff every task passes,
1 when any task fails or is left undecided, 2 on manifest errors.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Any, Callable, Dict, List, Optional, Tuple

from . import _linalg
from .cartan import ChartMap, Memo, VectorField, exterior_d, vector_field
from .grexpr.chart import ChartSpec, CoordinateDecl, EVEN, as_parity
from .grexpr.equality import DEFAULT_POLICY, EqualityPolicy, equal
from .grexpr.expr import GradedExpr
from .grexpr.parser import format_expr, parse_expr
from .homogeneity import (Distribution, degree_of, distribution_homogeneous,
                          involutive_check, tangent_lift, cotangent_lift,
                          verify_weight_chart, weight_field_of_chart)
from .pfaffian import characteristic_class, liouville, presymplectic_check, reeb
from .darboux import (NormalFormSpec, homog_solve_pde,
                      linear_darboux, log_primitive, one_form_darboux,
                      poincare_primitive, straighten_commuting,
                      verify_normal_form)


class ManifestError(ValueError):
    pass


class _TaskArgs(dict):
    """A task's arguments: a missing one is a manifest error."""

    def __missing__(self, key):
        raise ManifestError(f"missing argument {key!r}")


@dataclass
class Workspace:
    charts: Dict[str, ChartSpec] = field(default_factory=dict)
    fields: Dict[str, VectorField] = field(default_factory=dict)
    forms: Dict[str, GradedExpr] = field(default_factory=dict)
    maps: Dict[str, ChartMap] = field(default_factory=dict)
    # derivations shared by the tasks of one run; a run loads a new workspace
    memo: Memo = field(default_factory=Memo)

    def chart(self, name):
        return self._get(self.charts, name, "chart")

    def form(self, name):
        return self._get(self.forms, name, "form")

    def vfield(self, name):
        return self._get(self.fields, name, "field")

    def cmap(self, name):
        return self._get(self.maps, name, "map")

    @staticmethod
    def _get(table, name, kind):
        if name not in table:
            raise ManifestError(f"unknown {kind} {name!r}")
        return table[name]


def _parse_box(box, where: str) -> tuple:
    if not (isinstance(box, list) and len(box) == 2):
        raise ManifestError(f"{where}: box {box!r} is not [low, high]")
    return float(box[0]), float(box[1])


def _parse_chart(name: str, spec: dict) -> ChartSpec:
    coords = spec.get("coords")
    if not coords:
        raise ManifestError(f"chart {name!r} declares no coordinates")
    box = spec.get("box")
    chart_box = (-1.0, 1.0)
    per_coord: Dict[str, tuple] = {}
    if isinstance(box, dict):
        per_coord = {k: _parse_box(v, f"chart {name!r}, coordinate {k!r}")
                     for k, v in box.items()}
    elif box is not None:
        chart_box = _parse_box(box, f"chart {name!r}")
    decls = []
    for entry in coords:
        if not (isinstance(entry, (list, tuple)) and len(entry) == 3):
            raise ManifestError(f"chart {name!r}: coordinate {entry!r} is not "
                                "[name, parity, weight]")
        cname, parity, weight = entry
        decls.append(CoordinateDecl(cname, as_parity(parity), Fraction(str(weight)),
                                    box=per_coord.get(cname)))
    return ChartSpec(tuple(decls), default_box=chart_box)


def load_manifest(payload: dict) -> tuple:
    ws = Workspace()
    for name, spec in payload.get("charts", {}).items():
        ws.charts[name] = _parse_chart(name, spec)
    for name, spec in payload.get("forms", {}).items():
        chart = ws.chart(spec["chart"])
        ws.forms[name] = parse_expr(spec["expr"], chart)
    for name, spec in payload.get("fields", {}).items():
        chart = ws.chart(spec["chart"])
        ws.fields[name] = vector_field(chart, spec.get("coeffs", {}),
                                       as_parity(spec.get("parity", "even")))
    for name, spec in payload.get("maps", {}).items():
        src = ws.chart(spec["source"])
        tgt = ws.chart(spec["target"])
        images = {k: parse_expr(v, src) for k, v in spec["images"].items()}
        inverse = None
        if "inverse" in spec:
            inverse = {k: parse_expr(v, tgt) for k, v in spec["inverse"].items()}
        ws.maps[name] = ChartMap(src, tgt, images, inverse)
    tasks = payload.get("tasks", [])
    if not isinstance(tasks, list):
        raise ManifestError("'tasks' must be a list")
    for i, task in enumerate(tasks):
        if not (isinstance(task, dict) and isinstance(task.get("args", {}), dict)):
            raise ManifestError(f"task {i} is not an object with object 'args'")
    return ws, tasks


# -- value rendering ------------------------------------------------------------


def _render(v):
    if isinstance(v, GradedExpr):
        return format_expr(v)
    if isinstance(v, Fraction):
        return str(v)
    if isinstance(v, VectorField):
        return {name: format_expr(c) for name, c in
                zip(v.chart.names, v.coefficients) if not c.is_zero()}
    if isinstance(v, (list, tuple)):
        return [_render(x) for x in v]
    if isinstance(v, dict):
        return {k: _render(x) for k, x in v.items()}
    if hasattr(v, "tolist"):
        return v.tolist()
    return v


# -- expectation matching ---------------------------------------------------------


def _match_expect(expect: dict, outcome: dict, vfield: Optional[VectorField],
                  policy: EqualityPolicy) -> List[str]:
    """The mismatches between ``expect`` and the rendered ``outcome``; the
    ``field`` key compares against ``vfield``, the field before rendering."""
    problems = []
    for key, want in expect.items():
        got = outcome.get(key)
        if key == "weight":
            ok = got is not None and Fraction(str(want)) == Fraction(str(got))
        elif key == "field":
            ok = _match_field(want, vfield, policy)
        elif isinstance(want, (int, float)) and isinstance(got, (int, float)):
            ok = _linalg.negligible(float(want) - float(got), policy.rel_tol)
        else:
            ok = str(want) == str(got)
        if not ok:
            problems.append(f"{key}: expected {want!r}, got {got!r}")
    return problems


def _match_field(want: dict, got: Optional[VectorField],
                 policy: EqualityPolicy) -> bool:
    """Expected coefficients parse on the field's chart and compare with
    ``equal``; a coordinate named on one side only fails."""
    if got is None or not isinstance(want, dict):
        return False
    have = {n: c for n, c in zip(got.chart.names, got.coefficients)
            if not c.is_zero()}
    return set(want) == set(have) and all(
        equal(parse_expr(str(want[n]), got.chart), have[n], policy)
        for n in want)


# -- task handlers -----------------------------------------------------------------
# handler(args, ws, policy) -> (fields of library objects, status), the status
# "pass", "fail" or "indeterminate"; run_task renders, matches and writes it.


def _nabla(args, ws: Workspace, chart: ChartSpec) -> VectorField:
    """The declared weight field ``nabla``, else the canonical one of chart."""
    if "nabla" not in args:
        return weight_field_of_chart(chart)
    f = ws.vfield(args["nabla"])
    if f.parity != EVEN:
        raise ValueError("weight vector fields are even")
    return f


def _own_weights(args, ws: Workspace, chart: ChartSpec) -> None:
    """Where the chart's weights are the homogeneity structure, a declared
    ``nabla`` must be the chart's canonical field."""
    if "nabla" in args and not verify_weight_chart(_nabla(args, ws, chart),
                                                   chart):
        raise ValueError("expected the canonical weight field of the chart")


def _check_chart(args, ws, policy):
    f = ws.vfield(args["nabla"])
    chart = ws.chart(args["chart"]) if "chart" in args else f.chart
    ok = verify_weight_chart(f, chart)
    return {"canonical": ok}, "pass" if ok else "fail"


def _degree(args, ws, policy):
    target = args["of"]
    obj = ws.forms.get(target) or ws.fields.get(target)
    if obj is None:
        raise ManifestError(f"unknown form or field {target!r}")
    rep = degree_of(obj, _nabla(args, ws, obj.chart), policy, memo=ws.memo)
    out = {"homogeneous": rep.homogeneous, "degree": None, "mode": rep.mode}
    if rep.degree is not None:
        deg = {"parity": "odd" if rep.degree.parity else "even",
               "weight": str(rep.degree.weight)}
        out.update(deg, degree=deg if rep.homogeneous else None)
    return out, "pass" if rep.homogeneous else "fail"


def _lift(args, ws, policy):
    chart = (ws.chart(args["chart"]) if "chart" in args
             else ws.vfield(args["nabla"]).chart)
    _own_weights(args, ws, chart)
    kind = args.get("kind", "tangent")
    lifted = (tangent_lift if kind == "tangent" else cotangent_lift)(chart)
    return {"chart": [[c.name, "odd" if c.parity else "even", str(c.weight)]
                      for c in lifted.chart.coords],
            "output_exprs": lifted}, "pass"


def _classify(args, ws, policy):
    rep = characteristic_class(ws.form(args["form"]), policy=policy,
                               memo=ws.memo)
    return ({"class": rep.class_, "case": rep.case, "kind": rep.kind,
             "witness": rep.evidence[:2], "mode": "randomized"},
            "pass" if rep.kind != "irregular" else "indeterminate")


def _presymplectic(args, ws, policy):
    rep = presymplectic_check(ws.form(args["form"]), policy=policy,
                              memo=ws.memo)
    return ({"rank": rep.rank, "even_rank": rep.even_rank,
             "odd_rank": rep.odd_rank, "constant_rank": rep.constant_rank,
             "kernel": rep.kernel.T if rep.kernel is not None else None},
            "pass" if rep.constant_rank else "indeterminate")


def _reeb(args, ws, policy):
    return {"field": reeb(ws.form(args["form"]), policy, memo=ws.memo)}, "pass"


def _liouville(args, ws, policy):
    alpha = ws.form(args["alpha"])
    omega = (ws.form(args["omega"]) if "omega" in args
             else exterior_d(alpha, memo=ws.memo))
    return {"field": liouville(omega, alpha, policy, memo=ws.memo)}, "pass"


def _poincare(args, ws, policy):
    form = ws.form(args["form"])
    _own_weights(args, ws, form.chart)
    return {"output_exprs": [poincare_primitive(form)]}, "pass"


def _log_primitive(args, ws, policy):
    form = ws.form(args["form"])
    _own_weights(args, ws, form.chart)
    c, g = log_primitive(form, policy)
    return {"constant": c, "output_exprs": [g]}, "pass"


def _pde_solve(args, ws, policy):
    form = ws.form(args["g"])
    _own_weights(args, ws, form.chart)
    return {"output_exprs": [homog_solve_pde(form, args["y1"])]}, "pass"


def _linear_darboux(args, ws, policy):
    res = linear_darboux(ws.form(args["form"]))
    return ({"r": res.spec.r, "s": res.spec.s, "eps": list(res.spec.eps),
             "residual": res.residual, "output_exprs": res.chart_map.images},
            "pass" if _linalg.negligible(res.residual, policy.rel_tol)
            else "fail")


def _darboux(args, ws, policy):
    form = ws.form(args["form"])
    res = one_form_darboux(form, ws.cmap(args["map"]), int(args.get("r", 0)),
                           int(args.get("s", 0)), tuple(args.get("eps", [])),
                           _nabla(args, ws, form.chart), args.get("base"),
                           policy, memo=ws.memo)
    out: Dict[str, Any] = {"outcome": res.status, "notes": res.notes}
    if res.spec is not None:
        out["variant"] = res.spec.variant
    if res.chart_map is not None:
        out["output_exprs"] = res.chart_map.images
        out["weights"] = {k: (str(v) if v is not None else None)
                          for k, v in res.new_weights.items()}
    if res.verification is not None:
        out["mode"] = res.verification.mode
    return out, "pass" if res.status == "ok" else "indeterminate"


def _straighten(args, ws, policy):
    fields_ = [ws.vfield(n) for n in args["fields"]]
    if not fields_:
        raise ManifestError("straighten needs at least one field")
    grid = straighten_commuting(
        fields_, args.get("base", [0.0] * fields_[0].chart.dim),
        box=float(args.get("box", 0.5)),
        nodes_per_axis=int(args.get("nodes", 5)),
        policy=policy)
    out = {"max_error": grid.max_error, "certified": grid.certified,
           "mode": "numeric"}
    if "csv" in args:
        grid.to_csv(args["csv"])
        out["csv"] = args["csv"]
    return out, "pass" if grid.certified else "fail"


def _verify_darboux(args, ws, policy):
    form = ws.form(args["form"])
    spec_args = args.get("spec", {})
    nf = NormalFormSpec(spec_args.get("variant", "contact"),
                        int(spec_args.get("r", 0)),
                        int(spec_args.get("s", 0)),
                        tuple(spec_args.get("eps", [])),
                        int(spec_args.get("residual", 0)))
    rep = verify_normal_form(form, ws.cmap(args["map"]), nf,
                             _nabla(args, ws, form.chart), policy,
                             memo=ws.memo)
    return ({"checks": [{"name": e.name, "passed": e.passed, "detail": e.detail}
                        for e in rep.entries],
             "mode": rep.mode},
            "pass" if rep.passed else "fail")


def _dist(args, ws, policy):
    kind = args.get("kind", "involutive")
    gens = tuple(ws.vfield(n) for n in args["generators"])
    if not gens:
        raise ManifestError("dist needs at least one generator")
    D = Distribution(gens[0].chart, gens)
    if kind == "homogeneous":
        ok = distribution_homogeneous(D, _nabla(args, ws, gens[0].chart), policy)
    elif kind == "involutive":
        ok = involutive_check(D, policy)
    else:
        raise ManifestError(f"unknown dist kind {kind!r}")
    return {kind: ok, "mode": "randomized"}, "pass" if ok else "fail"


_HANDLERS: Dict[str, Callable[..., Tuple[Dict[str, Any], str]]] = {
    "check-chart": _check_chart, "degree": _degree, "lift": _lift,
    "classify": _classify, "presymplectic": _presymplectic, "reeb": _reeb,
    "liouville": _liouville, "poincare": _poincare,
    "log-primitive": _log_primitive, "pde-solve": _pde_solve,
    "linear-darboux": _linear_darboux, "darboux": _darboux,
    "straighten": _straighten, "verify-darboux": _verify_darboux,
    "dist": _dist,
}


def run_task(task: dict, ws: Workspace, policy: EqualityPolicy) -> dict:
    cmd = task.get("cmd")
    handler = _HANDLERS.get(cmd) if isinstance(cmd, str) else None
    if handler is None:
        raise ManifestError(f"unknown command {cmd!r}")
    fields, status = handler(_TaskArgs(task.get("args", {})), ws, policy)
    out = _render({"task": cmd, "seed": policy.seed, "mode": "exact", **fields})
    if "expect" in task:
        problems = _match_expect(task["expect"], out, fields.get("field"),
                                 policy)
        status = "fail" if problems else "pass"
        if problems:
            out["expect_failures"] = problems
    out["status"] = status
    return out


def run(manifest_path: str, json_out: Optional[str] = None, seed: int = 0,
        samples: int = 16, tol: float = DEFAULT_POLICY.rel_tol,
        stream=sys.stdout) -> int:
    """Execute a manifest; returns the process exit code."""
    try:
        with open(manifest_path) as fh:
            payload = json.load(fh)
    except OSError as exc:
        print(f"error: cannot read manifest: {exc}", file=sys.stderr)
        return 2
    except json.JSONDecodeError as exc:
        print(f"error: manifest is not valid JSON (line {exc.lineno}, "
              f"column {exc.colno}): {exc.msg}", file=sys.stderr)
        return 2

    try:
        policy = EqualityPolicy(n_points=max(samples, 8), rel_tol=tol, seed=seed)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        ws, tasks = load_manifest(payload)
    except (KeyError, TypeError, ValueError) as exc:
        print(f"error: bad manifest: {exc}", file=sys.stderr)
        return 2

    results = []
    for i, task in enumerate(tasks):
        try:
            entry = run_task(task, ws, policy)
        except ManifestError as exc:
            print(f"error: task {i}: {exc}", file=sys.stderr)
            return 2
        except (ValueError, OverflowError, RuntimeError) as exc:
            entry = {"task": task.get("cmd"), "seed": seed,
                     "status": "fail", "error": str(exc)}
        results.append(entry)
        label = entry.get("task") or "?"
        print(f"[{entry['status']:>5}] {label}"
              + (f" :: {entry.get('error')}" if "error" in entry else ""),
              file=stream)

    report = {"manifest": manifest_path.split("/")[-1], "seed": seed,
              "samples": policy.n_points, "tolerance": policy.rel_tol,
              "tasks": results,
              "status": "pass" if all(r["status"] == "pass" for r in results)
              else "fail"}
    if json_out:
        with open(json_out, "w") as fh:
            json.dump(report, fh, sort_keys=True, indent=1)
            fh.write("\n")
    return 0 if report["status"] == "pass" else 1


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="graded-darboux",
        description="classify and normalize homogeneous differential forms "
                    "declared in a JSON manifest")
    sub = parser.add_subparsers(dest="command", required=True)
    runp = sub.add_parser("run", help="execute a task manifest")
    runp.add_argument("manifest")
    runp.add_argument("--json", dest="json_out", default=None,
                      help="write the machine-readable report here")
    runp.add_argument("--seed", type=int, default=0)
    runp.add_argument("--samples", type=int, default=16)
    runp.add_argument("--tol", type=float, default=DEFAULT_POLICY.rel_tol,
                      help="relative tolerance of every numeric decision")
    ns = parser.parse_args(argv)      # "run" is the only command
    return run(ns.manifest, ns.json_out, ns.seed, ns.samples, ns.tol)


if __name__ == "__main__":
    sys.exit(main())
