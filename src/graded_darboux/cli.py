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
from typing import Any, Dict, List, Optional, Tuple

from . import _linalg
from .cartan import ChartMap, VectorField, exterior_d, vector_field
from .grexpr.chart import ChartError, ChartSpec, CoordinateDecl, as_parity
from .grexpr.equality import DEFAULT_POLICY, EqualityPolicy, equal
from .grexpr.expr import GradedExpr, ParityError
from .grexpr.parser import ParseError, format_expr, parse_expr
from .homogeneity import (Distribution, WeightVectorField, degree_of,
                          distribution_homogeneous, involutive_check,
                          tangent_lift, cotangent_lift, verify_weight_chart,
                          weight_field_of_chart)
from .pfaffian import (PfaffianError, characteristic_class, liouville,
                       presymplectic_check, reeb)
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


def _degree_payload(rep):
    if not rep.homogeneous or rep.degree is None:
        return None
    return {"parity": "odd" if rep.degree.parity else "even",
            "weight": str(rep.degree.weight)}


# -- expectation matching ---------------------------------------------------------


def _match_expect(expect: dict, outcome: dict, vfield: Optional[VectorField],
                  policy: EqualityPolicy) -> Tuple[bool, List[str]]:
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
    return not problems, problems


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


# -- task execution ----------------------------------------------------------------


def run_task(task: dict, ws: Workspace, policy: EqualityPolicy) -> dict:
    cmd = task.get("cmd")
    args = _TaskArgs(task.get("args", {}))
    out: Dict[str, Any] = {"task": cmd, "seed": policy.seed, "mode": "exact"}
    status = "pass"
    vfield: Optional[VectorField] = None      # the field an expectation reads

    def nabla_arg(default_chart=None):
        if "nabla" in args or default_chart is None:
            f = ws.vfield(args["nabla"])
            canonical = verify_weight_chart(f, f.chart)
            return WeightVectorField(f, canonical=canonical)
        return weight_field_of_chart(default_chart)

    if cmd == "check-chart":
        f = ws.vfield(args["nabla"])
        chart = ws.chart(args["chart"]) if "chart" in args else f.chart
        ok = verify_weight_chart(f, chart)
        out["canonical"] = ok
        status = "pass" if ok else "fail"

    elif cmd == "degree":
        target = args["of"]
        obj = ws.forms.get(target) or ws.fields.get(target)
        if obj is None:
            raise ManifestError(f"unknown form or field {target!r}")
        chart = obj.chart
        rep = degree_of(obj, nabla_arg(chart), policy)
        out["homogeneous"] = rep.homogeneous
        out["degree"] = _degree_payload(rep)
        if rep.degree is not None:
            out["parity"] = "odd" if rep.degree.parity else "even"
            out["weight"] = str(rep.degree.weight)
        out["mode"] = rep.mode
        status = "pass" if rep.homogeneous else "fail"

    elif cmd == "lift":
        kind = args.get("kind", "tangent")
        nab = nabla_arg(ws.chart(args["chart"]) if "chart" in args else None)
        lifted = tangent_lift(nab) if kind == "tangent" else cotangent_lift(nab)
        out["chart"] = [[c.name, "odd" if c.parity else "even", str(c.weight)]
                        for c in lifted.chart.coords]
        out["output_exprs"] = _render(lifted.field)

    elif cmd == "classify":
        form = ws.form(args["form"])
        rep = characteristic_class(form, policy=policy)
        out["class"] = rep.class_
        out["case"] = rep.case
        out["kind"] = rep.kind
        out["witness"] = rep.evidence[:2]
        out["mode"] = "randomized"
        status = "pass" if rep.kind != "irregular" else "indeterminate"

    elif cmd == "presymplectic":
        form = ws.form(args["form"])
        rep = presymplectic_check(form, policy=policy)
        out["rank"] = rep.rank
        out["even_rank"] = rep.even_rank
        out["odd_rank"] = rep.odd_rank
        out["constant_rank"] = rep.constant_rank
        out["kernel"] = _render(rep.kernel.T) if rep.kernel is not None else None
        status = "pass" if rep.constant_rank else "indeterminate"

    elif cmd == "reeb":
        form = ws.form(args["form"])
        vfield = reeb(form, policy)
        out["field"] = _render(vfield)

    elif cmd == "liouville":
        alpha = ws.form(args["alpha"])
        omega = ws.form(args["omega"]) if "omega" in args else exterior_d(alpha)
        vfield = liouville(omega, alpha, policy)
        out["field"] = _render(vfield)

    elif cmd == "poincare":
        form = ws.form(args["form"])
        prim = poincare_primitive(form, nabla_arg(form.chart))
        out["output_exprs"] = [format_expr(prim)]

    elif cmd == "log-primitive":
        form = ws.form(args["form"])
        c, g = log_primitive(form, nabla_arg(form.chart), policy)
        out["constant"] = format_expr(c)
        out["output_exprs"] = [format_expr(g)]

    elif cmd == "pde-solve":
        form = ws.form(args["g"])
        f = homog_solve_pde(form, args["y1"], nabla_arg(form.chart))
        out["output_exprs"] = [format_expr(f)]

    elif cmd == "linear-darboux":
        form = ws.form(args["form"])
        res = linear_darboux(form)
        out["r"] = res.spec.r
        out["s"] = res.spec.s
        out["eps"] = list(res.spec.eps)
        out["residual"] = res.residual
        out["output_exprs"] = {n: format_expr(e)
                               for n, e in res.chart_map.images.items()}
        status = ("pass" if _linalg.negligible(res.residual, policy.rel_tol)
                  else "fail")

    elif cmd == "darboux":
        form = ws.form(args["form"])
        phi = ws.cmap(args["map"])
        res = one_form_darboux(form, phi, int(args.get("r", 0)),
                               int(args.get("s", 0)),
                               tuple(args.get("eps", [])),
                               nabla_arg(form.chart),
                               args.get("base"), policy)
        out["status"] = res.status
        out["notes"] = res.notes
        if res.spec is not None:
            out["variant"] = res.spec.variant
        if res.chart_map is not None:
            out["output_exprs"] = {n: format_expr(e)
                                   for n, e in res.chart_map.images.items()}
            out["weights"] = {k: (str(v) if v is not None else None)
                              for k, v in res.new_weights.items()}
        if res.verification is not None:
            out["mode"] = res.verification.mode
        status = ("pass" if res.status == "ok" else "indeterminate")

    elif cmd == "straighten":
        fields_ = [ws.vfield(n) for n in args["fields"]]
        if not fields_:
            raise ManifestError("straighten needs at least one field")
        grid = straighten_commuting(
            fields_, args.get("base", [0.0] * fields_[0].chart.dim),
            box=float(args.get("box", 0.5)),
            nodes_per_axis=int(args.get("nodes", 5)),
            policy=policy)
        out["max_error"] = grid.max_error
        out["certified"] = grid.certified
        if "csv" in args:
            grid.to_csv(args["csv"])
            out["csv"] = args["csv"]
        out["mode"] = "numeric"
        status = "pass" if grid.certified else "fail"

    elif cmd == "verify-darboux":
        form = ws.form(args["form"])
        phi = ws.cmap(args["map"])
        spec_args = args.get("spec", {})
        nf = NormalFormSpec(spec_args.get("variant", "contact"),
                            int(spec_args.get("r", 0)),
                            int(spec_args.get("s", 0)),
                            tuple(spec_args.get("eps", [])),
                            int(spec_args.get("residual", 0)))
        rep = verify_normal_form(form, phi, nf, nabla_arg(form.chart), policy)
        out["checks"] = [{"name": e.name, "passed": e.passed, "detail": e.detail}
                         for e in rep.entries]
        out["mode"] = rep.mode
        status = "pass" if rep.passed else "fail"

    elif cmd == "dist":
        kind = args.get("kind", "involutive")
        gens = tuple(ws.vfield(n) for n in args["generators"])
        if not gens:
            raise ManifestError("dist needs at least one generator")
        D = Distribution(gens[0].chart, gens)
        if kind == "homogeneous":
            ok = distribution_homogeneous(D, nabla_arg(gens[0].chart), policy)
        elif kind == "involutive":
            ok = involutive_check(D, policy)
        else:
            raise ManifestError(f"unknown dist kind {kind!r}")
        out[kind] = ok
        out["mode"] = "randomized"
        status = "pass" if ok else "fail"

    else:
        raise ManifestError(f"unknown command {cmd!r}")

    if "expect" in task:
        ok, problems = _match_expect(task["expect"], out, vfield, policy)
        status = "pass" if ok else "fail"
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

    policy = EqualityPolicy(n_points=max(samples, 8), rel_tol=tol, seed=seed)
    try:
        ws, tasks = load_manifest(payload)
    except (ManifestError, ChartError, ParityError, ParseError, KeyError,
            TypeError, ValueError) as exc:
        print(f"error: bad manifest: {exc}", file=sys.stderr)
        return 2

    results = []
    for i, task in enumerate(tasks):
        try:
            entry = run_task(task, ws, policy)
        except ManifestError as exc:
            print(f"error: task {i}: {exc}", file=sys.stderr)
            return 2
        except (PfaffianError, ParityError, ChartError, ValueError,
                RuntimeError) as exc:
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
            json.dump(report, fh, sort_keys=True, indent=1, default=_render)
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
    ns = parser.parse_args(argv)
    if ns.command == "run":
        return run(ns.manifest, ns.json_out, ns.seed, ns.samples, ns.tol)
    parser.error("unknown command")
    return 2


if __name__ == "__main__":
    sys.exit(main())
