"""Span tracer for the benchmark's traced run.

It wraps the public functions of each ``graded_darboux`` module from outside:
nothing under ``src/`` changes.  Each call of a wrapped function while an op
is running becomes a span (name, start, end, parent span, op id).  Spans stay
in memory and are written out when the run ends.  Self time is a span's
duration minus the time its direct child spans cover; spans nest strictly
because the load is single-threaded.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time
from collections import defaultdict

# metric prefix -> (module, attribute); a dotted attribute is a staticmethod
WRAPPED = {
    "expr.gmul": ("graded_darboux.grexpr.expr", "gmul"),
    "expr.from_terms": ("graded_darboux.grexpr.expr", "GradedExpr.from_terms"),
    "expr.leibniz_walk": ("graded_darboux.grexpr.expr", "leibniz_walk"),
    "expr.partial": ("graded_darboux.grexpr.expr", "partial"),
    "parser.parse_expr": ("graded_darboux.grexpr.parser", "parse_expr"),
    "parser.format_expr": ("graded_darboux.grexpr.parser", "format_expr"),
    "grassmann.eval_numeric": ("graded_darboux.grexpr.grassmann", "eval_numeric"),
    "grassmann.eval_body_exact": ("graded_darboux.grexpr.grassmann", "eval_body_exact"),
    "equality.equal": ("graded_darboux.grexpr.equality", "equal"),
    "cartan.exterior_d": ("graded_darboux.cartan", "exterior_d"),
    "cartan.interior": ("graded_darboux.cartan", "interior"),
    "cartan.lie_derivative": ("graded_darboux.cartan", "lie_derivative"),
    "cartan.lie_bracket": ("graded_darboux.cartan", "lie_bracket"),
    "cartan.pullback": ("graded_darboux.cartan", "pullback"),
    "homogeneity.degree_of": ("graded_darboux.homogeneity", "degree_of"),
    "homogeneity.verify_weight_chart": ("graded_darboux.homogeneity", "verify_weight_chart"),
    "homogeneity.involutive_check": ("graded_darboux.homogeneity", "involutive_check"),
    "pfaffian.characteristic_class": ("graded_darboux.pfaffian", "characteristic_class"),
    "pfaffian.flat_matrix": ("graded_darboux.pfaffian", "flat_matrix"),
    "pfaffian.presymplectic_check": ("graded_darboux.pfaffian", "presymplectic_check"),
    "pfaffian.reeb": ("graded_darboux.pfaffian", "reeb"),
    "darboux.straighten_commuting": ("graded_darboux.darboux", "straighten_commuting"),
    "darboux.verify_normal_form": ("graded_darboux.darboux", "verify_normal_form"),
    "darboux.one_form_darboux": ("graded_darboux.darboux", "one_form_darboux"),
    "linalg.exact_rank": ("graded_darboux._linalg", "exact_rank"),
    "linalg.exact_solve_membership": ("graded_darboux._linalg", "exact_solve_membership"),
    "linalg.float_rank": ("graded_darboux._linalg", "float_rank"),
    "symsolve.solve_left_linear": ("graded_darboux.symsolve", "solve_left_linear"),
    "cli.load_manifest": ("graded_darboux.cli", "load_manifest"),
    "cli.run_task": ("graded_darboux.cli", "run_task"),
}

CLASSIFY = "pfaffian.characteristic_class"
EQUAL = "equality.equal"
# self time of these layers under a classify span, split by kind of work
CLASSIFY_PARTS = {"expr": "symbolic_s", "cartan": "symbolic_s",
                  "grassmann": "numeric_s", "linalg": "linalg_s"}

# spans kept for the trace file; aggregates always cover every span
MAX_SPANS = 100_000


class Tracer:
    def __init__(self):
        self.active = False
        self.op_id = -1
        self.spans: list = []
        self.dropped = 0
        self._stack: list = []        # [span index, name, start, child time]
        self._depth = defaultdict(int)
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.counters = defaultdict(float)
        self._patched: list = []

    # -- patching --------------------------------------------------------------

    def install(self):
        """Replace each wrapped function in every graded_darboux namespace
        that binds it."""
        for name, (modname, attr) in WRAPPED.items():
            module = importlib.import_module(modname)
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name)
                orig = cls.__dict__[meth].__func__
                self._patch(cls, meth, staticmethod(self._wrap(name, orig)),
                            cls.__dict__[meth])
                continue
            orig = getattr(module, attr)
            wrapper = self._wrap(name, orig)
            for mod in list(sys.modules.values()):
                if not getattr(mod, "__name__", "").startswith("graded_darboux"):
                    continue
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        self._patch(mod, key, wrapper, orig)

    def uninstall(self):
        for owner, key, orig in reversed(self._patched):
            setattr(owner, key, orig)
        self._patched.clear()

    def _patch(self, owner, key, new, orig):
        setattr(owner, key, new)
        self._patched.append((owner, key, orig))

    def _wrap(self, name, fn):
        hook = _HOOKS.get(name)
        sig = inspect.signature(fn) if hook else None
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            return tracer._call(name, fn, args, kwargs, hook, sig)

        return wrapper

    # -- spans -------------------------------------------------------------------

    def begin_op(self, op_id: int, label: str):
        self.op_id = op_id
        self.active = True
        self._enter(label)

    def end_op(self):
        self._exit(time.perf_counter())
        self.active = False

    def _enter(self, name):
        parent = self._stack[-1][0] if self._stack else -1
        start = time.perf_counter()
        if len(self.spans) < MAX_SPANS:
            idx = len(self.spans)
            self.spans.append([name, start, None, parent, self.op_id])
        else:
            idx = -1
            self.dropped += 1
        self._stack.append([idx, name, start, 0.0])
        self._depth[name] += 1

    def _exit(self, end):
        idx, name, start, child = self._stack.pop()
        self._depth[name] -= 1
        if idx >= 0:
            self.spans[idx][2] = end
        dur = end - start
        own = dur - child
        if self._stack:
            self._stack[-1][3] += dur
        self.calls[name] += 1
        self.self_s[name] += own
        if self._depth[CLASSIFY] > 0:
            part = CLASSIFY_PARTS.get(name.split(".")[0])
            if part:
                self.counters["classify." + part] += own
        return dur

    def _call(self, name, fn, args, kwargs, hook, sig):
        t_in = time.perf_counter()
        self._enter(name)
        try:
            result = fn(*args, **kwargs)
        except BaseException as exc:
            dur = self._exit(time.perf_counter())
            self.counters[name + ".raised." + type(exc).__name__] += 1
            self._charge_parent(t_in, dur)
            raise
        dur = self._exit(time.perf_counter())
        if hook:
            bound = sig.bind(*args, **kwargs)
            bound.apply_defaults()
            hook(self, bound.arguments, result, dur)
        self._charge_parent(t_in, dur)
        return result

    def _charge_parent(self, t_in, dur):
        """Count the tracer's own work around a call (bookkeeping and the
        hook) as child time of the caller's span, so that it stays out of
        every span's self time."""
        self._stack[-1][3] += time.perf_counter() - t_in - dur

    # -- output ------------------------------------------------------------------

    def write(self, path):
        """Write every kept span as one JSON object per line."""
        with open(path, "w") as fh:
            for name, start, end, parent, op in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "op": op}) + "\n")

    def metrics(self, ops: int, busy_s: float) -> dict:
        """Per-layer metrics over ``ops`` traced ops that took ``busy_s``.

        Counts are per op.  Self time appears twice: ``.self_s`` in seconds
        per op, and ``.self_share`` as its share of the traced request time,
        which is a plain 0 for a layer the workload never reaches.  A ratio
        whose base was never counted is None.
        """
        c = self.counters
        out = {}
        for name in WRAPPED:
            out[name + ".calls"] = (self.calls[name] / ops, "count/op")
            out[name + ".self_s"] = (self.self_s[name] / ops, "s/op")
            out[name + ".self_share"] = (self.self_s[name] / busy_s, "ratio")
        out["expr.gmul.pairs"] = (c["gmul.pairs"] / ops, "count/op")
        out["expr.gmul.kept_terms"] = (c["gmul.out_terms"] / ops, "count/op")
        out["expr.gmul.kept_ratio"] = _ratio(c["gmul.out_terms"], c["gmul.pairs"])
        out["grassmann.eval_body_exact.failed"] = (
            c["grassmann.eval_body_exact.raised.EvaluationError"] / ops, "count/op")
        decisions = self.calls[EQUAL]
        out["equality.exact_decisions"] = (c["equal.exact"] / ops, "count/op")
        out["equality.evals"] = (c["equal.evals"] / ops, "count/op")
        out["equality.exact_ratio"] = _ratio(c["equal.exact"], decisions)
        out["equality.evals_per_decision"] = _ratio(c["equal.evals"], decisions, "count")
        out["equality.s_per_point"] = _ratio(c["equal.true_random_s"],
                                             c["equal.true_random_points"], "s")
        classifies = self.calls[CLASSIFY]
        for part in ("symbolic", "numeric", "linalg"):
            spent = c[f"classify.{part}_s"]
            out[f"pfaffian.classify.{part}_s"] = _ratio(spent, classifies, "s")
            out[f"pfaffian.classify.{part}_share"] = (spent / busy_s, "ratio")
        out["darboux.straighten.s_per_node"] = _ratio(c["straighten.s"],
                                                      c["straighten.nodes"], "s")
        for key in sorted(c):
            if key.startswith("task_s."):
                cmd = key[len("task_s."):]
                out["cli.task_s." + cmd] = _ratio(c[key], c["task_n." + cmd], "s")
        return out


def _ratio(num, den, unit="ratio"):
    """num / den, or None when nothing was counted."""
    return (num / den if den else None, unit)


# -- hooks: counters taken where the work happens ---------------------------------


def _gmul(tr, args, result, dur):
    tr.counters["gmul.pairs"] += len(args["a"].terms) * len(args["b"].terms)
    tr.counters["gmul.out_terms"] += len(result.terms)


def _eval_numeric(tr, args, result, dur):
    if tr._depth[EQUAL] > 0:
        tr.counters["equal.evals"] += 1


def _equal(tr, args, result, dur):
    if result.mode == "exact":
        tr.counters["equal.exact"] += 1
    elif result.equal:
        tr.counters["equal.true_random_s"] += dur
        tr.counters["equal.true_random_points"] += args["policy"].n_points


def _straighten(tr, args, result, dur):
    tr.counters["straighten.s"] += dur
    tr.counters["straighten.nodes"] += len(result.nodes)


def _run_task(tr, args, result, dur):
    cmd = args["task"].get("cmd")
    tr.counters["task_s." + cmd] += dur
    tr.counters["task_n." + cmd] += 1


_HOOKS = {
    "expr.gmul": _gmul,
    "grassmann.eval_numeric": _eval_numeric,
    EQUAL: _equal,
    "darboux.straighten_commuting": _straighten,
    "cli.run_task": _run_task,
}
