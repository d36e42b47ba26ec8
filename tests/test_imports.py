"""Package layout: imports sit at module level, so the import graph is the
module graph and a cycle shows up at import time; every function the
benchmark's tracer wraps by name exists."""

import ast
import importlib
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "graded_darboux"

# the printer lives in the parser, which is built on the expression module
ALLOWED = {("grexpr/expr.py", "GradedExpr.__str__", ".parser")}


def _nested_imports(path: Path):
    """(file, enclosing def/class, module) of every import below module level."""
    rel = path.relative_to(SRC).as_posix()
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.ClassDef)):
                visit(child, scope + [child.name])
                continue
            if scope and isinstance(child, ast.Import):
                found.extend((rel, ".".join(scope), a.name) for a in child.names)
            elif scope and isinstance(child, ast.ImportFrom):
                found.append((rel, ".".join(scope),
                              "." * child.level + (child.module or "")))
            visit(child, scope)

    visit(ast.parse(path.read_text()), [])
    return found


def test_only_the_printer_imports_inside_a_function():
    nested = {hit for path in sorted(SRC.rglob("*.py"))
              for hit in _nested_imports(path)}
    assert nested == ALLOWED



TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def _wrapped_names():
    """The ``WRAPPED`` table of the benchmark's tracer, read without
    importing it: metric prefix -> (module, attribute)."""
    for node in ast.parse(TRACING.read_text()).body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "WRAPPED"
                for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError("no WRAPPED table in bench/tracing.py")


def test_every_traced_name_resolves():
    # a renamed or deleted function breaks only the benchmark's traced run
    missing = []
    for prefix, (modname, attr) in sorted(_wrapped_names().items()):
        obj = importlib.import_module(modname)
        for part in attr.split("."):
            obj = getattr(obj, part, None)
        if not callable(obj):
            missing.append((prefix, modname, attr))
    assert missing == []
