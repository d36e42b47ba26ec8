"""Package layout: imports sit at module level, so the import graph is the
module graph and a cycle shows up at import time."""

import ast
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

