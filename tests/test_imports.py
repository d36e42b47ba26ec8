"""Package layout: imports sit at module level, so the import graph is the
module graph and a cycle shows up at import time; every function the
benchmark's tracer wraps by name exists; and every definition in ``src`` is
reached from ``src``, so code that only tests call lives in the tests."""

import ast
import importlib
from collections import Counter
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



def _private_grexpr_imports(files):
    """(file, name) of every underscore name that a module outside
    ``grexpr/`` imports from ``grexpr``."""
    found = []
    for rel, text in files.items():
        if rel.startswith("grexpr/"):
            continue
        for node in ast.walk(ast.parse(text)):
            if (isinstance(node, ast.ImportFrom)
                    and "grexpr" in (node.module or "").split(".")):
                found.extend((rel, a.name) for a in node.names
                             if a.name.startswith("_"))
    return found


def test_only_grexpr_knows_its_private_names():
    # the Koszul insertion and the walk's other helpers stay behind the
    # public operators, so the sign rule lives in one module
    files = {path.relative_to(SRC).as_posix(): path.read_text()
             for path in sorted(SRC.rglob("*.py"))}
    assert _private_grexpr_imports(files) == []
    files["pfaffian.py"] += "\nfrom .grexpr.expr import GradedExpr, _insert\n"
    files["cartan.py"] += "\nfrom .grexpr import _probe\n"
    files["grexpr/parser.py"] += "\nfrom .expr import _cut\n"
    assert sorted(_private_grexpr_imports(files)) == [
        ("cartan.py", "_probe"), ("pfaffian.py", "_insert")]


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


# reached from outside src only, on purpose: the push-forward of a field
# along a chart map waits for the generator of normal forms; the other two
# are accessors of public value types that the acceptance tests read
KEPT_UNREFERENCED = {"pushforward_vf", "VectorField.coefficient",
                     "ChartMap.identity"}


def _definitions(tree):
    """(qualified name, node) of every top-level function and class, and of
    every method or property of a top-level class that is not a dunder."""
    for node in tree.body:
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)):
            continue
        yield node.name, node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if (isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                        and not (item.name.startswith("__")
                                 and item.name.endswith("__"))):
                    yield f"{node.name}.{item.name}", item


def _mentions(node):
    """Every name a node reads or writes: identifiers and attributes."""
    return [n.id if isinstance(n, ast.Name) else n.attr
            for n in ast.walk(node)
            if isinstance(n, (ast.Name, ast.Attribute))]


def _unreferenced(files):
    """Definitions named nowhere in ``files`` outside their own body.

    ``files`` maps a path relative to the package to its source; a package
    ``__init__`` exports what it imports."""
    trees = {rel: ast.parse(text) for rel, text in files.items()}
    allowed = set(KEPT_UNREFERENCED)
    allowed.update(attr for _, attr in _wrapped_names().values())
    allowed.update(a.asname or a.name for rel, tree in trees.items()
                   if rel.endswith("__init__.py")
                   for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
                   for a in node.names)
    everywhere = Counter(m for tree in trees.values() for m in _mentions(tree))
    found = []
    for rel, tree in sorted(trees.items()):
        for qual, node in _definitions(tree):
            name = qual.rsplit(".", 1)[-1]
            if qual in allowed or name in allowed:
                continue
            if everywhere[name] == _mentions(node).count(name):
                found.append((rel, node.lineno, qual))
    return found


def test_every_definition_in_src_is_reached_from_src():
    # code that only tests call belongs in the tests
    files = {path.relative_to(SRC).as_posix(): path.read_text()
             for path in sorted(SRC.rglob("*.py"))}
    assert _unreferenced(files) == []
    files["pfaffian.py"] += ("\n\nclass Probe:\n    @property\n"
                             "    def block(self):\n        return self.block\n\n"
                             "    def _helper(self):\n        return 1\n\n"
                             "    def __len__(self):\n        return 0\n")
    assert [qual for _, _, qual in _unreferenced(files)] == [
        "Probe", "Probe.block", "Probe._helper"]


# the isinstance(..., Fraction) tests that read something other than an
# expression coefficient, which is exact when it is not a float
# (expr.is_exact_coeff); _cnum is where an integral Fraction becomes an int
FRACTION_TESTS = {
    ("grexpr/chart.py", "as_weight"),           # a declared weight
    ("cli.py", "_render"),                      # a report value
    ("_linalg.py", "_exact"),                   # a body value
    ("darboux.py", "_assemble"),                # a degree weight
    ("grexpr/expr.py", "_cnum"),
}


def _fraction_tests(files):
    """(file, enclosing function) of every isinstance(..., Fraction)."""
    found = []

    def visit(node, rel, scope):
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.ClassDef)):
                inner = scope + [child.name]
            if (isinstance(child, ast.Call)
                    and isinstance(child.func, ast.Name)
                    and child.func.id == "isinstance" and len(child.args) == 2):
                types = child.args[1]
                names = types.elts if isinstance(types, ast.Tuple) else [types]
                if any(isinstance(t, ast.Name) and t.id == "Fraction"
                       for t in names):
                    found.append((rel, ".".join(scope)))
            visit(child, rel, inner)

    for rel, text in files.items():
        visit(ast.parse(text), rel, [])
    return found


def test_coefficient_exactness_has_one_predicate():
    files = {path.relative_to(SRC).as_posix(): path.read_text()
             for path in sorted(SRC.rglob("*.py"))}
    assert set(_fraction_tests(files)) == FRACTION_TESTS
    files["grexpr/parser.py"] += ("\n\ndef probe(m):\n"
                                  "    return isinstance(m.coeff, (int, Fraction))\n")
    assert sorted(set(_fraction_tests(files)) - FRACTION_TESTS) == [
        ("grexpr/parser.py", "probe")]
