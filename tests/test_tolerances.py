"""Numeric thresholds have one owner: ``grexpr/equality.py`` defines them and
``_linalg.py`` makes the float zero, rank and membership decisions, so no
other module holds a tolerance literal of its own.  Sampling has one carrier:
the sample count and seed of a decision travel in its ``EqualityPolicy``.
The exact-or-float choice has one owner: ``_linalg.rank``,
``_linalg.contains`` and ``_linalg.nullspace`` take the exact path when every
body value is a Fraction, and only ``grexpr/grassmann.py`` asks a plan
whether it is exact.  LAPACK has one gate: ``_linalg._finite_points``."""

import ast
import math
from pathlib import Path

import pytest

from graded_darboux.grexpr.equality import EqualityPolicy

SRC = Path(__file__).resolve().parents[1] / "src" / "graded_darboux"

OWNERS = {"grexpr/equality.py", "_linalg.py"}

# each one gave a wrong verdict or an unrelated failure instead of an error
BAD_TOLERANCES = [math.nan, -1.0, 0.0, math.inf]


@pytest.mark.parametrize("tol", BAD_TOLERANCES)
def test_policy_rejects_a_tolerance_that_is_not_positive_and_finite(tol):
    with pytest.raises(ValueError, match="tolerance must be a positive finite number"):
        EqualityPolicy(rel_tol=tol)


# a misspelt mode must not pass for "auto" and take the exact shortcut
@pytest.mark.parametrize("mode", ["Randomized", "random", "exact", ""])
def test_policy_rejects_an_unknown_mode(mode):
    with pytest.raises(ValueError, match="equality mode is 'auto' or 'randomized'"):
        EqualityPolicy(mode=mode)


def _small_float_literals(path: Path):
    """(file, line, value) of every nonzero float literal below 1e-3."""
    rel = path.relative_to(SRC).as_posix()
    return [(rel, node.lineno, node.value)
            for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, ast.Constant) and isinstance(node.value, float)
            and 0 < abs(node.value) < 1e-3]


def test_no_tolerance_literal_outside_the_owners():
    found = [hit for path in sorted(SRC.rglob("*.py"))
             if path.relative_to(SRC).as_posix() not in OWNERS
             for hit in _small_float_literals(path)]
    assert found == []


# the CLI builds its policy from --samples/--seed; the sampler is what the
# policy's fields are handed to
SAMPLING_PARAMS = {"n_points", "seed"}
SAMPLING_OWNERS = {("cli.py", "run"), ("grexpr/grassmann.py", "sample_body_points")}


def test_no_sampling_parameter_outside_the_policy():
    found = []
    for path in sorted(SRC.rglob("*.py")):
        rel = path.relative_to(SRC).as_posix()
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            a = node.args
            names = {x.arg for x in a.posonlyargs + a.args + a.kwonlyargs}
            if names & SAMPLING_PARAMS and (rel, node.name) not in SAMPLING_OWNERS:
                found.append((rel, node.lineno, node.name))
    assert found == []


# the exact-only and float-only membership and rank routines, reached from
# outside only through _linalg.rank and _linalg.contains
PATH_ROUTINES = {"exact_rank", "exact_solve_membership", "float_contains"}


def test_one_chooser_of_the_exact_or_float_path():
    found = []
    for path in sorted(SRC.rglob("*.py")):
        rel = path.relative_to(SRC).as_posix()
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call) and rel != "_linalg.py":
                fn = node.func
                name = fn.attr if isinstance(fn, ast.Attribute) else getattr(fn, "id", None)
                if name in PATH_ROUTINES:
                    found.append((rel, node.lineno, name))
            elif (isinstance(node, ast.Attribute) and node.attr == "exact"
                  and isinstance(node.ctx, ast.Load)
                  and rel != "grexpr/grassmann.py"):
                found.append((rel, node.lineno, ".exact"))
    assert found == []


# derivations are shared only through an explicit memo that lives for one
# call or one cli.run; a cache bound in the module would outlive the run
MEMO_FREE = ("cartan.py", "pfaffian.py", "homogeneity.py", "darboux.py")
CACHE_CALLS = {"dict", "defaultdict", "OrderedDict", "ContextVar", "lru_cache",
               "cache"}


def _name(node):
    """The called or referenced name of a node, else None."""
    if isinstance(node, ast.Call):
        node = node.func
    if isinstance(node, ast.Attribute):
        return node.attr
    return getattr(node, "id", None)


def _module_caches(source: str):
    """(line, what) of every module-level dict, ContextVar or lru_cache."""
    tree = ast.parse(source)
    found = [(node.lineno, "decorator " + _name(dec))
             for node in ast.walk(tree)
             if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.ClassDef))
             for dec in node.decorator_list
             if _name(dec) in {"lru_cache", "cache"}]
    for stmt in tree.body:
        if isinstance(stmt, (ast.Assign, ast.AnnAssign)) and stmt.value:
            found += [(stmt.lineno, type(v).__name__ if not
                       isinstance(v, ast.Call) else _name(v))
                      for v in ast.walk(stmt.value)
                      if isinstance(v, (ast.Dict, ast.DictComp))
                      or (isinstance(v, ast.Call) and _name(v) in CACHE_CALLS)]
    return found


def test_no_module_level_cache_in_the_derivation_modules():
    for bad in ("_SEEN = {}", "_SEEN: dict = dict()", "T = {k: 1 for k in ()}",
                "M = contextvars.ContextVar('memo')",
                "@functools.lru_cache(maxsize=None)\ndef f(x):\n    return x",
                "class A:\n    @cache\n    def f(self):\n        return 1"):
        assert _module_caches(bad), bad
    found = [(name, hit) for name in MEMO_FREE
             for hit in _module_caches((SRC / name).read_text())]
    assert found == []


# no inf or nan reaches LAPACK: _finite_points hands a float decision only
# the finite points of its stacks, and an SVD, a solve, an eigen-decomposition
# or an inverse elsewhere would skip it
GUARDED = {"svd", "solve", "eigh", "inv"}


def _lapack_guard_breaches(rel: str, source: str):
    """(module, line, what) of every ``float_*`` function of ``_linalg.py``
    not wrapped by ``_finite_points``, and every reference to a ``GUARDED``
    function of a ``linalg`` module outside ``_linalg.py``."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if rel == "_linalg.py":
            if (isinstance(node, ast.FunctionDef)
                    and node.name.startswith("float_")
                    and "_finite_points" not in map(_name, node.decorator_list)):
                found.append((rel, node.lineno, node.name))
        elif (isinstance(node, ast.Attribute) and node.attr in GUARDED
              and _name(node.value) == "linalg"):
            found.append((rel, node.lineno, node.attr))
        elif (isinstance(node, ast.ImportFrom)
              and (node.module or "").endswith("linalg")):
            found += [(rel, node.lineno, a.name) for a in node.names
                      if a.name in GUARDED]
    return found


def test_inf_and_nan_never_reach_lapack():
    for rel, bad in (("_linalg.py", "def float_norm(a, tol):\n    return a"),
                     ("_linalg.py", "@wraps(f)\ndef float_x(a, tol):\n    pass"),
                     ("darboux.py", "s = np.linalg.svd(J, compute_uv=False)"),
                     ("pfaffian.py", "from numpy.linalg import norm, svd"),
                     ("darboux.py", "x = np.linalg.solve(J, F)"),
                     ("cli.py", "from numpy.linalg import solve"),
                     ("darboux.py", "lam, V = np.linalg.eigh(G)"),
                     ("darboux.py", "C = np.linalg.inv(P)"),
                     ("pfaffian.py", "from numpy.linalg import eigh, inv")):
        assert _lapack_guard_breaches(rel, bad), bad
    assert _lapack_guard_breaches(
        "_linalg.py", "@_finite_points\ndef float_x(a, tol):\n"
                      "    return np.linalg.svd(a)") == []
    linalg = ast.parse((SRC / "_linalg.py").read_text())
    assert {"float_rank", "float_contains", "float_solve"} <= {
        node.name for node in ast.walk(linalg)
        if isinstance(node, ast.FunctionDef)}
    found = [hit for path in sorted(SRC.rglob("*.py"))
             for hit in _lapack_guard_breaches(
                 path.relative_to(SRC).as_posix(), path.read_text())]
    assert found == []
