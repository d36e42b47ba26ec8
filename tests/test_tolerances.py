"""Numeric thresholds have one owner: ``grexpr/equality.py`` defines them and
``_linalg.py`` makes the float zero, rank and membership decisions, so no
other module holds a tolerance literal of its own.  Sampling has one carrier:
the sample count and seed of a decision travel in its ``EqualityPolicy``.
The exact-or-float choice has one owner: ``_linalg.rank``,
``_linalg.contains`` and ``_linalg.nullspace`` take the exact path when every
body value is a Fraction, and only ``grexpr/grassmann.py`` asks a plan
whether it is exact."""

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
PATH_ROUTINES = {"exact_rank", "exact_solve_membership", "in_row_space"}


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
