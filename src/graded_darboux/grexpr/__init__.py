"""Bigraded expression algebra: charts, expressions, parsing, evaluation."""

from .chart import (EVEN, ODD, ChartError, ChartSpec, CoordinateDecl,
                    as_parity, as_weight, chart, weights_consistent)
from .equality import DEFAULT_POLICY, EqualityPolicy, EqualityResult, equal
from .expr import (Atom, EvaluationError, GradedExpr, Monomial, ParityError,
                   apply_func, canonicalize, const, coord, diff, gdiv, gmul,
                   one, partial, substitute, zero)
from .grassmann import GrassmannValue, eval_body_exact, eval_numeric
from .integrate import NonIntegrable, antiderivative, integrate_univariate
from .parser import ParseError, format_expr, parse_expr

__all__ = [
    "EVEN", "ODD", "ChartError", "ChartSpec", "CoordinateDecl", "as_parity",
    "as_weight", "chart", "weights_consistent",
    "DEFAULT_POLICY", "EqualityPolicy", "EqualityResult", "equal",
    "Atom", "EvaluationError", "GradedExpr", "Monomial", "ParityError",
    "apply_func", "canonicalize", "const", "coord", "diff", "gdiv",
    "gmul", "one", "partial", "substitute", "zero",
    "GrassmannValue", "eval_body_exact", "eval_numeric",
    "NonIntegrable", "antiderivative", "integrate_univariate",
    "ParseError", "format_expr", "parse_expr",
]
