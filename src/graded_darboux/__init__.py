"""graded-darboux: homogeneous differential forms on graded manifolds.

A symbolic-numeric toolkit for the calculus of homogeneous differential
forms on supermanifolds: bigraded exterior algebra with exact coefficients,
Cartan calculus, weight vector fields and homogeneity degrees, classification
of Pfaffian forms through the characteristic distribution, and construction
plus certificate-style verification of homogeneous Darboux normal forms.
"""

from .grexpr import (EVEN, ODD, ChartError, ChartSpec, CoordinateDecl,
                     EqualityPolicy, EqualityResult, EvaluationError,
                     GradedExpr, GrassmannValue, NonIntegrable, ParityError,
                     ParseError, apply_func, canonicalize, chart, const,
                     coord, diff, equal, eval_body_exact, eval_numeric,
                     format_expr, gdiv, gmul, integrate_univariate,
                     one, parse_expr, partial, substitute,
                     weights_consistent, zero)

__version__ = "0.1.0"
