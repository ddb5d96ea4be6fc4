"""Exact symbolic verification of the coefficient extraction behind the
universality proof: expansion of both sides of the conjugation identity in
t over Q[a0, a1, a2, a3, y1, y2][1/r, 1/y2], r = a0^2 + y1, with the two
surds sqrt(r) and sqrt(y2) adjoined.  Pure Python: no sympy."""

from .coefficients import (consistency_sample, displayed_eq3, displayed_eq4,
                           displayed_third_order, expand_lhs, expand_rhs,
                           inner_series, verify_displayed_equations)
from .surd import SYMBOLS, A0, A1, A2, A3, Y1, Y2, SurdError, SurdExpression

__all__ = [
    "A0", "A1", "A2", "A3", "SYMBOLS", "SurdError", "SurdExpression",
    "Y1", "Y2", "consistency_sample", "displayed_eq3", "displayed_eq4",
    "displayed_third_order", "expand_lhs", "expand_rhs", "inner_series",
    "verify_displayed_equations",
]
