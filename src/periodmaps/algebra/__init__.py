"""Exact polynomial/rational-function kernel and numeric boundary tools."""

from .gcd import (cofactors, poly_content, poly_gcd, pseudo_rem,
                  squarefree_part)
from .poly import (MPoly, divides, exact_divide, normalize, parse_poly,
                   strip_var_monomials)
from .ratfunc import RatFunc, compile_eval, compose_parts
from .resultant import det_bareiss, resultant, sylvester_matrix
from .roots import companion_roots, roots, roots_of_poly, root_sort_key

__all__ = [
    "MPoly", "RatFunc",
    "parse_poly", "exact_divide", "divides",
    "strip_var_monomials", "normalize",
    "cofactors", "poly_content", "poly_gcd", "pseudo_rem", "squarefree_part",
    "resultant", "sylvester_matrix", "det_bareiss",
    "roots", "roots_of_poly",
    "companion_roots", "root_sort_key",
    "compile_eval", "compose_parts",
    "equal_up_to_scale",
]


def equal_up_to_scale(p: MPoly, q: MPoly) -> bool:
    """p == lambda * q for a nonzero rational lambda (graded lex leading terms)."""
    if p.is_zero() or q.is_zero():
        return p.is_zero() and q.is_zero()
    p, q = MPoly.align(p, q)
    return p * q.leading_coeff() == q * p.leading_coeff()
