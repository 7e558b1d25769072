"""Exact values of polynomials and rational functions at rational points,
taken through the library's exact substitution (MPoly.subs_values), for
tests that need exact arithmetic as an oracle."""

from fractions import Fraction

from periodmaps.algebra import RatFunc


def exact_value(f, point) -> Fraction:
    """f (an MPoly or a RatFunc) at a rational point with one coordinate
    per variable of f; a RatFunc whose denominator vanishes there raises
    ZeroDivisionError."""
    if isinstance(f, RatFunc):
        return exact_value(f.num, point) / exact_value(f.den, point)
    assert len(point) == len(f.vars), (point, f.vars)
    return f.subs_values(dict(zip(f.vars, point))).constant_term()
