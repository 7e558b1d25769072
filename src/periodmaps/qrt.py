"""The symmetric QRT map and its invariant.

The planar map (x, y) -> (y, Y) preserves a biquadratic invariant curve
H(x, y) = h; on that level set consecutive coordinates satisfy the
one-dimensional biquadratic correspondence with parameters q' + h q''.
``on_pencil`` puts a generator of that family on the pencil, which gives
the map's period-n varieties; ``eliminate --map qrt`` derives the period-n
recurrence polynomials F(x, X) from them like any other map's.
"""

from __future__ import annotations

from fractions import Fraction

from .algebra import MPoly, RatFunc, compose_parts
from .biquad import PARAM_NAMES, BiquadParams, coerce_params
from .errors import DegenerateParameterError


def _xi(q, var: str) -> MPoly:
    a, b, c, _, _, _ = q
    x = MPoly.var(var)
    return (a * x ** 2 + b * x + MPoly.const(c)).with_vars((var,))


def _eta(q, var: str) -> MPoly:
    _, b, c, d, e, _ = q
    x = MPoly.var(var)
    return (b * x ** 2 + (d - 2 * c) * x + MPoly.const(e)).with_vars((var,))


def _rho(q, var: str) -> MPoly:
    _, _, c, _, e, f = q
    x = MPoly.var(var)
    return (c * x ** 2 + e * x + MPoly.const(f)).with_vars((var,))


def qrt_component_y(qp, qpp) -> RatFunc:
    """Second component of the map as a rational function of (x, y)."""
    x = MPoly.var("x")
    xp, ep, rp = _xi(qp, "y"), _eta(qp, "y"), _rho(qp, "y")
    xpp, epp, rpp = _xi(qpp, "y"), _eta(qpp, "y"), _rho(qpp, "y")
    num = ep * rpp - rp * epp - x * (rp * xpp - xp * rpp)
    den = rp * xpp - xp * rpp - x * (xp * epp - ep * xpp)
    if den.is_zero():
        raise DegenerateParameterError("QRT denominator is identically zero")
    return RatFunc(num, den)


def qrt_invariant_ratfunc(qp, qpp) -> RatFunc:
    num = -(_xi(qp, "x") * MPoly.var("y") ** 2 + _eta(qp, "x") * MPoly.var("y")
            + _rho(qp, "x"))
    den = (_xi(qpp, "x") * MPoly.var("y") ** 2 + _eta(qpp, "x") * MPoly.var("y")
           + _rho(qpp, "x"))
    if den.is_zero():
        raise DegenerateParameterError(
            "invariant denominator biquadratic is identically zero")
    return RatFunc(num, den)


def reduce_to_biquadratic(qp, qpp, h) -> BiquadParams:
    """Componentwise q' + h q'': the correspondence of the level set h."""
    if isinstance(h, (int, Fraction)):
        h = Fraction(h)
        return coerce_params(tuple(a + h * b for a, b in zip(qp, qpp)))
    h = complex(h)
    return coerce_params(
        tuple(complex(a) + h * complex(b) for a, b in zip(qp, qpp)))


def on_pencil(gamma: MPoly, qp, qpp) -> MPoly:
    """gamma(q' + h q''), gamma in the six parameters a..f, as a polynomial
    in h."""
    h = MPoly.var("h")
    line = {name: (MPoly.const(Fraction(ap)) + Fraction(app) * h)
            for name, ap, app in zip(PARAM_NAMES, qp, qpp)}
    return compose_parts(gamma, line)[0].with_vars(("h",))
