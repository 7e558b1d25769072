"""The symmetric QRT map, its invariant, and the recurrence family.

The planar map preserves a biquadratic invariant curve; substituting the
invariant value reduces it to the one-dimensional biquadratic
correspondence, and the generating polynomials of that family turn into
period-n recurrence polynomials in (x, X).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence, Tuple

from .algebra import MPoly, RatFunc, compose_parts
from .biquad import GAMMAS, PARAM_NAMES, BiquadParams, coerce_params
from .errors import DegenerateParameterError
from .recurrence import RecurrenceRelation


@dataclass(frozen=True)
class QRTParams:
    qp: Tuple[Fraction, ...]
    qpp: Tuple[Fraction, ...]

    def __post_init__(self):
        for name, q in (("qp", self.qp), ("qpp", self.qpp)):
            if len(q) != 6 or not all(isinstance(c, Fraction) for c in q):
                raise DegenerateParameterError(
                    f"{name} must be six exact rationals")

    @classmethod
    def of(cls, qp: Sequence, qpp: Sequence) -> "QRTParams":
        return cls(tuple(Fraction(c) for c in qp),
                   tuple(Fraction(c) for c in qpp))


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


def qrt_apply(P: QRTParams, pt: Tuple[complex, complex]) -> Tuple[complex, complex]:
    comp = qrt_component_y(P.qp, P.qpp).with_vars(("x", "y"))
    return (complex(pt[1]), comp.eval([complex(pt[0]), complex(pt[1])]))


def qrt_invariant(P: QRTParams, pt: Tuple[complex, complex]) -> complex:
    H = qrt_invariant_ratfunc(P.qp, P.qpp).with_vars(("x", "y"))
    return H.eval([complex(pt[0]), complex(pt[1])])


def reduce_to_biquadratic(P: QRTParams, h) -> BiquadParams:
    """Componentwise q' + h q''."""
    if isinstance(h, (int, Fraction)):
        h = Fraction(h)
        return coerce_params(tuple(a + h * b for a, b in zip(P.qp, P.qpp)))
    h = complex(h)
    return coerce_params(
        tuple(complex(a) + h * complex(b) for a, b in zip(P.qp, P.qpp)))


def on_pencil(gamma: MPoly, qp, qpp) -> MPoly:
    """gamma(q' + h q''), gamma in the six parameters a..f, as a polynomial
    in h."""
    h = MPoly.var("h")
    line = {name: (MPoly.const(Fraction(ap)) + Fraction(app) * h)
            for name, ap, app in zip(PARAM_NAMES, qp, qpp)}
    return compose_parts(gamma, line)[0].with_vars(("h",))


def gamma_in_h(P: QRTParams, n: int) -> MPoly:
    """gamma^(n)(q' + h q'') as a univariate polynomial in h."""
    if n not in GAMMAS:
        raise KeyError(f"no generating polynomial for period {n}")
    return on_pencil(GAMMAS[n], P.qp, P.qpp)


def _rename(p: MPoly, old: str, new: str) -> MPoly:
    return MPoly(tuple(new if v == old else v for v in p.vars), p.terms)


def qrt_recurrence(P: QRTParams, n: int) -> RecurrenceRelation:
    """Period-n recurrence polynomial F(x, X), denominator-cleared.

    F is the numerator of gamma^(n)(q' + H(x, X) q'') after clearing the
    H-denominator to the exact power deg_h(gamma) and removing content.
    """
    g = gamma_in_h(P, n)
    if g.is_zero():
        raise DegenerateParameterError(
            "gamma vanishes identically for these parameters")
    H = qrt_invariant_ratfunc(P.qp, P.qpp).with_vars(("x", "y"))
    F = _rename(compose_parts(g, {"h": H})[0], "y", "X")
    F = F.with_vars(("x", "X")).primitive()
    if F.is_zero():
        raise DegenerateParameterError(
            "recurrence polynomial vanished after clearing")
    return RecurrenceRelation(F=F.with_vars(("x", "X")), period=n, source="qrt")
