"""Moebius parameter dynamics and the derived recurrence family.

One map step sends x to h(x + a)/(1 + bx); composing n steps keeps the
Moebius shape and only moves the parameter triple.  The period-n
conditions on the parameters are extracted symbolically as the common
polynomial factor of the three return conditions, with lower-period and
fixed-point factors divided out.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Optional

from .algebra import (MPoly, RatFunc, exact_divide, normalize, poly_gcd,
                      strip_var_monomials)
from .errors import (DegenerateFamilyError, DegenerateParameterError,
                     InexactDivisionError)
from .recurrence import RecurrenceRelation


@dataclass(frozen=True)
class MoebiusParams:
    a: RatFunc
    b: RatFunc
    h: RatFunc

    @classmethod
    def symbolic(cls) -> "MoebiusParams":
        return cls(RatFunc.var("a"), RatFunc.var("b"), RatFunc.var("h"))

    @classmethod
    def numeric(cls, a, b, h) -> "MoebiusParams":
        a, b, h = Fraction(a), Fraction(b), Fraction(h)
        if a * b == 1:
            raise DegenerateParameterError("a*b = 1 collapses the Moebius map")
        if h == 0:
            raise DegenerateParameterError("h = 0 collapses the Moebius map")
        return cls(RatFunc.const(a), RatFunc.const(b), RatFunc.const(h))


@dataclass(frozen=True)
class MoebiusState:
    a_n: RatFunc
    b_n: RatFunc
    h_n: RatFunc


def initial_state(base: MoebiusParams) -> MoebiusState:
    return MoebiusState(base.a, base.b, base.h)


def param_step(base: MoebiusParams, s: MoebiusState) -> MoebiusState:
    """One composition step of the parameter triple."""
    a, b, h = base.a, base.b, base.h
    den1 = s.h_n + a * s.b_n
    den2 = RatFunc.const(1) + b * s.h_n * s.a_n
    if den1.is_zero() or den2.is_zero():
        raise DegenerateFamilyError(
            "parameter recursion hit an identically-zero denominator")
    return MoebiusState(
        a_n=(a + s.a_n * s.h_n) / den1,
        b_n=(s.b_n + b * s.h_n) / den2,
        h_n=h * den1 / den2)


def _condition_numerators(n: int):
    """Numerators of the three period-n return conditions, symbolically."""
    base = MoebiusParams.symbolic()
    s = initial_state(base)
    for _ in range(n):
        s = param_step(base, s)
    conds = []
    for got, want in ((s.a_n, base.a), (s.b_n, base.b), (s.h_n, base.h)):
        conds.append((got - want).num)
    return conds


@lru_cache(maxsize=None)
def _raw_common_factor(n: int) -> MPoly:
    na, nb, nh = _condition_numerators(n)
    g = poly_gcd(poly_gcd(na, nb), nh)
    g = strip_var_monomials(g)
    if g.total_degree() == 0:
        raise DegenerateFamilyError(
            f"period-{n} conditions share no polynomial factor",
            )
    return g


@lru_cache(maxsize=None)
def derive_gamma(n: int) -> MPoly:
    """Generator of the period-n parameter variety, in (a, b, h).

    Normalized to integer coefficients with content 1 and positive
    constant term.
    """
    if not 2 <= n <= 8:
        raise ValueError("supported periods are 2..8")
    g = _raw_common_factor(n)
    fixed = _raw_common_factor(1)
    while g.total_degree() > fixed.total_degree():
        try:
            g = exact_divide(g, fixed)
        except InexactDivisionError:
            break
    for d in range(2, n):
        if n % d:
            continue
        gd = derive_gamma(d)
        while g.total_degree() > 0:
            try:
                g = exact_divide(g, gd)
            except InexactDivisionError:
                break
    g = strip_var_monomials(g)
    if g.total_degree() == 0:
        raise DegenerateFamilyError(
            f"no new factor left for period {n} after divisor removal")
    return normalize(g)


def recurrence_F(n: int, a=None, b=None) -> RecurrenceRelation:
    """Period-n recurrence polynomial in (x, X).

    With a, b numeric the parameters are substituted exactly; with both
    None the polynomial keeps a, b as symbols.  Obtained from the
    parameter-variety generator by h -> X(1 + b x)/(x + a) and clearing
    (x + a)^deg_h.
    """
    gamma = derive_gamma(n)
    if a is not None or b is not None:
        if a is None or b is None:
            raise ValueError("give both a and b, or neither")
        a, b = Fraction(a), Fraction(b)
        if a * b == 1:
            raise DegenerateParameterError("a*b = 1 collapses the Moebius map")
        gamma = gamma.subs_values({"a": a, "b": b})
        bpoly = MPoly.const(b)
        apoly = MPoly.const(a)
    else:
        bpoly = MPoly.var("b")
        apoly = MPoly.var("a")
    x = MPoly.var("x")
    X = MPoly.var("X")
    up = X * (1 + bpoly * x)
    down = x + apoly
    m = gamma.degree("h")
    coeffs = gamma.as_univariate("h")
    F = MPoly.zero()
    for k, c in enumerate(coeffs):
        if c.is_zero():
            continue
        F = F + c * up ** k * down ** (m - k)
    F = F.primitive()
    if F.is_zero():
        raise DegenerateParameterError("recurrence polynomial is zero")
    varorder = ("x", "X") if a is not None else ("x", "X", "a", "b")
    return RecurrenceRelation(F=F.with_vars(varorder), period=n,
                              source="moebius2d")


def mu_pair(a, b):
    """The pair of route multipliers of the period-3 branch maps."""
    import cmath
    ab = complex(a) * complex(b)
    disc = cmath.sqrt((3 + ab) * (ab - 1))
    return ((1 + ab + disc) / 2, (1 + ab - disc) / 2)
