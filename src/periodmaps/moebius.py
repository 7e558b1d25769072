"""Moebius parameter dynamics and the period-n parameter varieties.

One map step sends x to h(x + a)/(1 + bx), the projective action of the
matrix M = [[h, h*a], [b, 1]].  Composing steps keeps the Moebius shape
and only moves the parameter triple: ``param_step`` is the product
P <- M*P on P = [[p, q], [r, s]], read back as a_n = q/p, b_n = r/s and
h_n = p/s.  A point (a, b, h) has period n when M^n is a multiple of the
identity.  By Cayley-Hamilton M^n = alpha_n*M - det*alpha_(n-1)*I, with
alpha_(k+1) = tr*alpha_k - det*alpha_(k-1), alpha_0 = 0, alpha_1 = 1,
tr = h + 1 and det = h(1 - ab); M itself is not scalar, so the period-n
condition is alpha_n = 0.  alpha_n with the generators of the proper
divisors d | n divided out generates the period-n variety.  The
moebius2d map carries h as its invariant, so ``eliminate --map moebius2d``
derives the family's recurrences F(x, X) from these generators.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .algebra import MPoly, RatFunc, exact_divide, normalize
from .errors import DegenerateFamilyError, DegenerateParameterError

_ABH = ("a", "b", "h")
# the generators' variable tuple; the relations built from them print their
# monomials in its order
_HBA = ("h", "b", "a")


@dataclass(frozen=True)
class MoebiusParams:
    a: RatFunc
    b: RatFunc
    h: RatFunc

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


def step_matrix_power(k: int):
    """M^k for the one-step matrix M = [[h, h*a], [b, 1]], over Z[a, b, h]."""
    a, b, h = (MPoly.var(v, _ABH) for v in _ABH)
    m00, m01, m10, m11 = h, h * a, b, MPoly.const(1, _ABH)
    p, q, r, s = m00, m01, m10, m11
    for _ in range(k - 1):
        p, q, r, s = (m00 * p + m01 * r, m00 * q + m01 * s,
                      m10 * p + m11 * r, m10 * q + m11 * s)
    return (p, q), (r, s)


def power_coefficients(n: int):
    """(alpha_(n-1), alpha_n) with M^n = alpha_n*M - det*alpha_(n-1)*I,
    over Z[h, b, a]; alpha_0 = 0, alpha_1 = 1 and
    alpha_(k+1) = tr*alpha_k - det*alpha_(k-1), tr = h + 1, det = h(1 - ab).
    """
    h, b, a = (MPoly.var(v, _HBA) for v in _HBA)
    tr, det = h + 1, h * (1 - a * b)
    prev, alpha = MPoly.zero(_HBA), MPoly.const(1, _HBA)
    for _ in range(n - 1):
        prev, alpha = alpha, tr * alpha - det * prev
    return prev, alpha


@lru_cache(maxsize=None)
def derive_gamma(n: int) -> MPoly:
    """Generator of the period-n parameter variety, in (h, b, a).

    alpha_n of ``power_coefficients``, which vanishes exactly where M^n is
    a multiple of the identity, with the generator gamma_d of every proper
    divisor 1 < d < n of n divided out (alpha_n is the product of the
    gamma_d, d | n, d > 1).  Normalized to integer coefficients with
    content 1 and positive constant term.
    """
    if not 2 <= n <= 8:
        raise ValueError("supported periods are 2..8")
    g = power_coefficients(n)[1]
    for d in range(2, n):
        if n % d == 0:
            g = exact_divide(g, derive_gamma(d))
    return normalize(g)
