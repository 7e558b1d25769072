"""Rational functions: reduced numerator/denominator pairs of MPoly."""

from __future__ import annotations

from fractions import Fraction
from itertools import accumulate, repeat
from operator import mul
from typing import Mapping, Sequence, Union

from ..errors import PoleError
from .gcd import cofactors
from .poly import MPoly, sum_of_products

POLE_REL = 1e-12


class RatFunc:
    """num/den with gcd-reduced, content-normalized representation.

    The denominator has integer coefficients with content 1 and positive
    leading coefficient (graded lex); the numerator carries the same joint
    rescaling, so values are unchanged.
    """

    __slots__ = ("num", "den")

    def __init__(self, num: MPoly, den: MPoly = None):
        if den is None:
            den = MPoly.const(1)
        if den.is_zero():
            raise ZeroDivisionError("rational function with zero denominator")
        if num.is_zero():
            self.num = MPoly.zero()
            self.den = MPoly.const(1)
            return
        _, num, den = cofactors(num, den)
        cd = den.content()
        scale = 1 / cd
        if den.leading_coeff() < 0:
            scale = -scale
        num = num * scale
        den = den * scale
        cn = num.content()
        if cn and cn.denominator != 1:
            # joint rescale so the numerator is integer too
            num = num * cn.denominator
            den = den * cn.denominator
        self.num, self.den = MPoly.align(num, den)

    def with_vars(self, variables) -> "RatFunc":
        r = RatFunc.__new__(RatFunc)
        r.num = self.num.with_vars(variables)
        r.den = self.den.with_vars(variables)
        return r

    @classmethod
    def const(cls, c) -> "RatFunc":
        return cls(MPoly.const(Fraction(c)))

    @classmethod
    def var(cls, name: str) -> "RatFunc":
        return cls(MPoly.var(name))

    @classmethod
    def of(cls, value) -> "RatFunc":
        if isinstance(value, RatFunc):
            return value
        if isinstance(value, MPoly):
            return cls(value)
        return cls.const(value)

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def is_polynomial(self) -> bool:
        return self.den.total_degree() == 0

    def __add__(self, other):
        other = RatFunc.of(other)
        return RatFunc(self.num * other.den + other.num * self.den,
                       self.den * other.den)

    __radd__ = __add__

    def __neg__(self):
        # already reduced and normalised: only the numerator's sign moves
        r = RatFunc.__new__(RatFunc)
        r.num, r.den = -self.num, self.den
        return r

    def __sub__(self, other):
        return self + (-RatFunc.of(other))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = RatFunc.of(other)
        return RatFunc(self.num * other.num, self.den * other.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = RatFunc.of(other)
        if other.is_zero():
            raise ZeroDivisionError("division by the zero rational function")
        return RatFunc(self.num * other.den, self.den * other.num)

    def __rtruediv__(self, other):
        return RatFunc.of(other) / self

    def __eq__(self, other):
        if not isinstance(other, (RatFunc, MPoly, int, Fraction)):
            return NotImplemented
        other = RatFunc.of(other)
        return (self.num * other.den) == (other.num * self.den)

    def __hash__(self):
        return hash((self.num, self.den))

    def eval(self, point: Sequence[complex]) -> complex:
        # num and den share their variables, so one conversion serves both
        values = [complex(c) for c in point[:len(self.num.vars)]]
        nv = self.num.eval_values(values)
        dv = self.den.eval_values(values)
        if abs(dv) <= POLE_REL * (1 + abs(nv)):
            raise PoleError("denominator vanishes at evaluation point")
        return nv / dv

    def eval_exact(self, point: Sequence) -> Fraction:
        nv = self.num.eval_exact(point)
        dv = self.den.eval_exact(point)
        if dv == 0:
            raise PoleError("denominator vanishes at evaluation point")
        return nv / dv

    def __str__(self):
        if self.is_polynomial() and self.den == MPoly.const(1):
            return str(self.num)
        return f"({self.num}) / ({self.den})"

    def __repr__(self):
        return f"RatFunc({self})"


def compose_parts(p: MPoly,
                  substitutions: Mapping[str, Union[MPoly, RatFunc, tuple]]):
    """(numerator, denominator) of p with each variable v of substitutions
    replaced by its value num_v/den_v (den_v = 1 for an MPoly value; a
    (num_v, den_v) pair is taken as given, without a RatFunc's gcd and
    sign normalisation) and the denominators cleared to den_v^deg_v(p);
    no gcd is taken.

    Each num_v^e * den_v^(deg_v - e) is built once per call and multiplies
    the sum of all terms of p that share its power (Horner-like, variable
    by variable); the products of one level are summed in one dict.  Both results have the variables p uses, each substituted
    one replaced in place by those of its value: num_v's, then those of
    den_v that num_v lacks.
    """
    used = p.used_vars()
    parts = {v: (r, None) if isinstance(r, MPoly)
             else (r.num, r.den) if isinstance(r, RatFunc) else r
             for v, r in substitutions.items() if v in used}
    order = tuple(dict.fromkeys(
        w for v in used for part in parts.get(v, (MPoly.var(v), None))
        if part is not None for w in part.vars))
    den = MPoly.const(1, order)
    factors = []        # (position in p.vars, exponent -> factor)
    for v in used:
        i, d = p.vars.index(v), p.degree(v)
        num_v, den_v = parts.get(v, (MPoly.var(v), None))
        nums = _powers(num_v.with_vars(order), d)
        if den_v is not None:
            dens = _powers(den_v.with_vars(order), d)
            den = den * dens[d]
            nums = {e: nums[e] * dens[d - e]
                    for e in {exps[i] for exps in p.terms}}
        factors.append((i, nums))

    def horner(items, k):
        if k == len(factors):
            return items[0][1]          # exponent tuples are distinct
        i, factor = factors[k]
        groups = {}
        for item in items:
            groups.setdefault(item[0][i], []).append(item)
        return sum_of_products(((factor[e], horner(group, k + 1))
                                for e, group in groups.items()), order)

    num = horner(list(p.terms.items()), 0) if p.terms else 0
    return (num if isinstance(num, MPoly) else MPoly.const(num, order)), den


def _powers(base: MPoly, d: int) -> list:
    """[base^0, ..., base^d]."""
    return list(accumulate(repeat(base, d), mul,
                           initial=MPoly.const(1, base.vars)))
