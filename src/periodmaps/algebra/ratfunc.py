"""Rational functions: reduced numerator/denominator pairs of MPoly."""

from __future__ import annotations

import cmath
from itertools import accumulate, count, repeat
from operator import mul
from typing import Callable, Mapping, Sequence, Union

from ..errors import NonFiniteError, PoleError
from .gcd import cofactors
from .poly import NON_FINITE, MPoly, _arity_error, sum_of_products

POLE_REL = 1e-12
POLE = "denominator vanishes at evaluation point"


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
    def var(cls, name: str) -> "RatFunc":
        return cls(MPoly.var(name))

    def is_polynomial(self) -> bool:
        return self.den.total_degree() == 0

    def eval(self, point: Sequence[complex]) -> complex:
        # num and den share their variables, so one conversion serves both
        values = [complex(c) for c in point[:len(self.num.vars)]]
        nv = self.num.eval_values(values)
        dv = self.den.eval_values(values)
        if abs(dv) <= POLE_REL * (1 + abs(nv)):
            raise PoleError(POLE)
        return nv / dv

    def __str__(self):
        if self.is_polynomial() and self.den == MPoly.const(1):
            return str(self.num)
        return f"({self.num}) / ({self.den})"


def compile_eval(funcs: Sequence[RatFunc]) -> Callable[[Sequence], tuple]:
    """One straight-line function of a point that returns
    tuple(f.eval(point) for f in funcs), for objects evaluated thousands
    of times (a map's step and invariants); one-off polynomials walk their
    plan with MPoly.eval instead.

    Each numerator and denominator becomes one statement per step of its
    float plan (MPoly.float_plan), in the order _horner takes them, so
    every value has the bits RatFunc.eval gives.  The conversion of the
    point, the arity check, the finiteness tests and the pole test sit
    where RatFunc.eval has them, so the function raises what the
    evaluations in turn would raise, with the same messages.  The
    coefficients reach the code as a tuple argument, not as source text.
    """
    lines, consts = [], []
    temps = count()

    def emit(node) -> str:
        """Append the statements of a plan node; the name of its value."""
        if node.__class__ is not tuple:
            consts.append(node)
            return f"c{len(consts) - 1}"
        i, first, steps, last = node
        acc, t = emit(first), f"t{next(temps)}"
        for gap, child in steps:
            child = emit(child)
            lines.append(f"{t} = {acc} * x{i} ** {gap} + {child}")
            acc = t
        if last:
            lines.append(f"{t} = {acc} * x{i} ** {last}")
        return t

    converted = checked = 0     # point entries converted / known present
    for k, f in enumerate(funcs):
        width = len(f.num.vars)
        if width > converted:
            op = "+=" if converted else "="
            lines.append(
                f"v {op} [complex(z) for z in pt[{converted}:{width}]]")
            converted = width
        values = []
        for poly in (f.num, f.den):
            need, plan = poly.float_plan()
            if need > checked:
                lines += [f"if len(v) < {need}:",
                          f"    raise arity_error(v, {need})"]
                lines += [f"x{i} = v[{i}]" for i in range(checked, need)]
                checked = need
            values.append(emit(plan))
            if plan.__class__ is tuple:     # a constant is finite
                lines += [f"if not isfinite({values[-1]}):",
                          "    raise NonFiniteError(NON_FINITE)"]
        n, d = values
        lines += [f"if abs({d}) <= POLE_REL * (1 + abs({n})):",
                  "    raise PoleError(POLE)",
                  f"q{k} = {n} / {d}"]
    results = "".join(f"q{k}, " for k in range(len(funcs)))
    names = "".join(f"c{j}, " for j in range(len(consts)))
    source = "\n".join(
        ["def bind(c):", f"    ({names}) = c", "    def evaluate(pt):"]
        + [f"        {line}" for line in lines]
        + [f"        return ({results})", "    return evaluate"])
    scope = {"isfinite": cmath.isfinite, "arity_error": _arity_error,
             "NonFiniteError": NonFiniteError, "NON_FINITE": NON_FINITE,
             "PoleError": PoleError, "POLE": POLE, "POLE_REL": POLE_REL}
    exec(compile(source, "<compile_eval>", "exec"), scope)
    return scope["bind"](tuple(consts))


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
