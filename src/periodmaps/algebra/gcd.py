"""Multivariate polynomial gcd over the rationals (primitive PRS)."""

from __future__ import annotations

from fractions import Fraction

from .poly import MPoly, exact_divide


def _poly_content(p: MPoly, var: str) -> MPoly:
    """Gcd of the coefficient polynomials of p viewed in var."""
    coeffs = [c for c in p.as_univariate(var) if not c.is_zero()]
    g = coeffs[0]
    for c in coeffs[1:]:
        g = poly_gcd(g, c)
        if g.total_degree() == 0:
            break
    return g.primitive() if g.total_degree() else MPoly.const(1)


def _pseudo_rem(p: MPoly, q: MPoly, var: str) -> MPoly:
    """Pseudo-remainder of p by q in var (lc(q)^(dp-dq+1) * p mod q)."""
    p, q = MPoly.align(p, q)
    dq = q.degree(var)
    lc_q = q.coeff_of(var, dq).with_vars(q.vars)
    x = MPoly.var(var, q.vars)
    rem = p
    while not rem.is_zero() and rem.degree(var) >= dq:
        dr = rem.degree(var)
        lc_r = rem.coeff_of(var, dr).with_vars(q.vars)
        rem = rem * lc_q - q * lc_r * x ** (dr - dq)
        # the var^dr coefficient cancels exactly; guard against drift
        assert rem.degree(var) < dr or rem.is_zero()
    return rem


def poly_gcd(p: MPoly, q: MPoly) -> MPoly:
    """Gcd over Q, returned primitive with positive leading coefficient."""
    if p.is_zero():
        return q.primitive() if not q.is_zero() else q
    if q.is_zero():
        return p.primitive()
    p = p.pruned()
    q = q.pruned()
    if not p.vars or not q.vars:
        return MPoly.const(1)
    common = [v for v in p.vars if v in q.vars]
    if not common:
        return MPoly.const(1)
    # main variable: the common one of least combined degree keeps PRS small
    var = min(common, key=lambda v: p.degree(v) + q.degree(v))
    p, q = MPoly.align(p, q)
    cont_p = _poly_content(p, var)
    cont_q = _poly_content(q, var)
    c = poly_gcd(cont_p, cont_q)
    a = exact_divide(p, cont_p)
    b = exact_divide(q, cont_q)
    if a.degree(var) < b.degree(var):
        a, b = b, a
    while True:
        if b.is_zero():
            g = a
            break
        if b.degree(var) == 0:
            g = MPoly.const(1)
            break
        r = _pseudo_rem(a, b, var)
        if r.is_zero():
            g = b
            break
        a, b = b, exact_divide(r, _poly_content(r, var)).primitive()
    g = exact_divide(g, _poly_content(g, var)) if g.degree(var) else MPoly.const(1)
    return (c * g).primitive()


def squarefree_part(p: MPoly, var: str) -> MPoly:
    """p with repeated factors (in var) collapsed to multiplicity one."""
    if p.degree(var) == 0:
        return p
    g = poly_gcd(p, p.derivative(var))
    if g.total_degree() == 0:
        return p
    return exact_divide(p, g)
