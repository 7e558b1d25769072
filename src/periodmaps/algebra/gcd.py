"""Multivariate polynomial gcd over the rationals (primitive PRS)."""

from __future__ import annotations

from .poly import MPoly, exact_divide


def poly_content(p: MPoly, var: str) -> MPoly:
    """Primitive gcd of the coefficients of p viewed in var, or 1."""
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
    lc_q = q.coeff_of(var, dq)
    x = MPoly.var(var, q.vars)
    rem = p
    while not rem.is_zero() and rem.degree(var) >= dq:
        dr = rem.degree(var)
        lc_r = rem.coeff_of(var, dr)
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
    cont_p = poly_content(p, var)
    cont_q = poly_content(q, var)
    c = poly_gcd(cont_p, cont_q)
    a = exact_divide(p, cont_p)
    b = exact_divide(q, cont_q)
    if a.degree(var) < b.degree(var):
        a, b = b, a
    # every b is nonzero and primitive in var: no content pass at the end
    while b.degree(var):
        r = _pseudo_rem(a, b, var)
        if r.is_zero():
            return (c * b).primitive()
        a, b = b, exact_divide(r, poly_content(r, var)).primitive()
    return c.primitive()


def squarefree_part(p: MPoly, var: str) -> MPoly:
    """p with repeated factors (in var) collapsed to multiplicity one and
    its content in var divided out: the gcd with the derivative holds both."""
    if p.degree(var) == 0:
        return p
    g = poly_gcd(p, p.derivative(var))
    if g.total_degree() == 0:
        return p
    return exact_divide(p, g)
