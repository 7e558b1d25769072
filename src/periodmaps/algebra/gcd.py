"""Multivariate polynomial gcd over the rationals (primitive PRS)."""

from __future__ import annotations

import random

from .poly import MPoly, exact_divide

# integer points squarefree_part tries before it falls back to the gcd
CERTIFY_POINTS = 5
POINT_BOUND = 97


def poly_content(p: MPoly, var: str) -> MPoly:
    """Primitive gcd of the coefficients of p viewed in var, or 1.

    The coefficients are folded smallest first (by term count), so the
    running gcd shrinks before it meets the large ones.
    """
    coeffs = sorted((c for c in p.as_univariate(var) if not c.is_zero()),
                    key=lambda c: len(c.terms))
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


def _points(others: tuple):
    """Deterministic integer points for the variables others, each
    coordinate in [-POINT_BOUND, POINT_BOUND]."""
    rng = random.Random("squarefree")
    for _ in range(CERTIFY_POINTS):
        yield {v: rng.randint(-POINT_BOUND, POINT_BOUND) for v in others}


def _certified_squarefree(prim: MPoly, var: str) -> bool:
    """True if some integer specialisation of the variables other than
    var keeps prim's degree in var and is squarefree over Q.

    That is a proof that prim has no repeated factor of positive degree
    in var: such a factor keeps its degree wherever prim's leading
    coefficient does not vanish, so it would repeat in the
    specialisation.  False proves nothing.
    """
    others = tuple(v for v in prim.used_vars() if v != var)
    if not others:
        return False            # the gcd below is the univariate check
    d = prim.degree(var)
    for point in _points(others):
        u = prim.subs_values(point)
        if u.degree(var) == d and \
                poly_gcd(u, u.derivative(var)).total_degree() == 0:
            return True
    return False


def squarefree_part(p: MPoly, var: str) -> MPoly:
    """p with repeated factors (in var) collapsed to multiplicity one and
    its content in var divided out.

    The content is split off first; the primitive part is returned as it
    is when an integer specialisation certifies it squarefree, and is
    divided by its gcd with its derivative otherwise.  Since
    gcd(C*f, C*f') = C*gcd(f, f') for C free of var, this is, up to a
    constant factor, p divided by gcd(p, dp/dvar).
    """
    if p.degree(var) == 0:
        return p
    prim = exact_divide(p, poly_content(p, var))
    if _certified_squarefree(prim, var):
        return prim
    return exact_divide(prim, poly_gcd(prim, prim.derivative(var)))
