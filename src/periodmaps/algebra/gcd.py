"""Multivariate polynomial gcd over the rationals.

``poly_gcd`` is the heuristic gcd GCDHEU (Char, Geddes and Gonnet, J.
Symbolic Comput. 1989) over Z.  The inputs, their contents divided out,
have their first variable evaluated at a large integer xi; the gcd of the
images is taken the same way down to integers, then read back xi-adically
and kept only if it divides both inputs exactly.  With xi at least
2*min(|f|, |g|) + 2 at every level (max-norms of the primitive inputs), a
divisor that passes is the gcd (Geddes, Czapor and Labahn, *Algorithms for
Computer Algebra*, Thm 7.7).  When HEU_POINTS growing points all fail, the
primitive pseudo-remainder sequence ``_prs_gcd`` runs instead.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction

from .poly import MPoly, divide_terms, exact_divide

# evaluation points poly_gcd tries before it falls back to the PRS
HEU_POINTS = 6
# integer points squarefree_part tries before it falls back to the gcd
CERTIFY_POINTS = 5
POINT_BOUND = 97


def poly_content(p: MPoly, var: str) -> MPoly:
    """Primitive gcd of the coefficients of p viewed in var, or 1.

    The coefficients are folded smallest first (by term count), so the
    running gcd shrinks before it meets the large ones.
    """
    return _content(p, var, poly_gcd)


def _content(p: MPoly, var: str, gcd) -> MPoly:
    """poly_content with the gcd routine gcd."""
    coeffs = sorted((c for c in p.as_univariate(var) if not c.is_zero()),
                    key=lambda c: len(c.terms))
    g = coeffs[0]
    for c in coeffs[1:]:
        g = gcd(g, c)
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
    """Gcd over Q.

    Every path returns it primitive, with a positive graded-lex leading
    coefficient, in the variables it uses, ordered as in the aligned
    inputs (p's variables, then q's others): a constant gcd is 1 in no
    variables, and the gcd of p and zero is p so normalised.
    """
    p, q = MPoly.align(p, q)
    if p.is_zero() or q.is_zero():
        return _canonical(q if p.is_zero() else p, p.vars)
    used_p, used_q = set(p.used_vars()), set(q.used_vars())
    if not used_p & used_q:
        return MPoly.const(1)
    order = tuple(v for v in p.vars if v in used_p or v in used_q)
    idx = [p.vars.index(v) for v in order]
    found = _heuristic(_integer_part(p, idx), _integer_part(q, idx))
    if found is None:
        return _canonical(_prs_gcd(p, q), p.vars)
    h = MPoly._make(order, {e: Fraction(c) for e, c in found[0].items()})
    return _canonical(h, order)


def _canonical(g: MPoly, order: tuple) -> MPoly:
    """g primitive in the variables it uses, taken in the order of order,
    with a positive graded-lex leading coefficient."""
    used = set(g.used_vars())
    return g.with_vars(tuple(v for v in order if v in used)).primitive()


def _integer_part(p: MPoly, idx: list) -> dict:
    """p divided by its content, as integer coefficients on exponent
    tuples that keep the positions idx of p's."""
    cont = p.content()
    num, den = cont.numerator, cont.denominator
    return {tuple(e[i] for i in idx): c.numerator // num * (den // c.denominator)
            for e, c in p.terms.items()}


def _heuristic(f: dict, g: dict):
    """(h, f/h, g/h) with h a gcd over Z of the nonzero integer
    polynomials f and g (dicts on exponent tuples of one length), or None
    when HEU_POINTS evaluation points fail at some level."""
    if () in f:                 # no variables left: two integers
        a, b = f[()], g[()]
        h = math.gcd(a, b)
        return {(): h}, {(): a // h}, {(): b // h}
    cf, f = _split_content(f)
    cg, g = _split_content(g)
    xi = 2 * min(max(map(abs, f.values())), max(map(abs, g.values()))) + 2
    for _ in range(HEU_POINTS):
        ff, gg = _evaluate_first(f, xi), _evaluate_first(g, xi)
        if ff and gg:
            images = _heuristic(ff, gg)
            if images is None:
                return None
            found = _read_back(f, g, images, xi)
            if found is not None:
                c = math.gcd(cf, cg)
                h, cff, cfg = found
                return (_scaled(h, c), _scaled(cff, cf // c),
                        _scaled(cfg, cg // c))
        xi = 73794 * xi * math.isqrt(math.isqrt(xi)) // 27011
    return None


def _split_content(f: dict):
    """(c, f/c) with c the gcd of f's integer coefficients."""
    c = math.gcd(*f.values())
    return c, (f if c == 1 else {e: v // c for e, v in f.items()})


def _scaled(f: dict, c: int) -> dict:
    return f if c == 1 else {e: v * c for e, v in f.items()}


def _evaluate_first(f: dict, xi: int) -> dict:
    """f with its first variable set to xi, on the remaining exponents."""
    powers = {}
    out = {}
    get = out.get
    for e, c in f.items():
        k = e[0]
        power = powers.get(k)
        if power is None:
            power = powers[k] = xi ** k
        rest = e[1:]
        out[rest] = get(rest, 0) + c * power
    return {e: c for e, c in out.items() if c}


def _interpolate(h: dict, xi: int) -> dict:
    """The polynomial whose coefficients in a new first variable are the
    symmetric xi-adic digits of h's coefficients: its value at xi is h."""
    out = {}
    half = xi // 2
    k = 0
    while h:
        rest = {}
        for e, c in h.items():
            digit = c % xi
            if digit > half:
                digit -= xi
            if digit:
                out[(k,) + e] = digit
            c = (c - digit) // xi
            if c:
                rest[e] = c
        h = rest
        k += 1
    return out


def _read_back(f: dict, g: dict, images, xi: int):
    """(h, f/h, g/h) from the images at xi of gcd(f, g) and its
    cofactors: first the interpolated gcd's primitive part, then f and g
    divided by their interpolated cofactors; None if no candidate divides
    both f and g."""
    h_image, cff_image, cfg_image = images
    found = _divides_both(f, g, _split_content(_interpolate(h_image, xi))[1])
    for p, image in ((f, cff_image), (g, cfg_image)):
        if found is None:
            h = _int_divide(p, _interpolate(image, xi))
            if h is not None:
                found = _divides_both(f, g, h)
    return found


def _divides_both(f: dict, g: dict, h: dict):
    """(h, f/h, g/h) if h divides f and g exactly over Z, else None."""
    cff = _int_divide(f, h)
    if cff is None:
        return None
    cfg = _int_divide(g, h)
    return None if cfg is None else (h, cff, cfg)


def _int_divide(f: dict, h: dict):
    """f/h over Z, or None if h does not divide f exactly: exact_divide's
    loop, stopping at the first leading coefficient that does not divide
    or the first negative exponent."""
    quotient, rem = divide_terms(f, h, _int_quotient)
    return None if rem else quotient


def _int_quotient(a: int, b: int):
    q, r = divmod(a, b)
    return None if r else q


def _prs_gcd(p: MPoly, q: MPoly) -> MPoly:
    """Gcd of nonzero p and q by the primitive pseudo-remainder sequence
    in their common variable of least combined degree, with contents
    taken the same way: poly_gcd's fallback.  Its sign and variable tuple
    come from its recursion."""
    p = p.pruned()
    q = q.pruned()
    common = [v for v in p.vars if v in q.vars]
    if not common:
        return MPoly.const(1)
    # main variable: the common one of least combined degree keeps PRS small
    var = min(common, key=lambda v: p.degree(v) + q.degree(v))
    p, q = MPoly.align(p, q)
    cont_p = _content(p, var, _prs_gcd)
    cont_q = _content(q, var, _prs_gcd)
    c = _prs_gcd(cont_p, cont_q)
    a = exact_divide(p, cont_p)
    b = exact_divide(q, cont_q)
    if a.degree(var) < b.degree(var):
        a, b = b, a
    # every b is nonzero and primitive in var: no content pass at the end
    while b.degree(var):
        r = _pseudo_rem(a, b, var)
        if r.is_zero():
            return (c * b).primitive()
        a, b = b, exact_divide(r, _content(r, var, _prs_gcd)).primitive()
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
