"""Multivariate polynomial gcd over the rationals, with its cofactors.

``cofactors`` is the heuristic gcd GCDHEU (Char, Geddes and Gonnet, J.
Symbolic Comput. 1989) over Z.  The inputs, their contents divided out,
have their first variable evaluated at a large integer xi; the gcd of the
images and its integer cofactors are taken the same way down to integers,
then read back xi-adically and kept only if they divide both inputs
exactly, which gives the cofactors too.  With xi at least
2*min(|f|, |g|) + 2 at every level (max-norms of the primitive inputs), a
divisor that passes is the gcd (Geddes, Czapor and Labahn, *Algorithms for
Computer Algebra*, Thm 7.7).  When HEU_POINTS growing points all fail, the
primitive pseudo-remainder sequence ``_prs_gcd`` runs instead, and the
cofactors are divided out.
"""

from __future__ import annotations

import math

from .poly import MPoly, divide_terms, exact_divide, grlex_key

# evaluation points the heuristic tries before it falls back to the PRS
HEU_POINTS = 6


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


def pseudo_rem(p: MPoly, q: MPoly, var: str) -> MPoly:
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
    """Gcd over Q, normalised as cofactors gives it."""
    return cofactors(p, q)[0]


def cofactors(p: MPoly, q: MPoly):
    """(h, p/h, q/h) with h the gcd of p and q over Q.

    Every path returns h primitive, with a positive graded-lex leading
    coefficient, in the variables it uses, ordered as in the aligned
    inputs (p's variables, then q's others): a constant gcd is 1 in no
    variables, and the gcd of p and zero is p so normalised.  The
    cofactors come in the aligned variable tuple, so h * (p/h) == p.
    """
    p, q = MPoly.align(p, q)
    if p.is_zero() or q.is_zero():
        h = _canonical(q if p.is_zero() else p, p.vars)
        return (h, p, q) if h.is_zero() else _divided(h, p, q)
    used_p, used_q = set(p.used_vars()), set(q.used_vars())
    if not used_p & used_q:
        return MPoly.const(1), p, q
    order = tuple(v for v in p.vars if v in used_p or v in used_q)
    idx = [p.vars.index(v) for v in order]
    found = _heuristic(_integer_part(p, idx), _integer_part(q, idx))
    if found is None:
        return _divided(_canonical(_prs_gcd(p, q), p.vars), p, q)
    h, cf, cg = found
    # h is primitive, as f and g are: only its sign is left to fix
    sign = 1 if h[max(h, key=grlex_key)] > 0 else -1
    return (_lifted(h, sign, order).pruned(),
            _lifted(cf, sign * p.content(), order).with_vars(p.vars),
            _lifted(cg, sign * q.content(), order).with_vars(p.vars))


def _divided(h: MPoly, p: MPoly, q: MPoly):
    return h, exact_divide(p, h), exact_divide(q, h)


def _lifted(f: dict, scale, order: tuple) -> MPoly:
    """The integer polynomial f (a fresh dict, taken over) on the
    variables order, times the rational scale."""
    return MPoly._make(order, f) * scale


def _canonical(g: MPoly, order: tuple) -> MPoly:
    """g primitive in the variables it uses, taken in the order of order,
    with a positive graded-lex leading coefficient."""
    used = set(g.used_vars())
    return g.with_vars(tuple(v for v in order if v in used)).primitive()


def _integer_part(p: MPoly, idx: list) -> dict:
    """p divided by its content, as integer coefficients on exponent
    tuples that keep the positions idx of p's.  When nothing changes, that
    is p's own terms dict: ``_heuristic`` only reads its inputs."""
    cont = p.content()
    if cont != 1:
        p = p * (1 / cont)
    if len(idx) == len(p.vars):
        return p.terms
    return {tuple(e[i] for i in idx): c for e, c in p.terms.items()}


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
    taken the same way: the fallback of cofactors, which then divides p
    and q by it.  Its sign and variable tuple come from its recursion."""
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
        r = pseudo_rem(a, b, var)
        if r.is_zero():
            return (c * b).primitive()
        a, b = b, exact_divide(r, _content(r, var, _prs_gcd)).primitive()
    return c.primitive()


def squarefree_part(p: MPoly, var: str) -> MPoly:
    """p with repeated factors (in var) collapsed to multiplicity one and
    its content in var divided out: p's cofactor of gcd(p, dp/dvar).

    Since gcd(C*f, C*f') = C*gcd(f, f') for C free of var, the gcd holds
    p's content in var as well as its repeated factors.
    """
    if p.degree(var) == 0:
        return p
    return cofactors(p, p.derivative(var))[1]
