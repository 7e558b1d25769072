"""Gcd and squarefree-part behaviour, cross-checked against sympy."""

import math
import random
from fractions import Fraction
from functools import lru_cache

import pytest
import sympy
from hypothesis import given, settings, strategies as st

from periodmaps.algebra import (
    MPoly, cofactors, divides, equal_up_to_scale, exact_divide, parse_poly,
    poly_gcd, squarefree_part)

VARS = ("x", "y")

BULK_CASES = 300 + 1000

coeffs = st.fractions(
    min_value=-20, max_value=20, max_denominator=8).filter(lambda c: c != 0)

exponents = st.tuples(st.integers(0, 3), st.integers(0, 2))


@st.composite
def polys(draw, max_terms=4):
    n = draw(st.integers(0, max_terms))
    terms = {}
    for _ in range(n):
        terms[draw(exponents)] = draw(coeffs)
    return MPoly(VARS, terms)


nonzero = polys().filter(lambda p: not p.is_zero())

SPEED = settings(max_examples=50, deadline=None)


@SPEED
@given(nonzero, nonzero)
def test_gcd_divides_both_arguments(p, q):
    g = poly_gcd(p, q)
    assert divides(g, p)
    assert divides(g, q)


@SPEED
@given(nonzero, nonzero, nonzero)
def test_common_factor_survives(g, p, q):
    d = poly_gcd(g * p, g * q)
    assert divides(g.primitive(), d)


@SPEED
@given(nonzero, nonzero)
def test_gcd_symmetric(p, q):
    assert poly_gcd(p, q) == poly_gcd(q, p)


@SPEED
@given(nonzero)
def test_gcd_with_zero_is_primitive_part(p):
    assert poly_gcd(p, MPoly.zero()) == p.primitive()
    assert poly_gcd(MPoly.zero(), p) == p.primitive()
    _check_cofactors(p, MPoly.zero(("z",)))
    _check_cofactors(MPoly.zero(("z",)), p)


def test_gcd_directed_examples():
    x = MPoly.var("x")
    assert poly_gcd(x * x - 1, x * x + 2 * x + 1) == x + 1
    x, y = MPoly.var("x"), MPoly.var("y")
    p = (x + y) * (x - y)
    q = (x + y) * x
    assert poly_gcd(p, q) == x + y
    # coprime pair
    assert poly_gcd(x + 1, x + 2).total_degree() == 0
    # no common variable, and two zeros
    _check_cofactors(x * x - 2 * x, parse_poly("3*z + 1/2", ("y", "z")))
    zeros = MPoly.zero(("x",)), MPoly.zero(("y",))
    assert [r.terms for r in cofactors(*zeros)] == [{}, {}, {}]


def test_squarefree_collapses_multiplicity():
    x = MPoly.var("x")
    p = (x - 1) ** 3 * (x + 2) ** 2 * (x * x + 1)
    sf = squarefree_part(p, "x")
    expect = (x - 1) * (x + 2) * (x * x + 1)
    assert poly_gcd(sf, expect) == expect.primitive()
    assert sf.degree("x") == expect.degree("x")


def test_squarefree_drops_the_content_in_its_variable():
    x, y, X = MPoly.var("x"), MPoly.var("y"), MPoly.var("X")
    p = (x * y + 1) ** 2 * (X * X - x) * (X - y) ** 3
    sf = squarefree_part(p, "X")
    assert equal_up_to_scale(sf, (X * X - x) * (X - y))


def test_squarefree_of_squarefree_is_itself():
    x = MPoly.var("x")
    p = x ** 3 + x + 1
    assert squarefree_part(p, "x") == p


def _random_univariate(rng, max_deg=4):
    deg = rng.randint(1, max_deg)
    terms = {(k,): Fraction(rng.randint(-9, 9)) for k in range(deg)}
    terms[(deg,)] = Fraction(rng.choice([1, 2, 3, -1, -2]))
    return MPoly(("x",), {e: c for e, c in terms.items() if c})


def test_bulk_gcd_matches_sympy():
    """Seeded volume check of univariate gcd against an independent system."""
    rng = random.Random("gcd-bulk")
    xs = sympy.Symbol("x")
    for _ in range(300):
        p = _random_univariate(rng)
        q = _random_univariate(rng)
        g = _random_univariate(rng, max_deg=2)
        ours = poly_gcd(p * g, q * g)
        theirs = sympy.gcd(sympy.sympify(str(p * g).replace("^", "**")),
                           sympy.sympify(str(q * g).replace("^", "**")))
        theirs_p = parse_poly(
            str(sympy.expand(theirs)).replace("**", "^"), ("x",))
        assert ours == theirs_p.primitive()


def test_bulk_gcd_cofactors_are_coprime():
    rng = random.Random("gcd-cofactor")
    for _ in range(1000):
        p = _random_univariate(rng)
        q = _random_univariate(rng)
        g = poly_gcd(p, q)
        a = exact_divide(p, g)
        b = exact_divide(q, g)
        assert poly_gcd(a, b).total_degree() == 0


def _random_poly(rng, variables, max_terms=3):
    terms = {tuple(rng.randint(0, 2) for _ in variables):
             Fraction(rng.randint(-9, 9), rng.randint(1, 4))
             for _ in range(rng.randint(1, max_terms))}
    return MPoly(variables, terms)


def test_bulk_trivariate_gcd_matches_sympy():
    """Seeded gcds with a planted common factor in three variables; sympy
    may order the variables differently, so compare up to scale."""
    rng = random.Random("gcd-trivariate")
    checked = 0
    while checked < 60:
        g, p, q = (_random_poly(rng, ("x", "y", "z")) for _ in range(3))
        if g.is_zero() or p.is_zero() or q.is_zero():
            continue
        ours = poly_gcd(g * p, g * q)
        theirs = sympy.Poly(
            sympy.gcd(sympy.sympify(str(g * p).replace("^", "**")),
                      sympy.sympify(str(g * q).replace("^", "**"))),
            *sympy.symbols("x y z"))
        theirs_p = MPoly(("x", "y", "z"),
                         {e: Fraction(int(c.p), int(c.q))
                          for e, c in theirs.as_dict().items()})
        assert equal_up_to_scale(ours, theirs_p)
        assert ours.content() == 1
        checked += 1


def _squarefree_by_gcd(p, var):
    """p divided by its PRS gcd with the derivative, that gcd taken in p's
    variables with a positive graded-lex leading coefficient."""
    from periodmaps.algebra import gcd
    if p.degree(var) == 0:
        return p
    g = gcd._prs_gcd(p, p.derivative(var)).with_vars(p.vars).primitive()
    return exact_divide(p, g)


def _random_factor(rng, dX):
    terms = {(rng.randint(0, dX), rng.randint(0, 1), rng.randint(0, 1)):
             Fraction(rng.choice([-3, -2, -1, 1, 2, 3]), rng.randint(1, 2))
             for _ in range(rng.randint(1, 3))}
    return MPoly(("X", "x", "y"), terms)


def test_squarefree_matches_the_gcd_route_on_planted_powers():
    """c * f * g^2 * h^3 with c free of X (and g or h sometimes too): the
    result is the PRS route's polynomial in the same variable tuple, and
    p divided by it is primitive with a positive graded-lex leading
    coefficient, whether or not the primitive part had a repeated
    factor."""
    rng = random.Random("squarefree-planted")
    outcomes = set()
    checked = 0
    while checked < 80:
        c = _random_factor(rng, 0)
        f, g, h = (_random_factor(rng, rng.randint(0, 1)) for _ in range(3))
        p = c * f * g * g * h ** 3
        if p.degree("X") == 0:
            continue
        got, want = squarefree_part(p, "X"), _squarefree_by_gcd(p, "X")
        assert got.vars == want.vars and got.terms == want.terms
        divisor = exact_divide(p, got)
        assert divisor.content() == 1 and divisor.leading_coeff() > 0
        outcomes.add(g.degree("X") == h.degree("X") == 0 and
                     poly_gcd(f, f.derivative("X")).total_degree() == 0)
        checked += 1
    assert outcomes == {True, False}


@lru_cache(maxsize=None)
def _lv3_resultant(period, index):
    """(R, V): the resultant in z of lv3's problem index at period, with
    its monomial factors stripped, and the image coordinate V it keeps;
    the polynomial the problem hands to squarefree_part."""
    from periodmaps import elim
    from periodmaps.algebra import strip_var_monomials
    prob = elim.standard_problems("lv3", period)[index]
    V = "XY"[index]
    assert prob.eliminate == ("z",) and V in prob.keep
    polys = [p.with_vars(tuple(sorted(set(p.used_vars())
             | set(prob.eliminate) | set(prob.keep))))
             for p in prob.relations]
    (R,) = elim._eliminate_once(polys, "z")
    return strip_var_monomials(R), V


def _lv3_p4_y_primitive():
    """The primitive part of lv3 period 4's Y resultant."""
    from periodmaps.algebra import poly_content
    R, _ = _lv3_resultant(4, 1)
    return exact_divide(R, poly_content(R, "Y"))


def test_lv3_p4_y_primitive_part_is_its_own_squarefree_part():
    """At x = 1 lv3 p4's Y resultant picks up (Y - 1)^2, though it is
    squarefree: a specialisation can add a square, and squarefree_part,
    which takes no specialisation, returns the primitive part as it is."""
    prim = _lv3_p4_y_primitive()
    unlucky = {"x": 1, "y": 5}
    u = prim.subs_values(unlucky)
    assert u.degree("Y") == prim.degree("Y")
    assert poly_gcd(u, u.derivative("Y")) == parse_poly("Y^2 - 2*Y + 1",
                                                        ("Y",))
    got = squarefree_part(prim, "Y")
    assert got.vars == prim.vars and got.terms == prim.terms


def test_a_square_with_a_vanishing_leading_coefficient_collapses():
    """At x = 0 the square (x*X + 1)^2 specialises to the constant 1, but
    the square itself collapses to x*X + 1."""
    x, X = MPoly.var("x"), MPoly.var("X")
    p = (x * X + 1) ** 2
    assert p.subs_values({"x": 0}) == 1
    assert squarefree_part(p, "X") == _squarefree_by_gcd(p, "X")
    assert squarefree_part(p, "X") == x * X + 1


def _to_sympy(p):
    return sympy.Poly.from_dict(
        {e: sympy.Rational(c.numerator, c.denominator)
         for e, c in p.terms.items()}, *sympy.symbols(p.vars))


def _from_sympy(P, variables):
    return MPoly(variables, {e: Fraction(int(c.p), int(c.q))
                             for e, c in P.as_dict().items()})


def _in_contract(g, p, q):
    """g is primitive, with a positive graded-lex leading coefficient, in
    the variables it uses, ordered as in the aligned inputs."""
    order = MPoly.align(p, q)[0].vars
    assert g.vars == tuple(v for v in order if v in g.used_vars())
    assert g.content() == 1 and g.leading_coeff() > 0


def _check_cofactors(p, q):
    """cofactors gives poly_gcd's gcd, with exact cofactors in the aligned
    variable tuple of (p, q); returns that gcd."""
    h, cp, cq = cofactors(p, q)
    want = poly_gcd(p, q)
    assert h.vars == want.vars and h.terms == want.terms
    order = MPoly.align(p, q)[0].vars
    assert cp.vars == cq.vars == order
    assert h * cp == p and h * cq == q
    return h


def test_heuristic_matches_the_prs_and_sympy_on_planted_factors():
    """g*a and g*b in one to five variables with rational coefficients:
    the heuristic gcd is the PRS's up to sign, sympy's up to scale, and
    keeps the planted g."""
    from periodmaps.algebra import gcd
    rng = random.Random("gcd-heuristic-planted")
    names = ["x", "y", "z", "u", "v"]
    widths = set()
    checked = 0
    while checked < 60:
        variables = tuple(rng.sample(names, rng.randint(1, 5)))
        g, a, b = (_random_poly(rng, variables) for _ in range(3))
        if g.is_zero() or a.is_zero() or b.is_zero():
            continue
        p, q = g * a, g * b
        got = _check_cofactors(p, q)
        _in_contract(got, p, q)
        assert divides(g.primitive(), got)
        ours, prs = MPoly.align(got, gcd._prs_gcd(p, q))
        assert ours.terms in (prs.terms, (-prs).terms)
        theirs = sympy.gcd(_to_sympy(p), _to_sympy(q))
        assert equal_up_to_scale(got, _from_sympy(theirs, p.vars))
        widths.add(len(variables))
        checked += 1
    assert widths == {1, 2, 3, 4, 5}


@pytest.mark.parametrize("period, index", [(4, 0), (4, 1), (5, 0), (5, 1)])
def test_lv3_resultant_gcds_match_sympy(period, index):
    """The content and squarefree gcds of the lv3 resultants that
    elimination takes (147 to 2,731 terms) against sympy, and at period 4
    the content against the PRS's."""
    from periodmaps.algebra import gcd, poly_content
    R, V = _lv3_resultant(period, index)
    content = poly_content(R, V)
    coeffs = [_to_sympy(c) for c in R.as_univariate(V) if not c.is_zero()]
    theirs = coeffs[0]
    for c in coeffs[1:]:
        theirs = sympy.gcd(theirs, c)
    assert equal_up_to_scale(content, _from_sympy(theirs, content.vars))
    if period == 4:
        assert content == gcd._content(R, V, gcd._prs_gcd)
    prim = exact_divide(R, content)
    dprim = prim.derivative(V)
    got = poly_gcd(prim, dprim)
    _in_contract(got, prim, dprim)
    theirs = sympy.gcd(_to_sympy(prim), _to_sympy(dprim))
    assert equal_up_to_scale(got, _from_sympy(theirs, prim.vars))


def test_a_spurious_integer_factor_moves_to_the_next_point(monkeypatch):
    """f = (x + 1)(y + 2) and g = (x + 8)(y + 2) give xi = 2*2 + 2 = 6,
    where x + 1 and x + 8 share the integer factor 7: the candidate read
    back there is f itself, which g rejects, so the next point runs."""
    from periodmaps.algebra import gcd
    x, y = MPoly.var("x", ("x", "y")), MPoly.var("y", ("x", "y"))
    f, g = (x + 1) * (y + 2), (x + 8) * (y + 2)
    assert math.gcd(6 + 1, 6 + 8) == 7
    tried = []
    read_back = gcd._read_back

    def recording(f_, g_, images, xi):
        found = read_back(f_, g_, images, xi)
        if len(next(iter(f_))) == 2:
            tried.append((xi, found is not None))
        return found
    monkeypatch.setattr(gcd, "_read_back", recording)
    assert poly_gcd(f, g) == y + 2
    assert tried[0] == (6, False) and tried[-1][1] and len(tried) == 2


def test_the_prs_fallback_keeps_the_contract(monkeypatch):
    """With no evaluation point left, poly_gcd falls back to the PRS and
    still returns the heuristic's polynomial, variable tuple and sign,
    although the PRS's own tuple or sign differs on some inputs."""
    from periodmaps.algebra import gcd
    rng = random.Random("gcd-fallback")
    cases = []
    while len(cases) < 40:
        variables = tuple(rng.sample(["a", "b", "h", "x"], rng.randint(1, 4)))
        g, a = (_random_poly(rng, variables) for _ in range(2))
        b = _random_poly(rng, tuple(reversed(variables)))
        if not (g.is_zero() or a.is_zero() or b.is_zero()):
            cases.append((g * a, g * b))
    want = [_check_cofactors(p, q) for p, q in cases]
    raw = [gcd._prs_gcd(p, q) for p, q in cases]
    assert any(r.vars != w.vars or r.terms != w.terms
               for r, w in zip(raw, want))
    monkeypatch.setattr(gcd, "HEU_POINTS", 0)
    ran = []
    prs = gcd._prs_gcd

    def counting(p, q):
        ran.append(p)
        return prs(p, q)
    monkeypatch.setattr(gcd, "_prs_gcd", counting)
    for (p, q), w in zip(cases, want):
        got = _check_cofactors(p, q)
        assert got.vars == w.vars and got.terms == w.terms
    assert len(ran) >= len(cases)


def test_lv3_p5_x_problem_reaches_a_certified_squarefree_part(monkeypatch):
    """lv3 period 5's X resultant (989 terms, from the generator with the
    degenerate factor s^2 stripped) has a primitive part f of degree 8 in
    X: its gcd with the derivative, without the PRS, is 1, which
    certifies f squarefree, and squarefree_part returns f itself."""
    from periodmaps.algebra import gcd, poly_content

    def no_prs(p, q):
        raise AssertionError("the PRS fallback ran")
    monkeypatch.setattr(gcd, "_prs_gcd", no_prs)
    R, V = _lv3_resultant(5, 0)
    assert len(R.terms) == 989
    prim = exact_divide(R, poly_content(R, V))
    sf = squarefree_part(R, V)
    assert sf.degree(V) == 8 and len(sf.terms) == 255
    assert poly_gcd(sf, sf.derivative(V)) == 1
    assert sf == prim
