"""Gcd and squarefree-part behaviour, cross-checked against sympy."""

import random
from fractions import Fraction

import sympy
from hypothesis import given, settings, strategies as st

from periodmaps.algebra import (
    MPoly, divides, equal_up_to_scale, exact_divide, parse_poly, poly_gcd,
    squarefree_part)

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


def test_gcd_directed_examples():
    x = MPoly.var("x")
    assert poly_gcd(x * x - 1, x * x + 2 * x + 1) == x + 1
    x, y = MPoly.var("x"), MPoly.var("y")
    p = (x + y) * (x - y)
    q = (x + y) * x
    assert poly_gcd(p, q) == x + y
    # coprime pair
    assert poly_gcd(x + 1, x + 2).total_degree() == 0


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


def _random_trivariate(rng, max_terms=3):
    terms = {tuple(rng.randint(0, 2) for _ in range(3)):
             Fraction(rng.randint(-9, 9), rng.randint(1, 4))
             for _ in range(rng.randint(1, max_terms))}
    return MPoly(("x", "y", "z"), terms)


def test_bulk_trivariate_gcd_matches_sympy():
    """Seeded gcds with a planted common factor in three variables; sympy
    may order the variables differently, so compare up to scale."""
    rng = random.Random("gcd-trivariate")
    checked = 0
    while checked < 60:
        g, p, q = (_random_trivariate(rng) for _ in range(3))
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
