"""Ring and parser properties of the sparse polynomial kernel."""

from fractions import Fraction

import pytest
import sympy
from hypothesis import Phase, given, settings, strategies as st

from periodmaps.algebra import MPoly, divides, exact_divide, parse_poly
from periodmaps.errors import InexactDivisionError, ParseError

VARS = ("x", "y", "z")

BULK_CASES = 4500

coeffs = st.fractions(
    min_value=-50, max_value=50, max_denominator=12).filter(lambda c: c != 0)

exponents = st.tuples(st.integers(0, 4), st.integers(0, 4), st.integers(0, 3))


@st.composite
def polys(draw, max_terms=6):
    n = draw(st.integers(0, max_terms))
    terms = {}
    for _ in range(n):
        terms[draw(exponents)] = draw(coeffs)
    return MPoly(VARS, terms)


nonzero_polys = polys().filter(lambda p: not p.is_zero())

HEAVY = settings(max_examples=120, deadline=None)
LIGHT = settings(max_examples=60, deadline=None)


@HEAVY
@given(polys(), polys(), polys())
def test_addition_associative_commutative(p, q, r):
    assert (p + q) + r == p + (q + r)
    assert p + q == q + p


@HEAVY
@given(polys(), polys(), polys())
def test_multiplication_distributes(p, q, r):
    assert p * (q + r) == p * q + p * r
    assert p * q == q * p


@HEAVY
@given(polys(), polys(), polys())
def test_multiplication_associative(p, q, r):
    assert (p * q) * r == p * (q * r)


@LIGHT
@given(polys())
def test_additive_inverse_and_zero(p):
    assert (p - p).is_zero()
    assert p + MPoly.zero() == p
    assert p * MPoly.const(1) == p
    assert (p * MPoly.zero()).is_zero()


@LIGHT
@given(nonzero_polys, nonzero_polys)
def test_product_degrees_add(p, q):
    assert (p * q).total_degree() == p.total_degree() + q.total_degree()


@LIGHT
@given(nonzero_polys, nonzero_polys)
def test_exact_division_inverts_multiplication(p, q):
    assert exact_divide(p * q, q) == p


@LIGHT
@given(nonzero_polys, nonzero_polys)
def test_divides_after_multiplying(p, q):
    assert divides(q, p * q)


@LIGHT
@given(polys())
def test_parse_round_trip(p):
    assert parse_poly(str(p)) == p


@LIGHT
@given(polys(), st.tuples(*[st.fractions(min_value=-5, max_value=5,
                                         max_denominator=6)] * 3))
def test_exact_eval_is_a_ring_morphism(p, point):
    q = p * p + p
    direct = q.eval_exact(list(point))
    via = p.eval_exact(list(point))
    assert direct == via * via + via


@LIGHT
@given(nonzero_polys)
def test_primitive_has_unit_content(p):
    prim = p.primitive()
    assert prim.content() == Fraction(1)
    assert divides(prim, p)


def test_parse_rejects_undeclared_variable():
    with pytest.raises(ParseError):
        parse_poly("x + w", ("x", "y"))


def test_parse_rational_coefficients():
    p = parse_poly("3/2*x^2 - 1/3", ("x",))
    assert p.eval_exact([Fraction(2)]) == Fraction(3, 2) * 4 - Fraction(1, 3)


def test_inexact_division_reports_remainder():
    x = MPoly.var("x")
    with pytest.raises(InexactDivisionError) as err:
        exact_divide(x * x + 1, x)
    rem = err.value.remainder
    assert rem == MPoly.const(1, ("x",))
    _assert_canonical(rem)


def _assert_canonical(r: MPoly):
    """The kernel invariant: validated keys, nonzero Fraction coefficients."""
    assert isinstance(r.vars, tuple)
    for exps, c in r.terms.items():
        assert isinstance(exps, tuple) and len(exps) == len(r.vars)
        assert all(type(e) is int and e >= 0 for e in exps)
        assert type(c) is Fraction and c != 0
    assert MPoly(r.vars, r.terms).terms == r.terms


@HEAVY
@given(polys(), polys(), coeffs, st.integers(0, 3), st.sampled_from(VARS))
def test_ring_operations_keep_the_kernel_invariant(p, q, c, n, v):
    shuffled = q.with_vars(("w", "z", "x", "y"))
    results = [
        p + q, p - q, p + shuffled, p - shuffled, p - p, p + (-p),
        p + (q - p), -p, p * c, c * p, p * 3, p * 0, p * q, p * shuffled,
        p ** n, p.coeff_of(v, 1), (p * q).coeff_of(v, 0), p.derivative(v),
        p.with_vars(("w",) + VARS), (p * shuffled).pruned(),
    ]
    if not q.is_zero():
        results.append(exact_divide(p * q, q))
        try:
            results.append(exact_divide(p + 1, q))
        except InexactDivisionError as err:
            results.append(err.remainder)
    for r in results:
        _assert_canonical(r)


def test_public_constructor_validates_its_input():
    with pytest.raises(ValueError):
        MPoly(("x", "y"), {(1,): 1})
    with pytest.raises(ValueError):
        MPoly(("x",), {(-1,): 1})
    with pytest.raises(TypeError):
        MPoly(("x",), {(1,): 0.5})
    assert MPoly(("x",), {(1,): 2, (2,): 0}).terms == {(1,): Fraction(2)}


# exact_divide against sympy's div, at the sizes elimination reaches
SYM_VARS = ("x", "y", "z", "w")
SYM_GENS = sympy.symbols(SYM_VARS)


@st.composite
def wide_polys(draw, nvars):
    """A polynomial in the first nvars of SYM_VARS with 20 to 40 terms."""
    n = draw(st.integers(20, 40))
    keys = draw(st.lists(st.tuples(*[st.integers(0, 4)] * nvars),
                         min_size=n, max_size=n, unique=True))
    pad = (0,) * (len(SYM_VARS) - nvars)
    return MPoly(SYM_VARS, {k + pad: draw(coeffs) for k in keys})


def _to_sympy(p: MPoly):
    return sympy.Poly.from_dict(
        {e: sympy.Rational(c.numerator, c.denominator)
         for e, c in p.terms.items()}, *SYM_GENS)


def _from_sympy(P) -> MPoly:
    return MPoly(SYM_VARS, {e: Fraction(int(c.p), int(c.q))
                            for e, c in P.as_dict().items()})


# no shrinking: shrinking inputs this large through sympy takes minutes
SYMPY_ORACLE = settings(max_examples=12, deadline=None,
                        phases=(Phase.explicit, Phase.reuse, Phase.generate))


@SYMPY_ORACLE
@given(st.integers(3, 4).flatmap(lambda k: st.tuples(wide_polys(k),
                                                      wide_polys(k))))
def test_exact_divide_matches_sympy_div(pair):
    g, f = pair
    p = g * f
    q = exact_divide(p, f)
    theirs, rem = sympy.div(_to_sympy(p), _to_sympy(f))
    assert rem.is_zero
    assert q == _from_sympy(theirs) == g
    _assert_canonical(q)


@SYMPY_ORACLE
@given(st.integers(3, 4).flatmap(lambda k: st.tuples(wide_polys(k),
                                                      wide_polys(k))),
       polys(max_terms=8))
def test_exact_divide_rejects_a_non_multiple(pair, r):
    g, f = pair
    # a nonzero r of lower total degree than f keeps p off the multiples of f
    low = {e + (0,): c for e, c in r.terms.items()
           if sum(e) < f.total_degree()}
    r = MPoly(SYM_VARS, low) if low else MPoly.const(1, SYM_VARS)
    p = g * f + r
    with pytest.raises(InexactDivisionError) as err:
        exact_divide(p, f)
    rem = err.value.remainder
    assert not rem.is_zero()
    _assert_canonical(rem)
    lt_r, lt_f = rem.leading()[0], f.leading()[0]
    assert any(a < b for a, b in zip(lt_r, lt_f))
    # what was divided off before the failure is a multiple of f
    _, theirs = sympy.div(_to_sympy(p - rem), _to_sympy(f))
    assert theirs.is_zero
    assert not sympy.div(_to_sympy(p), _to_sympy(f))[1].is_zero


def test_derivative_product_rule():
    x, y = MPoly.var("x"), MPoly.var("y")
    p = x * x * y + 3 * y
    q = x * y - 1
    lhs = (p * q).derivative("x")
    rhs = p.derivative("x") * q + p * q.derivative("x")
    assert lhs == rhs


def _random_poly(rng, nterms=4, nvars=3, maxdeg=3):
    terms = {}
    for _ in range(rng.randint(0, nterms)):
        exps = tuple(rng.randint(0, maxdeg) for _ in range(nvars))
        terms[exps] = Fraction(rng.randint(-30, 30), rng.randint(1, 8))
    return MPoly(VARS, terms)


def test_bulk_ring_laws_at_random_points():
    """High-volume seeded check that ring ops commute with evaluation."""
    import random
    rng = random.Random("poly-bulk")
    for _ in range(BULK_CASES):
        p = _random_poly(rng)
        q = _random_poly(rng)
        pt = [Fraction(rng.randint(-6, 6), rng.randint(1, 4))
              for _ in range(3)]
        pv, qv = p.eval_exact(pt), q.eval_exact(pt)
        assert (p + q).eval_exact(pt) == pv + qv
        assert (p * q).eval_exact(pt) == pv * qv
        assert (p - q).eval_exact(pt) == pv - qv
