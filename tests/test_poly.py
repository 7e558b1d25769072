"""Ring and parser properties of the sparse polynomial kernel."""

import math
import random
from fractions import Fraction

import pytest
import sympy
from hypothesis import Phase, given, settings, strategies as st
from sympy.polys.domains import QQ
from sympy.polys.rings import ring

from exact_values import exact_value
from periodmaps.algebra import MPoly, divides, exact_divide, parse_poly, poly
from periodmaps.algebra.poly import divide_terms, grlex_key
from periodmaps.errors import ArityError, InexactDivisionError, ParseError

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
    direct = exact_value(q, point)
    via = exact_value(p, point)
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
    assert exact_value(p, [Fraction(2)]) == Fraction(3, 2) * 4 - Fraction(
        1, 3)


def test_inexact_division_reports_remainder():
    x = MPoly.var("x")
    with pytest.raises(InexactDivisionError) as err:
        exact_divide(x * x + 1, x)
    rem = err.value.remainder
    assert rem == MPoly.const(1, ("x",))
    _assert_canonical(rem)


def _assert_canonical(r: MPoly):
    """The kernel invariant: validated keys; nonzero coefficients, each an
    int, or a Fraction only when it is not integral."""
    assert isinstance(r.vars, tuple)
    for exps, c in r.terms.items():
        assert isinstance(exps, tuple) and len(exps) == len(r.vars)
        assert all(type(e) is int and e >= 0 for e in exps)
        assert type(c) is int or (type(c) is Fraction and c.denominator != 1)
        assert c != 0
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


int_coeffs = st.integers(-50, 50).filter(lambda c: c != 0)


@st.composite
def int_polys(draw, max_terms=6):
    terms = {}
    for _ in range(draw(st.integers(0, max_terms))):
        terms[draw(exponents)] = draw(int_coeffs)
    return MPoly(VARS, terms)


def _all_int(r: MPoly) -> bool:
    return all(type(c) is int for c in r.terms.values())


@LIGHT
@given(int_polys(), int_polys(), st.integers(0, 3), st.sampled_from(VARS))
def test_integer_inputs_give_int_coefficients(p, q, n, v):
    results = [p * q, p + q, p - q, -p, p ** n, p * 3, p.primitive(),
               p.derivative(v), (p * Fraction(2, 3)) * Fraction(3, 2)]
    if not q.is_zero():
        results.append(exact_divide(p * q, q))
        results.append(exact_divide(p * q, q.primitive()))
    for r in results:
        _assert_canonical(r)
        assert _all_int(r)


def test_integral_sums_of_fractions_become_ints():
    half = MPoly.const(Fraction(1, 2), ("x",))
    x = MPoly.var("x")
    for r in (half + half, (x * half) * 2, half * MPoly.const(2, ("x",)),
              exact_divide(x * 3, MPoly.const(Fraction(3, 2), ("x",))),
              parse_poly("4/2*x + 6/3"), MPoly(("x",), {(1,): Fraction(4, 2)}),
              (x * Fraction(1, 3)).derivative("x") * 3):
        _assert_canonical(r)
        assert _all_int(r)


@LIGHT
@given(int_polys(), polys())
def test_scalar_accessors_return_fractions(p, q):
    for r in (p, q, MPoly.zero(VARS)):
        for value in (r.leading_coeff(), r.constant_term(), r.content()):
            assert type(value) is Fraction
    if not p.is_zero():
        # a quotient of two accessors stays exact
        assert p.leading_coeff() / p.content() == Fraction(
            p.leading()[1], math.gcd(*p.terms.values()))


def test_public_constructor_validates_its_input():
    with pytest.raises(ValueError):
        MPoly(("x", "y"), {(1,): 1})
    with pytest.raises(ValueError):
        MPoly(("x",), {(-1,): 1})
    with pytest.raises(TypeError):
        MPoly(("x",), {(1,): 0.5})
    assert MPoly(("x",), {(1,): 2, (2,): 0}).terms == {(1,): Fraction(2)}
    # the one-term constructors keep the same contract
    zero = MPoly.const(0, ("x", "y"))
    assert zero.is_zero() and zero.vars == ("x", "y")
    with pytest.raises(TypeError):
        MPoly.const(0.5, ("x",))
    with pytest.raises(ValueError):
        MPoly.var("z", ("x", "y"))
    for r in (zero, MPoly.const(3, ("x", "y")), MPoly.const(Fraction(1, 2)),
              MPoly.var("y", ("x", "y")), MPoly.var("x"),
              MPoly(("x",), {(1,): True}), MPoly.const(Fraction(6, 3))):
        _assert_canonical(r)


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


# * and exact_divide against sympy's sparse ring at the sizes lv3 p4 and p5
# reach: products of 150 to 2,700 terms
SYM_RING = ring(",".join(SYM_VARS), QQ)[0]


def _factor(rng, n):
    """n terms in SYM_VARS with exponents up to 6; three coefficients in
    four are integers."""
    keys = set()
    while len(keys) < n:
        keys.add(tuple(rng.randint(0, 6) for _ in SYM_VARS))
    return MPoly(SYM_VARS, {
        k: rng.choice((rng.randint(-99, 99), rng.randint(-99, 99),
                       rng.randint(-99, 99),
                       Fraction(rng.randint(-99, 99), rng.randint(2, 5))))
        or 1 for k in sorted(keys)})


def _to_ring(p: MPoly):
    return SYM_RING.from_dict({e: QQ(c.numerator, c.denominator)
                               for e, c in p.terms.items()})


def _from_ring(P) -> MPoly:
    return MPoly(SYM_VARS, {e: Fraction(int(QQ.numer(c)), int(QQ.denom(c)))
                            for e, c in P.items()})


@st.composite
def large_factor_pairs(draw):
    """(g, f): g with 14 to 90 terms, f with 15 to 30, from a drawn seed,
    so g * f has between 150 and 2,700 terms."""
    rng = random.Random(draw(st.integers(0, 2 ** 32)))
    return _factor(rng, rng.randint(14, 90)), _factor(rng, rng.randint(15, 30))


LARGE_ORACLE = settings(max_examples=6, deadline=None,
                        phases=(Phase.explicit, Phase.reuse, Phase.generate))


@LARGE_ORACLE
@given(large_factor_pairs())
def test_large_products_match_sympy(pair):
    g, f = pair
    p = g * f
    assert 150 <= len(p.terms) <= 2700
    assert p == _from_ring(_to_ring(g) * _to_ring(f))
    _assert_canonical(p)


@LARGE_ORACLE
@given(large_factor_pairs())
def test_large_exact_divisions_match_sympy(pair):
    g, f = pair
    p = g * f
    theirs = _to_ring(p).exquo(_to_ring(f))
    for q in (exact_divide(p, f), exact_divide(p, g * f.leading_coeff())):
        _assert_canonical(q)
    assert exact_divide(p, f) == _from_ring(theirs) == g


def _scan_division(p: MPoly, f: MPoly):
    """(quotient, remainder) by the division loop before the heap: the
    remainder's leading term by a max scan per step, Fraction arithmetic."""
    rem = {e: Fraction(c) for e, c in p.terms.items()}
    lt_f = f.leading()[0]
    lc_f = f.leading_coeff()
    quotient = {}
    while rem:
        lt_r = max(rem, key=grlex_key)
        diff = tuple(a - b for a, b in zip(lt_r, lt_f))
        if min(diff) < 0:
            break
        qc = rem[lt_r] / lc_f
        quotient[diff] = qc
        for e, c in f.terms.items():
            m = tuple(a + b for a, b in zip(diff, e))
            s = rem.get(m, 0) - qc * c
            if s:
                rem[m] = s
            else:
                rem.pop(m, None)
    return quotient, rem


@LIGHT
@given(polys(), nonzero_polys, polys(max_terms=3))
def test_division_matches_the_scan_loop(g, f, r):
    """Quotient when exact, else the remainder at the stop, the same as
    the loop that scanned for the leading term."""
    p = g * f + r
    quotient, rem = _scan_division(p, f)
    try:
        got = exact_divide(p, f)
    except InexactDivisionError as err:
        assert rem and err.remainder.terms == rem
        _assert_canonical(err.remainder)
    else:
        assert not rem and got.terms == quotient


def _recording_pushes(monkeypatch):
    pushed = []
    push = poly.heappush

    def recording(heap, item):
        pushed.append(item[-1])
        push(heap, item)
    monkeypatch.setattr(poly, "heappush", recording)
    return pushed


def test_a_cancelled_monomial_that_comes_back_is_divided_off(monkeypatch):
    """x^2 of the dividend cancels at the first step and comes back at the
    second; its first heap entry is then stale, and the division is exact."""
    pushed = _recording_pushes(monkeypatch)
    p = parse_poly("x^4 + 2*x^3 + x^2 - 1")
    q = exact_divide(p, parse_poly("x^2 + x + 1"))
    assert q == parse_poly("x^2 + x - 1")
    assert (2,) in pushed
    _assert_canonical(q)


def test_a_monomial_that_comes_back_stays_in_the_remainder(monkeypatch):
    """x cancels at the first step and comes back at the second, where the
    division stops: the remainder is -x, as the scan loop gives."""
    pushed = _recording_pushes(monkeypatch)
    p, f = parse_poly("x^3 + 2*x^2 + x + 1"), parse_poly("x^2 + x + 1")
    with pytest.raises(InexactDivisionError) as err:
        exact_divide(p, f)
    assert err.value.remainder == parse_poly("-x")
    assert err.value.remainder.terms == _scan_division(p, f)[1]
    assert (1,) in pushed


def test_integer_division_stops_at_a_leading_coefficient_that_does_not_divide():
    from periodmaps.algebra.gcd import _int_divide, _int_quotient
    two_x_plus_one = {(1,): 2, (0,): 1}
    assert _int_divide({(2,): 2, (1,): 3, (0,): 1}, two_x_plus_one) == {
        (1,): 1, (0,): 1}
    # 2x^2 + 2x + 1: x divides off, then 1 is not a multiple of 2
    f = {(2,): 2, (1,): 2, (0,): 1}
    assert divide_terms(f, two_x_plus_one, _int_quotient) == (
        {(1,): 1}, {(1,): 1, (0,): 1})
    assert _int_divide(f, two_x_plus_one) is None
    # over Q the division goes on, to the remainder 1/2
    with pytest.raises(InexactDivisionError) as err:
        exact_divide(MPoly(("x",), f), MPoly(("x",), two_x_plus_one))
    assert err.value.remainder.terms == {(0,): Fraction(1, 2)}
    # x + 1 by 2x + 2 stops at once over Z and is 1/2 over Q
    assert divide_terms({(1,): 1, (0,): 1}, {(1,): 2, (0,): 2},
                        _int_quotient) == ({}, {(1,): 1, (0,): 1})
    assert exact_divide(parse_poly("x + 1"), parse_poly("2*x + 2")) == (
        MPoly.const(Fraction(1, 2), ("x",)))


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
        pv, qv = exact_value(p, pt), exact_value(q, pt)
        assert exact_value(p + q, pt) == pv + qv
        assert exact_value(p * q, pt) == pv * qv
        assert exact_value(p - q, pt) == pv - qv


# -- numeric evaluation ------------------------------------------------------

def _reference_eval(p: MPoly, values):
    """Term-by-term Horner walk over the Fraction coefficients, regrouping
    the terms at every call; eval's compiled plan must match it bit for bit.
    """
    def rec(terms, i):
        if i == len(p.vars):
            return sum(terms.values()) if terms else 0
        groups = {}
        for exps, c in terms.items():
            groups.setdefault(exps[i], {})[exps] = c
        if len(groups) == 1 and 0 in groups:
            return rec(groups[0], i + 1)
        x = values[i]
        acc = 0
        prev = None
        for e in sorted(groups, reverse=True):
            if prev is None:
                acc = rec(groups[e], i + 1)
            else:
                acc = acc * x ** (prev - e) + rec(groups[e], i + 1)
            prev = e
        if prev:
            acc = acc * x ** prev
        return acc

    return complex(rec(p.terms, 0))


EVAL_VARS = ("a", "b", "c", "d")

wide_coeffs = st.fractions(min_value=-10 ** 6, max_value=10 ** 6,
                           max_denominator=10 ** 5).filter(lambda c: c != 0)


@st.composite
def polys_and_points(draw):
    """A polynomial in up to four declared variables, some of them unused
    (trailing ones included), and a complex point at least as long as the
    last used variable; missing trailing coordinates are left out."""
    n = draw(st.integers(0, len(EVAL_VARS)))
    unused = draw(st.sets(st.integers(0, max(n - 1, 0))))
    terms = {}
    for _ in range(draw(st.integers(0, 7))):
        exps = tuple(0 if i in unused else draw(st.integers(0, 5))
                     for i in range(n))
        terms[exps] = draw(wide_coeffs)
    p = MPoly(EVAL_VARS[:n], terms)
    used = [i for i in range(n) if any(e[i] for e in p.terms)]
    length = draw(st.integers(used[-1] + 1 if used else 0, n))
    point = draw(st.lists(
        st.complex_numbers(max_magnitude=3, allow_nan=False,
                           allow_infinity=False),
        min_size=length, max_size=length))
    return p, point


@settings(max_examples=300, deadline=None)
@given(polys_and_points())
def test_eval_is_bit_identical_to_the_term_walk(case):
    p, point = case
    values = [complex(point[i]) if i < len(point) else 0j
              for i in range(len(p.vars))]
    want = _reference_eval(p, values)
    for _ in range(2):      # the compiling call and a cached one
        got = p.eval(point)
        assert (repr(got.real), repr(got.imag)) == (
            repr(want.real), repr(want.imag))


def test_a_second_eval_reuses_the_compiled_plan(monkeypatch):
    calls = []
    compile_ = MPoly._compile

    def counting(self):
        calls.append(self)
        return compile_(self)

    monkeypatch.setattr(MPoly, "_compile", counting)
    p = parse_poly("3/7*x^3*y - x*z^2 + 5", ("x", "y", "z"))
    first = p.eval([1 + 2j, -0.5j, 0.25])
    assert len(calls) == 1
    assert p.eval([1 + 2j, -0.5j, 0.25]) == first
    p.eval([2, 3, 4])
    assert len(calls) == 1


def test_rational_function_eval_converts_the_point_once(monkeypatch):
    """RatFunc.eval gives num.eval / den.eval bit for bit, and the same
    errors, from one conversion of the point shared by both halves."""
    from periodmaps.algebra import RatFunc
    from periodmaps.errors import PoleError
    r = RatFunc(parse_poly("3/7*x^3*y - x*z^2 + 5", ("x", "y", "z")),
                parse_poly("x*y - 2", ("x", "y", "z")))
    points = [[1 + 2j, -0.5j, 0.25], [0.3, 7, -1.5 + 1e-3j], (2, 3, 4, 9)]
    want = [r.num.eval(pt) / r.den.eval(pt) for pt in points]

    def unused(self, point):
        raise AssertionError("RatFunc.eval converted the point per half")
    monkeypatch.setattr(MPoly, "eval", unused)
    for pt, w in zip(points, want):
        got = r.eval(pt)
        assert (got.real.hex(), got.imag.hex()) == (w.real.hex(),
                                                    w.imag.hex())
    with pytest.raises(PoleError):
        r.eval([1, 2, 0])
    with pytest.raises(ArityError, match="point of length 1 for polynomial "
                                         "using 3 variables"):
        r.eval([1j])


def test_compose_parts_takes_a_pair_whose_denominator_has_more_variables():
    """The denominator's variables that the numerator lacks follow the
    numerator's in the result."""
    from periodmaps.algebra import compose_parts
    num, den = compose_parts(parse_poly("h^2 + 1", ("h",)),
                             {"h": (MPoly.var("X"),
                                    parse_poly("x + a", ("x", "a")))})
    assert num.vars == den.vars == ("X", "x", "a")
    assert num == parse_poly("X^2 + (x + a)^2", ("X", "x", "a"))
    assert den == parse_poly("(x + a)^2", ("X", "x", "a"))


def test_a_short_point_is_rejected_on_every_call():
    p = parse_poly("x*y + 1", ("x", "y", "z"))
    for _ in range(3):
        with pytest.raises(ArityError,
                           match="point of length 1 for polynomial using 2 "
                                 "variables"):
            p.eval([1j])
    # the unused trailing variable needs no coordinate
    assert p.eval([2, 3]) == 7


def test_as_univariate_returns_a_new_list_of_the_same_coefficients():
    p = parse_poly("x^2*y + 3*x - y + 2", ("x", "y"))
    want = [p.coeff_of("x", k) for k in range(3)]
    first = p.as_univariate("x")
    assert first == want
    first[0] = MPoly.zero()
    first.append(MPoly.const(1))
    again = p.as_univariate("x")
    assert again is not first
    assert again == want
    assert all(a is b for a, b in zip(again, p.as_univariate("x")))
    assert p.as_univariate("y") == [p.coeff_of("y", 0), p.coeff_of("y", 1)]
