"""Sylvester resultant and Bareiss determinant checks."""

import random
from fractions import Fraction

import pytest
import sympy

from periodmaps.algebra import (
    MPoly, det_bareiss, parse_poly, resultant, sylvester_matrix)
from periodmaps.errors import NothingToEliminateError


BULK_CASES = 200 + 150 + 150


def _sym(p):
    return sympy.sympify(str(p).replace("^", "**"))


def _random_biv(rng, dx=2, dy=1, terms=4):
    out = {}
    for _ in range(rng.randint(1, terms)):
        out[(rng.randint(0, dx), rng.randint(0, dy))] = Fraction(
            rng.randint(-8, 8))
    p = MPoly(("x", "y"), {e: c for e, c in out.items() if c})
    return p


def test_resultant_matches_sympy_bulk():
    rng = random.Random("res-bulk")
    x, y = sympy.symbols("x y")
    checked = 0
    while checked < 200:
        p = _random_biv(rng)
        q = _random_biv(rng)
        if p.degree("x") == 0 or q.degree("x") == 0:
            continue
        ours = resultant(p, q, "x")
        theirs = sympy.resultant(_sym(p), _sym(q), x)
        theirs_p = parse_poly(
            str(sympy.expand(theirs)).replace("**", "^"), ("x", "y"))
        assert ours == theirs_p
        checked += 1


def test_resultant_vanishes_on_shared_factor():
    rng = random.Random("res-shared")
    for _ in range(150):
        p = _random_biv(rng)
        q = _random_biv(rng)
        s = _random_biv(rng, dx=1, dy=1, terms=3)
        if s.degree("x") == 0 or p.is_zero() or q.is_zero():
            continue
        assert resultant(p * s, q * s, "x").is_zero()


def test_resultant_swap_sign():
    x, y = MPoly.var("x"), MPoly.var("y")
    p = x * x + y
    q = x * y - 2
    m, n = p.degree("x"), q.degree("x")
    lhs = resultant(p, q, "x")
    rhs = resultant(q, p, "x")
    assert lhs == rhs * (-1) ** (m * n)


def test_resultant_of_linear_pair_is_cross_difference():
    # Res(ax+b, cx+d) = ad - bc up to the standard convention
    x = MPoly.var("x")
    p = 3 * x + 5
    q = 2 * x - 7
    assert resultant(p, q, "x") == MPoly.const(3 * (-7) - 5 * 2)


def test_resultant_rejects_constant_argument():
    x = MPoly.var("x")
    with pytest.raises(NothingToEliminateError):
        resultant(x + 1, MPoly.const(4), "x")


def test_sylvester_matrix_shape():
    x, y = MPoly.var("x"), MPoly.var("y")
    rows = sylvester_matrix(x ** 3 + y, x * x - 1, "x")
    assert len(rows) == 5
    assert all(len(r) == 5 for r in rows)


def test_det_bareiss_matches_fraction_determinant():
    rng = random.Random("det-bulk")
    for _ in range(150):
        n = rng.randint(1, 4)
        rows = [[Fraction(rng.randint(-6, 6), rng.randint(1, 3))
                 for _ in range(n)] for _ in range(n)]
        ours = det_bareiss([[MPoly.const(c) for c in row] for row in rows])
        theirs = sympy.Matrix(n, n, [sympy.Rational(c) for row in rows
                                     for c in row]).det()
        assert ours == MPoly.const(Fraction(int(theirs.p), int(theirs.q)))


def test_det_bareiss_singular_matrix_is_zero():
    x = MPoly.var("x")
    rows = [[x, x + 1], [2 * x, 2 * x + 2]]
    assert det_bareiss(rows).is_zero()


def _assert_same_polynomial(ours, theirs):
    """Equal variable tuples and terms, hence the same printed term order."""
    assert ours.vars == theirs.vars
    assert ours.terms == theirs.terms
    assert str(ours) == str(theirs)


def _recorded_resultants(monkeypatch, pairs):
    """(pivot, other, var, result) of every resultant the recorded
    elimination setups of pairs make, factor filtering left out."""
    from periodmaps import elim
    calls = []
    original = elim.resultant

    def recording(p, q, var):
        r = original(p, q, var)
        calls.append((p, q, var, r))
        return r
    monkeypatch.setattr(elim, "resultant", recording)
    monkeypatch.setattr(elim, "_filter_factors", lambda p, *args: p)
    for name, period in pairs:
        for prob in elim.standard_problems(name, period,
                                           SETUP_PARAMS.get(name)):
            elim.eliminate(prob)
    return calls


# a map with no symbolic relations is eliminated at given parameters
SETUP_PARAMS = {"qrt": {"qp": (1, 2, 0, 3, 1, 2), "qpp": (0, 1, 1, 0, 2, 1)}}


def _setups():
    from periodmaps.catalog import MAPS
    return [(name, period) for spec in MAPS.values()
            for name, periods in spec.eliminations.items()
            for period in periods]


def test_linear_pivot_resultant_equals_bareiss_on_recorded_setups(
        monkeypatch):
    """Every recorded setup pivots on a polynomial of degree 1; the
    substitution gives Bareiss's polynomial in Bareiss's variable tuple.
    lv3 p5 is checked separately: its Bareiss determinants take 30 s."""
    pairs = [pair for pair in _setups() if pair != ("lv3", 5)]
    calls = _recorded_resultants(monkeypatch, pairs)
    assert len(calls) == 32
    for p, q, var, r in calls:
        assert p.degree(var) == 1
        _assert_same_polynomial(r, det_bareiss(sylvester_matrix(p, q, var)))


def test_lv3_p5_resultants_agree_with_bareiss_at_integer_points(
        monkeypatch):
    """A determinant commutes with specialising its entries, so the
    substitution resultant at a point equals the Sylvester determinant of
    the specialised coefficients."""
    calls = _recorded_resultants(monkeypatch, [("lv3", 5)])
    assert len(calls) == 2
    rng = random.Random("res-lv3-p5")
    for p, q, var, r in calls:
        p, q = MPoly.align(p, q)
        assert r.vars == tuple(v for v in p.vars if v != var)
        for _ in range(3):
            point = [Fraction(rng.randint(-9, 9)) for _ in r.vars]
            rows = [[MPoly.const(c.with_vars(r.vars).eval_exact(point))
                     for c in row]
                    for row in sylvester_matrix(p, q, var)]
            assert MPoly.const(r.eval_exact(point)) == det_bareiss(rows)


def _random_poly(rng, variables, dmax=2, terms=4):
    out = {tuple(rng.randint(0, dmax) for _ in variables):
           Fraction(rng.randint(-6, 6), rng.randint(1, 3))
           for _ in range(rng.randint(1, terms))}
    return MPoly(variables, out)


def test_linear_pivot_resultant_equals_bareiss_seeded():
    """Pivots a*v + b whose a is non-constant or has a negative leading
    coefficient, against partners over another variable order."""
    rng = random.Random("res-linear-pivot")
    checked = 0
    while checked < 150:
        a = _random_poly(rng, ("y", "z"))
        b = _random_poly(rng, ("z", "y"))
        if a.is_zero() or (a.total_degree() == 0 and a.leading_coeff() > 0):
            continue
        v = MPoly.var("v", ("v", "z", "y"))
        pivot = v * a + b
        other = _random_poly(rng, ("z", "v", "w"), dmax=3)
        if other.degree("v") == 0:
            continue
        for p, q in ((pivot, other), (pivot, other * pivot + 1)):
            _assert_same_polynomial(
                resultant(p, q, "v"),
                det_bareiss(sylvester_matrix(p, q, "v")))
        checked += 1
