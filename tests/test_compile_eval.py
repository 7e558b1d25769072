"""Compiled evaluation: a tuple of rational functions as one straight-line
function gives what RatFunc.eval gives, bit for bit, error for error."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from periodmaps.algebra import (MPoly, RatFunc, coefficient_values,
                                compile_eval, roots_of_values)
from periodmaps.catalog import MAP_NAMES, catalog_get
from periodmaps.errors import PoleError, RootFindingError

VARS = ("x", "y", "z")

# parameters for the catalog maps that need some
PARAMS = {
    "lyness2": {"a": 7},
    "euler": {"alpha": Fraction(1, 3), "beta": Fraction(1, 5),
              "gamma": Fraction(-2, 7)},
    "moebius2d": {"a": 2, "b": Fraction(1, 3)},
    "qrt": {"qp": (1, 2, 0, 3, 1, 2), "qpp": (0, 1, 1, 0, 2, 1)},
}


def _outcome(evaluate):
    """The float.hex of each value, or the exception's type and message."""
    try:
        values = evaluate()
    except Exception as exc:    # the comparison is of what is raised
        return type(exc), str(exc)
    return tuple((v.real.hex(), v.imag.hex()) for v in values)


def _same_as_eval(funcs, point):
    """Compiled and interpreted outcomes at point; asserted equal."""
    want = _outcome(lambda: tuple(f.eval(point) for f in funcs))
    got = _outcome(lambda: compile_eval(funcs)(point))
    assert got == want, (funcs, point)
    return got


coeffs = st.fractions(min_value=-20, max_value=20,
                      max_denominator=6).filter(lambda c: c != 0)
exponents = st.tuples(st.integers(0, 3), st.integers(0, 3), st.integers(0, 2))


@st.composite
def polys(draw, width):
    terms = {}
    for _ in range(draw(st.integers(0, 4))):
        terms[draw(exponents)[:width]] = draw(coeffs)
    return MPoly(VARS[:width], terms)


@st.composite
def ratfuncs(draw):
    """num/den over the first 1-3 variables; with a dyadic root r of a
    factor v_j - r of den, so that a point can be put on its zero set."""
    width = draw(st.integers(1, 3))
    num = draw(polys(width))
    den = draw(polys(width).filter(lambda p: not p.is_zero()))
    j = draw(st.integers(0, width - 1))
    r = Fraction(draw(st.integers(-8, 8)), 4)
    if draw(st.booleans()):
        den = den * (MPoly.var(VARS[j]).with_vars(VARS[:width]) - r)
    return RatFunc(num, den), (j, r)


complexes = st.complex_numbers(max_magnitude=4, allow_nan=False,
                               allow_infinity=False)


@settings(max_examples=150, deadline=None)
@given(st.lists(ratfuncs(), min_size=1, max_size=3),
       st.lists(complexes, min_size=0, max_size=4), st.data())
def test_compiled_tuples_match_ratfunc_eval(cases, point, data):
    funcs = tuple(f for f, _ in cases)
    _same_as_eval(funcs, point)
    # on a denominator's zero set: the coordinate at the root r
    j, r = data.draw(st.sampled_from([zero for _, zero in cases]))
    on_zero = list(point) + [1j] * (3 - len(point))
    on_zero[j] = complex(float(r))
    _same_as_eval(funcs, on_zero)
    # overflowing: powers and products leave the float range
    _same_as_eval(funcs, [c * 1e200 + 1e200 for c in point])


def test_every_error_is_met():
    """The checks of both paths are reached: pole, overflow in **, a
    non-finite product and a short point; the second function needs a
    wider point than the first."""
    x, y = MPoly.var("x"), MPoly.var("y")
    funcs = (RatFunc(x ** 3, x - 1), RatFunc(x * y))
    seen = [_same_as_eval(funcs, pt)[0]
            for pt in ([1.0, 1.0], [1e200, 1.0], [2.0, 1e308], [2.0], [])]
    assert [e.__name__ for e in seen] == [
        "PoleError", "OverflowError", "NonFiniteError", "ArityError",
        "ArityError"]


def _on_zero_set(den: MPoly, point):
    """point with den's last used variable moved to a root of den, or None."""
    used = den.used_vars()
    if not used:
        return None
    last = den.vars[max(den.vars.index(v) for v in used)]
    at = dict(zip(den.vars, point))
    try:
        root = roots_of_values(coefficient_values(den, last, at), last)[0]
    except RootFindingError:
        return None
    return [root if v == last else c for v, c in zip(den.vars, point)]


@pytest.mark.parametrize("name", MAP_NAMES)
def test_map_functions_match_ratfunc_eval(name):
    m = catalog_get(name, params=PARAMS.get(name))
    pairs = [(m.invariants, m.invariant_values)]
    if m.components is not None:
        pairs.append((m.components, m.step))
    else:
        assert m.step is None
    rng = random.Random(f"compiled:{name}")
    poles = 0
    for _ in range(40):
        point = [complex(rng.uniform(-3, 3), rng.uniform(-3, 3))
                 for _ in range(m.d)]
        for funcs, compiled in pairs:
            want = _outcome(lambda: tuple(f.eval(point) for f in funcs))
            assert _outcome(lambda: compiled(point)) == want
            _same_as_eval(funcs, [c * 1e200 for c in point])
            for f in funcs:
                zero = _on_zero_set(f.den, point)
                if zero is not None:
                    poles += _same_as_eval(funcs, zero)[0] is PoleError
    if any(f.den.used_vars() for funcs, _ in pairs for f in funcs):
        assert poles
