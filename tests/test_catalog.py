"""Map construction, exact steps, and conservation of attached invariants."""

import itertools
import math
import random
from fractions import Fraction

import numpy as np
import pytest

from exact_values import exact_value
from periodmaps.algebra import MPoly, RatFunc
from periodmaps.catalog import (
    MAP_NAMES, IntegrableMap, _verify_invariants, apply_map, catalog_get,
    descriptor, invariants_eval)
from periodmaps.errors import (
    DegenerateParameterError, MissingParameterError, UnknownMapError)

QP = (1, 2, 0, 3, 1, 2)
QPP = (0, 1, 1, 0, 2, 1)

NEEDED = {
    "lyness2": {"a": 7},
    "moebius2d": {"a": 2, "b": Fraction(1, 3)},
    "euler": {"I": 2, "J": 3, "K": 5},
    "qrt": {"qp": QP, "qpp": QPP},
}


def _get(name):
    return catalog_get(name, params=NEEDED.get(name))


def _exact_step(m, pt):
    """One exact step of m's explicit components at a rational point."""
    return tuple(exact_value(c, pt) for c in m.components)


def _conserved_at(m, pt):
    img = _exact_step(m, pt)
    return all(exact_value(h, pt) == exact_value(h, img)
               for h in m.invariants)


def test_every_catalog_map_constructs_and_describes():
    import json
    for name in MAP_NAMES:
        m = _get(name)
        d = descriptor(m)
        json.dumps(d)
        assert d["name"] == name
        assert d["d"] == len(d["vars"])
        assert d["components"] == [str(c) for c in m.components]
        assert sorted(d) == ["components", "d", "invariants", "name",
                             "params", "vars"]


def test_unknown_map_and_missing_parameter():
    with pytest.raises(UnknownMapError):
        catalog_get("noSuchMap")
    with pytest.raises(MissingParameterError):
        catalog_get("lyness2")
    with pytest.raises(MissingParameterError):
        catalog_get("moebius2d", a=1)
    with pytest.raises(MissingParameterError, match="'a'"):
        catalog_get("lv3", a=5)
    with pytest.raises(MissingParameterError, match="'I'"):
        catalog_get("moebius2d", a=2, b=Fraction(1, 3), I=1)


def test_degenerate_moebius_parameters_rejected():
    with pytest.raises(DegenerateParameterError):
        catalog_get("moebius2d", a=2, b=Fraction(1, 2))


# The cache tests use parameters no other test uses, so that test order
# cannot decide what is already built.

def test_a_map_is_built_once_per_normalised_parameters():
    m = catalog_get("moebius2d", a=5, b=Fraction(2, 9))
    assert catalog_get("moebius2d", params={"b": "2/9", "a": "10/2"}) is m
    assert catalog_get("moebius2d", a=5, b=Fraction(1, 9)) is not m


def test_a_rejected_build_raises_on_every_call():
    for _ in range(2):
        with pytest.raises(DegenerateParameterError):
            catalog_get("moebius2d", a=4, b=Fraction(1, 4))


def test_lyness2_exact_two_cycle():
    m = _get("lyness2")
    p = (Fraction(5),)
    q = _exact_step(m, p)
    assert q == (Fraction(7, 5),)
    assert _exact_step(m, q) == p


def test_lv3_step_conserves_invariants_exactly_bulk():
    m = _get("lv3")
    rng = random.Random("catalog-lv3")
    checked = 0
    while checked < 150:
        pt = tuple(Fraction(rng.randint(-30, 30), rng.randint(1, 9))
                   for _ in range(3))
        if any(c == 0 for c in pt):
            continue
        try:
            assert _conserved_at(m, pt)
        except ZeroDivisionError:
            continue
        checked += 1


def test_toda3_step_conserves_invariants_exactly_bulk():
    m = _get("toda3")
    rng = random.Random("catalog-toda")
    checked = 0
    while checked < 60:
        pt = tuple(Fraction(rng.randint(-20, 20), rng.randint(1, 6))
                   for _ in range(6))
        if any(c == 0 for c in pt):
            continue
        try:
            assert _conserved_at(m, pt)
        except ZeroDivisionError:
            continue
        checked += 1


def _lv_invariants_by_subsets(names):
    """The cyclic Lotka-Volterra invariants as sums over nonadjacent
    subsets: h_k sums f_j1 ... f_jk over the k-subsets of Z/d with no two
    cyclically adjacent members, f_j = x_j (1 - x_{j-1}); r = x_1 ... x_d."""
    d = len(names)
    xs = [MPoly.var(v) for v in names]
    f = [xs[j] * (1 - xs[j - 1]) for j in range(d)]
    invs = []
    for k in range(1, d // 2 + 1):
        total = MPoly.zero()
        for combo in itertools.combinations(range(d), k):
            if all((b - a) % d not in (1, d - 1)
                   for a, b in itertools.combinations(combo, 2)):
                total = total + math.prod(
                    (f[j] for j in combo), start=MPoly.const(1))
        invs.append(total.with_vars(names))
    invs.append(math.prod(xs, start=MPoly.const(1)).with_vars(names))
    return invs


def test_lv4_invariants_are_the_nonadjacent_subset_sums():
    m = _get("lv4")
    assert m.invariant_names == ("h1", "h2", "r")
    want = _lv_invariants_by_subsets(m.varnames)
    assert len(want) == 3
    for h, w in zip(m.invariants, want):
        assert h.den == MPoly.const(1)
        assert h.num == w and h.num.vars == m.varnames
        assert str(h) == str(RatFunc(w))


def test_lv4_exact_step_satisfies_defining_relation():
    # X_j (1 - X_{j-1}) = x_j (1 - x_{j+1}) cyclically, as an identity of
    # polynomials once X_j = n_j / d_j is cleared: n_j (d_{j-1} - n_{j-1})
    # = x_j (1 - x_{j+1}) d_j d_{j-1}
    m = _get("lv4")
    xs = [MPoly.var(v).with_vars(m.varnames) for v in m.varnames]
    parts = [(c.num, c.den) for c in m.components]
    for j in range(4):
        (n, d), (n_prev, d_prev) = parts[j], parts[j - 1]
        assert n * (d_prev - n_prev) == \
            xs[j] * (1 - xs[(j + 1) % 4]) * d * d_prev
        # the chain's other solution, X_j = 1 - x_{j+1}, is not the step
        assert n != (1 - xs[(j + 1) % 4]) * d


def test_euler_inertia_invariants_conserved():
    m = _get("euler")
    assert m.invariant_names == ("h1", "h2")
    pt = (Fraction(1, 2), Fraction(-1, 3), Fraction(2, 5))
    assert _conserved_at(m, pt)


def test_euler_generic_alpha_ratio_invariants_conserved():
    m = catalog_get("euler", alpha=Fraction(1, 3), beta=Fraction(1, 5),
                    gamma=Fraction(-2, 7))
    pt = (Fraction(3, 4), Fraction(1, 2), Fraction(-2, 3))
    assert _conserved_at(m, pt)


EULER_PARAMS = [{"I": 2, "J": 3, "K": 5},
                {"alpha": Fraction(1, 3), "beta": Fraction(1, 5),
                 "gamma": Fraction(-2, 7)}]


def _euler_matrix(m, p):
    al, be, ga = (m.params[k] for k in ("alpha", "beta", "gamma"))
    x, y, z = p
    return [[1, -al * z, -al * y], [-be * z, 1, -be * x],
            [-ga * y, -ga * x, 1]]


@pytest.mark.parametrize("params", EULER_PARAMS, ids=["inertia", "alpha"])
def test_euler_exact_step_solves_the_hirota_kimura_system(params):
    # the step is X with A(x) X = x, exactly
    m = catalog_get("euler", params=params)
    assert m.components is not None
    rng = random.Random(f"euler-exact:{sorted(params)}")
    checked = 0
    for _ in range(100):
        if checked == 20:
            break
        pt = tuple(Fraction(rng.randint(-9, 9), rng.randint(1, 7))
                   for _ in range(3))
        try:
            img = _exact_step(m, pt)
        except ZeroDivisionError:
            continue
        A = _euler_matrix(m, pt)
        assert [sum(a * X for a, X in zip(row, img)) for row in A] == \
            list(pt)
        checked += 1
    assert checked == 20


@pytest.mark.parametrize("params", EULER_PARAMS, ids=["inertia", "alpha"])
def test_euler_float_step_matches_a_linear_solve(params):
    m = catalog_get("euler", params=params)
    rng = random.Random(f"euler-float:{sorted(params)}")
    for _ in range(50):
        pt = [complex(rng.uniform(-3, 3), rng.uniform(-3, 3))
              for _ in range(3)]
        A = np.array([[complex(a) for a in row]
                      for row in _euler_matrix(m, pt)])
        want = np.linalg.solve(A, np.array(pt))
        got = apply_map(m, pt)
        for g, w in zip(got, want):
            assert abs(g - w) <= 1e-12 * (1 + abs(w))


def test_numeric_and_exact_steps_agree():
    m = _get("lv3")
    pt = (Fraction(1, 2), Fraction(3, 4), Fraction(-5, 3))
    exact = _exact_step(m, pt)
    numeric = apply_map(m, [complex(c) for c in pt])
    for a, b in zip(numeric, exact):
        assert abs(a - complex(b)) < 1e-12


def test_qrt_invariant_is_conserved_exactly():
    m = _get("qrt")
    pt = (Fraction(1, 3), Fraction(2, 5))
    assert _conserved_at(m, pt)


def test_invariants_eval_matches_components():
    m = _get("lv3")
    pt = (1.5, -0.25, 2.0)
    vals = invariants_eval(m, pt)
    assert abs(vals[0] - (1.5 * -0.25 * 2.0)) < 1e-12


X = MPoly.var("x")


@pytest.mark.parametrize("h", [RatFunc(X), RatFunc(X, X + 1)],
                         ids=["explicit", "explicit-rational"])
def test_invariant_check_rejects_a_non_conserved_invariant(h):
    # x -> x + 1 conserves neither h = x nor h = x/(x + 1)
    m = IntegrableMap(name="shift", varnames=("x",), params={},
                      components=(RatFunc(X + 1),), invariants=(h,),
                      invariant_names=("h",))
    with pytest.raises(AssertionError, match="shift"):
        _verify_invariants(m)


def test_invariant_check_accepts_a_conserved_rational_invariant():
    # x -> 1/x conserves h = (x^2 + 1)/x: the proof clears both the
    # component's denominator and h's
    m = IntegrableMap(name="inversion", varnames=("x",), params={},
                      components=(RatFunc(MPoly.const(1), X),),
                      invariants=(RatFunc(X ** 2 + 1, X),),
                      invariant_names=("h",))
    _verify_invariants(m)
