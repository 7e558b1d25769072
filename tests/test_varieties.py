"""Variety catalog: lookup, membership, sampling, recorded spot values."""

from fractions import Fraction

import pytest

from exact_values import exact_value
from periodmaps.algebra import MPoly, compose_parts, parse_poly
from periodmaps.catalog import catalog_get
from periodmaps.errors import UnknownVarietyError
from periodmaps.varieties import (
    available_periods, checksum_cases, gamma_get, membership,
    sample_on_variety)


def test_available_periods_inventory():
    assert available_periods("lv3") == (2, 3, 4, 5)
    assert available_periods("lv4") == (2,)
    assert available_periods("toda3") == (3,)
    assert available_periods("euler") == (3,)
    assert available_periods("moebius2d") == (2, 3, 4, 5, 6)
    assert available_periods("qrt") == (3, 4, 5)
    assert available_periods("lyness5") == ()


def test_unknown_variety_reports_what_exists():
    with pytest.raises(UnknownVarietyError) as err:
        gamma_get("lv3", 7)
    assert err.value.available == (2, 3, 4, 5)


def test_lv3_period2_membership_examples():
    g = gamma_get("lv3", 2)
    # (1-x)(1-y)(1-z) = -1 here, so s + 1 vanishes
    ok, res = membership(g, (2.0, 3.0, 1.5))
    assert ok
    assert res[0] <= 1e-12
    ok, res = membership(g, (2.0, 3.0, 4.0))
    assert not ok
    assert abs(res[0] - 5.0) < 1e-12


def test_moebius_period6_generator_text():
    m = catalog_get("moebius2d", a=2, b=Fraction(1, 3))
    g = gamma_get("moebius2d", 6, m=m)
    want = parse_poly("1 - h + h^2 + 3*a*b*h", ("h", "a", "b")).subs_values(
        {"a": Fraction(2), "b": Fraction(1, 3)})
    assert g.gammas[0] == want


def test_euler_generator_is_in_coordinates():
    m = catalog_get("euler", alpha=Fraction(1, 3), beta=Fraction(1, 5),
                    gamma=Fraction(-2, 7))
    g = gamma_get("euler", 3, m=m)
    assert g.in_coordinates
    assert set(g.gammas[0].used_vars()) <= {"x", "y", "z"}


def test_sampler_is_deterministic_per_seed():
    g = gamma_get("lv3", 3)
    p1 = sample_on_variety(g, 11)
    p2 = sample_on_variety(g, 11)
    p3 = sample_on_variety(g, 12)
    assert p1 == p2
    assert p1 != p3
    ok, _ = membership(g, p1)
    assert ok


def test_sampled_points_lie_on_every_catalogued_variety():
    cases = [("lv3", 2, None), ("lv3", 3, None), ("lv3", 4, None),
             ("lv3", 5, None), ("lv4", 2, None), ("toda3", 3, None),
             ("euler", 3, {"alpha": Fraction(1, 3), "beta": Fraction(1, 5),
                           "gamma": Fraction(-2, 7)}),
             ("moebius2d", 4, {"a": 2, "b": Fraction(1, 3)})]
    for name, period, params in cases:
        g = gamma_get(name, period, params=params)
        for seed in range(3):
            p = sample_on_variety(g, seed)
            ok, res = membership(g, p)
            assert ok, (name, period, seed, res)


def test_gamma5_checksums_match_recorded_values():
    cases = checksum_cases("lv3", 5)
    assert len(cases) >= 5
    g = gamma_get("lv3", 5)
    gamma = g.gammas[0]
    order = tuple(gamma.vars)
    for point, value in cases:
        got = exact_value(gamma, [point[v] for v in order])
        assert got == value


def test_qrt_generator_lives_on_the_pencil():
    m = catalog_get("qrt", qp=(1, 2, 0, 3, 1, 2), qpp=(0, 1, 1, 0, 2, 1))
    g = gamma_get("qrt", 3, m=m)
    assert set(g.gammas[0].used_vars()) <= {"h"}
    # degree in h bounded by the total degree of the parameter polynomial
    assert 1 <= g.gammas[0].degree("h") <= 2


def test_membership_uses_invariant_values():
    g = gamma_get("moebius2d", 2, params={"a": 2, "b": Fraction(1, 3)})
    # h = y(1 + bx) = -1 puts the point on the period-2 variety
    x = 1.5
    y = -1.0 / (1 + (1.0 / 3.0) * x)
    ok, res = membership(g, (x, y))
    assert ok and res[0] <= 1e-12


# float.hex of each coordinate's (real, imag), as the term-by-term
# evaluator over Fraction coefficients produced them: compiling the
# evaluation must not move a single bit of a sampled point
SAMPLED_HEX = {
    ("lv3", 5, 0): [
        ("-0x1.7000000000000p+1", "0x1.0000000000000p+0"),
        ("0x1.8000000000000p+0", "0x1.8000000000000p+0"),
        ("-0x1.2dc207ba89240p-5", "0x1.7c9b2dd71e343p-2")],
    ("toda3", 3, 0): [
        ("-0x1.2000000000000p+1", "0x1.c000000000000p+0"),
        ("0x1.5000000000000p+1", "-0x1.4000000000000p+1"),
        ("-0x1.c000000000000p+0", "0x1.4000000000000p+0"),
        ("-0x1.3000000000000p+1", "0x0.0p+0"),
        ("-0x1.92b980e312f5cp+0", "0x1.93432beb067e7p+1"),
        ("0x1.54ae6038c4bd7p+2", "-0x1.d3432beb067e7p+1")],
}


@pytest.mark.parametrize("name,period,seed", sorted(SAMPLED_HEX))
def test_sampled_points_are_bit_identical(name, period, seed):
    p = sample_on_variety(gamma_get(name, period), seed)
    got = [(c.real.hex(), c.imag.hex()) for c in p]
    assert got == SAMPLED_HEX[(name, period, seed)]


def test_toda_quadratic_is_built_once_per_generator():
    g = gamma_get("toda3", 3)
    q = g.toda_quadratic()
    assert g.toda_quadratic() is q
    assert q.degree("v") == 2 and q.degree("w") == 0
    for seed in range(3):
        sample_on_variety(g, seed)
    assert g.toda_quadratic() is q


def _per_term_composition(p, substitutions):
    """The composition loop compose_parts ran before its power table: each
    term builds its own num^e * den^(deg - e)."""
    subs = {v: r for v, r in substitutions.items() if v in p.vars}
    degs = {v: p.degree(v) for v in subs}
    den = MPoly.const(1)
    for v, r in subs.items():
        den = den * r.den ** degs[v]
    num = MPoly.zero()
    for exps, c in p.sorted_terms():
        term = MPoly.const(c)
        for v, e in zip(p.vars, exps):
            if v in subs:
                r = subs[v]
                term = term * r.num ** e * r.den ** (degs[v] - e)
            elif e:
                term = term * MPoly.var(v) ** e
        num = num + term
    return num, den


EULER = {"alpha": Fraction(1, 3), "beta": Fraction(1, 5),
         "gamma": Fraction(-2, 7)}
MOEBIUS = {"a": Fraction(2), "b": Fraction(1, 3)}
QRT = {"qp": (1, 2, 0, 3, 1, 2), "qpp": (0, 1, 1, 0, 2, 1)}
COMPOSED = ([("lv3", n, None) for n in (2, 3, 4, 5)]
            + [("lv4", 2, None), ("toda3", 3, None), ("euler", 3, EULER)]
            + [("moebius2d", n, MOEBIUS) for n in range(2, 7)]
            + [("qrt", n, QRT) for n in (3, 4, 5)])


@pytest.mark.parametrize("name,period,params", COMPOSED,
                         ids=[f"{n}-{p}" for n, p, _ in COMPOSED])
def test_compose_parts_matches_the_per_term_loop(name, period, params):
    g = gamma_get(name, period, params=params)
    for gamma in g.gammas:
        got = compose_parts(gamma, g.substitution)
        want = _per_term_composition(gamma, g.substitution)
        for p, q in zip(got, want):
            assert p.vars == q.vars
            assert p.terms == q.terms
