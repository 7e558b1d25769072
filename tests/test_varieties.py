"""Variety catalog: lookup, membership, sampling, recorded spot values."""

import hashlib
import random
from fractions import Fraction

import pytest

from exact_values import exact_value
from periodmaps.algebra import MPoly, compose_parts, divides, parse_poly
from periodmaps.catalog import apply_map, catalog_get, rel_dist
from periodmaps.data import VARIETIES
from periodmaps.errors import UnknownVarietyError
from periodmaps.orbit import verify_period
from periodmaps.varieties import (
    MEMBER_TOL, _draw_coord, available_periods, checksum_cases, gamma_get,
    membership, sample_on_variety)


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
    # the checksums were taken of the recorded text, before the build
    # strips the degenerate factor s^2 from it
    cases = checksum_cases("lv3", 5)
    assert len(cases) >= 5
    entry = VARIETIES["lv3"]
    gamma = parse_poly(entry["periods"]["5"][0], entry["symbols"])
    order = tuple(gamma.vars)
    for point, value in cases:
        got = exact_value(gamma, [point[v] for v in order])
        assert got == value


# points of the degenerate locus s = 0, on x = 1 and on y = 1, whose
# orbits do not return after 2, 3, 4 or 5 steps
LOCUS_PROBES = [(1, 0.3 + 0.2j, -0.7 + 1j), (0.4 - 1j, 1, 2.5 + 0.5j)]


@pytest.mark.parametrize("period", [2, 3, 4, 5])
@pytest.mark.parametrize("point", LOCUS_PROBES, ids=["x=1", "y=1"])
def test_lv3_membership_rejects_points_of_the_degenerate_locus(period, point):
    assert not verify_period(catalog_get("lv3"), point, period).passed(1e-9)
    ok, res = membership(gamma_get("lv3", period), point)
    assert not ok and res[0] > 1e-2


def test_the_sampler_redraws_a_point_on_the_degenerate_locus():
    # lv3's first draw at period 2, seed 511, is on y = 1, where s = 0
    rng = random.Random("variety:lv3:2:511")
    assert tuple(_draw_coord(rng) for _ in range(2))[1] == 1
    p = sample_on_variety(gamma_get("lv3", 2), 511)
    assert 1 not in p
    assert verify_period(catalog_get("lv3"), p, 2).passed(1e-9)


def test_lv3_generators_carry_no_power_of_s():
    # gamma_5 is recorded with the factor s^2, which the build strips
    for period in available_periods("lv3"):
        gamma = gamma_get("lv3", period).gammas[0]
        assert not divides(MPoly.var("s"), gamma), period
    assert len(gamma_get("lv3", 5).gammas[0].terms) == 24


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


# float.hex of each coordinate's (real, imag): no change to evaluation may
# move a single bit of a sampled point.  lv3 p5's were taken again when its
# generator lost the degenerate factor s^2, and toda3's when w came to be
# solved from t1 and polished like every other root
SAMPLED_HEX = {
    ("lv3", 5, 0): [
        ("-0x1.7000000000000p+1", "0x1.0000000000000p+0"),
        ("0x1.8000000000000p+0", "0x1.8000000000000p+0"),
        ("-0x1.2dc207ba8922ap-5", "0x1.7c9b2dd71e344p-2")],
    ("toda3", 3, 0): [
        ("-0x1.2000000000000p+1", "0x1.c000000000000p+0"),
        ("0x1.5000000000000p+1", "-0x1.4000000000000p+1"),
        ("-0x1.c000000000000p+0", "0x1.4000000000000p+0"),
        ("-0x1.3000000000000p+1", "0x0.0p+0"),
        ("-0x1.92b980e312f5dp+0", "0x1.93432beb067e6p+1"),
        ("0x1.54ae6038c4bd7p+2", "-0x1.d3432beb067e6p+1")],
}

# the same pin over seeds 0-49 at the parameters below: the sha256 of
# "re,im;" per coordinate, as float.hex
SAMPLED_PARAMS = {
    "euler": {"alpha": Fraction(1, 3), "beta": Fraction(1, 5),
              "gamma": Fraction(-2, 7)},
    "moebius2d": {"a": 2, "b": Fraction(1, 3)},
    "qrt": {"qp": (1, 2, 0, 3, 1, 2), "qpp": (0, 1, 1, 0, 2, 1)},
}
SAMPLED_SHA256 = {
    ("lv3", 2, "0-49"):
        "7ccf1150cbc373ac4e3ab185272a74c28f10bb895a482e3d2c57f5c290a47bd8",
    ("lv3", 3, "0-49"):
        "bf16d772f34a5e5d8aace474055c9d4438aa9c38a6f4a33b1e154bbad982494d",
    ("lv3", 4, "0-49"):
        "b65e87adb77d4939610190531985d3ffe218f0b83796820dc91219adc6b8c70c",
    ("lv3", 5, "0-49"):
        "65b8cb73163d752bcf2407863e24005166287018a4a8748b4bb7985dc43e1b1a",
    ("lv4", 2, "0-49"):
        "a7316c5ecfb04cdb7ccab16037f2e81fa62540371afd3a3403c0fd461ea2199c",
    ("euler", 3, "0-49"):
        "bbc732b7c80865cf434fd53fa0a6c8aff2616b7f417802895d1b6d588463082e",
    ("moebius2d", 2, "0-49"):
        "788f6beb98b6ba84b267a12fffca19f89e4e7f149f793cb0e67f6b1418badb58",
    ("moebius2d", 3, "0-49"):
        "b57d33d44d1e3a888faede47e262f400a3aea7ddc22f4b5b8932a8fcfcd9b11c",
    ("moebius2d", 4, "0-49"):
        "d3bb6009f5de61989143c37da7240b06ef7e04be58fc3bbb86643931cfc24a87",
    ("moebius2d", 5, "0-49"):
        "70a87a9fa3e43022c8442ed903b5451c302cb2a93eafe8e26bd4d001fb62a114",
    ("moebius2d", 6, "0-49"):
        "ddac303feaed32fe71e341fd2727a299a27389e83ad9b20551cb2a7eb654b43d",
    ("qrt", 3, "0-49"):
        "8d80995d4a66010e42414cee9553fe78da51c5738effefe045a78d8fc9ecf60e",
    ("qrt", 4, "0-49"):
        "ed693c7f34794b7cbdba1608455c0d6a3b96fd54b458d5e4203a93eed1ae73d5",
}


def _sampled_hex(g, seed):
    return [(c.real.hex(), c.imag.hex()) for c in sample_on_variety(g, seed)]


@pytest.mark.parametrize("name,period,seeds",
                         sorted(SAMPLED_HEX) + sorted(SAMPLED_SHA256))
def test_sampled_points_are_bit_identical(name, period, seeds):
    m = catalog_get(name, params=SAMPLED_PARAMS.get(name))
    g = gamma_get(name, period, m=m)
    if isinstance(seeds, int):
        assert _sampled_hex(g, seeds) == SAMPLED_HEX[(name, period, seeds)]
        return
    first, last = map(int, seeds.split("-"))
    text = "".join(f"{re},{im};" for seed in range(first, last + 1)
                   for re, im in _sampled_hex(g, seed))
    digest = hashlib.sha256(text.encode()).hexdigest()
    assert digest == SAMPLED_SHA256[(name, period, seeds)]


def test_toda3_points_satisfy_t1():
    # w is solved from t1 = x + y + z + u + v + w = 0 and polished
    g = gamma_get("toda3", 3)
    for seed in range(20):
        p = sample_on_variety(g, seed)
        assert abs(sum(p)) <= 1e-12 * (1 + sum(abs(c) for c in p)), seed


def test_the_sampler_redraws_a_fixed_point():
    # at (a, b) = (1, 2), gamma_2 = h + 1 gives y = -1/(1 + 2x), and seed
    # 61's first draw x = (-1 + i)/2 makes (x, y) a fixed point
    m = catalog_get("moebius2d", a=1, b=2)
    rng = random.Random("variety:moebius2d:2:61")
    assert _draw_coord(rng) == complex(-0.5, 0.5)
    p = sample_on_variety(gamma_get("moebius2d", 2, m=m), 61)
    assert rel_dist(apply_map(m, p), p) > MEMBER_TOL
    assert verify_period(m, p, 2).passed(1e-9)


def test_the_chain_is_built_once_per_generator():
    # toda3's second entry is t2 with w eliminated through t1 = 0, which
    # leaves it quadratic in v: the polynomial its sampler solves
    g = gamma_get("toda3", 3)
    chain = g.chain()
    assert g.chain() is chain
    assert [v for _, v in chain] == ["w", "v"]
    assert chain[0][0] is g.composed_numerators()[0]
    q = chain[1][0]
    assert q.degree("v") == 2 and q.degree("w") == 0
    for seed in range(3):
        sample_on_variety(g, seed)
    assert g.chain() is chain


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


def test_every_generator_carries_the_symbols_membership_evaluates_in():
    # membership evaluates each generator at the invariant values (or the
    # coordinates) position by position, so an entry whose symbols came in
    # another order would be evaluated at permuted values
    assert {(n, p) for n, p, _ in COMPOSED} == {
        (n, int(p)) for n, e in VARIETIES.items() for p in e["periods"]}
    for name, period, params in COMPOSED:
        g = gamma_get(name, period, params=params)
        symbols = tuple(VARIETIES[name]["symbols"])
        assert symbols == (g.owner.varnames if g.in_coordinates
                           else g.owner.invariant_names)
        assert all(gamma.vars == symbols for gamma in g.gammas)
