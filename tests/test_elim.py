"""Elimination engine: exact factor decisions, derivation, fixture
verdicts."""

import json
from importlib import resources

import pytest

from periodmaps.algebra import MPoly, equal_up_to_scale, parse_poly
from periodmaps import elim
from periodmaps.elim import (
    EliminationProblem, OnVariety, check_fixture, derive, eliminate,
    fixtures_for, make_transitions)
from periodmaps.catalog import MAPS, apply_map, catalog_get
from periodmaps.errors import EliminationError
from periodmaps.varieties import gamma_get, sample_on_variety

X, x, y = (MPoly.var(v) for v in ("X", "x", "y"))
# the line y = 5 with the image X = y
ON_LINE = OnVariety({"X": (y, MPoly.const(1))}, ((y - 5, "y"),))


def test_trivial_linear_elimination():
    prob = EliminationProblem((X - y, y - 5), eliminate=("y",), keep=("X",),
                              variety=ON_LINE)
    out = eliminate(prob)
    assert len(out) == 1
    assert equal_up_to_scale(out[0], parse_poly("X - 5", ("X",)))


def test_problem_validation():
    rel = parse_poly("X - y*z*w", ("X", "y", "z", "w"))
    with pytest.raises(EliminationError):
        EliminationProblem((rel,), ("y", "z", "w"), ("X",), ON_LINE)
    with pytest.raises(EliminationError):
        EliminationProblem((rel,), ("y",), ("y", "X"), ON_LINE)
    with pytest.raises(EliminationError):
        EliminationProblem((rel,), ("y", "z"), ("X",), ON_LINE)


def test_a_monomial_resultant_leaves_no_factor():
    # the resultant in y is x^4 X^4, which stripping monomials makes 1
    variety = OnVariety({"X": (y, MPoly.const(1))}, ((x ** 4 * y ** 4, "y"),))
    prob = EliminationProblem((X - y, x ** 4 * y ** 4), ("y",), ("X", "x"),
                              variety)
    with pytest.raises(EliminationError, match="no nontrivial factor"):
        eliminate(prob)


def test_a_factor_off_the_variety_fails_its_certificate():
    # X - 5 vanishes on the line y = 5, not on the line y = 6
    off = OnVariety({"X": (y, MPoly.const(1))}, ((y - 6, "y"),))
    prob = EliminationProblem((X - y, y - 5), ("y",), ("X",), off)
    with pytest.raises(EliminationError, match="does not vanish"):
        eliminate(prob)


def test_a_denominator_that_vanishes_on_the_variety_is_a_pole():
    with pytest.raises(EliminationError, match="pole in X"):
        OnVariety({"X": (x, y - 5)}, ((y - 5, "y"),))


def test_worked_example_derivation():
    out = derive("example", 3)
    fix = fixtures_for("example", 3)[0]
    assert any(equal_up_to_scale(r, fix.F) for r in out)


def test_derivation_soundness_on_fresh_transitions():
    # the exactly certified polynomials vanish on 24 sampled transitions
    out = derive("lv3", 3)
    m = catalog_get("lv3")
    g = gamma_get("lv3", 3, m=m)
    fresh = []
    for seed in range(500, 524):
        p = sample_on_variety(g, seed)
        fresh.append(dict(zip(("x", "y", "z", "X", "Y", "Z"),
                              p + apply_map(m, p))))
    for r in out:
        scale = 1 + float(r.max_abs_coeff())
        for t in fresh:
            val = r.eval([complex(t.get(v, 0)) for v in r.vars])
            assert abs(val) <= 1e-6 * scale


@pytest.mark.parametrize("name,period,count", [
    ("lv3", 2, 2), ("lv3", 3, 2), ("lv4", 2, 3), ("toda3", 3, 4)])
def test_standard_derivations_reproduce_fixtures(name, period, count):
    out = derive(name, period)
    fixes = fixtures_for(name, period)
    assert len(fixes) == count
    for fix in fixes:
        assert any(equal_up_to_scale(r, fix.F) for r in out), fix.index


def test_moebius_symbolic_derivation():
    out = derive("moebius2d", 5)
    fix = fixtures_for("moebius2d", 5)[0]
    assert any(equal_up_to_scale(r, fix.F) for r in out)


# every elimination the registry records, qrt at two pencils
QRT = ({"qp": (1, 2, 0, 3, 1, 2), "qpp": (0, 1, 1, 0, 2, 1)},
       {"qp": (2, -1, 1, 0, 3, 1), "qpp": (1, 0, -1, 2, 1, 1)})
RECORDED = [(target, period, params)
            for spec in MAPS.values()
            for target, periods in spec.eliminations.items()
            for period in periods
            for params in (QRT if target == "qrt" else (None,))]


def test_exact_decisions_divide_out_only_toda3s_leading_coefficients(
        monkeypatch):
    """Across the recorded problems, the candidates found off the variety
    and divided out are exactly three leading coefficients of toda3's
    relations, and every output certifies."""
    divided = []
    vanishes = OnVariety.vanishes

    def recording(self, f):
        got = vanishes(self, f)
        if not got:
            divided.append(str(f))
        return got
    monkeypatch.setattr(OnVariety, "vanishes", recording)
    for target, period, params in RECORDED:
        for prob in elim.standard_problems(target, period, params):
            out = eliminate(prob)
            assert out and all(prob.variety.vanishes(r) for r in out)
    assert len(RECORDED) == 20
    assert divided == ["X - x - u", "Y*x + Y*u - x*y - x*v - u*v",
                       "U*x + U*u - y*u"]


def test_check_fixture_verdicts():
    # a reproduced fixture is proved by its certified derivation: it
    # passes with no sampled residual
    fix = fixtures_for("lv3", 2)[0]
    v, = check_fixture([fix])
    assert v["behavioral"] and v["symbolic"] and v["pass"]
    assert "max_residual" not in v and "note" not in v


def test_check_fixture_square_root_entries_are_behavioral_only():
    for v in check_fixture(fixtures_for("euler", 3)):
        assert v["behavioral"] and v["pass"]
        assert v["symbolic"] is None
        assert "max_residual" in v


def test_check_fixture_flags_a_wrong_polynomial():
    from periodmaps.elim import Fixture
    bogus = Fixture("lv3", 2, 99,
                    parse_poly("(x-1)*X + x + 1", ("x", "X")))
    v, = check_fixture([bogus])
    assert not v["behavioral"]
    assert v["symbolic"] is False and not v["pass"]
    scale = 1 + float(bogus.F.max_abs_coeff())
    assert v["max_residual"] > elim.TRANSITION_TOL * scale
    assert "suspected transcription or source typo" in v["note"]


def test_transitions_carry_images_and_parameters():
    ts = make_transitions("moebius2d", 3, params={"a": 2, "b": "1/3"})
    assert len(ts) == elim.TRANSITIONS
    for t in ts:
        assert {"x", "y", "X", "Y", "a", "b"} <= set(t)
        assert t["a"] == 2 + 0j


def test_check_fixture_keeps_the_fixture_order():
    fixes = fixtures_for("lv4", 2)
    verdicts = check_fixture(fixes[::-1])
    assert [v["index"] for v in verdicts] == [3, 2, 1]
    assert all(v["behavioral"] and v["symbolic"] for v in verdicts)


def test_registry_eliminations_cover_the_recorded_fixtures():
    # every recorded recurrence but euler's (whose F carries a square
    # root q) is re-derived; the registry may record more (lv3 p4, p5)
    with resources.files("periodmaps.data").joinpath(
            "fixtures.json").open("r", encoding="utf-8") as fh:
        recorded = json.load(fh)
    fixture_pairs = {(name, int(period)) for name in recorded
                     for period in recorded[name] if name != "euler"}
    registry_pairs = {(target, period) for spec in MAPS.values()
                      for target, periods in spec.eliminations.items()
                      for period in periods}
    assert fixture_pairs <= registry_pairs


def test_unknown_standard_problem():
    with pytest.raises(EliminationError):
        derive("euler", 3)
