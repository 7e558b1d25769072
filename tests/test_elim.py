"""Elimination engine: factor filtering, derivation, fixture verdicts."""

import json
from importlib import resources

import pytest

from periodmaps.algebra import MPoly, equal_up_to_scale, parse_poly
from periodmaps.elim import (
    EliminationProblem, check_fixture, default_transitions, derive,
    eliminate, fixtures_for, make_transitions)
from periodmaps.catalog import MAPS
from periodmaps.errors import EliminationError


def test_trivial_linear_elimination():
    rels = (parse_poly("X - y", ("X", "y")), parse_poly("y - 5", ("y",)))
    prob = EliminationProblem(rels, eliminate=("y",), keep=("X",))
    out = eliminate(prob)
    assert len(out) == 1
    assert equal_up_to_scale(out[0], parse_poly("X - 5", ("X",)))


def test_problem_validation():
    rel = parse_poly("X - y*z*w", ("X", "y", "z", "w"))
    with pytest.raises(EliminationError):
        EliminationProblem((rel,), eliminate=("y", "z", "w"), keep=("X",))
    with pytest.raises(EliminationError):
        EliminationProblem((rel,), eliminate=("y",), keep=("y", "X"))
    with pytest.raises(EliminationError):
        EliminationProblem((rel,), eliminate=("y", "z"), keep=("X",))


def test_a_monomial_resultant_leaves_no_factor():
    # the resultant in y is x^4 X^4, which stripping monomials makes 1
    X, x, y = (MPoly.var(v) for v in ("X", "x", "y"))
    prob = EliminationProblem((X - y, x ** 4 * y ** 4), ("y",), ("X", "x"))
    with pytest.raises(EliminationError, match="no nontrivial factor"):
        eliminate(prob)


def test_too_few_transitions_rejected():
    rels = (parse_poly("X - y", ("X", "y")), parse_poly("y - 5", ("y",)))
    prob = EliminationProblem(rels, eliminate=("y",), keep=("X",))
    with pytest.raises(EliminationError):
        eliminate(prob, transitions=[{"X": 5.0}] * 3)


def test_worked_example_derivation():
    ts = default_transitions("example", 3)
    out = derive("example", 3, transitions=ts)
    fix = fixtures_for("example", 3)[0]
    assert any(equal_up_to_scale(r, fix.F) for r in out)


def test_derivation_soundness_on_fresh_transitions():
    # polynomials derived from one batch of transitions vanish on a
    # disjoint, larger batch
    ts = make_transitions("lv3", 3, count=12, base_seed=0)
    out = derive("lv3", 3, transitions=ts)
    fresh = make_transitions("lv3", 3, count=24, base_seed=500)
    for r in out:
        scale = 1 + float(r.max_abs_coeff())
        for t in fresh:
            val = r.eval([complex(t.get(v, 0)) for v in r.vars])
            assert abs(val) <= 1e-6 * scale


@pytest.mark.parametrize("name,period,count", [
    ("lv3", 2, 2), ("lv3", 3, 2), ("lv4", 2, 3), ("toda3", 3, 4)])
def test_standard_derivations_reproduce_fixtures(name, period, count):
    ts = default_transitions(name, period)
    out = derive(name, period, transitions=ts)
    fixes = fixtures_for(name, period)
    assert len(fixes) == count
    for fix in fixes:
        assert any(equal_up_to_scale(r, fix.F) for r in out), fix.index


def test_moebius_symbolic_derivation():
    ts = default_transitions("moebius2d", 5)
    out = derive("moebius2d", 5, transitions=ts)
    fix = fixtures_for("moebius2d", 5)[0]
    assert any(equal_up_to_scale(r, fix.F) for r in out)


def test_the_running_error_bound_leaves_wide_margins(monkeypatch):
    """Every vanishing test of elimination, relative to the running-error
    scale sum |c_i| |m_i(t)|: the factors accepted stay within 1e-13 on
    every transition, the candidates rejected reach 0.1 on some, both
    far from the bound 1e-8.  lv3 p5's factors are among the accepted,
    though the bound 1e-8 * (1 + max |c|) rejected its X factor."""
    from periodmaps import elim
    worst = {True: [], False: []}
    residuals = elim._residuals

    def recording(p, transitions, tol):
        ratios = [r / s for r, s in residuals(p, transitions)]
        accepted = all(q <= tol for q in ratios)
        worst[accepted].append(max(ratios))
        return accepted
    monkeypatch.setattr(elim, "_vanishes", recording)
    pairs = [("example", 3), ("lv3", 2), ("lv3", 3), ("lv3", 4), ("lv3", 5),
             ("lv4", 2), ("toda3", 3), ("moebius2d", 2), ("moebius2d", 5)]
    for name, period in pairs:
        assert derive(name, period,
                      transitions=default_transitions(name, period))
    assert len(worst[True]) == 21 and len(worst[False]) == 50
    assert max(worst[True]) <= 1e-13
    assert min(worst[False]) >= 0.1


def test_check_fixture_verdicts():
    fix = fixtures_for("lv3", 2)[0]
    v, = check_fixture([fix])
    assert v["behavioral"] and v["symbolic"]
    assert v["max_residual"] <= 1e-8 * (1 + float(fix.F.max_abs_coeff()))


def test_check_fixture_square_root_entries_are_behavioral_only():
    for v in check_fixture(fixtures_for("euler", 3)):
        assert v["behavioral"]
        assert v["symbolic"] is None


def test_check_fixture_flags_a_wrong_polynomial():
    from periodmaps.elim import Fixture
    bogus = Fixture("lv3", 2, 99,
                    parse_poly("(x-1)*X + x + 1", ("x", "X")))
    v, = check_fixture([bogus])
    assert not v["behavioral"]
    assert "note" in v


def test_transitions_carry_images_and_parameters():
    ts = make_transitions("moebius2d", 3, count=8,
                          params={"a": 2, "b": "1/3"})
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
