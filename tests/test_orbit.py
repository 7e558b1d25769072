"""Orbit verdicts: return tests, primitivity, drift, exclusivity."""

from fractions import Fraction

import pytest

from periodmaps.catalog import catalog_get
from periodmaps.errors import PoleError
from periodmaps.orbit import exclusivity_scan, iterate, orbit_csv, verify_period
from periodmaps.varieties import gamma_get, sample_on_variety


def test_lyness5_classic_cycle():
    m = catalog_get("lyness5")
    rep = verify_period(m, (1.0, 1.0), 5)
    assert rep.passed(1e-12)
    assert rep.primitive and not rep.fixed_point
    seq = [p[0].real for p in rep.points]
    assert seq == pytest.approx([1, 2, 3, 2, 1, 1], abs=1e-12)


def test_lyness8_classic_cycle():
    m = catalog_get("lyness8")
    rep = verify_period(m, (1.0, 1.0, 1.0), 8)
    assert rep.passed(1e-12) and rep.primitive
    seq = [p[0].real for p in rep.points]
    assert seq == pytest.approx([1, 3, 5, 9, 5, 3, 1, 1, 1], abs=1e-11)


def test_passed_bounds_the_return_error_by_its_own_tol():
    # primitivity is decided at verify_period's tol; passed's tol still
    # bounds the return error (the drift here is exactly zero)
    rep = verify_period(catalog_get("lyness5"), (0.3, 1.7), 5, tol=1e-9)
    assert rep.primitive and rep.drift == 0.0
    assert 1e-17 < rep.return_error < 1e-16
    assert rep.passed(1e-16) and not rep.passed(1e-17)


def test_lyness2_period_two():
    m = catalog_get("lyness2", a=7)
    rep = verify_period(m, (5.0,), 2)
    assert rep.passed(1e-12) and rep.primitive
    assert rep.points[1][0] == pytest.approx(1.4)


def test_fixed_point_is_not_a_period():
    m = catalog_get("lyness2", a=25)
    rep = verify_period(m, (5.0,), 2)
    assert rep.fixed_point
    assert not rep.passed(1e-9)


def test_non_primitive_multiple_flagged():
    m = catalog_get("lyness5")
    rep = verify_period(m, (1.0, 1.0), 10)
    assert rep.return_error <= 1e-11
    assert not rep.primitive


def test_period_below_two_rejected():
    m = catalog_get("lyness5")
    with pytest.raises(ValueError):
        verify_period(m, (1.0, 1.0), 1)


def test_drift_is_zero_without_invariants():
    m = catalog_get("lyness5")
    assert verify_period(m, (1.25, 0.75), 7).drift == 0.0


def test_lv3_conservation_along_generic_orbit():
    m = catalog_get("lv3")
    assert verify_period(m, (0.4, 1.7, -2.3), 12).drift <= 1e-10


def test_exclusivity_generic_point_returns_nowhere():
    m = catalog_get("lv3")
    flags = exclusivity_scan(m, (2.0, 3.0, 4.0), 12)
    assert flags == [False] * 11


def test_exclusivity_on_variety_point_returns_at_multiples():
    m = catalog_get("lv3")
    g = gamma_get("lv3", 3, m=m)
    p = sample_on_variety(g, 0)
    flags = exclusivity_scan(m, p, 12, tol=1e-7)
    hits = [n for n, f in zip(range(2, 13), flags) if f]
    assert hits == [3, 6, 9, 12]


def test_pole_reports_the_step():
    m = catalog_get("lyness2", a=3)
    with pytest.raises(PoleError) as err:
        iterate(m, (0.0,), 2)
    assert err.value.step == 1


def test_orbit_csv_layout():
    m = catalog_get("lyness5")
    pts = iterate(m, (1.0, 1.0), 5)
    text = orbit_csv(pts, m.varnames)
    lines = text.strip().split("\n")
    assert lines[0] == "step,re_x,im_x,re_y,im_y"
    assert len(lines) == 7
    assert lines[1].startswith("0,1.0,0.0,1.0,0.0")
