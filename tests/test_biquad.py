"""Symmetric biquadratic correspondences: the formula and its generators."""

from fractions import Fraction

import pytest

from exact_values import exact_value
from periodmaps.algebra import MPoly, compose_parts
from periodmaps.biquad import GAMMAS, from_3dlv_symbolic, s_value
from periodmaps.catalog import catalog_get
from periodmaps.orbit import verify_period
from periodmaps.varieties import gamma_get, sample_on_variety

Q = tuple(Fraction(c) for c in (1, -2, 3, 1, 2, -1))


def test_s_value_is_symmetric():
    X, x = MPoly.var("X"), MPoly.var("x")
    assert s_value(Q, X, x) == s_value(Q, x, X)


def test_s_value_over_polynomials_evaluates_to_s_value_over_numbers():
    S = s_value(Q, MPoly.var("X"), MPoly.var("x")).with_vars(("X", "x"))
    for X, x in ((Fraction(3, 7), Fraction(-2)), (Fraction(5), Fraction(1, 4))):
        assert exact_value(S, [X, x]) == s_value(Q, X, x)
    for X, x in ((0.4, -1.3 + 0.2j), (2.75, 0.5), (-1j, 3.0 + 1j)):
        want = s_value(Q, X, x)
        assert abs(S.eval([X, x]) - want) <= 1e-12 * (1 + abs(want))


@pytest.mark.parametrize("n", [3, 4])
def test_orbits_on_gamma_close_up(n):
    # points the sampler draws on gamma^(n) of the pencil q' + h q'' start
    # qrt orbits that return after n steps
    m = catalog_get("qrt", qp=(1, 2, 0, 3, 1, 2), qpp=(0, 1, 1, 0, 2, 1))
    g = gamma_get("qrt", n, m=m)
    for seed in range(5):
        rep = verify_period(m, sample_on_variety(g, seed), n)
        assert rep.return_error < 1e-6, (n, seed)


def test_3dlv_identification_symbolic_identity():
    # gamma^(3) of the identified parameters is -s times the period-3
    # generator of the three-dimensional Lotka-Volterra variety
    subs = dict(zip(("a", "b", "c", "d", "e", "f"), from_3dlv_symbolic()))
    lhs = compose_parts(GAMMAS[3], subs)[0]
    r, s = MPoly.var("r"), MPoly.var("s")
    rhs = -s * (r ** 2 + s ** 2 - r * s + r + s + 1)
    assert lhs == rhs


# the pullback of gamma^(n) through the 3d Lotka-Volterra reduction is
# sign * s^k * gamma_n, gamma_n lv3's period-n generator as built: the
# reduction degenerates on s = 0, and the build strips that factor, and
# no other, from the recorded generators
PULLBACKS = {3: (-1, 1), 4: (1, 1), 5: (1, 2)}


@pytest.mark.parametrize("n", sorted(PULLBACKS))
def test_pullback_is_a_power_of_s_times_the_lv3_generator(n):
    subs = dict(zip(("a", "b", "c", "d", "e", "f"), from_3dlv_symbolic()))
    lhs = compose_parts(GAMMAS[n], subs)[0]
    sign, k = PULLBACKS[n]
    gamma = gamma_get("lv3", n).gammas[0]
    assert lhs == sign * MPoly.var("s") ** k * gamma
