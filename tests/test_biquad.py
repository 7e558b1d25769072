"""Symmetric biquadratic correspondences: branches and generators."""

from fractions import Fraction

import pytest

from periodmaps.algebra import MPoly, compose_parts, parse_poly
from periodmaps.biquad import (
    GAMMAS, coerce_params, follow, from_3dlv_symbolic, gamma_biquad, s_value,
    sample_on_gamma, solve_branches)
from periodmaps.errors import DegenerateParameterError

Q = tuple(Fraction(c) for c in (1, -2, 3, 1, 2, -1))


def test_s_value_is_symmetric():
    X, x = MPoly.var("X"), MPoly.var("x")
    assert s_value(Q, X, x) == s_value(Q, x, X)


def test_s_value_over_polynomials_evaluates_to_s_value_over_numbers():
    S = s_value(Q, MPoly.var("X"), MPoly.var("x")).with_vars(("X", "x"))
    for X, x in ((Fraction(3, 7), Fraction(-2)), (Fraction(5), Fraction(1, 4))):
        assert S.eval_exact([X, x]) == s_value(Q, X, x)
    for X, x in ((0.4, -1.3 + 0.2j), (2.75, 0.5), (-1j, 3.0 + 1j)):
        want = s_value(Q, X, x)
        assert abs(S.eval([X, x]) - want) <= 1e-12 * (1 + abs(want))


def test_solve_branches_satisfy_the_correspondence():
    for x in (0.4, -1.3 + 0.2j, 2.75):
        for X in solve_branches(Q, x):
            assert abs(s_value(Q, X, x)) < 1e-7


def test_coerce_params_guards():
    with pytest.raises(DegenerateParameterError):
        coerce_params((1, 2, 3))
    with pytest.raises(DegenerateParameterError):
        coerce_params((0, 0, 0, 0, 0, 0))


def test_follow_does_not_backtrack():
    orbit = follow(Q, 0.8, 6)
    for k in range(2, len(orbit)):
        # each step satisfies the correspondence with its predecessor
        assert abs(s_value(Q, orbit[k], orbit[k - 1])) < 1e-6


@pytest.mark.parametrize("n", [3, 4, 5])
def test_sample_on_gamma_lands_on_the_generator(n):
    for seed in range(4):
        q = sample_on_gamma(n, seed)
        assert q == sample_on_gamma(n, seed)
        val = gamma_biquad(n, q)
        bound = 1e-7 * (1 + float(GAMMAS[n].max_abs_coeff()))
        if n in (3, 4):
            assert val == 0
        else:
            assert abs(complex(val)) <= bound


@pytest.mark.parametrize("n", [3, 4])
def test_orbits_on_gamma_close_up(n):
    for seed in range(5):
        q = sample_on_gamma(n, seed)
        orbit = follow(q, 0.31 + 0.07j, n)
        assert abs(orbit[n] - orbit[0]) < 1e-6, (n, seed)


def test_3dlv_identification_symbolic_identity():
    # gamma^(3) of the identified parameters is -s times the period-3
    # generator of the three-dimensional Lotka-Volterra variety
    subs = dict(zip(("a", "b", "c", "d", "e", "f"), from_3dlv_symbolic()))
    lhs = compose_parts(GAMMAS[3], subs)[0]
    r, s = MPoly.var("r"), MPoly.var("s")
    rhs = -s * (r ** 2 + s ** 2 - r * s + r + s + 1)
    assert lhs == rhs

