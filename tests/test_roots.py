"""Numeric root finder: residual guarantees and determinism."""

import random

import numpy as np
import pytest

from periodmaps.algebra import (MPoly, companion_roots, roots, roots_of_poly,
                                root_sort_key)
from periodmaps.errors import RootFindingError

BULK_CASES = 1200 + 2000


def _poly_from_roots(root_list):
    """Monic coefficients (leading first) with the given roots."""
    coeffs = [1.0 + 0j]
    for r in root_list:
        coeffs = [c for c in coeffs] + [0j]
        for k in range(len(coeffs) - 1, 0, -1):
            coeffs[k] = coeffs[k] - r * coeffs[k - 1]
    return coeffs


def test_recovers_planted_roots_bulk():
    rng = random.Random("roots-bulk")
    for _ in range(1200):
        deg = rng.randint(1, 5)
        planted = [complex(rng.uniform(-3, 3), rng.uniform(-3, 3))
                   for _ in range(deg)]
        got = roots(_poly_from_roots(planted), tol=1e-7)
        want = sorted(planted, key=root_sort_key)
        assert max(abs(a - b) for a, b in zip(got, want)) < 1e-5


def test_residual_bound_holds_bulk():
    rng = random.Random("roots-residual")
    for _ in range(2000):
        deg = rng.randint(1, 6)
        coeffs = [complex(rng.uniform(-5, 5), rng.uniform(-5, 5))
                  for _ in range(deg + 1)]
        if abs(coeffs[0]) < 0.1:
            coeffs[0] += 1.0
        tol = 1e-9
        out = roots(coeffs, tol=tol)
        bound = tol * (1 + max(abs(c) for c in coeffs))
        for z in out:
            acc = 0j
            for c in coeffs:
                acc = acc * z + c
            assert abs(acc) <= bound


def test_ordering_is_deterministic():
    coeffs = [1, 0, 0, -8]  # cube roots of 8
    assert roots(coeffs) == roots(list(coeffs))
    got = roots(coeffs)
    assert got == sorted(got, key=root_sort_key)


def test_multiplicity_kept():
    # (z - 2)^2
    got = roots([1, -4, 4], tol=1e-6)
    assert len(got) == 2
    assert all(abs(z - 2) < 1e-3 for z in got)


def test_rejects_constant_and_tiny_leading():
    with pytest.raises(RootFindingError):
        roots([5.0])
    with pytest.raises(RootFindingError):
        roots([1e-15, 1.0, 2.0], tol=1e-9)


def test_roots_of_poly_substitutes_other_variables():
    x, y = MPoly.var("x"), MPoly.var("y")
    p = x * x - y
    got = roots_of_poly(p, "x", {"y": 4.0})
    assert len(got) == 2
    assert abs(got[0] + 2) < 1e-9 and abs(got[1] - 2) < 1e-9


def test_roots_of_poly_strips_vanishing_leading_coefficient():
    x, y = MPoly.var("x"), MPoly.var("y")
    p = y * x * x + x - 1  # at y = 0 the quadratic collapses to linear
    got = roots_of_poly(p, "x", {"y": 0.0})
    assert len(got) == 1
    assert abs(got[0] - 1) < 1e-9


@pytest.mark.parametrize("degree", range(1, 13))
def test_companion_roots_are_np_roots_bit_for_bit(degree):
    # complex and small-integer coefficients, half of them with 1..degree
    # zero constant terms, whose roots 0 np.roots appends last
    rng = random.Random(f"companion:{degree}")
    for case in range(120):
        if case % 3:
            coeffs = [complex(rng.uniform(-5, 5), rng.uniform(-5, 5))
                      for _ in range(degree + 1)]
        else:
            coeffs = [complex(rng.randint(-4, 4)) for _ in range(degree + 1)]
            coeffs[0] = complex(rng.choice((-3, -1, 1, 2)))
        if case % 2:
            zeros = rng.randint(1, degree)
            coeffs[degree + 1 - zeros:] = [0j] * zeros
        want = [complex(z) for z in np.roots(np.array(coeffs, dtype=complex))]
        got = companion_roots(coeffs)
        assert [(z.real.hex(), z.imag.hex()) for z in got] == [
            (z.real.hex(), z.imag.hex()) for z in want], coeffs
