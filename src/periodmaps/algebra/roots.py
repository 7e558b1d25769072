"""Univariate complex root finding (companion eigenvalues + Newton polish)."""

from __future__ import annotations

import math
from typing import List, Sequence

import numpy as np

from ..errors import RootFindingError
from .poly import MPoly

DEFAULT_TOL = 1e-9


def _poly_value(coeffs: Sequence[complex], z: complex) -> complex:
    acc = 0j
    for c in coeffs:  # leading first
        acc = acc * z + c
    return acc


def root_sort_key(z: complex):
    """Fixed deterministic ordering: lexicographic by (re, im), rounded."""
    return (round(z.real, 12), round(z.imag, 12))


def roots(coeffs: Sequence[complex], tol: float = DEFAULT_TOL) -> List[complex]:
    """All complex roots (with multiplicity) of sum coeffs[k] z^(n-k).

    Leading coefficient first.  Each returned r satisfies
    |p(r)| <= tol * (1 + max|coeff|).  Deterministic for fixed input.
    """
    coeffs = [complex(c) for c in coeffs]
    if len(coeffs) < 2:
        raise RootFindingError("degree must be at least 1")
    if abs(coeffs[0]) <= tol:
        raise RootFindingError("leading coefficient below tolerance")
    scale = max(abs(c) for c in coeffs)
    raw = np.roots(np.array(coeffs, dtype=complex))
    deriv = [c * (len(coeffs) - 1 - k) for k, c in enumerate(coeffs[:-1])]
    polished = []
    for r in raw:
        z = complex(r)
        for _ in range(8):
            fz = _poly_value(coeffs, z)
            if abs(fz) <= 1e-3 * tol * (1 + scale):
                break
            dz = _poly_value(deriv, z)
            if abs(dz) == 0:
                break
            step = fz / dz
            if not (math.isfinite(step.real) and math.isfinite(step.imag)):
                break
            z2 = z - step
            if abs(_poly_value(coeffs, z2)) < abs(fz):
                z = z2
            else:
                break
        polished.append(z)
    bound = tol * (1 + scale)
    residuals = [abs(_poly_value(coeffs, z)) for z in polished]
    bad = [res for res in residuals if res > bound]
    if bad:
        raise RootFindingError(
            f"root residuals exceed bound {bound:g}", residuals=residuals)
    return sorted(polished, key=root_sort_key)


def coefficient_values(p: MPoly, var: str, point: dict) -> List[complex]:
    """Values at point of p's coefficients in var, lowest degree first."""
    return [c.eval([point.get(v, 0j) for v in c.vars])
            for c in p.as_univariate(var)]


def roots_of_values(values: Sequence[complex], var: str,
                    tol: float = DEFAULT_TOL) -> List[complex]:
    """Roots of sum values[k] var^k once the (numerically) vanishing
    leading coefficients are stripped."""
    values = list(values)
    while len(values) > 1 and abs(values[-1]) <= tol * (1 + max(abs(v) for v in values)):
        values.pop()
    if len(values) < 2:
        raise RootFindingError("polynomial is (numerically) constant in " + var)
    return roots(list(reversed(values)), tol=tol)


def roots_of_poly(p: MPoly, var: str, point: dict, tol: float = DEFAULT_TOL):
    """Roots in var of p after numeric substitution of the other variables.

    point maps variable name -> complex value for every other used variable.
    """
    return roots_of_values(coefficient_values(p, var, point), var, tol=tol)
