"""Univariate complex root finding (companion eigenvalues + Newton polish)."""

from __future__ import annotations

from typing import List, Sequence

import numpy as np

from ..errors import RootFindingError
from .poly import MPoly

DEFAULT_TOL = 1e-9


def root_sort_key(z: complex):
    """Fixed deterministic ordering: lexicographic by (re, im), rounded."""
    return (round(z.real, 12), round(z.imag, 12))


def companion_roots(coeffs: Sequence[complex]) -> List[complex]:
    """The roots np.roots returns for coeffs (leading first and nonzero),
    with the bits it gives them: the same companion matrix, ones below
    the diagonal and a first row of -p[1:]/p[0] computed in numpy, and one
    eigvals call on it.  Each zero constant term is stripped first and
    its root 0 appended at the end."""
    p = np.array(coeffs, dtype=complex)
    n = len(p)
    while n > 1 and p[n - 1] == 0:
        n -= 1
    found = []
    if n > 1:
        companion = np.eye(n - 1, k=-1, dtype=complex)
        companion[0, :] = -p[1:n] / p[0]
        found = [complex(z) for z in np.linalg.eigvals(companion)]
    return found + [0j] * (len(p) - n)


def _polish(coeffs: Sequence[complex], z: complex):
    """(root, |p(root)|): Newton from z, taking the value and slope of
    sum coeffs[k] z^(n-k) in one Horner pass.

    It stops once a step is at rounding level, after at most 16 steps,
    and keeps the iterate of least residual.  The rule is on the step,
    not the residual: a variety's composed numerators carry coefficients
    so large that a root can clear the residual bound several digits
    short.
    """
    def value_slope(w):
        p = dp = 0j
        for c in coeffs:  # leading first
            dp = dp * w + p
            p = p * w + c
        return p, dp

    p, dp = value_slope(z)
    best, best_res = z, abs(p)
    for _ in range(16):
        if dp == 0:
            break
        z2 = z - p / dp
        p, dp = value_slope(z2)
        if abs(p) < best_res:
            best, best_res = z2, abs(p)
        if abs(z2 - z) <= 1e-15 * (1 + abs(z2)):
            break
        z = z2
    return best, best_res


def roots(coeffs: Sequence[complex], tol: float = DEFAULT_TOL) -> List[complex]:
    """All complex roots (with multiplicity) of sum coeffs[k] z^(n-k).

    Leading coefficient first.  Each companion eigenvalue is polished by
    Newton, and each returned r satisfies |p(r)| <= tol * (1 + max|coeff|).
    Deterministic for fixed input.
    """
    coeffs = [complex(c) for c in coeffs]
    if len(coeffs) < 2:
        raise RootFindingError("degree must be at least 1")
    if abs(coeffs[0]) <= tol:
        raise RootFindingError("leading coefficient below tolerance")
    polished = [_polish(coeffs, z) for z in companion_roots(coeffs)]
    bound = tol * (1 + max(abs(c) for c in coeffs))
    residuals = [res for _, res in polished]
    if any(res > bound for res in residuals):
        raise RootFindingError(
            f"root residuals exceed bound {bound:g}", residuals=residuals)
    return sorted((z for z, _ in polished), key=root_sort_key)


def roots_of_poly(p: MPoly, var: str, point: dict, tol: float = DEFAULT_TOL):
    """Roots in var of p after numeric substitution of the other variables.

    point maps variable name -> complex value for every other used
    variable.  Leading coefficients that vanish numerically are stripped.
    """
    slices = p.as_univariate(var)
    # the slices share one variable tuple, so one conversion serves all
    values = [complex(point.get(v, 0j)) for v in slices[0].vars]
    coeffs = [c.eval_values(values) for c in slices]
    while len(coeffs) > 1 and abs(coeffs[-1]) <= tol * (
            1 + max(abs(c) for c in coeffs)):
        coeffs.pop()
    if len(coeffs) < 2:
        raise RootFindingError("polynomial is (numerically) constant in " + var)
    return roots(coeffs[::-1], tol=tol)
