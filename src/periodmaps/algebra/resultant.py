"""Sylvester resultants with exact (fraction-free) determinant expansion."""

from __future__ import annotations

from typing import List

from ..errors import NothingToEliminateError
from .poly import MPoly, exact_divide
from .ratfunc import compose_parts


def sylvester_matrix(p: MPoly, q: MPoly, var: str) -> List[List[MPoly]]:
    """Sylvester matrix in var, rows ordered p-block then q-block."""
    m = p.degree(var)
    n = q.degree(var)
    if m == 0 or n == 0:
        raise NothingToEliminateError(
            f"nothing to eliminate: degree in {var!r} is zero")
    pc = p.as_univariate(var)  # ascending
    qc = q.as_univariate(var)
    size = m + n
    rows = []
    for i in range(n):
        row = [MPoly.zero() for _ in range(size)]
        for k in range(m + 1):
            row[i + k] = pc[m - k]
        rows.append(row)
    for i in range(m):
        row = [MPoly.zero() for _ in range(size)]
        for k in range(n + 1):
            row[i + k] = qc[n - k]
        rows.append(row)
    return rows


def det_bareiss(matrix: List[List[MPoly]]) -> MPoly:
    """Exact determinant of a matrix of polynomials (Bareiss elimination)."""
    n = len(matrix)
    if n == 0:
        return MPoly.const(1)
    m = [row[:] for row in matrix]
    sign = 1
    prev = MPoly.const(1)
    for k in range(n - 1):
        if m[k][k].is_zero():
            pivot = next((i for i in range(k + 1, n) if not m[i][k].is_zero()), None)
            if pivot is None:
                return MPoly.zero()
            m[k], m[pivot] = m[pivot], m[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                num = m[k][k] * m[i][j] - m[i][k] * m[k][j]
                m[i][j] = exact_divide(num, prev) if not num.is_zero() else num
            m[i][k] = MPoly.zero()
        prev = m[k][k]
    det = m[n - 1][n - 1]
    return det if sign > 0 else -det


def resultant(p: MPoly, q: MPoly, var: str) -> MPoly:
    """Res(p, q, var): Sylvester determinant, p-rows first.

    Vanishes whenever p and q share a root in var; exact arithmetic
    throughout.  For p = a*var + b the determinant is
    sum_k q_k (-b)^k a^(n-k), q with var = -b/a and the denominators
    cleared, so it is taken by substitution; in the variable tuple
    Bareiss would give, the aligned one of (p, q) without var.
    """
    if p.degree(var) == 1 and q.degree(var):
        b, a = p.as_univariate(var)
        num, _ = compose_parts(q, {var: (-b, a)})
        aligned = MPoly.align(p, q)[0].vars
        return num.with_vars(tuple(v for v in aligned if v != var))
    return det_bareiss(sylvester_matrix(p, q, var))
