"""Bivariate recurrence polynomials F(x, X).

A recurrence relation here is a polynomial constraint F(X, x) = 0 whose
(generally multivalued) solutions X are all periodic with one fixed period.
roots_at gives the candidate images X of one point x, in the fixed root
ordering of algebra.roots; choosing among them is left to the caller.
"""

from __future__ import annotations

from dataclasses import dataclass

from .algebra import MPoly, roots_of_poly


@dataclass(frozen=True)
class RecurrenceRelation:
    F: MPoly           # polynomial in (x, X), possibly with extra parameters
    period: int
    source: str

    def __post_init__(self):
        if self.F.is_zero():
            raise ValueError("recurrence polynomial is identically zero")

    def roots_at(self, xval: complex, tol: float = 1e-9):
        return roots_of_poly(self.F, "X", {"x": complex(xval)}, tol=tol)
