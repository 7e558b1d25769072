"""Symmetric biquadratic correspondences S(X, x) = 0.

The correspondence is quadratic in each argument and symmetric under
X <-> x.  A correspondence whose six parameters lie on gamma^(n) = 0
closes up after n steps; ``GAMMAS`` holds those generators.

The planar QRT map's level set H(x, y) = h carries the correspondence
with parameters q' + h q'': ``on_pencil`` puts a generator on that
pencil, and the catalog builds the qrt map from ``quadratic_coeffs``.
"""

from __future__ import annotations

from fractions import Fraction

from .algebra import MPoly, compose_parts, parse_poly
from .data import VARIETIES

PARAM_NAMES = ("a", "b", "c", "d", "e", "f")


def quadratic_coeffs(q, x):
    """(xi, eta, rho) with S_q(X, x) = xi X^2 + eta X + rho, over any
    coefficient ring (numbers, or MPoly for the QRT map's formulas)."""
    a, b, c, d, e, f = q
    xi = a * x * x + b * x + c
    eta = b * x * x + (d - 2 * c) * x + e
    rho = c * x * x + e * x + f
    return xi, eta, rho


def s_value(q, X, x):
    """S_q(X, x), over the ring of quadratic_coeffs."""
    xi, eta, rho = quadratic_coeffs(q, x)
    return xi * X * X + eta * X + rho


# ------------------------------------------------------------- generators

# the period-n generators gamma^(n), in the six parameters: the "pencil"
# texts the qrt entry of varieties.json records
GAMMAS = {int(n): parse_poly(text, PARAM_NAMES)
          for n, (text,) in VARIETIES["qrt"]["periods"].items()}


def on_pencil(gamma: MPoly, qp, qpp) -> MPoly:
    """gamma(q' + h q''), gamma in the six parameters a..f, as a polynomial
    in h."""
    h = MPoly.var("h")
    line = {name: (MPoly.const(Fraction(ap)) + Fraction(app) * h)
            for name, ap, app in zip(PARAM_NAMES, qp, qpp)}
    return compose_parts(gamma, line)[0].with_vars(("h",))


def from_3dlv_symbolic() -> tuple:
    """Biquadratic parameters realizing the 3d Lotka-Volterra reduction,
    as polynomials in its invariants (r, s)."""
    r = MPoly.var("r")
    s = MPoly.var("s")
    one = MPoly.const(1)
    return (r + one, s - 2 * r - one, r - s,
            s ** 2 + r * s + 5 * r - 2 * s + one, -r * (s + one),
            MPoly.zero())
