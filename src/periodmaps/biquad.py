"""Symmetric biquadratic correspondences S(X, x) = 0.

The correspondence is quadratic in each argument and symmetric under
X <-> x, so it is 2-valued with a forward and a backward traversal route;
``follow`` walks one of them.  A correspondence whose six parameters lie
on gamma^(n) = 0 closes up after n steps.

The planar QRT map's level set H(x, y) = h carries the correspondence
with parameters q' + h q'' (``reduce_to_biquadratic``, ``on_pencil``).
"""

from __future__ import annotations

import random
from fractions import Fraction
from typing import Sequence, Tuple, Union

from .algebra import MPoly, compose_parts, parse_poly, roots, root_sort_key
from .data import VARIETIES
from .errors import DegenerateParameterError, RootFindingError

PARAM_NAMES = ("a", "b", "c", "d", "e", "f")
BRANCH_TOL = 1e-9       # relative size below which an X-coefficient is zero

BiquadParams = Tuple[Union[Fraction, complex], ...]


def coerce_params(q: Sequence) -> BiquadParams:
    q = tuple(q)
    if len(q) != 6:
        raise DegenerateParameterError("a biquadratic needs six parameters")
    out = []
    for c in q:
        if isinstance(c, (int, Fraction)):
            out.append(Fraction(c))
        else:
            out.append(complex(c))
    if all(c == 0 for c in out):
        raise DegenerateParameterError("the zero biquadratic is not a correspondence")
    return tuple(out)


def quadratic_coeffs(q: BiquadParams, x):
    """(xi, eta, rho) with S_q(X, x) = xi X^2 + eta X + rho, over any
    coefficient ring (numbers, or MPoly for the QRT map's formulas)."""
    a, b, c, d, e, f = q
    xi = a * x * x + b * x + c
    eta = b * x * x + (d - 2 * c) * x + e
    rho = c * x * x + e * x + f
    return xi, eta, rho


def s_value(q: BiquadParams, X, x):
    """S_q(X, x), over the ring of quadratic_coeffs."""
    xi, eta, rho = quadratic_coeffs(q, x)
    return xi * X * X + eta * X + rho


def solve_branches(q: BiquadParams, x: complex):
    """The up-to-two branch values X with S_q(X, x) = 0, sorted."""
    xi, eta, rho = quadratic_coeffs(tuple(complex(c) for c in q), x)
    scale = max(abs(xi), abs(eta), abs(rho))
    if scale == 0:
        raise DegenerateParameterError(
            "the X-quadratic vanishes identically at this point")
    if abs(xi) <= BRANCH_TOL * scale:
        if abs(eta) <= BRANCH_TOL * scale:
            raise DegenerateParameterError(
                "the X-quadratic is degenerate at this point")
        return [-rho / eta]
    return roots([xi, eta, rho], tol=BRANCH_TOL)


def step_branch(q: BiquadParams, prev: complex, cur: complex) -> complex:
    """Non-backtracking step: the branch at cur farthest from prev."""
    cands = sorted(solve_branches(q, cur), key=root_sort_key)
    return max(cands, key=lambda z: (abs(z - prev), root_sort_key(z)))


def follow(q: BiquadParams, x0: complex, steps: int, branch: int = 0):
    """Branch-followed orbit [x0, x1, ..., x_steps]."""
    first = solve_branches(q, x0)
    if branch >= len(first):
        raise DegenerateParameterError(
            f"branch {branch} not available ({len(first)} roots)")
    orbit = [complex(x0), first[branch]]
    while len(orbit) < steps + 1:
        orbit.append(step_branch(q, orbit[-2], orbit[-1]))
    return orbit


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


def reduce_to_biquadratic(qp, qpp, h) -> BiquadParams:
    """Componentwise q' + h q'': the correspondence of the QRT level set h."""
    return coerce_params(tuple(a + h * b for a, b in zip(qp, qpp)))


def gamma_biquad(n: int, q: BiquadParams):
    """Exact (rational q) or numeric (complex q) value of gamma^(n)."""
    if n not in GAMMAS:
        raise KeyError(f"no generating polynomial for period {n}")
    q = coerce_params(q)
    if all(isinstance(c, Fraction) for c in q):
        return GAMMAS[n].eval_exact(q)
    return GAMMAS[n].eval([complex(c) for c in q])


def from_3dlv_symbolic() -> tuple:
    """Biquadratic parameters realizing the 3d Lotka-Volterra reduction,
    as polynomials in its invariants (r, s)."""
    r = MPoly.var("r")
    s = MPoly.var("s")
    one = MPoly.const(1)
    return (r + one, s - 2 * r - one, r - s,
            s ** 2 + r * s + 5 * r - 2 * s + one, -r * (s + one),
            MPoly.zero())


def sample_on_gamma(n: int, seed: int):
    """Seeded parameter draw with gamma^(n)(q) = 0 (solves for f).

    Exact for n = 3, 4 (gamma linear in f); numeric root for n = 5.
    """
    rng = random.Random(f"biquad-gamma:{n}:{seed}")

    def draw():
        return Fraction(rng.randint(-12, 12), rng.randint(1, 4))

    for _ in range(64):
        a, b, c, d, e = (draw() for _ in range(5))
        if a == 0 or c == 0:
            continue
        if n in (3, 4):
            g = GAMMAS[n].subs_values(
                {"a": a, "b": b, "c": c, "d": d, "e": e})
            coeffs = g.as_univariate("f")
            if len(coeffs) < 2 or coeffs[1].is_zero():
                continue
            f = -coeffs[0].constant_term() / coeffs[1].constant_term()
            q = (a, b, c, d, e, f)
        else:
            g = GAMMAS[5].subs_values({"a": a, "b": b, "c": c, "d": d, "e": e})
            dense = [cc.constant_term() for cc in g.as_univariate("f")]
            try:
                fs = roots([complex(cc) for cc in reversed(dense)], tol=1e-8)
            except RootFindingError:
                continue
            q = (complex(a), complex(b), complex(c), complex(d), complex(e),
                 fs[0])
        try:
            q = coerce_params(q)
        except DegenerateParameterError:
            continue
        val = gamma_biquad(n, q)
        if abs(complex(val)) <= 1e-7 * (1 + GAMMAS[n].max_abs_coeff()):
            return q
    raise DegenerateParameterError(
        f"could not draw parameters on gamma^{n} = 0 for seed {seed}")
