"""Symmetric biquadratic correspondences S(X, x) = 0.

The correspondence is quadratic in each argument and symmetric under
X <-> x, so it is 2-valued with a forward and a backward traversal route.
Iteration preserves the shape and only moves the six parameters.
"""

from __future__ import annotations

import random
from fractions import Fraction
from typing import Sequence, Tuple, Union

from .algebra import (MPoly, compose_parts, exact_divide, parse_poly,
                      resultant, roots, root_sort_key)
from .errors import (DegenerateParameterError, EliminationError,
                     InexactDivisionError, RootFindingError)

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


def is_exact(q: BiquadParams) -> bool:
    return all(isinstance(c, Fraction) for c in q)


def s_poly(q: BiquadParams, Xvar: str = "X", xvar: str = "x") -> MPoly:
    """S_q as an exact polynomial (requires rational parameters)."""
    a, b, c, d, e, f = (Fraction(v) for v in q)
    X = MPoly.var(Xvar)
    x = MPoly.var(xvar)
    return (a * X ** 2 * x ** 2 + b * (X + x) * X * x + c * (X - x) ** 2
            + d * X * x + e * (X + x) + f).with_vars((Xvar, xvar))


def quadratic_coeffs(q: BiquadParams, x: complex):
    """(xi, eta, rho) of the X-quadratic S_q(X, x) = 0 at numeric x."""
    a, b, c, d, e, f = (complex(v) for v in q)
    xi = a * x * x + b * x + c
    eta = b * x * x + (d - 2 * c) * x + e
    rho = c * x * x + e * x + f
    return xi, eta, rho


def s_value(q: BiquadParams, X: complex, x: complex) -> complex:
    xi, eta, rho = quadratic_coeffs(q, x)
    return xi * X * X + eta * X + rho


def solve_branches(q: BiquadParams, x: complex):
    """The up-to-two branch values X with S_q(X, x) = 0, sorted."""
    xi, eta, rho = quadratic_coeffs(q, x)
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

GAMMA3 = parse_poly("a*f - b*e - 3*c^2 + c*d", PARAM_NAMES)

GAMMA4 = parse_poly(
    "2*a*c*f - a*d*f + b^2*f + a*e^2 - 2*c^3 + c^2*d - 2*b*c*e", PARAM_NAMES)

GAMMA5 = parse_poly(
    "a^3*f^3"
    " + (-c*f^2*d + 2*c*f*e^2 + f*d*e^2 - 3*e*b*f^2 - e^4 - c^2*f^2)*a^2"
    " + (-13*c^4*f + 18*c^3*f*d + d*e^3*b + 2*c*f^2*b^2 + 7*d*c^2*e^2"
    "    - c*e^2*d^2 - 2*c*e^3*b + 2*c^2*f*e*b - 7*f*d^2*c^2 - 14*c^3*e^2"
    "    + c*d^3*f + f*b^2*e^2 + f^2*d*b^2 - e*b*d^2*f)*a"
    " - c*d^2*b^2*f - b^3*e^3 - 4*c^3*d*e*b + c*d*b^2*e^2 + 13*e*c^4*b"
    " - f^2*b^4 + 7*f*b^2*c^2*d + c^4*d^2 - 5*c^5*d + 5*c^6 - 2*f*b^3*e*c"
    " - e^2*c^2*b^2 + e*b^3*d*f - 14*f*b^2*c^3", PARAM_NAMES)

GAMMAS = {3: GAMMA3, 4: GAMMA4, 5: GAMMA5}


def gamma_biquad(n: int, q: BiquadParams):
    """Exact (rational q) or numeric (complex q) value of gamma^(n)."""
    if n not in GAMMAS:
        raise KeyError(f"no generating polynomial for period {n}")
    q = coerce_params(q)
    if is_exact(q):
        return GAMMAS[n].eval_exact([Fraction(c) for c in q])
    return GAMMAS[n].eval([complex(c) for c in q])


def from_3dlv(r, s) -> BiquadParams:
    """Biquadratic parameters realizing the 3d Lotka-Volterra reduction."""
    r = Fraction(r)
    s = Fraction(s)
    return (r + 1, s - 2 * r - 1, r - s,
            s ** 2 + r * s + 5 * r - 2 * s + 1, -r * (s + 1), Fraction(0))


def from_3dlv_symbolic() -> tuple:
    """The same identification with (r, s) kept symbolic."""
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
            g = GAMMA5.subs_values({"a": a, "b": b, "c": c, "d": d, "e": e})
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


# ------------------------------------------------------------- composition

def compose(q: BiquadParams) -> BiquadParams:
    """Parameters of the two-step correspondence.

    Resultant in the middle variable, exact removal of the backtracking
    factor (X - x)^2, then a numeric contract check on eight seeded
    two-step transitions.
    """
    q = coerce_params(q)
    if not is_exact(q):
        raise DegenerateParameterError(
            "compose needs exact rational parameters")
    s_out = s_poly(q, "X", "y")       # S(X, y)
    s_in = s_poly(q, "y", "x")        # S(y, x)
    if s_out.degree("y") == 0 or s_in.degree("y") == 0:
        raise DegenerateParameterError(
            "correspondence is constant in the chained variable")
    R = resultant(s_out, s_in, "y")
    if R.is_zero():
        raise EliminationError("two-step resultant collapsed to zero")
    back = parse_poly("(X - x)^2", ("X", "x"))
    try:
        T = exact_divide(R, back)
    except InexactDivisionError as exc:
        raise EliminationError(
            "backtracking factor does not split off the two-step resultant",
            witnesses=R) from exc
    # degenerate when the remaining factor still vanishes on the diagonal
    diag = compose_parts(T, {"X": MPoly.var("x")})[0]
    if diag.is_zero():
        raise DegenerateParameterError(
            "two-step correspondence degenerates to the identity")
    q2 = _read_biquad_form(T)
    _check_two_step(q, q2)
    return q2


def _read_biquad_form(T: MPoly) -> BiquadParams:
    T = T.with_vars(("X", "x"))
    allowed = {(2, 2), (2, 1), (1, 2), (2, 0), (0, 2), (1, 1), (1, 0),
               (0, 1), (0, 0)}
    if any(e not in allowed for e in T.terms):
        raise EliminationError(
            "residual factor is not in the six-parameter symmetric form",
            witnesses=T)
    get = lambda i, j: T.terms.get((i, j), Fraction(0))
    a2 = get(2, 2)
    b2 = get(2, 1)
    c2 = get(2, 0)
    e2 = get(1, 0)
    if b2 != get(1, 2) or c2 != get(0, 2) or e2 != get(0, 1):
        raise EliminationError(
            "residual factor is not symmetric under X <-> x", witnesses=T)
    d2 = get(1, 1) + 2 * c2
    f2 = get(0, 0)
    q2 = (a2, b2, c2, d2, e2, f2)
    scale = T.content()
    if scale:
        q2 = tuple(c / scale for c in q2)
    return coerce_params(q2)


def _check_two_step(q: BiquadParams, q2: BiquadParams):
    rng = random.Random("biquad-compose:" + ",".join(str(c) for c in q))
    checked = 0
    attempts = 0
    scale = max(abs(complex(c)) for c in q2)
    while checked < 8 and attempts < 200:
        attempts += 1
        x0 = complex(Fraction(rng.randint(-20, 20), rng.randint(1, 7)),
                     Fraction(rng.randint(-20, 20), rng.randint(1, 7)))
        try:
            for branch in range(len(solve_branches(q, x0))):
                orbit = follow(q, x0, 2, branch=branch)
                res = abs(s_value(q2, orbit[2], x0))
                if res > 1e-8 * (1 + scale) * (1 + abs(x0)) ** 4:
                    raise EliminationError(
                        f"two-step contract violated: residual {res}",
                        witnesses=(q, q2, x0))
        except (DegenerateParameterError, RootFindingError):
            continue
        checked += 1
    if checked < 8:
        raise EliminationError(
            "could not validate the two-step contract numerically")
