"""Catalog of invariant-variety generators, membership tests, and sampling.

Each catalog entry is a list of polynomials gamma in the invariant symbols
of one map (or directly in its coordinates, for the rigid-body map).  The
zero set of gamma(H(x)) collects the points whose orbit is periodic with
the stated period.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from typing import Dict, Optional, Sequence, Tuple

from .algebra import (MPoly, RatFunc, coefficient_values, compose_parts,
                      parse_poly, root_sort_key, roots_of_poly,
                      roots_of_values)
from .biquad import GAMMAS, on_pencil
from .catalog import IntegrableMap, catalog_get
from .data import VARIETIES
from .errors import (PoleError, RootFindingError, SamplingError,
                     UnknownVarietyError)

GRID_DENOM = 8
GRID_SPAN = 24          # numerators drawn from [-24, 24], i.e. [-3, 3]
MIN_COORD = 1e-3        # keep draws away from poles and fixed strata
MEMBER_TOL = 1e-9


@dataclass(frozen=True, eq=False)
class VarietyGenerator:
    """gamma_get builds one per (map, period); compared by identity."""
    map_name: str
    period: int
    gammas: Tuple[MPoly, ...]               # in the invariant symbols
    substitution: Dict[str, RatFunc]        # symbol -> H_i(x)
    owner: IntegrableMap = field(repr=False)
    in_coordinates: bool = False

    def __post_init__(self):
        if not self.gammas:
            raise UnknownVarietyError("a variety needs at least one generator")
        for g in self.gammas:
            for v in g.used_vars():
                if v not in self.substitution:
                    raise UnknownVarietyError(
                        f"no substitution for invariant symbol {v!r}")

    @property
    def l(self) -> int:
        return len(self.gammas)

    @lru_cache(maxsize=None)
    def composed_numerators(self) -> Tuple[MPoly, ...]:
        """Unreduced numerators of the composed generators, composed on
        first use and cached.

        The gcd step of full reduction is prohibitive for the widest
        entries; the zero set of the raw numerator is all sampling needs.
        """
        return tuple(compose_parts(g, self.substitution)[0].with_vars(
            self.owner.varnames) for g in self.gammas)

    @lru_cache(maxsize=None)
    def member_scales(self) -> Tuple[float, ...]:
        """1 + max|c| of each generator, the scale membership's tolerance
        is relative to; computed on first use and cached."""
        return tuple(1 + gamma.max_abs_coeff() for gamma in self.gammas)

    @lru_cache(maxsize=None)
    def toda_quadratic(self) -> MPoly:
        """toda3's t2 with w eliminated through t1 = 0, which leaves it
        quadratic in v; built on first use and cached."""
        t1 = self.substitution["t1"].num
        t2 = self.substitution["t2"].num
        chain = -(t1 - MPoly.var("w").with_vars(self.owner.varnames))
        return compose_parts(t2, {"w": chain})[0]


def available_periods(map_name: str) -> Tuple[int, ...]:
    entry = VARIETIES.get(map_name)
    if entry is None:
        return ()
    return tuple(sorted(int(k) for k in entry["periods"]))


def _subs_params(text: str, symbols, params: dict) -> MPoly:
    p = parse_poly(text, tuple(symbols) + tuple(params))
    return p.subs_values({k: Fraction(v) for k, v in params.items()})


def gamma_get(map_name: str, period: int,
              m: Optional[IntegrableMap] = None,
              params: dict = None) -> VarietyGenerator:
    """Variety generator for (map_name, period), parameters substituted;
    one per (map, period)."""
    entry = VARIETIES.get(map_name)
    if entry is None or str(period) not in entry["periods"]:
        raise UnknownVarietyError(f"no variety for ({map_name}, {period})",
                                  available=available_periods(map_name))
    if m is None:
        m = catalog_get(map_name, params=params)
    elif m.name != map_name:
        raise UnknownVarietyError(
            f"map {m.name!r} does not own the {map_name!r} varieties")
    return _generator(m, period)


@lru_cache(maxsize=None)
def _generator(m: IntegrableMap, period: int) -> VarietyGenerator:
    entry = VARIETIES[m.name]
    symbols = tuple(entry["symbols"])
    texts = entry["periods"][str(period)]

    if "pencil" in entry:
        # generators live on the parameter pencil q' + h q''
        gammas = (on_pencil(GAMMAS[period], m.params["qp"], m.params["qpp"]),)
    elif "parameters" in entry:
        pvals = {k: m.params[k] for k in entry["parameters"]}
        gammas = tuple(_subs_params(t, symbols, pvals).with_vars(symbols)
                       for t in texts)
    else:
        gammas = tuple(parse_poly(t, symbols).with_vars(symbols)
                       for t in texts)

    if entry.get("coordinates"):
        subs = {v: RatFunc.var(v).with_vars(m.varnames) for v in m.varnames}
        return VarietyGenerator(m.name, period, gammas, subs, m,
                                in_coordinates=True)
    subs = dict(zip(m.invariant_names, m.invariants))
    return VarietyGenerator(m.name, period, gammas, subs, m)


def membership(g: VarietyGenerator, p: Sequence[complex],
               tol: float = MEMBER_TOL):
    """(verdict, residuals): does p lie on the variety within tol?"""
    point = [complex(c) for c in p]
    if g.in_coordinates:
        values = point
        order = g.owner.varnames
    else:
        values = g.owner.invariant_values(point)
        order = g.owner.invariant_names
    residuals = []
    ok = True
    for gamma, scale in zip(g.gammas, g.member_scales()):
        val = gamma.with_vars(order).eval(values)
        residuals.append(abs(val))
        if abs(val) > tol * scale:
            ok = False
    return ok, residuals


# --------------------------------------------------------------- sampling

def _grid_coord(rng: random.Random) -> complex:
    # n / GRID_DENOM is exact in floats for every n drawn
    re = rng.randint(-GRID_SPAN, GRID_SPAN) / GRID_DENOM
    im = rng.randint(-GRID_SPAN, GRID_SPAN) / GRID_DENOM
    return complex(re, im)


def _draw_coord(rng: random.Random) -> complex:
    """One grid coordinate; a draw too close to 0 is redrawn alone."""
    while True:
        z = _grid_coord(rng)
        if abs(z) >= MIN_COORD:
            return z


def draw_point(rng: random.Random, d: int):
    """d grid coordinates; if any is too close to 0 the whole tuple is redrawn."""
    while True:
        p = tuple(_grid_coord(rng) for _ in range(d))
        if all(abs(c) >= MIN_COORD for c in p):
            return p


def _polish_root(coeffs, z: complex) -> complex:
    """Newton refinement with a step-size stopping rule.

    The residual rule inside the generic root finder is too loose here:
    the composed numerators carry enormous coefficients, so a root that
    clears the residual bound can still be several digits short.
    coeffs are the dense univariate coefficients, lowest degree first.
    """
    def val_der(w):
        p = dp = 0j
        for c in reversed(coeffs):
            dp = dp * w + p
            p = p * w + c
        return p, dp

    p, dp = val_der(z)
    best, best_res = z, abs(p)
    for _ in range(16):
        if dp == 0:
            break
        z2 = z - p / dp
        p, dp = val_der(z2)
        if abs(p) < best_res:
            best, best_res = z2, abs(p)
        if abs(z2 - z) <= 1e-15 * (1 + abs(z2)):
            break
        z = z2
    return best


def _first_member(g: VarietyGenerator, points):
    """The first candidate on the variety with no coordinate below 1e-6."""
    for full in points:
        if any(abs(c) < 1e-6 for c in full):
            continue
        try:
            ok, _ = membership(g, full)
        except PoleError:
            continue
        if ok:
            return full
    return None


def _solve_last(g: VarietyGenerator, num: MPoly, drawn, last: str):
    point = dict(zip(g.owner.varnames[:-1], drawn))
    try:
        coeffs = coefficient_values(num, last, point)
        cands = roots_of_values(coeffs, last, tol=1e-8)
    except (RootFindingError, ValueError):
        return None
    cands = sorted((_polish_root(coeffs, r) for r in cands), key=root_sort_key)
    return _first_member(g, (drawn + (r,) for r in cands))


def _solve_toda(g: VarietyGenerator, t2sub: MPoly, drawn):
    point = dict(zip(("x", "y", "z", "u"), drawn))
    try:
        cands = roots_of_poly(t2sub, "v", point, tol=1e-8)
    except (RootFindingError, ValueError):
        return None
    return _first_member(g, (drawn + (v, -(sum(drawn) + v))
                             for v in sorted(cands, key=root_sort_key)))


def sample_on_variety(g: VarietyGenerator, seed: int):
    """Seeded point on the variety; deterministic in (generator, seed).

    All but l coordinates are drawn from a rational grid in the complex
    square [-3, 3] x [-3, 3]; the remaining ones solve gamma(H(x)) = 0.
    """
    if g.l > 2:
        raise SamplingError("sampling supports at most two generators")
    rng = random.Random(f"variety:{g.map_name}:{g.period}:{seed}")
    names = g.owner.varnames

    if g.map_name == "toda3":
        # t1 = 0 fixes w linearly; t2 = 0 is then quadratic in v
        t2sub = g.toda_quadratic()
        solve = lambda drawn: _solve_toda(g, t2sub, drawn)
    else:
        if g.l != 1:
            raise SamplingError(f"no sequential solve path for {g.map_name} "
                                f"with {g.l} generators")
        num = g.composed_numerators()[0]
        last = names[-1]
        if len(num.as_univariate(last)) == 1:
            raise SamplingError(
                f"generator does not involve the solve coordinate {last!r}")
        solve = lambda drawn: _solve_last(g, num, drawn, last)
    for _ in range(32):
        # one coordinate per generator is solved for, the others drawn
        got = solve(tuple(_draw_coord(rng) for _ in range(len(names) - g.l)))
        if got is not None:
            return got
    raise SamplingError(
        f"no admissible draw for ({g.map_name}, {g.period}, seed {seed})")


def checksum_cases(map_name: str, period: int):
    """Transcription-time spot values recorded alongside the bulky entries."""
    entry = VARIETIES.get(map_name, {})
    raw = entry.get("checksums", {}).get(str(period), [])
    out = []
    for case in raw:
        point = {k: Fraction(v) for k, v in case["point"].items()}
        out.append((point, Fraction(case["value"])))
    return out
