"""Catalog of invariant-variety generators, membership tests, and sampling.

Each catalog entry is a list of polynomials gamma in the invariant symbols
of one map (or directly in its coordinates, for the rigid-body map).  The
zero set of gamma(H(x)) collects the points whose orbit is periodic with
the stated period.  Where a map's spec names an invariant whose zero set
is its degenerate locus, the build divides that invariant's powers out of
each generator.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from typing import Dict, Optional, Sequence, Tuple

from .algebra import (MPoly, RatFunc, compose_parts, exact_divide, parse_poly,
                      pseudo_rem, roots_of_poly)
from .biquad import GAMMAS, on_pencil
from .catalog import MAPS, IntegrableMap, apply_map, catalog_get, rel_dist
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
    def chain(self) -> Tuple[Tuple[MPoly, str], ...]:
        """triangular_chain of the composed numerators, cached."""
        return triangular_chain(self.composed_numerators(),
                                self.owner.varnames)


def triangular_chain(generators: Sequence[MPoly],
                     coords: Sequence[str]) -> Tuple[Tuple[MPoly, str], ...]:
    """((generator, coordinate), ...): generator i pseudo-reduced by the
    earlier ones, in coords[-1 - i], the coordinate the sampler solves it
    for.  toda3's t1 is linear in w, so its second entry is t2 with w
    eliminated, quadratic in v."""
    chain = []
    for g, v in zip(generators, reversed(coords)):
        for h, w in chain:
            g = pseudo_rem(g, h, w)
        if not g.degree(v):
            # nothing to solve for, and a pseudo-remainder by g would be 0
            raise SamplingError(
                f"generator does not involve the solve coordinate {v!r}")
        chain.append((g, v))
    return tuple(chain)


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
    locus = MAPS[m.name].degenerate
    if locus is not None:
        gammas = tuple(_without_powers_of(g, locus.invariant) for g in gammas)

    if entry.get("coordinates"):
        subs = {v: RatFunc.var(v).with_vars(m.varnames) for v in m.varnames}
        return VarietyGenerator(m.name, period, gammas, subs, m,
                                in_coordinates=True)
    subs = dict(zip(m.invariant_names, m.invariants))
    return VarietyGenerator(m.name, period, gammas, subs, m)


def _without_powers_of(gamma: MPoly, symbol: str) -> MPoly:
    """gamma divided by the largest power of the symbol dividing it."""
    k = min(exps[gamma.vars.index(symbol)] for exps in gamma.terms)
    return exact_divide(gamma, MPoly.var(symbol) ** k).with_vars(gamma.vars)


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


def _first_member(g: VarietyGenerator, points):
    """The first candidate on the variety with no coordinate below 1e-6
    that the map steps and does not fix."""
    for full in points:
        if any(abs(c) < 1e-6 for c in full):
            continue
        try:
            ok, _ = membership(g, full)
            if ok and rel_dist(apply_map(g.owner, full), full) > MEMBER_TOL:
                return full
        except PoleError:
            continue
    return None


def _completions(chain, point: dict):
    """The points that complete point along the chain, walked from its
    last entry to its first: each entry's roots in its coordinate, in
    root order, each followed by the completions it leads to."""
    if not chain:
        yield tuple(point.values())
        return
    *rest, (poly, var) = chain
    try:
        found = roots_of_poly(poly, var, point, tol=1e-8)
    except (RootFindingError, ValueError):
        return
    for r in found:
        yield from _completions(rest, {**point, var: r})


def sample_on_variety(g: VarietyGenerator, seed: int):
    """Seeded point on the variety; deterministic in (generator, seed).

    The first d - l coordinates are drawn from a rational grid in the
    complex square [-3, 3] x [-3, 3]; each entry of the triangular chain
    then solves for one more.  A candidate the map cannot step or fixes
    is passed over, and a draw on the map's degenerate locus, or with no
    candidate left, is drawn again.
    """
    rng = random.Random(f"variety:{g.map_name}:{g.period}:{seed}")
    names = g.owner.varnames
    chain = g.chain()
    locus = MAPS[g.map_name].degenerate
    for _ in range(32):
        drawn = tuple(_draw_coord(rng) for _ in range(len(names) - g.l))
        if locus is not None and locus.contains(drawn):
            continue
        got = _first_member(g, _completions(chain, dict(zip(names, drawn))))
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
