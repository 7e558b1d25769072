"""Recurrence derivation by iterated resultants, plus the fixture suite.

Given the cleared map relations together with the numerator of a composed
variety generator, eliminating the unwanted coordinates leaves polynomial
constraints between one coordinate and its image.  Resultants introduce
extraneous factors: the leading coefficients of the relations in the
eliminated variables (Cox, Little and O'Shea, *Ideals, Varieties, and
Algorithms*, ch. 3 sec. 6).  Those that do not vanish on the variety are
removed by exact division, and every result is certified to vanish on
it; both decisions are exact (`OnVariety`).
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Mapping, Sequence, Tuple

from .algebra import (MPoly, compose_parts, divides, equal_up_to_scale,
                      exact_divide, normalize, parse_poly, poly_content,
                      pseudo_rem, resultant, squarefree_part,
                      strip_var_monomials)
from .catalog import (MAPS, apply_map, catalog_get, elimination_setups,
                      transition_params)
from .data import FIXTURES
from .errors import (EliminationError, InexactDivisionError,
                     NotRecordedError, NothingToEliminateError, SamplingError)
from .varieties import gamma_get, sample_on_variety, triangular_chain

TRANSITION_TOL = 1e-9
TRANSITIONS = 12


class OnVariety:
    """Exact test that a polynomial in the point and its image vanishes
    on a period variety: with each image coordinate replaced by its
    component num/den and the denominators cleared, it pseudo-reduces to
    zero by the variety's triangular chain.  An exact quotient by a
    generator proves that at less cost, so it is tried first.  Each
    polynomial is tested once, however many problems share the variety.
    """

    def __init__(self, images: Mapping[str, Tuple[MPoly, MPoly]],
                 chain: Sequence[Tuple[MPoly, str]]):
        self.images = images        # image coordinate -> (num, den)
        self.chain = chain          # ((generator, coordinate), ...)
        self._known = {}
        for cap, (_, den) in images.items():
            if self._reduces_to_zero(den):
                raise EliminationError(
                    f"the map has a pole in {cap} on the whole variety")

    def vanishes(self, f: MPoly) -> bool:
        known = self._known.get(f)
        if known is None:
            known = self._known[f] = self._reduces_to_zero(
                compose_parts(f, self.images)[0])
        return known

    def _reduces_to_zero(self, n: MPoly) -> bool:
        for g, v in self.chain:
            if n.is_zero() or divides(g, n):
                return True
            n = pseudo_rem(n, g, v)
        return n.is_zero()


@dataclass(frozen=True)
class EliminationProblem:
    relations: Tuple[MPoly, ...]
    eliminate: Tuple[str, ...]
    keep: Tuple[str, ...]
    variety: OnVariety          # what every result must vanish on

    def __post_init__(self):
        if not 1 <= len(self.eliminate) <= 2:
            raise EliminationError("supported: one or two eliminated variables")
        if set(self.eliminate) & set(self.keep):
            raise EliminationError("eliminate and keep overlap")
        allowed = set(self.eliminate) | set(self.keep)
        for rel in self.relations:
            bad = set(rel.used_vars()) - allowed
            if bad:
                raise EliminationError(
                    f"relation uses undeclared variables {sorted(bad)}")


def _eliminate_once(polys: List[MPoly], v: str) -> List[MPoly]:
    with_v = [p for p in polys if p.degree(v)]
    without = [p for p in polys if not p.degree(v)]
    if not with_v:
        raise NothingToEliminateError(f"no relation involves {v!r}")
    if len(with_v) == 1:
        # only one constraint left in v: the gcd of its coefficients with
        # respect to v is the polynomial consequence free of v
        g = poly_content(with_v[0], v)
        if g.total_degree() == 0:
            raise EliminationError(
                f"single remaining relation in {v!r} has trivial content")
        return without + [g]
    pivot = min(with_v, key=lambda p: p.degree(v))
    out = list(without)
    for other in with_v:
        if other is pivot:
            continue
        R = resultant(pivot, other, v)
        if R.is_zero():
            raise EliminationError(
                f"resultant in {v!r} collapsed to zero; "
                "reorder the relations or the elimination variables")
        out.append(R)
    return out


def _filter_factors(p: MPoly, spurious: Sequence[MPoly],
                    variety: OnVariety) -> MPoly:
    p = strip_var_monomials(p)
    if p.total_degree() == 0:
        return p                # a monomial: eliminate drops it
    main = next((v for v in p.used_vars() if v.isupper()),
                None) or next(iter(p.used_vars()))
    p = squarefree_part(p, main)
    for cand in spurious:
        while p.total_degree() > cand.total_degree() > 0:
            try:
                q = exact_divide(p, cand)
            except InexactDivisionError:
                break
            if variety.vanishes(cand):
                break           # a genuine factor: keep it
            p = q
    return normalize(p)


def eliminate(prob: EliminationProblem) -> List[MPoly]:
    """Polynomial consequences of the relations in the keep variables.

    The variables are eliminated in the order the problem lists them, the
    order `MapSpec.eliminations` records.  Extraneous resultant factors
    are divided out, and every returned factor is certified to vanish on
    the problem's variety.
    """
    polys = [p.with_vars(tuple(sorted(set(p.used_vars())
             | set(prob.eliminate) | set(prob.keep))))
             for p in prob.relations]
    for v in prob.eliminate:
        polys = _eliminate_once(polys, v)
    spurious = [strip_var_monomials(rel.as_univariate(v)[-1].primitive())
                for rel in prob.relations for v in prob.eliminate
                if rel.degree(v)]
    results = []
    for p in polys:
        got = _filter_factors(p, spurious, prob.variety)
        if got.total_degree() == 0 or any(got == r for r in results):
            continue
        if not prob.variety.vanishes(got):
            raise EliminationError(
                f"derived factor does not vanish on the variety: {got}")
        results.append(got)
    if not results:
        raise EliminationError("elimination left no nontrivial factor")
    return results


# ---------------------------------------------------------------- fixtures

Transition = Dict[str, complex]


def _eval_at(p: MPoly, t: Transition) -> complex:
    return p.eval([complex(t.get(v, 0)) for v in p.vars])


@dataclass(frozen=True)
class Fixture:
    map_name: str
    period: int
    index: int
    F: MPoly

    def __post_init__(self):
        if self.F.is_zero():
            raise EliminationError("fixture polynomial is zero")


def make_transitions(map_name: str, period: int,
                     params: dict = None) -> List[Transition]:
    """TRANSITIONS true (x, X) samples on the (map, period) variety, drawn
    from seeds 0, 1, ...

    Keys are the map coordinates plus their upper-case images; for
    parameterized maps the parameter values ride along so fixtures with
    parameter symbols evaluate directly.
    """
    m = catalog_get(map_name, params=params)
    g = gamma_get(map_name, period, m=m)
    out = []
    seed = 0
    while len(out) < TRANSITIONS and seed < 8 * TRANSITIONS + 64:
        try:
            # the sampler returns only points the map steps
            p = sample_on_variety(g, seed)
        except SamplingError:
            seed += 1
            continue
        seed += 1
        q = apply_map(m, p)
        t = dict(zip(m.varnames, p))
        t.update({v.upper(): c for v, c in zip(m.varnames, q)})
        for k, val in m.params.items():
            if isinstance(val, (int, Fraction)):
                t.setdefault(k, complex(Fraction(val)))
        out.append(t)
    if len(out) < TRANSITIONS:
        raise EliminationError(f"could not collect {TRANSITIONS} transitions "
                               f"for ({map_name}, {period})")
    return out


def standard_problems(map_name: str, period: int,
                      params: dict = None) -> List[EliminationProblem]:
    """The elimination problems the registry records for (map_name, period).

    Each solves for one image coordinate from its relation with the point
    and the variety; it keeps every variable of those polynomials that it
    does not eliminate.  All of them share one exact test of the variety.
    A map with no symbolic relations is built at the parameters
    `transition_params` gives for params.
    """
    setups = elimination_setups(map_name, period)
    owner, at = transition_params(map_name, params)
    relations = MAPS[owner].relations
    m = catalog_get(owner, params=at)
    if relations is not None:
        rels, variety = relations(period)
        chain = triangular_chain(variety, m.varnames)
    else:
        rels = {v.upper(): MPoly.var(v.upper()) * c.den - c.num
                for v, c in zip(m.varnames, m.components)}
        g = gamma_get(owner, period, m=m)
        variety, chain = g.composed_numerators(), g.chain()
    # each relation is X*den - num, linear in its image coordinate X
    images = {cap: (-rel.coeff_of(cap, 0), rel.coeff_of(cap, 1))
              for cap, rel in rels.items()}
    on_variety = OnVariety(images, chain)
    probs = []
    for cap, gone in setups:
        used = (rels[cap],) + tuple(variety)
        keep = set().union(*(r.used_vars() for r in used)) - set(gone)
        probs.append(EliminationProblem(used, eliminate=gone,
                                        keep=tuple(sorted(keep)),
                                        variety=on_variety))
    return probs


def derive(map_name: str, period: int, params: dict = None) -> List[MPoly]:
    """The recurrences of map_name at params, from the standard
    eliminations; one result polynomial per setup.

    The map is built at params first, so parameters it rejects raise here.
    A family with symbolic relations derives its recurrences for all
    members at once and substitutes the member's parameters afterwards:
    params, or the recorded values of a member its spec lists.  Any other
    map is derived at params, and nothing is substituted.
    """
    if params:
        catalog_get(map_name, params=params)
    out = [r for prob in standard_problems(map_name, period, params)
           for r in eliminate(prob)]
    owner, at = transition_params(map_name, params)
    values = params if owner == map_name else at
    if values and MAPS[owner].relations is not None:
        out = [r.subs_values(values).primitive() for r in out]
    return out


def fixtures_for(map_name: str, period: int) -> List[Fixture]:
    recorded = FIXTURES.get(map_name, {})
    entries = recorded.get(str(period))
    if not entries:
        raise NotRecordedError(
            f"no fixtures recorded for ({map_name}, {period}); "
            f"recorded periods: {sorted(map(int, recorded))}")
    out = []
    for e in entries:
        F = parse_poly(e["F"], tuple(e["vars"]))
        out.append(Fixture(map_name, period, e["index"], F))
    return out


def _fixture_residual(fix: Fixture, t: Transition) -> float:
    if "q" in fix.F.vars and "q" not in t:
        al, be, ga = (t[k] for k in ("alpha", "beta", "gamma"))
        x, y = t["x"], t["y"]
        q = cmath.sqrt((1 - al * ga * y * y) * (1 - be * ga * x * x))
        return min(abs(_eval_at(fix.F, {**t, "q": sq})) for sq in (q, -q))
    return abs(_eval_at(fix.F, t))


def check_fixture(fixes: Sequence[Fixture]) -> List[dict]:
    """Symbolic and behavioral verdicts of the fixtures of one (map,
    period), in order; a verdict passes when both hold.

    Symbolic: the standard elimination, run once for all of them,
    reproduces the fixture up to scale; null where the registry records
    no elimination.  Behavioral: the fixture vanishes on the variety,
    which a reproduced fixture does by its certificate (`OnVariety`).
    The others are evaluated on true transitions of the owning map, and
    a failure is flagged as a suspected transcription or source typo,
    never silently repaired.
    """
    map_name, period = fixes[0].map_name, fixes[0].period
    try:
        derived = derive(map_name, period)
    except NotRecordedError:
        derived = []
    symbolic = [any(equal_up_to_scale(r, fix.F) for r in derived)
                if derived else None for fix in fixes]
    if not all(symbolic):
        owner, at = transition_params(map_name)
        transitions = make_transitions(owner, period, params=at)
    verdicts = []
    for fix, sym in zip(fixes, symbolic):
        verdict = {"map": fix.map_name, "period": fix.period,
                   "index": fix.index, "behavioral": True, "symbolic": sym}
        if not sym:
            worst = max(_fixture_residual(fix, t) for t in transitions)
            verdict["max_residual"] = worst
            if worst > TRANSITION_TOL * (1 + float(fix.F.max_abs_coeff())):
                verdict.update(behavioral=False, note=(
                    "fixture does not vanish on true transitions; "
                    "suspected transcription or source typo"))
        verdict["pass"] = verdict["behavioral"] and sym is not False
        verdicts.append(verdict)
    return verdicts
