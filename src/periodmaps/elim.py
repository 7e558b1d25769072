"""Recurrence derivation by iterated resultants, plus the fixture suite.

Given the cleared map relations together with the numerator of a composed
variety generator, eliminating the unwanted coordinates leaves polynomial
constraints between one coordinate and its image.  Resultants introduce
extraneous factors; those are filtered out numerically against true
on-variety transitions and removed by exact division.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

from .algebra import (MPoly, equal_up_to_scale, exact_divide, normalize,
                      parse_poly, poly_content, resultant, squarefree_part,
                      strip_var_monomials)
from .catalog import (MAPS, apply_map, catalog_get, elimination_setups,
                      transition_params)
from .data import FIXTURES
from .errors import (EliminationError, InexactDivisionError,
                     NotRecordedError, NothingToEliminateError, PoleError,
                     SamplingError)
from .varieties import gamma_get, sample_on_variety

TRANSITION_TOL = 1e-8
MIN_TRANSITIONS = 8


@dataclass(frozen=True)
class EliminationProblem:
    relations: Tuple[MPoly, ...]
    eliminate: Tuple[str, ...]
    keep: Tuple[str, ...]

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


Transition = Dict[str, complex]


def _eval_at(p: MPoly, t: Transition) -> complex:
    return p.eval([complex(t.get(v, 0)) for v in p.vars])


def _residuals(p: MPoly, transitions: Sequence[Transition]):
    """(|p(t)|, sum |c_i| |m_i(t)|) at each transition t: the value of p
    and the running-error scale of its Horner evaluation, the same plan
    with |c| leaves at |t|.  Roundoff moves the value by at most a small
    multiple of the unit roundoff times that scale, however large the
    monomials are (Higham, *Accuracy and Stability of Numerical
    Algorithms*, sec. 5.1)."""
    scale = p.abs_coeffs()
    for t in transitions:
        yield (abs(_eval_at(p, t)),
               _eval_at(scale, {v: abs(z) for v, z in t.items()}).real)


def _vanishes(p: MPoly, transitions: Sequence[Transition],
              tol: float) -> bool:
    return all(r <= tol * s for r, s in _residuals(p, transitions))


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
                    transitions: Optional[Sequence[Transition]],
                    tol: float) -> MPoly:
    p = strip_var_monomials(p)
    if p.total_degree() == 0:
        return p                # a monomial: eliminate drops it
    main = next((v for v in p.used_vars() if v.isupper()),
                None) or next(iter(p.used_vars()))
    p = squarefree_part(p, main)
    if transitions:
        for cand in spurious:
            cand = strip_var_monomials(cand.primitive())
            if cand.total_degree() == 0:
                continue
            if _vanishes(cand, transitions, tol):
                continue        # vanishing factors are genuine, keep them
            while p.total_degree() > cand.total_degree():
                try:
                    q = exact_divide(p, cand)
                except InexactDivisionError:
                    break
                if not _vanishes(q, transitions, tol):
                    break
                p = q
    return normalize(p)


def eliminate(prob: EliminationProblem,
              transitions: Optional[Sequence[Transition]] = None,
              tol: float = TRANSITION_TOL) -> List[MPoly]:
    """Polynomial consequences of the relations in the keep variables.

    The variables are eliminated in the order the problem lists them, the
    order `MapSpec.eliminations` records.  With transitions supplied (true
    (x, X) samples on the variety, at least eight), extraneous resultant
    factors are divided out and every returned factor is required to
    vanish on all of them.
    """
    if transitions is not None and len(transitions) < MIN_TRANSITIONS:
        raise EliminationError(
            f"need at least {MIN_TRANSITIONS} transition samples for filtering")
    polys = [p.with_vars(tuple(sorted(set(p.used_vars())
             | set(prob.eliminate) | set(prob.keep))))
             for p in prob.relations]
    for v in prob.eliminate:
        polys = _eliminate_once(polys, v)
    spurious = [rel.as_univariate(v)[-1] for rel in prob.relations
                for v in prob.eliminate if rel.degree(v)]
    results = []
    for p in polys:
        got = _filter_factors(p, spurious, transitions, tol)
        if got.total_degree() == 0:
            continue
        if transitions and not _vanishes(got, transitions, tol):
            raise EliminationError(
                "no factor surviving filtering vanishes on the transitions",
                witnesses=(got, list(transitions)))
        if not any(got == r for r in results):
            results.append(got)
    if not results:
        raise EliminationError("elimination left no nontrivial factor")
    return results


# ---------------------------------------------------------------- fixtures

@dataclass(frozen=True)
class Fixture:
    map_name: str
    period: int
    index: int
    F: MPoly

    def __post_init__(self):
        if self.F.is_zero():
            raise EliminationError("fixture polynomial is zero")


def make_transitions(map_name: str, period: int, count: int = 12,
                     params: dict = None,
                     base_seed: int = 0) -> List[Transition]:
    """True (x, X) transition samples on the (map, period) variety.

    Keys are the map coordinates plus their upper-case images; for
    parameterized maps the parameter values ride along so fixtures with
    parameter symbols evaluate directly.
    """
    m = catalog_get(map_name, params=params)
    g = gamma_get(map_name, period, m=m)
    out = []
    seed = base_seed
    while len(out) < count and seed < base_seed + 8 * count + 64:
        try:
            p = sample_on_variety(g, seed)
            q = apply_map(m, p)
        except (SamplingError, PoleError):
            seed += 1
            continue
        seed += 1
        t = dict(zip(m.varnames, p))
        t.update({v.upper(): c for v, c in zip(m.varnames, q)})
        for k, val in m.params.items():
            if isinstance(val, (int, Fraction)):
                t.setdefault(k, complex(Fraction(val)))
        out.append(t)
    if len(out) < count:
        raise EliminationError(
            f"could not collect {count} transitions for ({map_name}, {period})")
    return out


def standard_problems(map_name: str, period: int,
                      params: dict = None) -> List[EliminationProblem]:
    """The elimination problems the registry records for (map_name, period).

    Each solves for one image coordinate from its relation with the point
    and the variety; it keeps every variable of those polynomials that it
    does not eliminate.  A map with no symbolic relations is built at the
    parameters `transition_params` gives for params.
    """
    setups = elimination_setups(map_name, period)
    owner, at = transition_params(map_name, params)
    relations = MAPS[owner].relations
    if relations is not None:
        rels, variety = relations(period)
    else:
        m = catalog_get(owner, params=at)
        rels = {v.upper(): MPoly.var(v.upper()) * c.den - c.num
                for v, c in zip(m.varnames, m.components)}
        variety = gamma_get(owner, period, m=m).composed_numerators()
    probs = []
    for cap, gone in setups:
        used = (rels[cap],) + tuple(variety)
        keep = set().union(*(r.used_vars() for r in used)) - set(gone)
        probs.append(EliminationProblem(used, eliminate=gone,
                                        keep=tuple(sorted(keep))))
    return probs


def derive(map_name: str, period: int,
           transitions: Optional[Sequence[Transition]] = None,
           tol: float = TRANSITION_TOL, params: dict = None) -> List[MPoly]:
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
           for r in eliminate(prob, transitions=transitions, tol=tol)]
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


def default_transitions(map_name: str, period: int,
                        params: dict = None) -> List[Transition]:
    """Transitions at the parameter values `transition_params` gives."""
    owner, at = transition_params(map_name, params)
    return make_transitions(owner, period, params=at)


def _fixture_residual(fix: Fixture, t: Transition) -> float:
    if "q" in fix.F.vars and "q" not in t:
        al, be, ga = (t[k] for k in ("alpha", "beta", "gamma"))
        x, y = t["x"], t["y"]
        q = cmath.sqrt((1 - al * ga * y * y) * (1 - be * ga * x * x))
        best = None
        for sq in (q, -q):
            tt = dict(t)
            tt["q"] = sq
            r = abs(_eval_at(fix.F, tt))
            best = r if best is None else min(best, r)
        return best
    return abs(_eval_at(fix.F, t))


def check_fixture(fixes: Sequence[Fixture],
                  tol: float = TRANSITION_TOL) -> List[dict]:
    """Behavioral + (where the engine covers it) symbolic verdicts of the
    fixtures of one (map, period), in order.

    Behavioral: the recorded polynomial vanishes on true on-variety
    transitions of the owning map.  Symbolic: the standard elimination,
    run once for all of them, reproduces it up to scale; null where the
    registry records no elimination.  A behavioral failure is flagged as
    a suspected transcription or source typo, never silently repaired.
    """
    map_name, period = fixes[0].map_name, fixes[0].period
    transitions = default_transitions(map_name, period)
    try:
        derived = derive(map_name, period, transitions=transitions, tol=tol)
    except NotRecordedError:
        derived = []
    verdicts = []
    for fix in fixes:
        scale = 1 + float(fix.F.max_abs_coeff())
        worst = max(_fixture_residual(fix, t) for t in transitions)
        behavioral = worst <= tol * scale
        symbolic = (any(equal_up_to_scale(r, fix.F) for r in derived)
                    if derived else None)
        verdict = {
            "map": fix.map_name, "period": fix.period, "index": fix.index,
            "behavioral": behavioral, "max_residual": worst,
            "symbolic": symbolic,
        }
        if not behavioral:
            verdict["note"] = ("fixture does not vanish on true transitions; "
                               "suspected transcription or source typo")
        verdicts.append(verdict)
    return verdicts
