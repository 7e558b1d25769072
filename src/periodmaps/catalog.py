"""The concrete integrable maps: components, invariants, parameters.

Explicit maps carry RatFunc components over their coordinate variables;
the discrete Euler top in Hirota-Kimura form is one too, its components
the Cramer-rule solution of its linear 3x3 step.  One family is implicit:
the 4d Lotka-Volterra map, solved through a cyclic Moebius chain plus a
quadratic consistency condition.

Everything the package knows about one map sits in its MapSpec record in
MAPS: the builder, the parameters, and the defaults other stages use.
"""

from __future__ import annotations

import cmath
import random
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from typing import Callable, Mapping, Optional, Sequence, Tuple

from .algebra import (MPoly, RatFunc, companion_roots, compile_eval,
                      compose_parts, poly_gcd)
from .biquad import quadratic_coeffs, s_value
from .errors import (BranchSelectionError, DegenerateParameterError,
                     MissingParameterError, NonFiniteError,
                     NotRecordedError, PoleError, SingularSystemError,
                     UnknownMapError)
from .moebius import derive_gamma

Point = Tuple[complex, ...]
INVARIANT_POINTS = 20   # regular points of an implicit map's build check


def as_point(coords: Sequence[complex]) -> Point:
    pt = tuple(map(complex, coords))
    if not all(map(cmath.isfinite, pt)):
        raise NonFiniteError("point has a non-finite coordinate")
    return pt


def rel_dist(p: Sequence[complex], q: Sequence[complex]) -> float:
    """max |p_i - q_i| / (1 + |q_i|): the distance of p from the reference q."""
    return max(abs(a - b) / (1 + abs(b)) for a, b in zip(p, q))


@dataclass(frozen=True, eq=False)
class IntegrableMap:
    """A built map; catalog_get builds one per (name, parameters), so maps
    compare and hash by identity.

    Construction compiles the float step of explicit components (None for
    an implicit map) and the invariant values into one straight-line
    function of a point each (algebra.compile_eval).
    """
    name: str
    varnames: Tuple[str, ...]
    params: dict
    components: Optional[Tuple[RatFunc, ...]]
    invariants: Tuple[RatFunc, ...] = ()
    invariant_names: Tuple[str, ...] = ()
    numeric_apply: Optional[Callable] = None
    step: Optional[Callable] = field(init=False, repr=False)
    invariant_values: Callable = field(init=False, repr=False)

    def __post_init__(self):
        step = (None if self.components is None
                else compile_eval(self.components))
        object.__setattr__(self, "step", step)
        object.__setattr__(self, "invariant_values",
                           compile_eval(self.invariants))

    @property
    def d(self) -> int:
        return len(self.varnames)

    def __repr__(self):
        return f"IntegrableMap({self.name}, d={self.d})"


def _rf(num: MPoly, den: MPoly = None, vars=None) -> RatFunc:
    r = RatFunc(num, den if den is not None else MPoly.const(1))
    return r.with_vars(vars) if vars is not None else r


def _vars(names):
    return tuple(MPoly.var(n) for n in names)


# ---------------------------------------------------------------- builders

# Each builder takes the map name and its normalised parameters and returns
# the IntegrableMap; catalog_get checks the invariants afterwards.

def _build_lyness2(name, params):
    x, = _vars("x")
    comp = _rf(MPoly.const(params["a"]), x, vars=("x",))
    return IntegrableMap(name, ("x",), params, (comp,))


def _build_lyness5(name, params):
    x, y = _vars(("x", "y"))
    vs = ("x", "y")
    return IntegrableMap(name, vs, params,
                         (_rf(1 + x, y, vars=vs), _rf(x, vars=vs)))


def _build_lyness8(name, params):
    x, y, z = _vars(("x", "y", "z"))
    vs = ("x", "y", "z")
    return IntegrableMap(name, vs, params, (_rf(1 + x + y, z, vars=vs),
                                            _rf(x, vars=vs), _rf(y, vars=vs)))


def _build_lv3(name, params):
    vs = ("x", "y", "z")
    x, y, z = _vars(vs)
    A = 1 - y + y * z
    B = 1 - z + z * x
    C = 1 - x + x * y
    comps = (_rf(x * A, B, vars=vs), _rf(y * B, C, vars=vs), _rf(z * C, A, vars=vs))
    r = _rf(x * y * z, vars=vs)
    s = _rf((1 - x) * (1 - y) * (1 - z), vars=vs)
    return IntegrableMap(name, vs, params, comps, (r, s), ("r", "s"))


def lv_chain(xs, one, zero):
    """The cyclic chain X_j(1-X_{j-1}) = x_j(1-x_{j+1}) as Moebius maps.

    Generic over the coefficient ring (complex numbers or MPoly): returns
    the right-hand sides rhs_j = x_j(1-x_{j+1}) and the coefficients
    (a, b, c, e) with X_{d-1} = (a t + b)/(c t + e) for t = X_0.
    """
    d = len(xs)
    rhs = [xs[j] * (1 - xs[(j + 1) % d]) for j in range(d)]
    a, b, c, e = one, zero, zero, one
    for j in range(1, d):
        # X_j = rhs[j] / (1 - X_{j-1})
        a, b, c, e = rhs[j] * c, rhs[j] * e, c - a, e - b
    return rhs, (a, b, c, e)


def lv_cyclic_apply(x: Point):
    """Both solution branches of X_j(1-X_{j-1}) = x_j(1-x_{j+1}), cyclic.

    Propagates X_1 = t through the Moebius chain and solves the quadratic
    consistency condition; returns a list of candidate image points.
    """
    d = len(x)
    rhs, (a, b, c, e) = lv_chain(x, 1 + 0j, 0j)
    # consistency: t (1 - X_{d-1 -> back to j=0}) = rhs[0]
    # i.e. t((c - a) t + (e - b)) = rhs[0] (c t + e)
    coeffs = [c - a, e - b - rhs[0] * c, -rhs[0] * e]
    if abs(coeffs[0]) <= 1e-14 * (1 + max(abs(v) for v in coeffs)):
        if abs(coeffs[1]) == 0:
            raise SingularSystemError("degenerate consistency condition")
        ts = [-coeffs[2] / coeffs[1]]
    else:
        ts = companion_roots(coeffs)
    images = []
    for t in ts:
        img = [t]
        ok = True
        for j in range(1, d):
            den = 1 - img[-1]
            if abs(den) <= 1e-13 * (1 + abs(rhs[j])):
                ok = False
                break
            img.append(rhs[j] / den)
        if ok:
            images.append(tuple(img))
    if not images:
        raise PoleError("all consistency branches hit a pole")
    return images


def _lv4_apply(m: IntegrableMap, p: Point) -> Point:
    """The consistency branch that best conserves m's invariants."""
    candidates = lv_cyclic_apply(p)
    base = m.invariant_values(p)
    best = None
    best_drift = None
    for img in candidates:
        try:
            vals = m.invariant_values(img)
        except PoleError:
            continue
        drift = rel_dist(vals, base)
        if best_drift is None or drift < best_drift:
            best, best_drift = img, drift
    if best is None or best_drift > 1e-6:
        message = ("no consistency root conserves the invariants "
                   f"(drift {best_drift})")
        ones = [v for v, c in zip(m.varnames, p) if c == 1]
        if ones:
            # on x_(j+1) = 1 the chain's X_j(1 - X_(j-1)) = x_j(1 - x_(j+1))
            # is 0, so the image has X_j = 0 and r = 0
            on = " and ".join(f"{v} = 1" for v in ones)
            message += (f"; the point lies on {on}, where the cyclic chain "
                        "forces a coordinate, and so r, to 0")
        raise BranchSelectionError(message)
    return best


def _lv4_relations(period):
    """The consistency quadratic of each image coordinate solved for, from
    the cyclic chain started at its point coordinate, and the lv4 variety."""
    from .varieties import gamma_get
    names = ("x", "y", "z", "u")
    rels = {}
    for cap, _ in elimination_setups("lv4", period):
        k = names.index(cap.lower())
        rhs, (a, b, c, e) = lv_chain(_vars(names[k:] + names[:k]),
                                     MPoly.const(1), MPoly.zero())
        t = MPoly.var(cap)
        rels[cap] = t * ((c - a) * t + (e - b)) - rhs[0] * (c * t + e)
    return rels, gamma_get("lv4", period).composed_numerators()


def _build_lv4(name, params):
    names = ("x", "y", "z", "u")
    xs = _vars(names)
    x, y, z, u = xs
    f0, f1, f2, f3 = (xs[j] * (1 - xs[j - 1]) for j in range(4))
    invs = (_rf(f0 + f1 + f2 + f3, vars=names),
            _rf(f0 * f2 + f1 * f3, vars=names),
            _rf(x * y * z * u, vars=names))
    # the step is called only once m exists, so it may name m
    m = IntegrableMap(name, names, params, None, invs, ("h1", "h2", "r"),
                      numeric_apply=lambda p: _lv4_apply(m, p))
    return m


def _build_toda3(name, params):
    names = ("x", "y", "z", "u", "v", "w")
    x, y, z, u, v, w = _vars(names)
    A = z * u + z * x + w * u
    B = y * w + y * z + v * w
    C = x * v + x * y + u * v
    t1 = x + y + z + u + v + w
    t2 = (x * y + y * z + z * x + u * v + v * w + w * u
          + x * v + y * w + z * u)
    comps = (
        _rf(y * A, B, vars=names), _rf(z * C, A, vars=names),
        _rf(x * B, C, vars=names), _rf(u * B, A, vars=names),
        _rf(v * A, C, vars=names), _rf(w * C, B, vars=names))
    invs = (
        _rf(t1, vars=names), _rf(t2, vars=names),
        _rf(x * y * z, vars=names),
        _rf(u * v * w, vars=names))
    return IntegrableMap(name, names, params, comps, invs,
                         ("t1", "t2", "t3", "t3p"))


def _euler_alpha_from_inertia(I: Fraction, J: Fraction, K: Fraction):
    if 0 in (I, J, K):
        raise DegenerateParameterError("moments of inertia must be nonzero")
    return (J - K) / (2 * I), (K - I) / (2 * J), (I - J) / (2 * K)


def _euler_inertia_from_alpha(al: Fraction, be: Fraction, ga: Fraction):
    """Reconstruct (I, J, K) with I = 1, if the compatibility relation holds."""
    if al + be + ga + 4 * al * be * ga != 0:
        return None
    if 1 - 2 * be == 0:
        return None
    I = Fraction(1)
    J = (1 + 2 * al) / (1 - 2 * be)
    K = 1 + 2 * be * J
    if I - J != 2 * ga * K:
        return None
    return I, J, K


def _det3(m):
    return (m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
            - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
            + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0]))


def _build_euler(name, params):
    if all(k in params for k in ("I", "J", "K")):
        I, J, K = params["I"], params["J"], params["K"]
        al, be, ga = _euler_alpha_from_inertia(I, J, K)
    elif all(k in params for k in ("alpha", "beta", "gamma")):
        al, be, ga = params["alpha"], params["beta"], params["gamma"]
        ijk = _euler_inertia_from_alpha(al, be, ga)
        I = J = K = None
        if ijk is not None:
            I, J, K = ijk
    else:
        raise MissingParameterError(
            "euler needs either I,J,K or alpha,beta,gamma")
    names = ("x", "y", "z")
    xs = x, y, z = _vars(names)
    # the step solves A(x) X = x; Cramer's rule gives its components
    one = MPoly.const(1)
    rows = [[one, -al * z, -al * y],
            [-be * z, one, -be * x],
            [-ga * y, -ga * x, one]]
    det = _det3(rows)
    comps = tuple(
        _rf(_det3([row[:col] + [v] + row[col + 1:]
                   for row, v in zip(rows, xs)]), det, vars=names)
        for col in range(3))
    if I is not None:
        den = 1 - be * ga * x ** 2
        invs = (
            _rf(I * x ** 2 + J * y ** 2 + K * z ** 2, den, vars=names),
            _rf(I ** 2 * x ** 2 + J ** 2 * y ** 2 + K ** 2 * z ** 2, den,
                vars=names))
    else:
        invs = (
            _rf(1 - be * ga * x ** 2, 1 - ga * al * y ** 2, vars=names),
            _rf(1 - ga * al * y ** 2, 1 - al * be * z ** 2, vars=names))
    full = dict(params)
    full.update(alpha=al, beta=be, gamma=ga)
    if I is not None:
        full.update(I=I, J=J, K=K)
    return IntegrableMap(name, names, full, comps, invs, ("h1", "h2"))


def _build_moebius2d(name, params):
    a, b = params["a"], params["b"]
    if a * b == 1:
        raise DegenerateParameterError(
            "moebius2d with a*b = 1 collapses to a constant map")
    names = ("x", "y")
    x, y = _vars(names)
    comps = (_rf((x + a) * y, vars=names),
             _rf(y * (1 + b * x), 1 + b * y * (x + a), vars=names))
    H = _rf(y * (1 + b * x), vars=names)
    return IntegrableMap(name, names, params, comps, (H,), ("h",))


def _moebius2d_relations(period):
    """X = (x + a) y and the period variety, with a and b kept as symbols:
    the recorded recurrences hold for the whole family."""
    x, y, a, b = _vars(("x", "y", "a", "b"))
    gam = compose_parts(derive_gamma(period), {"h": y * (1 + b * x)})[0]
    return {"X": MPoly.var("X") - (x + a) * y}, (gam,)


def _coerce_six(q) -> Tuple[Fraction, ...]:
    q = tuple(Fraction(c) for c in q)
    if len(q) != 6:
        raise MissingParameterError("expected six rational parameters")
    return q


def _build_qrt(name, params):
    """H = -S_q'(y, x) / S_q''(y, x), and Y the root besides x of the
    X-quadratic of S_q' + h S_q'' at y, on the level set h through (x, y)."""
    qp, qpp = params["qp"], params["qpp"]
    names = ("x", "y")
    x, y = _vars(names)
    xp, ep, rp = quadratic_coeffs(qp, y)
    xpp, epp, rpp = quadratic_coeffs(qpp, y)
    num = ep * rpp - rp * epp - x * (rp * xpp - xp * rpp)
    den = rp * xpp - xp * rpp - x * (xp * epp - ep * xpp)
    if den.is_zero():
        raise DegenerateParameterError("QRT denominator is identically zero")
    comps = (_rf(y, vars=names), _rf(num, den, vars=names))
    hnum, hden = s_value(qp, y, x), s_value(qpp, y, x)
    if hden.is_zero():
        raise DegenerateParameterError(
            "invariant denominator biquadratic is identically zero")
    # a common factor of S_q' and S_q'' divides S_q' + h S_q'' for every h:
    # no level set is an irreducible curve for Y to be the other root on
    if poly_gcd(hnum, hden).total_degree() > 0:
        raise DegenerateParameterError(
            "S_q' and S_q'' share a factor, so every curve of the pencil "
            "q' + h q'' is reducible")
    H = _rf(-hnum, hden, vars=names)
    return IntegrableMap(name, names, params, comps, (H,), ("h",))


# ---------------------------------------------------------------- registry

@dataclass(frozen=True)
class MapSpec:
    """One catalogued map: how to build it and what its parameters are."""
    build: Callable[[str, dict], IntegrableMap]
    accepts: Tuple[str, ...] = ()       # parameter names catalog_get takes
    six_vectors: Tuple[str, ...] = ()   # accepted names bound to six rationals
    required: Tuple[str, ...] = ()
    advertised: Tuple[str, ...] = ()    # `periodmaps list` and the CLI flags
    period: Optional[int] = None        # set when every point has this period
    # elimination target -> parameter values its transitions are sampled at;
    # a target other than the map itself is the map at those values
    transitions: Mapping[str, Mapping[str, Fraction]] = field(
        default_factory=dict)
    # elimination target -> period -> (image coordinate solved for,
    # variables eliminated) of each problem `eliminate` runs there
    eliminations: Mapping[str, Mapping[int, Tuple[
        Tuple[str, Tuple[str, ...]], ...]]] = field(default_factory=dict)
    # period -> (image coordinate -> its relation with the point, variety
    # numerators) that elimination starts from, for a map whose relations
    # are not its components' X*den - num and its composed variety
    relations: Optional[Callable[[int], Tuple[dict, Tuple[MPoly, ...]]]] = None


MAPS = {
    "lyness2": MapSpec(_build_lyness2, accepts=("a",), required=("a",),
                       advertised=("a",), period=2),
    "lyness5": MapSpec(_build_lyness5, period=5),
    "lyness8": MapSpec(_build_lyness8, period=8),
    "lv3": MapSpec(_build_lv3, eliminations={"lv3": {
        2: (("X", ("y", "z")), ("Y", ("z", "x"))),
        **{n: (("X", ("z",)), ("Y", ("z",))) for n in (3, 4, 5)}}}),
    "lv4": MapSpec(_build_lv4, eliminations={"lv4": {
        2: (("X", ("u", "y")), ("Y", ("u",)), ("Z", ("u", "y")))}},
        relations=_lv4_relations),
    "toda3": MapSpec(_build_toda3, eliminations={"toda3": {
        3: tuple((cap, ("z", "w")) for cap in "XYUV")}}),
    "euler": MapSpec(
        _build_euler, accepts=("alpha", "beta", "gamma", "I", "J", "K"),
        advertised=("alpha", "beta", "gamma"),
        transitions={"euler": {"alpha": Fraction(1, 3),
                               "beta": Fraction(1, 5),
                               "gamma": Fraction(-2, 7)}}),
    "moebius2d": MapSpec(
        _build_moebius2d, accepts=("a", "b"), required=("a", "b"),
        advertised=("a", "b"),
        # the worked example is the parameter-free member of the family
        transitions={"moebius2d": {"a": Fraction(2), "b": Fraction(1, 3)},
                     "example": {"a": Fraction(0), "b": Fraction(1)}},
        eliminations={"moebius2d": {n: (("X", ("y",)),) for n in range(2, 9)},
                      "example": {3: (("X", ("y",)),)}},
        relations=_moebius2d_relations),
    "qrt": MapSpec(_build_qrt, accepts=("qp", "qpp"),
                   six_vectors=("qp", "qpp"), required=("qp", "qpp"),
                   advertised=("qp", "qpp"),
                   eliminations={"qrt": {n: (("X", ("y",)),)
                                         for n in (3, 4, 5)}}),
}

MAP_NAMES = tuple(MAPS)


def catalog_get(name: str, params: dict = None, **kw) -> IntegrableMap:
    """Construct a catalog map with its invariants attached and checked.

    The map is built and checked once per (name, normalised parameters);
    a rejected build raises again on every call.
    """
    spec = MAPS.get(name)
    if spec is None:
        raise UnknownMapError(f"unknown map {name!r}; known: {MAP_NAMES}")
    bound = dict(params or {})
    bound.update(kw)
    check_params(name, bound)
    for req in spec.required:
        if req not in bound:
            raise MissingParameterError(f"{name} requires parameter {req!r}")
    norm = sorted((k, _coerce_six(v) if k in spec.six_vectors
                   else Fraction(v)) for k, v in bound.items())
    return _built(name, tuple(norm))


@lru_cache(maxsize=None)
def _built(name: str, params: tuple) -> IntegrableMap:
    m = MAPS[name].build(name, dict(params))
    _verify_invariants(m)
    return m


def check_params(name: str, params) -> None:
    """Reject a parameter the map does not take.

    A name MAPS does not hold (the worked example) takes none.
    """
    accepts = MAPS[name].accepts if name in MAPS else ()
    for key in params or {}:
        if key not in accepts:
            raise MissingParameterError(
                f"{name} takes no parameter {key!r}; accepted: {list(accepts)}")


def transition_params(target: str, params: dict = None):
    """(map, parameters) whose transitions elimination samples for target.

    A family with symbolic relations derives for all its members at once,
    so it samples at the values its spec records, and so does a member
    that spec lists.  Any other map samples at the parameters given, or at
    the recorded ones when none are given; a target that no spec lists
    samples its own map.
    """
    for name, spec in MAPS.items():
        if target in spec.transitions and (
                params is None or spec.relations is not None):
            return name, dict(spec.transitions[target])
    return target, params


def elimination_setups(target: str, period: int):
    """(image coordinate, eliminated variables) of each problem recorded
    for (target, period); NotRecordedError if there are none."""
    recorded = next((spec.eliminations[target] for spec in MAPS.values()
                     if target in spec.eliminations), {})
    if period not in recorded:
        raise NotRecordedError(
            f"no elimination recorded for ({target}, {period}); "
            f"recorded periods: {sorted(recorded)}")
    return recorded[period]


def _verify_invariants(m: IntegrableMap):
    """Build-time conservation check of every attached invariant: over
    explicit components phi a proof that each H = num/den has H(phi) = H
    as an identity of polynomials; an implicit map's numeric step is
    checked at INVARIANT_POINTS regular points."""
    if m.components is not None:
        subs = dict(zip(m.varnames, m.components))
        for h in m.invariants:
            (n1, d1), (n2, d2) = (compose_parts(p, subs)
                                  for p in (h.num, h.den))
            # H(phi) = (n1/d1) / (n2/d2)
            if n2.is_zero() or n1 * d2 * h.den != h.num * d1 * n2:
                raise AssertionError(
                    f"invariant not conserved exactly for {m.name}")
        return
    sig = (m.name, tuple(sorted((k, str(v)) for k, v in m.params.items())))
    rng = random.Random(f"catalog:{sig}")
    checked = 0
    attempts = 0
    while checked < INVARIANT_POINTS and attempts < 40 * INVARIANT_POINTS:
        attempts += 1
        pt = tuple(Fraction(rng.randint(-40, 40), rng.randint(1, 12))
                   for _ in range(m.d))
        if any(c == 0 for c in pt):
            continue
        try:
            fpt = as_point(pt)
            img = m.numeric_apply(fpt)
            before = m.invariant_values(fpt)
            after = m.invariant_values(img)
            if any(abs(x - y) > 1e-8 * (1 + abs(x))
                   for x, y in zip(before, after)):
                raise AssertionError(
                    f"invariant drift too large for {m.name} at {pt}")
        except (PoleError, SingularSystemError, BranchSelectionError):
            continue
        checked += 1
    if checked < INVARIANT_POINTS:
        raise AssertionError(f"could not find {INVARIANT_POINTS} regular "
                             f"points to verify {m.name}")


# ---------------------------------------------------------------- operations

def apply_map(m: IntegrableMap, p: Sequence[complex]) -> Point:
    """One step of the map at a numeric point."""
    pt = as_point(p)
    if len(pt) != m.d:
        raise NonFiniteError(f"point dimension {len(pt)} != map dimension {m.d}")
    if m.step is not None:
        # the pole test bounds each |num/den| below 1e12: finite
        return m.step(pt)
    return as_point(m.numeric_apply(pt))


def invariants_eval(m: IntegrableMap, p: Sequence[complex]):
    return m.invariant_values(as_point(p))


def params_json(params: dict) -> dict:
    """Parameter values as JSON: a rational as its text, a six-vector as
    the list of its entries' texts."""
    return {k: (str(v) if isinstance(v, Fraction) else [str(c) for c in v])
            for k, v in params.items()}


def descriptor(m: IntegrableMap) -> dict:
    """JSON-serializable description of the map."""
    return {
        "name": m.name,
        "d": m.d,
        "vars": list(m.varnames),
        "params": params_json(m.params),
        "components": None if m.components is None
        else [str(c) for c in m.components],
        "invariants": {n: str(h)
                       for n, h in zip(m.invariant_names, m.invariants)},
        "implicit": m.components is None,
    }
