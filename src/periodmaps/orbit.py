"""Orbit iteration and the three verdicts: return, conservation, exclusivity.

A period claim reduces to a return test after n steps; a variety claim
additionally needs invariant conservation along the way and the absence
of returns from generic points off every catalogued variety.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

from .catalog import IntegrableMap, apply_map, invariants_eval, rel_dist
from .errors import PoleError

Point = Tuple[complex, ...]


@dataclass(frozen=True)
class OrbitReport:
    points: Tuple[Point, ...]
    return_error: float
    drift: float
    primitive: bool
    fixed_point: bool

    def passed(self, tol: float) -> bool:
        """The period verdict: the orbit is a primitive n-cycle (it returns
        after n steps and after no proper divisor of n, so its start is not
        a fixed point, both decided at verify_period's tol), and its return
        error and invariant drift are both within tol."""
        return self.primitive and self.return_error <= tol and self.drift <= tol


def iterate(m: IntegrableMap, p0: Sequence[complex], n: int) -> List[Point]:
    """[p0, p1, ..., pn]; a pole reports the step at which it occurred."""
    cur = tuple(complex(c) for c in p0)
    out = [cur]
    for k in range(n):
        try:
            cur = apply_map(m, cur)
        except PoleError as exc:
            raise PoleError(f"pole at step {k + 1}: {exc}", step=k + 1) from exc
        out.append(cur)
    return out

def verify_period(m: IntegrableMap, p0: Sequence[complex], n: int,
                  tol: float = 1e-9) -> OrbitReport:
    """Return test after n steps plus divisor-based primitivity."""
    if n < 2:
        raise ValueError("periods start at 2; fixed points are excluded")
    pts = iterate(m, p0, n)
    start = pts[0]
    return_error = rel_dist(pts[n], start)
    fixed_point = rel_dist(pts[1], start) <= tol
    primitive = return_error <= tol and not fixed_point
    if primitive:
        for d in range(2, n):
            if n % d == 0 and rel_dist(pts[d], start) <= tol:
                primitive = False
                break
    drift = _drift_along(m, pts)
    return OrbitReport(points=tuple(pts), return_error=return_error,
                       drift=drift, primitive=primitive,
                       fixed_point=fixed_point)


def _drift_along(m: IntegrableMap, pts: Sequence[Point]) -> float:
    if not m.invariants:
        return 0.0
    base = invariants_eval(m, pts[0])
    worst = 0.0
    for p in pts[1:]:
        worst = max(worst, rel_dist(invariants_eval(m, p), base))
    return worst


def exclusivity_scan(m: IntegrableMap, p0: Sequence[complex], n_max: int,
                     tol: float = 1e-9) -> List[bool]:
    """Return flags for n = 2..n_max from a single orbit; expected all False.

    A pole mid-scan restarts from a slightly perturbed start; the scan
    gives up after a handful of perturbations rather than loop forever.
    """
    start = tuple(complex(c) for c in p0)
    for attempt in range(6):
        try:
            pts = iterate(m, start, n_max)
        except PoleError:
            eps = 1e-5 * (attempt + 1)
            start = tuple(c * (1 + eps) + eps for c in start)
            continue
        return [rel_dist(p, start) <= tol for p in pts[2:]]
    raise PoleError(
        f"scan kept hitting poles after 6 perturbed restarts from {p0}")


def orbit_csv(pts: Sequence[Point], varnames: Sequence[str]) -> str:
    """CSV dump of an orbit: one row per step, re/im columns per coordinate."""
    cols = ["step"]
    for v in varnames:
        cols += [f"re_{v}", f"im_{v}"]
    lines = [",".join(cols)]
    for k, p in enumerate(pts):
        row = [str(k)]
        for c in p:
            row += [repr(c.real), repr(c.imag)]
        lines.append(",".join(row))
    return "\n".join(lines) + "\n"
