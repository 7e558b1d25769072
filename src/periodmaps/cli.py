"""Command-line frontend: catalog browsing, verification campaigns,
recurrence derivation, and machine-readable reports.

Exit codes: 0 all verdicts pass, 1 a verdict failed, 2 bad usage.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import random
import sys
import time
from fractions import Fraction
from functools import lru_cache

from . import varieties as V
from .algebra import equal_up_to_scale
from .catalog import (MAP_NAMES, MAPS, catalog_get, check_params, descriptor,
                      elimination_setups, params_json)
from .elim import check_fixture, default_transitions, derive, fixtures_for
from .errors import (MissingParameterError, NotRecordedError,
                     PeriodmapsError, UnknownMapError, UnknownVarietyError)
from .orbit import exclusivity_scan, iterate, orbit_csv, verify_period

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2

# every parameter some map advertises is a flag; True marks a six-vector
_PARAM_FLAGS = {k: k in spec.six_vectors
                for spec in MAPS.values() for k in spec.advertised}


def _fraction(text: str) -> Fraction:
    try:
        value = Fraction(text)
        float(value)        # every command steps its map in floats
    except (ValueError, ZeroDivisionError, OverflowError) as exc:
        why = ("too large for a float" if isinstance(exc, OverflowError)
               else "not a rational")
        raise argparse.ArgumentTypeError(f"{why}: {text!r}") from exc
    return value


def _fraction_list(text: str):
    return tuple(_fraction(part) for part in text.split(","))


def _collect_params(args) -> dict:
    params = {k: getattr(args, k) for k in _PARAM_FLAGS
              if getattr(args, k, None) is not None}
    return params or None


def _emit(args, payload):
    if getattr(args, "format", "json") == "text":
        text = payload if isinstance(payload, str) else _as_text(payload)
    elif isinstance(payload, str):
        text = payload
    else:
        text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    if getattr(args, "out", None):
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _as_text(payload) -> str:
    lines = []

    def walk(obj, indent=""):
        if isinstance(obj, dict):
            for k in sorted(obj):
                v = obj[k]
                if isinstance(v, (dict, list)):
                    lines.append(f"{indent}{k}:")
                    walk(v, indent + "  ")
                else:
                    lines.append(f"{indent}{k}: {v}")
        elif isinstance(obj, list):
            for v in obj:
                walk(v, indent + "  ")
        else:
            lines.append(f"{indent}{obj}")

    walk(payload)
    return "\n".join(lines) + "\n"


def _report(args, config: dict, verdicts: list, t0: float) -> dict:
    residuals = [v["residual"] for v in verdicts if "residual" in v]
    summary = {
        "count": len(verdicts),
        "passed": sum(1 for v in verdicts if v.get("pass")),
    }
    if residuals:
        summary["max_residual"] = max(residuals)
    return {
        "config": config,
        "verdicts": verdicts,
        "residual_summary": summary,
        "wall_time_ms": int((time.monotonic() - t0) * 1000),
    }


# ---------------------------------------------------------------- commands

def cmd_list(args) -> int:
    names = [args.map] if args.map else list(MAP_NAMES)
    entries = []
    for name in names:
        spec = MAPS[name]
        entry = {"map": name, "periods": list(V.available_periods(name))}
        if spec.advertised:
            entry["parameters"] = list(spec.advertised)
        if spec.period:
            entry["note"] = ("periodic for every initial point (period %d)"
                             % spec.period)
        entries.append(entry)
    _emit(args, {"maps": entries})
    return EXIT_OK


def cmd_verify(args) -> int:
    t0 = time.monotonic()
    params = _collect_params(args)
    m = catalog_get(args.map, params=params)
    config = {"command": "verify", "map": args.map, "period": args.period,
              "seeds": args.seeds, "seed": args.seed, "tol": args.tol,
              "off_variety": args.off_variety,
              "map_descriptor": descriptor(m)}
    verdicts = []
    if args.off_variety:
        rng = random.Random(f"cli-off:{args.map}:{args.seed}")
        gens = [V.gamma_get(args.map, n, m=m)
                for n in V.available_periods(args.map)]
        for i in range(args.seeds):
            p = V.draw_point(rng, m.d)
            if any(V.membership(g, p, tol=args.tol)[0] for g in gens):
                continue   # landed on a variety by accident, skip the draw
            try:
                flags = exclusivity_scan(m, p, 12, tol=args.tol)
            except PeriodmapsError as exc:
                verdicts.append({"seed": args.seed + i, "pass": False,
                                 "error": str(exc)})
                continue
            verdicts.append({"seed": args.seed + i, "pass": not any(flags),
                             "returns": [n for n, f in
                                         zip(range(2, 13), flags) if f]})
    else:
        # a map periodic everywhere has no variety: any point will do
        everywhere = MAPS[args.map].period is not None
        g = None if everywhere else V.gamma_get(args.map, args.period, m=m)
        rng = random.Random(f"cli-verify:{args.map}:{args.seed}")
        for i in range(args.seeds):
            seed = args.seed + i
            try:
                if everywhere:
                    p = V.draw_point(rng, m.d)
                else:
                    p = V.sample_on_variety(g, seed)
                rep = verify_period(m, p, args.period, tol=args.tol)
            except PeriodmapsError as exc:
                verdicts.append({"seed": seed, "pass": False,
                                 "error": str(exc)})
                continue
            verdicts.append({
                "seed": seed, "pass": rep.passed(args.tol),
                "residual": rep.return_error, "drift": rep.drift,
                "primitive": rep.primitive,
            })
    _emit(args, _report(args, config, verdicts, t0))
    return EXIT_OK if all(v["pass"] for v in verdicts) else EXIT_FAIL


def cmd_sample(args) -> int:
    t0 = time.monotonic()
    params = _collect_params(args)
    m = catalog_get(args.map, params=params)
    g = V.gamma_get(args.map, args.period, m=m)
    config = {"command": "sample", "map": args.map, "period": args.period,
              "seeds": args.seeds, "seed": args.seed, "tol": args.tol,
              "gammas": [str(p) for p in g.gammas]}
    verdicts = []
    for i in range(args.seeds):
        seed = args.seed + i
        try:
            p = V.sample_on_variety(g, seed)
            member, residuals = V.membership(g, p, tol=args.tol)
        except PeriodmapsError as exc:
            verdicts.append({"seed": seed, "pass": False, "error": str(exc)})
            continue
        verdicts.append({
            "seed": seed, "pass": member,
            "point": [[c.real, c.imag] for c in p],
            "residual": max(residuals),
        })
    _emit(args, _report(args, config, verdicts, t0))
    return EXIT_OK if all(v["pass"] for v in verdicts) else EXIT_FAIL


def cmd_eliminate(args) -> int:
    t0 = time.monotonic()
    params = _collect_params(args)
    name = args.map
    check_params(name, params)
    # a pair with nothing recorded is a usage error, raised before sampling
    elimination_setups(name, args.period)
    try:
        fixes = fixtures_for(name, args.period)
    except NotRecordedError:
        fixes = None            # derivable, but nothing recorded to match
    try:
        transitions = default_transitions(name, args.period, params)
    except UnknownVarietyError:
        transitions = None      # no variety recorded to sample: unfiltered
    results = derive(name, args.period, transitions=transitions,
                     tol=args.tol, params=params)
    targets = [(fix.index, fix.F) for fix in fixes or ()]
    if params:
        # the family's recorded recurrences at the given parameter values
        targets = [(i, F.subs_values(params).primitive())
                   for i, F in targets]
    verdicts = []
    for r in results:
        match = next((i for i, F in targets if equal_up_to_scale(r, F)),
                     None)
        entry = {"F": str(r)}
        if fixes is not None:
            entry["fixture_match"] = match
        entry["pass"] = fixes is None or match is not None
        verdicts.append(entry)
    config = {"command": "eliminate", "map": name, "period": args.period,
              "tol": args.tol, "params": params_json(params or {})}
    _emit(args, _report(args, config, verdicts, t0))
    return EXIT_OK if all(v["pass"] for v in verdicts) else EXIT_FAIL


def cmd_orbit(args) -> int:
    params = _collect_params(args)
    m = catalog_get(args.map, params=params)
    init = tuple(complex(c) for c in args.init)
    if len(init) != m.d:
        print(f"usage error: --init has {len(init)} coordinates, "
              f"{args.map} takes {m.d}", file=sys.stderr)
        return EXIT_USAGE
    pts = iterate(m, init, args.steps)
    if args.format == "csv":
        _emit(args, orbit_csv(pts, m.varnames))
    else:
        _emit(args, {"map": args.map, "steps": args.steps,
                     "points": [[[c.real, c.imag] for c in p] for p in pts]})
    return EXIT_OK


def cmd_fixtures(args) -> int:
    t0 = time.monotonic()
    verdicts = check_fixture(fixtures_for(args.map, args.period),
                             tol=args.tol)
    for v in verdicts:
        v["pass"] = v["behavioral"] and v["symbolic"] is not False
    config = {"command": "fixtures", "map": args.map, "period": args.period,
              "tol": args.tol}
    _emit(args, _report(args, config, verdicts, t0))
    return EXIT_OK if all(v["pass"] for v in verdicts) else EXIT_FAIL


# ---------------------------------------------------------------- wiring

def _add_common(sp, period_required=True, seeds=True, params=True):
    sp.add_argument("--map", required=True, choices=MAP_NAMES + ("example",))
    sp.add_argument("--period", type=int, required=period_required)
    if seeds:
        sp.add_argument("--seeds", type=int, default=10)
        sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--tol", type=float, default=1e-9)
    if params:
        _add_params(sp)
    _add_output(sp)


def _add_params(sp):
    for key, six in _PARAM_FLAGS.items():
        sp.add_argument("--" + key, type=_fraction_list if six else _fraction)


def _add_output(sp, formats=("json", "text")):
    sp.add_argument("--format", choices=formats, default="json")
    sp.add_argument("--out")


@lru_cache(maxsize=None)
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once and shared by every main call."""
    ap = argparse.ArgumentParser(
        prog="periodmaps",
        description="integrable maps, invariant varieties, recurrences")
    sub = ap.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("list", help="catalog of maps and variety periods")
    sp.add_argument("--map", choices=MAP_NAMES)
    _add_output(sp)
    sp.set_defaults(fn=cmd_list)

    sp = sub.add_parser("verify", help="period/conservation campaigns")
    _add_common(sp, period_required=False)
    sp.add_argument("--off-variety", action="store_true")
    sp.set_defaults(fn=cmd_verify)

    sp = sub.add_parser("sample", help="seeded points on a variety")
    _add_common(sp)
    sp.set_defaults(fn=cmd_sample)

    sp = sub.add_parser("eliminate", help="derive recurrence polynomials")
    _add_common(sp, seeds=False)
    sp.set_defaults(fn=cmd_eliminate)

    sp = sub.add_parser("orbit", help="dump an orbit as CSV or JSON")
    sp.add_argument("--map", required=True, choices=MAP_NAMES)
    sp.add_argument("--init", type=_fraction_list, required=True)
    sp.add_argument("--steps", type=int, required=True)
    _add_params(sp)
    _add_output(sp, formats=("json", "csv", "text"))
    sp.set_defaults(fn=cmd_orbit)

    sp = sub.add_parser("fixtures", help="verify recorded recurrences")
    _add_common(sp, seeds=False, params=False)
    sp.set_defaults(fn=cmd_fixtures)

    return ap


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    # input argparse lets through; ap.error exits with EXIT_USAGE
    period = getattr(args, "period", None)
    if period is not None and period < 2:
        ap.error("--period must be at least 2")
    if args.command == "verify" and period is None and not args.off_variety:
        ap.error("verify needs --period unless --off-variety is given")
    if args.command == "verify" and period is not None and args.off_variety:
        ap.error("verify takes --period or --off-variety, not both: "
                 "--off-variety scans periods 2-12 against every variety")
    if getattr(args, "seeds", 1) < 1:
        ap.error("--seeds must be at least 1")
    tol = getattr(args, "tol", 1.0)
    if not (math.isfinite(tol) and tol > 0):
        ap.error("--tol must be a positive finite number")
    if getattr(args, "steps", 0) < 0:
        ap.error("--steps must not be negative")
    out = getattr(args, "out", None)
    if out and not os.path.isdir(os.path.dirname(out) or "."):
        ap.error(f"--out {out}: its directory does not exist")
    try:
        return args.fn(args)
    except (UnknownMapError, UnknownVarietyError, MissingParameterError,
            NotRecordedError) as exc:
        extra = ""
        if getattr(exc, "available", None):
            extra = f" (available periods: {list(exc.available)})"
        print(f"usage error: {exc}{extra}", file=sys.stderr)
        return EXIT_USAGE
    except PeriodmapsError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAIL


if __name__ == "__main__":
    sys.exit(main())
