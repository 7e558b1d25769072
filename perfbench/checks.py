"""Output checks and digests for benchmark requests.

A verdict is one seed or one fixture.  It fails when it says `pass: false`
or carries an `error`; every verdict a request was asked for fails when the
request exits with a code other than 0 or 1 or raises out of `main`.  A
report that contradicts itself, or the request that produced it, is a
problem: it makes the run incorrect, while a failed verdict is counted.
"""

from __future__ import annotations

import hashlib
import json
import math

from workloads import DIMS

TOL = 1e-9  # the CLI default; no request overrides it


def _strip(obj):
    """The report without floats, wall time or error texts (which print floats)."""
    if isinstance(obj, dict):
        return {k: (True if k == "error" else _strip(v))
                for k, v in obj.items()
                if k != "wall_time_ms" and not isinstance(v, float)}
    if isinstance(obj, list):
        return [_strip(v) for v in obj if not isinstance(v, float)]
    return obj


def digest(entries) -> str:
    """Order-independent sha256 of per-request digest entries."""
    canon = sorted(json.dumps(e, sort_keys=True) for e in entries)
    return hashlib.sha256("\n".join(canon).encode()).hexdigest()


def _verdict_problems(req, verdicts) -> list:
    kind = req["kind"]
    problems = []
    if kind in ("verify", "sample"):
        seeds = [v.get("seed") for v in verdicts]
        if seeds != list(range(req["seed"], req["seed"] + req["seeds"])):
            problems.append("verdict seeds do not match --seed/--seeds")
    elif kind == "off_variety":
        if len(verdicts) > req["seeds"]:
            problems.append("more verdicts than --seeds")
    elif len(verdicts) != req["expect"]:
        problems.append(f"{len(verdicts)} fixture verdicts, "
                        f"{req['expect']} recorded")
    for v in verdicts:
        if not isinstance(v.get("pass"), bool):
            problems.append("verdict without a boolean pass")
            continue
        if "error" in v:
            if v["pass"]:
                problems.append("verdict with an error passes")
            continue
        if kind == "verify" and v["pass"]:
            if not (v["residual"] <= TOL and v["drift"] <= TOL):
                problems.append(f"seed {v['seed']} passes beyond tol")
            if v["primitive"] is not True:
                problems.append(f"seed {v['seed']} passes but is not a "
                                f"primitive {req['period']}-cycle")
        elif kind == "sample":
            point = v["point"]
            if (len(point) != DIMS[req["map"]]
                    or not all(math.isfinite(c) for z in point for c in z)
                    or not math.isfinite(v["residual"])):
                problems.append(f"seed {v['seed']} sampled a malformed point")
        elif kind == "off_variety":
            if v["pass"] != (v["returns"] == []):
                problems.append(f"seed {v['seed']} pass disagrees with returns")
        elif kind == "fixtures":
            if (v["map"], v["period"]) != (req["map"], req["period"]):
                problems.append("fixture verdict for another (map, period)")
            if v["pass"] != (v["behavioral"] and v["symbolic"] is not False):
                problems.append(f"fixture {v['index']} pass disagrees "
                                f"with behavioral/symbolic")
    return problems


def _fixture_fails(req, v) -> bool:
    """A fixture must hold behaviorally and, where the engine covers it,
    symbolically.  euler's F uses q, which the engine does not cover, so
    its symbolic verdict is null."""
    want = None if req["map"] == "euler" else True
    return v.get("behavioral") is not True or v.get("symbolic") is not want


def check(req, code, raised, text):
    """(attempted, failed, problems, digest entry) of one request."""
    entry = {"argv": req["argv"], "exit": code, "raised": raised}
    label = " ".join(req["argv"])
    if raised is not None or code not in (0, 1) or text is None:
        return req["expect"], req["expect"], [
            f"{label}: exit {code}, raised {raised}"], entry
    try:
        report = json.loads(text)
        attempted, failed, problems = _check_report(req, code, report)
    except (ValueError, KeyError, TypeError) as exc:
        return req["expect"], req["expect"], [
            f"{label}: malformed report ({exc!r})"], entry
    entry["report"] = _strip(report)
    return attempted, failed, [f"{label}: {p}" for p in problems], entry


def _check_report(req, code, report):
    verdicts = report["verdicts"]
    problems = _verdict_problems(req, verdicts)
    config = report["config"]
    if config["command"] != req["argv"][0] or config["map"] != req["map"]:
        problems.append("config does not echo the request")
    summary = report["residual_summary"]
    passed = sum(1 for v in verdicts if v.get("pass") is True)
    if summary["count"] != len(verdicts) or summary["passed"] != passed:
        problems.append("residual_summary disagrees with the verdicts")
    if (code == 0) != (passed == len(verdicts)):
        problems.append(f"exit {code} with {passed}/{len(verdicts)} passing")
    failed = len(verdicts) - passed
    if req["kind"] == "fixtures":
        bad = [v for v in verdicts if _fixture_fails(req, v)]
        failed = max(failed, len(bad))
        problems += [f"fixture #{v.get('index')} behavioral="
                     f"{v.get('behavioral')} symbolic={v.get('symbolic')}"
                     for v in bad]
    return len(verdicts), failed, problems
