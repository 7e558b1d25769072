"""One benchmark pass, in a fresh interpreter so that the program's caches
(the catalog's invariant checks, `moebius.derive_gamma`'s lru_cache and the
composed numerators of a variety generator) start cold, as in a CLI call.

Reads a job as JSON on stdin, prints one JSON line.  The pass imports
periodmaps from the checkout's src/, sets up (the import plus the first
catalog_get of every map the requests use), then sends the requests to
periodmaps.cli.main one after another, each after the previous returned,
and checks every report.  With "trace" set the layers are wrapped first.
"""

import json
import resource
import shutil
import sys
import time
from pathlib import Path

import checks
import tracing


def _catalog_params(params: dict) -> dict:
    from fractions import Fraction
    return {k: (tuple(Fraction(c) for c in v.split(","))
                if k in ("qp", "qpp") else Fraction(v))
            for k, v in params.items()}


def run(job: dict) -> dict:
    root = Path(job["root"])
    sys.path.insert(0, str(root / "src"))
    t0 = time.perf_counter()
    import periodmaps.cli
    if not Path(periodmaps.cli.__file__).resolve().is_relative_to(root / "src"):
        raise RuntimeError(f"periodmaps imported from {periodmaps.cli.__file__}, "
                           f"not from {root / 'src'}")
    tracer = None
    if job["trace"]:
        tracer = tracing.Tracer()
        tracer.install()
    from periodmaps import catalog
    for spec in job["setup"]:
        catalog.catalog_get(spec["map"], params=_catalog_params(spec["params"]))
    setup_s = time.perf_counter() - t0
    result = {"setup_s": setup_s}
    if not job["requests"]:
        return result

    out_dir = root / job["out_dir"]
    shutil.rmtree(out_dir, ignore_errors=True)
    out_dir.mkdir(parents=True)
    outcomes = []
    latencies = []
    start = time.perf_counter()
    for i, req in enumerate(job["requests"]):
        argv = req["argv"] + ["--out", str(out_dir / f"{i}.json")]
        if tracer:
            tracer.request = i
        raised = None
        t = time.perf_counter()
        try:
            code = periodmaps.cli.main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:  # counted as a failed request, never fatal
            code, raised = None, f"{type(exc).__name__}: {exc}"
        latencies.append(time.perf_counter() - t)
        outcomes.append((code, raised))
    solve_s = time.perf_counter() - start
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    attempted = failed = 0
    problems = []
    entries = []
    for i, (req, (code, raised)) in enumerate(zip(job["requests"], outcomes)):
        path = out_dir / f"{i}.json"
        text = path.read_text(encoding="utf-8") if path.exists() else None
        a, f, p, entry = checks.check(req, code, raised, text)
        attempted += a
        failed += f
        problems += p
        entries.append(entry)
    result.update(solve_s=solve_s, latencies_s=latencies, rss_mb=rss_mb,
                  attempted=attempted, failed=failed, problems=problems,
                  digest=checks.digest(entries))
    if tracer:
        result["layers"] = tracer.metrics()
        result["derived_digest"] = checks.digest(tracer.outputs("elim.derive"))
        tracer.write_spans(root / job["spans"])
    return result


if __name__ == "__main__":
    print(json.dumps(run(json.load(sys.stdin))))
