"""periodmaps benchmark.

    python3 perfbench/run.py --workload campaign|derive|wide --seed N \
        --seconds S --trace 0|1

Run from the root of a checkout.  The request list of the workload is
generated from --seed (perfbench/workloads.py) and sent to the real entry
point, periodmaps.cli.main, by one client in a closed loop.  Each pass over
the list runs in a fresh interpreter (perfbench/worker.py), one at a time,
until --seconds have passed; a pass's first catalog_get calls are set-up.

--trace 0 prints the end-to-end metrics of BENCHMARK.json: medians over
the passes of set-up time, solve time, peak memory and the median and p90
request latency of a pass, and the share of verdicts that passed.
--trace 1 alternates untraced and traced passes and prints the per-layer
metrics; time metrics are medians over the traced passes and
trace.overhead_s is the traced minus the untraced median solve time.

The last line of stdout is one JSON object: correct, attempted, failed,
metrics.  A run is correct when every report agrees with its request and
with itself, every pass produced the same outputs, and on `derive` every
fixture reproduces (perfbench/expected.json holds its output digest).
"""

from __future__ import annotations

import argparse
import compileall
import json
import math
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = Path(".bench_build") / "perfbench"
SETUP_SAMPLES = 25      # cold set-ups per --trace 0 run; the median is reported
DEADLINE_S = 170        # a run ends well inside the 180 s it is allowed


def _quantile(values, q):
    """Nearest-rank quantile: the smallest value with a share q at or below it."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(len(ordered) * q) - 1)]


def _worker(job, deadline):
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise TimeoutError("the run used up its time before a pass could start")
    proc = subprocess.run([sys.executable, str(HERE / "worker.py")],
                          input=json.dumps(job), capture_output=True,
                          text=True, timeout=remaining, cwd=ROOT)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"benchmark pass exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _passes(requests, setup, seconds, trace, deadline):
    base = {"root": str(ROOT), "setup": setup, "requests": requests,
            "out_dir": str(OUT_DIR / "out"),
            "spans": str(OUT_DIR / "spans.jsonl")}
    passes = []
    start = time.monotonic()
    while (len(passes) < (2 if trace else 1)
           or time.monotonic() - start < seconds):
        traced = trace and len(passes) % 2 == 1
        passes.append(_worker(dict(base, trace=traced), deadline))
        passes[-1]["traced"] = traced
    return passes


def _end_to_end(passes, setups):
    first = passes[0]
    return {
        "setup_s": statistics.median(setups),
        "solve_s": statistics.median(p["solve_s"] for p in passes),
        "request_p50_ms": 1000 * statistics.median(
            statistics.median(p["latencies_s"]) for p in passes),
        "request_p90_ms": 1000 * statistics.median(
            _quantile(p["latencies_s"], 0.9) for p in passes),
        "pass_ratio": 1 - first["failed"] / first["attempted"],
        "peak_rss_mb": statistics.median(p["rss_mb"] for p in passes),
    }


def _per_layer(passes):
    """(metrics, whether the traced passes agree on every count)."""
    traced = [p for p in passes if p["traced"]]
    plain = [p for p in passes if not p["traced"]]
    out = dict(traced[0]["layers"])
    for key in out:
        if key.endswith("_s"):
            out[key] = statistics.median(p["layers"][key] for p in traced)
    out["trace.overhead_s"] = (statistics.median(p["solve_s"] for p in traced)
                               - statistics.median(p["solve_s"] for p in plain))
    counts = [{k: v for k, v in p["layers"].items() if not k.endswith("_s")}
              for p in traced]
    return out, all(c == counts[0] for c in counts)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S

    src = ROOT / "src" / "periodmaps"
    if not (src / "cli.py").is_file():
        print(f"no periodmaps sources at {src}", file=sys.stderr)
        return 2
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    # the build of a Python checkout: byte-compile once, outside every timing
    compileall.compile_dir(str(src), quiet=1)

    requests, setup = workloads.build(args.workload, args.seed, ROOT)
    passes = _passes(requests, setup, args.seconds, bool(args.trace), deadline)

    problems = [p for run in passes for p in run["problems"]]
    if len({p["digest"] for p in passes}) != 1:
        problems.append("passes over the same requests gave different outputs")
    if args.workload == "derive":
        with open(HERE / "expected.json", encoding="utf-8") as fh:
            expected = json.load(fh)["derive"]
        if passes[0]["digest"] != expected["fixtures_digest"]:
            problems.append("fixture verdicts differ from the recorded digest")

    if args.trace:
        values, agree = _per_layer(passes)
        if not agree:
            problems.append("traced passes disagree on layer counts")
        declared = spec["per_layer"]
        if args.workload == "derive":
            # printed, not checked: a later kernel may legitimately rescale F
            derived = passes[1]["derived_digest"]
            same = derived == expected["derived_digest"]
            print(f"derived F digest {derived} "
                  f"({'as recorded' if same else 'differs from the record'})")
    else:
        setups = [p["setup_s"] for p in passes]
        setup_job = {"root": str(ROOT), "setup": setup, "requests": [],
                     "trace": False}
        while len(setups) < SETUP_SAMPLES:
            setups.append(_worker(setup_job, deadline)["setup_s"])
        values = _end_to_end(passes, setups)
        declared = spec["end_to_end"]
        n = len(requests)
        print(f"passes: {len(passes)}; set-up samples: {len(setups)}; "
              f"latency quantiles per pass over {n} requests, "
              f"{n - math.ceil(0.9 * n)} above p90")

    first = passes[0]
    print(f"{args.workload} seed {args.seed}: {first['attempted']} verdicts, "
          f"{first['failed']} failed "
          f"(failed_ratio {first['failed'] / first['attempted']:.6f}); "
          f"output digest {first['digest']}")
    for problem in problems[:20]:
        print(f"problem: {problem}")
    metrics = {}
    for m in declared:
        metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
        print(f"{m['name']:48s} {values[m['name']]:>14.6g} {m['unit']}")
    print(json.dumps({"correct": not problems, "attempted": first["attempted"],
                      "failed": first["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
