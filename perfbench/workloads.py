"""Request lists of the periodmaps benchmark, generated from a workload seed.

Everything here is plain data: the program only ever receives the argv
lists built below.  A request is a dict with the argv and the facts the
output checks need (kind, map, period, seeds, first seed, expected verdicts).
"""

from __future__ import annotations

import json
import random
from pathlib import Path

WORKLOADS = ("campaign", "derive", "wide")

# Dimension of every catalogued map, for checking sampled points.
DIMS = {"lyness2": 1, "lyness5": 2, "lyness8": 3, "lv3": 3, "lv4": 4,
        "toda3": 6, "euler": 3, "moebius2d": 2, "qrt": 2}

# campaign: (map, periods, parameter pool).  Round r uses pool[r % len(pool)].
# The lyness maps are periodic everywhere: they have no variety to sample and
# an off-variety scan of them must report returns, so they only get `verify`.
CAMPAIGN_MAPS = (
    ("lv3", (2, 3, 4), ({},)),
    ("lv4", (2,), ({},)),
    ("toda3", (3,), ({},)),
    ("euler", (3,), ({"alpha": "1/3", "beta": "1/5", "gamma": "-2/7"},
                     {"alpha": "-1/2", "beta": "1/3", "gamma": "2/5"})),
    ("moebius2d", (2, 3, 4, 5, 6), ({"a": "2", "b": "1/3"},
                                   {"a": "-3/2", "b": "1/2"},
                                   {"a": "1", "b": "2"})),
    ("qrt", (3, 4, 5), ({"qp": "1,2,0,3,1,2", "qpp": "0,1,1,0,2,1"},
                        {"qp": "2,-1,1,0,3,1", "qpp": "1,0,-1,2,1,1"})),
    ("lyness2", (2,), ({"a": "7"}, {"a": "-5/3"})),
    ("lyness5", (5,), ({},)),
    ("lyness8", (8,), ({},)),
)
# Seeds per request in each round; the total is fixed, so the amount of work
# does not depend on the workload seed, only which points are drawn.
CAMPAIGN_ROUND_SEEDS = (10, 15, 20) * 2

# wide: lv3 period 5, the widest generator, in `sample` and `verify` requests.
WIDE_REQUESTS = 10
WIDE_SEEDS = 20

# Catalog parameters `fixtures` uses for its transition samples; they mirror
# the defaults of periodmaps.elim.default_transitions.
DERIVE_CATALOG = {
    "example": ("moebius2d", {"a": "0", "b": "1"}),
    "moebius2d": ("moebius2d", {"a": "2", "b": "1/3"}),
    "euler": ("euler", {"alpha": "1/3", "beta": "1/5", "gamma": "-2/7"}),
}

SEED_RANGE = 1_000_000


def _param_args(params: dict) -> list:
    # `--gamma -2/7` is read by argparse as a missing value; `--gamma=-2/7`
    # is not, so every parameter goes in the joined form.
    return [f"--{k}={v}" for k, v in params.items()]


def _request(kind, map_name, period, seeds, seed, params) -> dict:
    command = "sample" if kind == "sample" else "verify"
    argv = [command, "--map", map_name]
    argv += ["--off-variety"] if kind == "off_variety" else ["--period", str(period)]
    argv += ["--seeds", str(seeds), "--seed", str(seed)] + _param_args(params)
    return {"argv": argv, "kind": kind, "map": map_name, "period": period,
            "seeds": seeds, "seed": seed, "expect": seeds}


def _campaign(rng: random.Random):
    requests = []
    setup = []
    for r, seeds in enumerate(CAMPAIGN_ROUND_SEEDS):
        for map_name, periods, pool in CAMPAIGN_MAPS:
            params = pool[r % len(pool)]
            if (map_name, params) not in setup:
                setup.append((map_name, params))
            kinds = [("verify", p) for p in periods]
            if not map_name.startswith("lyness"):
                kinds += [("sample", p) for p in periods]
                kinds.append(("off_variety", None))
            for kind, period in kinds:
                requests.append(_request(kind, map_name, period, seeds,
                                         rng.randrange(SEED_RANGE), params))
    rng.shuffle(requests)
    return requests, setup


def _derive(rng: random.Random, root: Path):
    path = root / "src" / "periodmaps" / "data" / "fixtures.json"
    with open(path, encoding="utf-8") as fh:
        recorded = json.load(fh)
    requests = []
    setup = []
    for map_name in recorded:
        for period, entries in recorded[map_name].items():
            requests.append({
                "argv": ["fixtures", "--map", map_name, "--period", period],
                "kind": "fixtures", "map": map_name, "period": int(period),
                "expect": len(entries)})
        spec = DERIVE_CATALOG.get(map_name, (map_name, {}))
        if spec not in setup:
            setup.append(spec)
    rng.shuffle(requests)
    return requests, setup


def _wide(rng: random.Random):
    kinds = ["sample", "verify"] * (WIDE_REQUESTS // 2)
    rng.shuffle(kinds)
    requests = [_request(kind, "lv3", 5, WIDE_SEEDS,
                         rng.randrange(SEED_RANGE), {}) for kind in kinds]
    return requests, [("lv3", {})]


def build(workload: str, seed: int, root: Path):
    """(requests, setup) for one workload; setup lists the (map, params)
    pairs whose first catalog_get belongs to set-up."""
    rng = random.Random(f"perfbench:{workload}:{seed}")
    if workload == "campaign":
        requests, setup = _campaign(rng)
    elif workload == "derive":
        requests, setup = _derive(rng, root)
    elif workload == "wide":
        requests, setup = _wide(rng)
    else:
        raise ValueError(f"unknown workload {workload!r}; known: {WORKLOADS}")
    return requests, [{"map": m, "params": p} for m, p in setup]
