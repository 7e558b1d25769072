"""Outside-in layer tracing for the periodmaps benchmark.

The program itself carries no timers.  Tracing replaces each layer's public
function by a wrapper in every periodmaps module that holds a reference to
it, i.e. where callers look it up, so calls from inside the package are
seen too.  Each call becomes one span (id, parent, request, name, start,
end); a span's self time is its duration minus the part its child spans
cover, and busy time counts only the outermost span of a layer, because
poly_gcd and derive_gamma recurse.  The caches of the program are not
touched: a wrapper sits in front of `moebius.derive_gamma`'s lru_cache and
calls it, so a cache hit is still one call.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import sys
import time


def _terms(poly):
    return len(poly.terms)


# (module, function, counter).  A counter is (key, observe): observe sees the
# call's args and result after it returned.  A key ending in "_max" keeps the
# largest value observed, one ending in "_ratio" the share of calls observed
# true, and "outputs" collects the observed strings (derived polynomials).
LAYERS = (
    ("periodmaps.cli", "main", None),
    ("periodmaps.catalog", "catalog_get", None),
    ("periodmaps.catalog", "apply_map", None),
    ("periodmaps.orbit", "verify_period", None),
    ("periodmaps.orbit", "exclusivity_scan", None),
    ("periodmaps.varieties", "gamma_get", None),
    ("periodmaps.varieties", "sample_on_variety", None),
    ("periodmaps.varieties", "membership",
     ("accept_ratio", lambda args, result: result[0])),
    ("periodmaps.varieties", "VarietyGenerator.composed_numerators",
     ("terms_max", lambda args, result: max(map(_terms, result)))),
    ("periodmaps.elim", "make_transitions", None),
    ("periodmaps.elim", "derive",
     ("outputs", lambda args, result: [str(p) for p in result])),
    ("periodmaps.elim", "eliminate", None),
    ("periodmaps.elim", "check_fixture", None),
    ("periodmaps.moebius", "derive_gamma", None),
    ("periodmaps.algebra.poly", "exact_divide", None),
    ("periodmaps.algebra.poly", "divides",
     ("true_ratio", lambda args, result: result)),
    ("periodmaps.algebra.gcd", "poly_gcd", None),
    ("periodmaps.algebra.gcd", "squarefree_part", None),
    ("periodmaps.algebra.resultant", "resultant",
     ("terms_max", lambda args, result: _terms(result))),
    ("periodmaps.algebra.ratfunc", "compose_parts",
     ("terms_max", lambda args, result: _terms(result[0]))),
    ("periodmaps.algebra.roots", "roots_of_poly",
     ("degree_max", lambda args, result: args[0].degree(args[1]))),
)


def layer_name(module: str, attr: str) -> str:
    return module[len("periodmaps."):] + "." + attr.rsplit(".", 1)[-1]


class Tracer:
    """Spans and counters of one traced pass, kept in memory."""

    def __init__(self):
        self.spans = []        # (id, parent, request, name, start, end, self_s, outermost, failed)
        self.observed = {}     # layer name -> values its counter observed
        self.request = None    # index of the request being run; None in set-up
        self._stack = []       # open spans as [id, time covered by children]
        self._depth = {}       # layer name -> open spans of that layer
        self._ids = itertools.count(1)

    def _wrap(self, name, fn, counter):
        spans, stack, depth = self.spans, self._stack, self._depth
        ids, clock = self._ids, time.perf_counter
        observed = self.observed.setdefault(name, []) if counter else None
        observe = counter[1] if counter else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = [next(ids), 0.0]
            parent = stack[-1][0] if stack else None
            outermost = not depth.get(name)
            depth[name] = depth.get(name, 0) + 1
            stack.append(frame)
            failed = True
            start = clock()
            try:
                result = fn(*args, **kwargs)
                failed = False
            finally:
                end = clock()
                stack.pop()
                depth[name] -= 1
                if stack:
                    stack[-1][1] += end - start
                spans.append((frame[0], parent, self.request, name, start,
                              end, end - start - frame[1], outermost, failed))
            if observe is not None:
                observed.append(observe(args, result))
            return result
        return traced

    def install(self):
        """Wrap every layer function wherever a periodmaps module refers to it."""
        for module, _, _ in LAYERS:
            importlib.import_module(module)
        modules = [mod for key, mod in sys.modules.items()
                   if key == "periodmaps" or key.startswith("periodmaps.")]
        for module, attr, counter in LAYERS:
            owner = sys.modules[module]
            *path, leaf = attr.split(".")
            for part in path:
                owner = getattr(owner, part)
            original = getattr(owner, leaf)
            wrapper = self._wrap(layer_name(module, attr), original, counter)
            setattr(owner, leaf, wrapper)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)

    def metrics(self) -> dict:
        """calls, busy_s, self_s and failed of every layer, plus its counter."""
        out = {}
        for module, attr, counter in LAYERS:
            name = layer_name(module, attr)
            out.update({name + ".calls": 0, name + ".busy_s": 0.0,
                        name + ".self_s": 0.0, name + ".failed": 0})
            key = counter[0] if counter else ""
            values = self.observed.get(name, [])
            if key.endswith("_max"):
                out[name + "." + key] = max(values, default=0)
            elif key.endswith("_ratio"):
                # a layer that returned no result reports a ratio of 0
                out[name + "." + key] = (
                    sum(map(bool, values)) / len(values) if values else 0.0)
        for _, _, _, name, start, end, self_s, outermost, failed in self.spans:
            out[name + ".calls"] += 1
            out[name + ".self_s"] += self_s
            if outermost:
                out[name + ".busy_s"] += end - start
            if failed:
                out[name + ".failed"] += 1
        return out

    def outputs(self, name: str) -> list:
        """Strings a layer's "outputs" counter collected, in call order."""
        return [text for batch in self.observed.get(name, []) for text in batch]

    def write_spans(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span[:6]) + "\n")
