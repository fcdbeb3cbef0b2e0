"""Per-layer spans and counts, taken from outside the program.

A Tracer wraps the public functions named in LAYERS and rebinds every name
under which any slreach module holds them, so calls that one module makes
through its own imported name (solver's `check_exact` and `profile`,
testform's `build_support_graph`) are caught as well as the benchmark's own
calls.  Each call becomes a span: layer, start, end, the enclosing span and
the query it served.  A layer's self time is its span minus the spans of
other wrapped calls made inside it.  Spans stay in memory until write().
"""

from __future__ import annotations

import gzip
import json
import sys
import time
from array import array

# (module, function) -> layer name; parse_fo is the first-order entry of the
# same parser, so both count under parser.parse.
LAYERS = {
    ("parser", "parse"): "parser.parse",
    ("fowand", "parse_fo"): "parser.parse",
    ("solver", "sat"): "solver.sat",
    ("semantics", "check_exact"): "semantics.check_exact",
    ("semantics", "check"): "semantics.check",
    ("testform", "profile"): "testform.profile",
    ("testform", "equivalent"): "testform.equivalent",
    ("testform", "shrink"): "testform.shrink",
    ("testform", "match_split"): "testform.match_split",
    ("support", "build_support_graph"): "support.build_support_graph",
    ("fowand", "check_fo"): "fowand.check_fo",
    ("fowand", "encode_state"): "fowand.encode_state",
    ("fowand", "translate"): "fowand.translate",
}

# Counts read off results: layer -> (metric, function of the result).
RESULT_COUNTS = {
    "solver.sat": ("solver.states_explored", lambda r: r.explored),
    "semantics.check": ("semantics.inexact_results", lambda r: 0 if r.exact else 1),
    "fowand.translate": ("fowand.translated_nodes", lambda r: r.size),
}

LAYER_NAMES = sorted(set(LAYERS.values()))


class Tracer:
    def __init__(self):
        self.self_ns = dict.fromkeys(LAYER_NAMES, 0)
        self.calls = dict.fromkeys(LAYER_NAMES, 0)
        self.counts = {metric: 0 for metric, _ in RESULT_COUNTS.values()}
        self.query = -1
        self._ids = {name: i for i, name in enumerate(LAYER_NAMES)}
        # spans, one entry per field
        self.layer = array("b")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("l")
        self.qid = array("l")
        self._stack = []  # [span index, child ns]

    def install(self, package) -> None:
        """Wrap the LAYERS functions of a freshly imported slreach."""
        prefix = package.__name__
        modules = [m for n, m in sys.modules.items()
                   if m is not None and (n == prefix or n.startswith(prefix + "."))]
        wrappers = {}
        for (mod, fn), layer in LAYERS.items():
            original = getattr(sys.modules[f"{prefix}.{mod}"], fn)
            wrappers[id(original)] = (original, self._wrap(original, layer))
        for module in modules:
            for attr, value in list(vars(module).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(module, attr, hit[1])

    def _wrap(self, fn, layer):
        lid = self._ids[layer]
        count = RESULT_COUNTS.get(layer)
        stack = self._stack
        clock = time.perf_counter_ns

        def wrapper(*args, **kwargs):
            idx = len(self.start)
            self.layer.append(lid)
            self.parent.append(stack[-1][0] if stack else -1)
            self.qid.append(self.query)
            self.end.append(0)
            frame = [idx, 0]
            stack.append(frame)
            t0 = clock()
            self.start.append(t0)
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                self.end[idx] = t1
                span = t1 - t0
                self.self_ns[layer] += span - frame[1]
                self.calls[layer] += 1
                if stack:
                    stack[-1][1] += span
            if count is not None:
                self.counts[count[0]] += count[1](result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def metrics(self, rounds: int) -> dict:
        """Per-round self seconds and call counts of every layer, plus the
        result counts."""
        out = {}
        for layer in LAYER_NAMES:
            out[f"{layer}_s"] = (self.self_ns[layer] / 1e9 / rounds, "s")
            out[f"{layer}_calls"] = (self.calls[layer] / rounds, "count")
        for metric, total in self.counts.items():
            out[metric] = (total / rounds, "count")
        return out

    def write(self, path: str, extra: dict) -> None:
        """Spans as parallel arrays (times in ns from the first span)."""
        t0 = self.start[0] if len(self.start) else 0
        doc = dict(extra)
        doc["layers"] = LAYER_NAMES
        doc["spans"] = {
            "layer": list(self.layer),
            "start_ns": [t - t0 for t in self.start],
            "end_ns": [t - t0 for t in self.end],
            "parent": list(self.parent),
            "query": list(self.qid),
        }
        with gzip.open(path, "wt") as fh:
            json.dump(doc, fh)
