"""wand: bounded -* under the default policy.

One query is `check(m, parse(p), WandPolicy("bounded", 4, 4))` for one of
the four auxiliary predicates p (alloc_inv, loop2, next_eq, next_pointsto),
evaluated through its -* structure, on a state m.  The states are one per
isomorphism class of states with at most 3 cells over 6 locations that meet
the predicate's side condition.  (Acceptance criterion 2 dedups with
slreach's `canonical_key`, which leaves isomorphic duplicates: 2907.)
next_pointsto also runs with its first two arguments swapped, so a round is
1173 queries on the two-variable predicates and 2862 on next_pointsto, 4035
in all.  The two kinds cost about 0.6 ms and 3.7 ms: with next_pointsto at
55% of the queries the median fell at the lower edge of its costs and
moved by 20% from run to run; at 71% it falls inside them.  Each verdict
must equal the predicate's closed form.

The seed renames the locations of each state, keeping their order, so the
scan meets candidates in the same order and every seed does the same work.
The queries run grouped by predicate, in a fixed order: the -* memo is
shared between queries, so a shuffled order moves the cost between queries
and moved p50_ms by 10% from seed to seed.
"""

from __future__ import annotations

import random

import reference as R

LOCATIONS = 6
MAX_CELLS = 3
LABELS = 64


def make_queries(seed):
    rng = random.Random(seed)
    by_arity = {}
    queries = []
    for name, (text, nvars, side, _) in sorted(R.PREDICATES.items()):
        if nvars not in by_arity:
            by_arity[nvars] = R.iso_classes(nvars, LOCATIONS, MAX_CELLS)
        for store, heap in by_arity[nvars]:
            if not side(store):
                continue
            store, heap = R.relabel(store, heap, R.spread_out(rng, LOCATIONS, LABELS))
            queries.append({
                "label": f"{name} store={store} heap={heap}",
                "predicate": name, "text": text, "q": nvars,
                "store": store, "heap": heap,
            })
    return queries


def run_query(api, q):
    m = api.MemoryState(q["q"], q["store"], api.Heap(q["heap"]))
    return api.check(m, api.parse(q["text"]), api.WandPolicy("bounded", 4, 4))


def check(q, out):
    want = R.PREDICATES[q["predicate"]][3](q["store"], q["heap"])
    if out.truth != want:
        return f"verdict {out.truth}, closed form says {want}"
    return None
