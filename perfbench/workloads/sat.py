"""sat: the PSPACE procedure for SL(*, reach+).

One query is `sat(parse(f))` on a random SL(*, reach+) formula, or
`counterexample(parse(f), parse(g))` on a symbolic-heap entailment with ls,
reach and |->.  Formulae have q <= 2 variables and memory sizes 1 to 4, so
several canonical spaces are built in every round and enumeration is a
visible share of it.

The formulae come from a committed pool (data/sat_pool.json) that records,
for each one, whether a brute-force search finds a model within BRUTE_CELLS
cells over BRUTE_LOCS locations.  That search takes minutes for the whole
pool, so it is done once by make_sat_pool.py.  The pool is split into strata
by kind, q, memory size and brute-force verdict.

A query without a small model usually sweeps the whole canonical space, and
at q = 2 such a sweep costs from milliseconds to seconds at memory size 3
and 8 s to over 30 s at memory size 4.  So a round holds every pool entry
except those sweeps: SWEPT_FIXED of each memory-size-3 stratum of them, the
same for every seed, and none at memory size 4, where one query would
outlast the round.  Memory size 4 is still reached by the queries that have
a model, which build that canonical space.  The seed sets the order of the
round.  (Drawing a subset per seed moved p90_ms by 30% from seed to seed:
the slowest tenth of the queries spreads from 1 ms to 10 ms.)
"""

from __future__ import annotations

import json
import os
import random

import reference as R

POOL = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                    "data", "sat_pool.json")
POOL_SEED = 20181012
BRUTE_CELLS = 4
BRUTE_LOCS = 5
SWEPT_FIXED = 1
FIXED_SEED = 3
POOL_PER_STRATUM = 40
MAX_NODES = 7
MAX_STARS = 2


# ---------------------------------------------------------------------------
# Pool generation (used by make_sat_pool.py).
# ---------------------------------------------------------------------------

def _size(f):
    return 1 + sum(_size(g) for g in f[1:] if isinstance(g, tuple))


def _stars(f):
    return (f[0] == "star") + sum(_stars(g) for g in f[1:] if isinstance(g, tuple))


def random_formula(rng, q):
    atoms = [("emp",), ("true",), ("false",)] + [
        (k, i, j) for k in ("eq", "pt", "reachp")
        for i in range(1, q + 1) for j in range(1, q + 1)
    ]

    def gen(budget):
        if budget <= 1 or rng.random() < 0.3:
            return rng.choice(atoms)
        op = rng.choice(("not", "and", "or", "star", "star"))
        if op == "not":
            return ("not", gen(budget - 1))
        left = gen((budget - 1) // 2)
        return (op, left, gen(budget - 1 - _size(left)))

    return gen(MAX_NODES)


def random_entailment(rng):
    def pair():
        return rng.randint(1, 2), rng.randint(1, 2)

    spatial = [("ls",) + pair() for _ in range(rng.randint(1, 2))]
    if rng.random() < 0.4:
        spatial = [("mapsto",) + pair()]
    if rng.random() < 0.3:
        spatial.append(("true",))
    f = spatial[0]
    for part in spatial[1:]:
        f = ("star", f, part)
    if rng.random() < 0.4:
        pure = ("eq", 1, 2)
        f = ("and", pure if rng.random() < 0.5 else ("not", pure), f)
    g = rng.choice((("reach",) + pair(), ("ls",) + pair(), ("mapsto",) + pair(),
                    ("star", ("ls",) + pair(), ("true",))))
    return f, g


def _q(f):
    return max(R.formula_vars(f), default=1)


def make_pool():
    """The pool, without brute-force verdicts, as a list of entries."""
    rng = random.Random(POOL_SEED)
    strata = {}
    seen = set()
    for _ in range(200_000):
        kind = rng.choice(("sat", "sat", "entail"))
        if kind == "sat":
            f, g = random_formula(rng, rng.choice((1, 2))), None
            query = f
            if _stars(f) > MAX_STARS:
                continue
        else:
            f, g = random_entailment(rng)
            query = ("and", f, ("not", g))
        alpha = R.msize(query)
        key = (kind, _q(query), alpha)
        if alpha > 4 or (f, g) in seen or len(strata.get(key, ())) >= POOL_PER_STRATUM:
            continue
        seen.add((f, g))
        strata.setdefault(key, []).append({"kind": kind, "q": key[1], "alpha": alpha,
                                           "f": f, "g": g})
    return [e for key in sorted(strata) for e in strata[key]]


def brute_verdict(entry) -> bool:
    f = entry["f"] if entry["g"] is None else ("and", entry["f"], ("not", entry["g"]))
    return R.brute_model(f, entry["q"], BRUTE_CELLS, BRUTE_LOCS) is not None


# ---------------------------------------------------------------------------
# The workload.
# ---------------------------------------------------------------------------

def _tuples(x):
    return tuple(_tuples(y) for y in x) if isinstance(x, list) else x


def load_pool():
    with open(POOL) as fh:
        doc = json.load(fh)
    for e in doc["pool"]:
        e["f"] = _tuples(e["f"])
        e["g"] = _tuples(e["g"])
    return doc["pool"]


def _draw(key, entries, fixed):
    _, q, alpha, brute = key
    if q < 2 or brute or alpha < 3:
        return entries
    if alpha == 3:
        return fixed.sample(entries, min(SWEPT_FIXED, len(entries)))
    return []


def make_queries(seed):
    rng = random.Random(seed)
    fixed = random.Random(FIXED_SEED)
    strata = {}
    for e in load_pool():
        strata.setdefault((e["kind"], e["q"], e["alpha"], e["brute"]), []).append(e)
    queries = []
    for key in sorted(strata):
        for e in _draw(key, strata[key], fixed):
            q = dict(e)
            q["f_text"] = R.to_text(e["f"])
            q["g_text"] = None if e["g"] is None else R.to_text(e["g"])
            q["label"] = f"{e['kind']} {q['f_text']}" + (
                f" |= {q['g_text']}" if e["g"] else "")
            queries.append(q)
    rng.shuffle(queries)
    return queries


def run_query(api, q):
    if q["g_text"] is None:
        return api.sat(api.parse(q["f_text"]))
    return api.counterexample(api.parse(q["f_text"]), api.parse(q["g_text"]))


def _state(m):
    return dict(m.store), dict(m.heap.cells)


def check(q, out):
    if q["g"] is None:
        if out.status not in ("sat", "unsat"):
            return f"status {out.status!r}"
        model = out.model if out.status == "sat" else None
        formula = q["f"]
    else:
        model = out
        formula = ("and", q["f"], ("not", q["g"]))
    if model is None:
        return "no model, but brute force found one" if q["brute"] else None
    store, heap = _state(model)
    if not R.holds(store, heap, formula):
        return f"model {store} {heap} does not satisfy the query"
    bound = R.small_heap_bound(model.q, q["alpha"])
    if len(heap) > bound:
        return f"model has {len(heap)} cells, above the bound {bound}"
    return None
