"""abstract: heap abstraction on large states.

The states are generated, STATES per round, with q from 2 to 4
and rank alpha from 1 to 3: one list per variable (up to MAX_LIST cells)
that ends dangling, joins an earlier list (shared tail), closes a cycle or
points at another variable, plus garbage chains and cycles that no variable
reaches.  Locations are scattered over a wide range.  On each state the
round issues one query of each kind:

    profile(m, alpha)                  == the reference profile
    equivalent(m, iso copy, alpha)     must hold
    equivalent(m, m with one cell changed, alpha)
                                       == equality of the reference profiles
    shrink(m, alpha)                   same reference profile, within the
                                       small-heap bound
    match_split(m, iso copy, split)    parts recombine into the copy's heap
                                       and keep their reference profiles
    check_exact(m, f), f star-free     == the reference evaluator

so `support` and `testform` run on states much larger than the canonical
ones the solver builds.
"""

from __future__ import annotations

import random

import reference as R

STATES = 120
MAX_LIST = 30
MAX_GARBAGE = 16


def random_state(rng, q, i):
    """State number i.  Its sizes (list lengths, aliased variables, garbage
    cells) follow i alone, so every seed's round has the same sizes; the
    seed draws how lists end, where they join and how garbage is wired."""
    heap, store = {}, {}
    counter = iter(range(10**6))
    owned = []
    for v in range(1, q + 1):
        if v > 1 and (i + v) % 7 == 0:
            store[v] = store[1 + i % (v - 1)]
            continue
        cells = [next(counter) for _ in range((7 * i + 11 * v) % (MAX_LIST + 1) + 1)]
        store[v] = cells[0]
        for a, b in zip(cells, cells[1:]):
            heap[a] = b
        end = rng.choice(("dangle", "share", "cycle", "var"))
        if end == "share" and owned:
            heap[cells[-1]] = rng.choice(owned)
        elif end == "cycle":
            heap[cells[-1]] = rng.choice(cells)
        elif end == "var" and v > 1:
            heap[cells[-1]] = store[rng.randint(1, v - 1)]
        elif rng.random() < 0.5:
            heap[cells[-1]] = next(counter)
        owned.extend(cells)
    garbage = [next(counter) for _ in range(5 * i % (MAX_GARBAGE + 1))]
    for i, g in enumerate(garbage):
        r = rng.random()
        if r < 0.6 and i + 1 < len(garbage):
            heap[g] = garbage[i + 1]
        elif r < 0.8:
            heap[g] = rng.choice(garbage[: i + 1])
        else:
            heap[g] = rng.choice(owned)
    return _scatter(rng, store, heap)


def _scatter(rng, store, heap):
    locs = sorted(set(store.values()) | set(heap) | set(heap.values()))
    mapping = dict(zip(locs, rng.sample(range(10 * len(locs) + 10), len(locs))))
    return R.relabel(store, heap, mapping)


def random_star_free(rng, q, budget=5):
    atoms = [("emp",)] + [(k, i, j) for k in ("eq", "pt", "ls", "reach", "reachp")
                          for i in range(1, q + 1) for j in range(1, q + 1)]
    if budget <= 1 or rng.random() < 0.3:
        return rng.choice(atoms)
    op = rng.choice(("not", "and", "or"))
    if op == "not":
        return ("not", random_star_free(rng, q, budget - 1))
    return (op, random_star_free(rng, q, budget // 2), random_star_free(rng, q, budget // 2))


def make_queries(seed):
    rng = random.Random(seed)
    queries = []
    for i in range(STATES):
        q = 2 + i % 3
        alpha = 1 + (i // 3) % 3
        store, heap = random_state(rng, q, i)
        iso = _scatter(rng, store, heap)
        mutant = dict(heap)
        if heap:
            cell = rng.choice(sorted(heap))
            mutant[cell] = rng.choice(sorted(set(heap.values()) | set(store.values())))
        a1, a2 = rng.randint(1, 2), rng.randint(1, 2)
        part_a = {c: t for c, t in heap.items() if rng.random() < 0.5}
        f = random_star_free(rng, q)
        base = {"q": q, "alpha": alpha, "store": store, "heap": heap}
        tag = f"state {i} (q={q}, alpha={alpha}, {len(heap)} cells)"
        queries += [
            dict(base, op="profile", label=f"profile {tag}"),
            dict(base, op="equivalent", other=iso, want=True, label=f"equivalent iso {tag}"),
            dict(base, op="equivalent", other=(store, mutant), want=None,
                 label=f"equivalent mutant {tag}"),
            dict(base, op="shrink", label=f"shrink {tag}"),
            dict(base, op="match_split", other=iso, a1=a1, a2=a2, part_a=part_a,
                 label=f"match_split {a1}+{a2} {tag}"),
            dict(base, op="check_exact", f=f, text=R.to_text(f),
                 label=f"check_exact {R.to_text(f)} {tag}"),
        ]
    rng.shuffle(queries)
    return queries


def _state(api, q, store, heap):
    return api.MemoryState(q, store, api.Heap(heap))


def run_query(api, q):
    m = _state(api, q["q"], q["store"], q["heap"])
    op = q["op"]
    if op == "profile":
        return api.profile(m, q["alpha"])
    if op == "equivalent":
        return api.equivalent(m, _state(api, q["q"], *q["other"]), q["alpha"])
    if op == "shrink":
        return api.shrink(m, q["alpha"])
    if op == "match_split":
        part_a = api.Heap(q["part_a"])
        part_b = api.Heap({c: t for c, t in q["heap"].items() if c not in q["part_a"]})
        return api.match_split(m, _state(api, q["q"], *q["other"]), part_a, part_b,
                               q["a1"], q["a2"])
    return api.check_exact(m, api.parse(q["text"]))


def _atoms(profile):
    def term(t):
        return None if t is None else (t.kind, t.i, t.j)

    return frozenset((a.kind, term(a.t1), term(a.t2), a.bound) for a in profile.satisfied)


def check(q, out):
    n, alpha, store, heap = q["q"], q["alpha"], q["store"], q["heap"]
    op = q["op"]
    if op == "profile":
        if _atoms(out) != R.ref_profile(store, heap, n, alpha):
            return "profile differs from the reference profile"
        return None
    if op == "equivalent":
        want = q["want"]
        if want is None:
            want = R.ref_profile(store, heap, n, alpha) == R.ref_profile(*q["other"], n, alpha)
        return None if out == want else f"equivalent says {out}, expected {want}"
    if op == "shrink":
        small = dict(out.heap.cells)
        if dict(out.store) != store:
            return "shrink changed the store"
        if len(small) > R.small_heap_bound(n, alpha):
            return f"shrunk state has {len(small)} cells, above the bound"
        if R.ref_profile(store, small, n, alpha) != R.ref_profile(store, heap, n, alpha):
            return "shrunk state is not equivalent to its input"
        return None
    if op == "match_split":
        got_a, got_b = dict(out[0].cells), dict(out[1].cells)
        store2, heap2 = q["other"]
        if got_a.keys() & got_b.keys() or {**got_a, **got_b} != heap2:
            return "the parts do not recombine into the other state's heap"
        part_b = {c: t for c, t in heap.items() if c not in q["part_a"]}
        for mine, theirs, rank in ((q["part_a"], got_a, q["a1"]), (part_b, got_b, q["a2"])):
            if R.ref_profile(store, mine, n, rank) != R.ref_profile(store2, theirs, n, rank):
                return "a mirrored part does not keep its profile"
        return None
    want = R.holds(store, heap, q["f"])
    return None if out == want else f"check_exact says {out}, reference says {want}"
