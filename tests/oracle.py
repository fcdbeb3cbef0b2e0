"""Independent reference implementations used as test oracles.

Everything here is deliberately naive: plain recursion over the defining
clauses, full power-set enumeration for *, raw extension enumeration for -*,
a direct three-condition scan for meet-points, a filter over the full
product of successor choices for canonical shapes, and the least relabelling
over every permutation of the locations for isomorphism.  No sharing with the
package's optimized evaluators beyond the data types.
"""

from itertools import combinations, permutations, product

from hypothesis import strategies as st

from slreach import syntax as S
from slreach.heaps import Heap, MemoryState


def heap_iter(h, loc, i):
    for _ in range(i):
        if loc not in h:
            return None
        loc = h[loc]
    return loc


def naive_ls(store, heap, x, y):
    n = len(heap)
    if n == 0:
        return store[x] == store[y]
    locs = [store[x]]
    for _ in range(n):
        if locs[-1] not in heap:
            return False
        locs.append(heap[locs[-1]])
    return len(set(locs)) == n + 1 and locs[-1] == store[y]


def naive_reach(store, heap, x, y, strict):
    for i in range(0 if not strict else 1, len(heap) + 1):
        if heap_iter(heap, store[x], i) == store[y]:
            return True
    return False


def naive_check(store, heap, f, wand_bound=0, wand_fresh=1):
    """Plain recursive satisfaction.  Each -* node enumerates every extension
    over the relevant locations of its own evaluation point (the values of
    the subformula's variables plus the current heap's locations) extended
    with wand_fresh fresh naturals, up to wand_bound cells."""
    if isinstance(f, S.Emp):
        return len(heap) == 0
    if isinstance(f, S.Truth):
        return True
    if isinstance(f, S.Falsum):
        return False
    if isinstance(f, S.Eq):
        return store[f.x] == store[f.y]
    if isinstance(f, S.PointsTo):
        return store[f.x] in heap and heap[store[f.x]] == store[f.y]
    if isinstance(f, S.Ls):
        return naive_ls(store, heap, f.x, f.y)
    if isinstance(f, S.Reach):
        return naive_reach(store, heap, f.x, f.y, False)
    if isinstance(f, S.ReachPlus):
        return naive_reach(store, heap, f.x, f.y, True)
    if isinstance(f, S.Not):
        return not naive_check(store, heap, f.child, wand_bound, wand_fresh)
    if isinstance(f, S.And):
        return naive_check(store, heap, f.left, wand_bound, wand_fresh) and naive_check(
            store, heap, f.right, wand_bound, wand_fresh
        )
    if isinstance(f, S.Star):
        cells = sorted(heap)
        for k in range(len(cells) + 1):
            for combo in combinations(cells, k):
                sub = {c: heap[c] for c in combo}
                rest = {c: heap[c] for c in cells if c not in sub}
                if naive_check(store, sub, f.left, wand_bound, wand_fresh) and naive_check(
                    store, rest, f.right, wand_bound, wand_fresh
                ):
                    return True
        return False
    if isinstance(f, S.Wand):
        relevant = sorted(
            {store[v] for v in f.vars} | set(heap) | set(heap.values())
        )
        base = max(relevant, default=-1) + 1
        universe = relevant + [base + i for i in range(wand_fresh)]
        free = [l for l in universe if l not in heap]
        for k in range(min(wand_bound, len(free)) + 1):
            for srcs in combinations(free, k):
                for tgts in product(universe, repeat=k):
                    h1 = dict(zip(srcs, tgts))
                    if not naive_check(store, h1, f.left, wand_bound, wand_fresh):
                        continue
                    union = dict(heap)
                    union.update(h1)
                    if not naive_check(store, union, f.right, wand_bound, wand_fresh):
                        return False
        return True
    raise TypeError(f)


def naive_meet(m: MemoryState, i: int, j: int):
    """Scan every location against the three defining conditions."""
    heap = m.heap.cells
    horizon = len(heap) + 1
    var_values = set(m.store.values())
    candidates = []
    for loc in set(heap) | set(heap.values()) | var_values:
        ok = None
        for l1 in range(horizon):
            if heap_iter(heap, m.store[i], l1) != loc:
                continue
            if any(
                heap_iter(heap, m.store[j], l2) == loc for l2 in range(horizon)
            ):
                earlier = False
                for l1p in range(l1):
                    e = heap_iter(heap, m.store[i], l1p)
                    if any(
                        heap_iter(heap, m.store[j], l2) == e for l2 in range(horizon)
                    ):
                        earlier = True
                        break
                if not earlier and any(
                    heap_iter(heap, loc, l) in var_values for l in range(horizon)
                ):
                    ok = loc
            break
        if ok is not None:
            candidates.append(ok)
    return candidates


def naive_shape_descriptors(q, alpha):
    """The canonical shapes of solver._shape_descriptors, as (pattern, succ,
    rem, cells) tuples sorted the same way: every successor vector over
    q * q - q meet-point vertices, kept when each meet-point has two
    incoming edges and a path to a variable vertex."""
    out = []
    patterns = [
        p for p in product(range(q), repeat=q)
        if all(p[i] <= max(p[:i], default=-1) + 1 for i in range(q))
    ]
    for pattern in patterns:
        n_store = max(pattern) + 1
        for n_extra in range(q * q - q + 1):
            nv = n_store + n_extra
            options = [("none",), ("dump",)]
            options += [("edge", t, k) for t in range(nv) for k in range(alpha + 1)]
            for succ in product(options, repeat=nv):
                targets = [sc[1] for sc in succ if sc[0] == "edge"]
                ok = True
                for e in range(n_store, nv):
                    path = [e]
                    while path[-1] >= n_store and succ[path[-1]][0] == "edge":
                        nxt = succ[path[-1]][1]
                        if nxt in path:
                            break
                        path.append(nxt)
                    if targets.count(e) < 2 or path[-1] >= n_store:
                        ok = False
                        break
                if not ok:
                    continue
                base = sum(
                    0 if sc[0] == "none" else 1 + (sc[2] if sc[0] == "edge" else 0)
                    for sc in succ
                )
                for rem in range(alpha + 1):
                    out.append((pattern, succ, rem, base + rem))
    out.sort(key=lambda d: (d[3], d[:3]))
    return out


def least_relabelling(values, heap):
    """The least (values, sorted cells) over every renaming of the state's
    locations onto 0..n-1: equal exactly for isomorphic states."""
    locs = sorted(set(values) | set(heap) | set(heap.values()))
    vals = [locs.index(v) for v in values]
    cells = [(locs.index(s), locs.index(t)) for s, t in heap.items()]
    return min(
        (tuple([p[v] for v in vals]), tuple(sorted([(p[s], p[t]) for s, t in cells])))
        for p in permutations(range(len(locs)))
    )


def all_heaps(locations, max_cells):
    locations = sorted(locations)
    for k in range(max_cells + 1):
        for srcs in combinations(locations, k):
            for tgts in product(locations, repeat=k):
                yield dict(zip(srcs, tgts))


def all_states(q, locations, max_cells):
    for store_vals in product(sorted(locations), repeat=q):
        store = dict(zip(range(1, q + 1), store_vals))
        for h in all_heaps(locations, max_cells):
            yield MemoryState(q, store, Heap(h))


@st.composite
def random_states(draw, max_q=4, max_loc=11, max_cells=12):
    """Hypothesis strategy: a state with up to max_q variables and up to
    max_cells cells over locations 0..max_loc."""
    q = draw(st.integers(1, max_q))
    locs = st.integers(0, max_loc)
    store = {i: draw(locs) for i in range(1, q + 1)}
    heap = draw(st.dictionaries(locs, locs, max_size=max_cells))
    return MemoryState(q, store, Heap(heap))
