"""Independent reference implementations used as test oracles.

Everything here is deliberately naive: plain recursion over the defining
clauses, full power-set enumeration for *, raw extension enumeration for -*,
a direct three-condition scan for meet-points, a support graph stepped
out edge by edge from those meet-points, a filter over the full
product of successor choices for canonical shapes, and the least relabelling
over every permutation of the locations for isomorphism.  No sharing with the
package's optimized evaluators beyond the data types, except in
reference_sat, which reuses the solver's shapes and exact evaluator to test
its sweep alone.
"""

from itertools import combinations, permutations, product

from hypothesis import strategies as st

from slreach import solver, syntax as S
from slreach.fowand import FOEq, FOForall, FOPointsTo
from slreach.heaps import Heap, MemoryState
from slreach.semantics import check_exact
from slreach.support import Term


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


def fo_free_vars(f):
    """The free variables of a first-order formula, by recursion."""
    if isinstance(f, (FOEq, FOPointsTo)):
        return frozenset((f.x, f.y))
    if isinstance(f, FOForall):
        return fo_free_vars(f.body) - {f.var}
    out = frozenset()
    for c in f.children():
        out |= fo_free_vars(c)
    return out


def fo_bound_vars(f):
    """The variables of a first-order formula's quantifiers, in tree order."""
    out = [f.var] if isinstance(f, FOForall) else []
    for c in f.children():
        out += fo_bound_vars(c)
    return out


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


def naive_support_graph(m: MemoryState):
    """The fields of the support graph of m, from the definitions: each term
    located by naive_meet, each edge found by stepping from its source vertex
    until the next vertex (its btw cells are the ones stepped over, in path
    order), rho the allocated vertices and rem the cells left over."""
    heap = m.heap.cells
    term_map = {Term("var", i): m.store[i] for i in range(1, m.q + 1)}
    for i in range(1, m.q + 1):
        for j in range(1, m.q + 1):
            for loc in naive_meet(m, i, j):
                term_map[Term("meet", i, j)] = loc
    labels = {}
    for t, loc in term_map.items():
        labels[loc] = labels.get(loc, frozenset()) | {t}
    vertices = frozenset(labels)
    edges = {}
    for v in vertices:
        btw = []
        cur = heap.get(v)
        while cur is not None and cur not in vertices and cur not in btw:
            btw.append(cur)
            cur = heap.get(cur)
        if cur in vertices:
            edges[v] = (cur, tuple(btw))
    rho = frozenset(v for v in vertices if v in heap)
    passed = set(rho)
    for _, btw in edges.values():
        passed.update(btw)
    return {
        "vertices": vertices,
        "edges": edges,
        "rho": rho,
        "labels": labels,
        "rem": frozenset(set(heap) - passed),
        "term_map": term_map,
    }


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


def reference_sats(q, alpha, formulas):
    """sat_reachplus without pruning or streaming, for formulae with at most
    q variables and memory size alpha: the whole canonical space of (q,
    alpha), sorted by (cells, pattern, succ, rem), each state materialized
    once and checked with check_exact against every formula that has no
    model yet."""
    descs = sorted(solver._shape_descriptors(q, alpha), key=lambda d: (d[3], d[:3]))
    results = [solver.SatResult("unsat", None, len(descs))] * len(formulas)
    pending = list(range(len(formulas)))
    for i, d in enumerate(descs):
        if not pending:
            break
        m = solver._materialize(q, d)
        for j in [j for j in pending if check_exact(m, formulas[j])]:
            results[j] = solver.SatResult("sat", m, i + 1)
            pending.remove(j)
    return results


def reference_sat(f):
    """reference_sats for one formula, in the space sat_reachplus sweeps."""
    return reference_sats(max(f.vars) if f.vars else 1, S.msize(f), [f])[0]


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


@st.composite
def shaped_states(draw, max_q=4, max_list=12, max_garbage=10):
    """Hypothesis strategy: a state with up to max_q variables, each aliasing
    an earlier one, pointing inside an earlier list, or heading a list of up
    to max_list cells that ends unallocated, points outside the domain,
    joins an earlier list (a shared tail), closes a cycle or points at a
    variable; plus up to max_garbage cells that no variable reaches, wired
    among themselves and into the lists.  Locations are scattered over
    0..2n for n locations."""
    q = draw(st.sampled_from(range(1, max_q + 1)))
    store, heap, owned = {}, {}, []
    n = 0
    for v in range(1, q + 1):
        kind = draw(st.sampled_from(("list", "list", "alias", "inside"))) if v > 1 else "list"
        if kind == "alias":
            store[v] = store[draw(st.integers(1, v - 1))]
            continue
        if kind == "inside":
            store[v] = draw(st.sampled_from(owned))
            continue
        cells = list(range(n, n + draw(st.sampled_from(range(1, max_list + 1)))))
        n += len(cells)
        store[v] = cells[0]
        heap.update(zip(cells, cells[1:]))
        end = draw(st.sampled_from(("unallocated", "out", "share", "cycle", "var")))
        if end == "out":
            heap[cells[-1]] = n
            n += 1
        elif end == "share" and owned:
            heap[cells[-1]] = draw(st.sampled_from(owned))
        elif end == "cycle":
            heap[cells[-1]] = draw(st.sampled_from(cells))
        elif end == "var":
            heap[cells[-1]] = store[draw(st.integers(1, v))]
        owned += cells
    garbage = list(range(n, n + draw(st.sampled_from(range(max_garbage + 1)))))
    n += len(garbage)
    for g in garbage:
        heap[g] = draw(st.sampled_from(garbage + owned))
    locs = draw(st.permutations(range(2 * n + 1)))
    return MemoryState(q, {v: locs[l] for v, l in store.items()},
                       Heap({locs[a]: locs[b] for a, b in heap.items()}))
