"""Reference computations the benchmark checks slreach's outputs against.

Nothing here imports slreach.  Formulae are plain tuples, states are a store
dict (variable index -> location) and a heap dict (location -> location):

    ("emp",) ("true",) ("false",)
    ("eq", x, y) ("pt", x, y) ("mapsto", x, y)
    ("ls", x, y) ("reach", x, y) ("reachp", x, y)
    ("not", f) ("and", f, g) ("or", f, g) ("star", f, g) ("wand", f, g)

Everything is deliberately naive: satisfaction follows the defining clauses,
`*` tries every subheap, `-*` tries every extension over the relevant
locations plus a few fresh ones, and meet-points are found by walking.
"""

from __future__ import annotations

from itertools import combinations, product

# ---------------------------------------------------------------------------
# Formulae: text, variables, memory size.
# ---------------------------------------------------------------------------

_BIN_TEXT = {"and": "/\\", "or": "\\/", "star": "*", "wand": "-*"}


def to_text(f) -> str:
    """slreach's concrete syntax, fully parenthesised."""
    op = f[0]
    if op in ("emp", "true", "false"):
        return op
    if op == "eq":
        return f"x{f[1]} = x{f[2]}"
    if op == "pt":
        return f"x{f[1]} ~> x{f[2]}"
    if op == "mapsto":
        return f"x{f[1]} |-> x{f[2]}"
    if op in ("ls", "reach"):
        return f"{op}(x{f[1]},x{f[2]})"
    if op == "reachp":
        return f"reach+(x{f[1]},x{f[2]})"
    if op == "not":
        return f"not ({to_text(f[1])})"
    return f"({to_text(f[1])}) {_BIN_TEXT[op]} ({to_text(f[2])})"


def formula_vars(f) -> set:
    if f[0] in ("eq", "pt", "mapsto", "ls", "reach", "reachp"):
        return {f[1], f[2]}
    out = set()
    for g in f[1:]:
        out |= formula_vars(g)
    return out


def msize(f) -> int:
    """Memory size of the SL(*, reach+) form slreach decides: atoms count 1,
    `not` is transparent, `/\\` and `\\/` take the max, `*` sums.  ls and
    |-> count as the memory size of their reach+ rewriting (2 and 3)."""
    op = f[0]
    if op == "ls":
        return 2
    if op == "mapsto":
        return 3
    if op == "not":
        return msize(f[1])
    if op == "star":
        return msize(f[1]) + msize(f[2])
    if op in ("and", "or", "wand"):
        return max(msize(f[1]), msize(f[2]))
    return 1


def small_heap_bound(q: int, alpha: int) -> int:
    """(q^2 + q)(alpha + 1) + alpha: the cells of a canonical small state."""
    return (q * q + q) * (alpha + 1) + alpha


# ---------------------------------------------------------------------------
# Satisfaction.
# ---------------------------------------------------------------------------

def _steps(heap, a, n):
    for _ in range(n):
        if a not in heap:
            return None
        a = heap[a]
    return a


def _reach(heap, a, b, strict):
    return any(_steps(heap, a, i) == b for i in range(1 if strict else 0, len(heap) + 1))


def _ls(heap, a, b):
    """The whole heap is one acyclic path from a to b."""
    path = [a]
    for _ in range(len(heap)):
        if path[-1] not in heap:
            return False
        path.append(heap[path[-1]])
    return len(set(path)) == len(path) and path[-1] == b


def holds(store, heap, f, wand_cells=0, wand_fresh=1) -> bool:
    op = f[0]
    if op == "emp":
        return not heap
    if op == "true":
        return True
    if op == "false":
        return False
    if op == "eq":
        return store[f[1]] == store[f[2]]
    if op == "pt":
        return heap.get(store[f[1]]) == store[f[2]]
    if op == "mapsto":
        return len(heap) == 1 and heap.get(store[f[1]]) == store[f[2]]
    if op == "ls":
        return _ls(heap, store[f[1]], store[f[2]])
    if op == "reach":
        return _reach(heap, store[f[1]], store[f[2]], False)
    if op == "reachp":
        return _reach(heap, store[f[1]], store[f[2]], True)
    if op == "not":
        return not holds(store, heap, f[1], wand_cells, wand_fresh)
    if op == "and":
        return holds(store, heap, f[1], wand_cells, wand_fresh) and holds(
            store, heap, f[2], wand_cells, wand_fresh
        )
    if op == "or":
        return holds(store, heap, f[1], wand_cells, wand_fresh) or holds(
            store, heap, f[2], wand_cells, wand_fresh
        )
    if op == "star":
        cells = sorted(heap)
        for k in range(len(cells) + 1):
            for part in combinations(cells, k):
                left = {c: heap[c] for c in part}
                right = {c: heap[c] for c in cells if c not in left}
                if holds(store, left, f[1], wand_cells, wand_fresh) and holds(
                    store, right, f[2], wand_cells, wand_fresh
                ):
                    return True
        return False
    if op == "wand":
        relevant = {store[v] for v in formula_vars(f)} | set(heap) | set(heap.values())
        base = max(relevant, default=-1) + 1
        universe = sorted(relevant) + [base + i for i in range(wand_fresh)]
        free = [l for l in universe if l not in heap]
        for k in range(min(wand_cells, len(free)) + 1):
            for srcs in combinations(free, k):
                for tgts in product(universe, repeat=k):
                    ext = dict(zip(srcs, tgts))
                    if not holds(store, ext, f[1], wand_cells, wand_fresh):
                        continue
                    if not holds(store, {**heap, **ext}, f[2], wand_cells, wand_fresh):
                        return False
        return True
    raise ValueError(f"unknown formula node {op!r}")


# ---------------------------------------------------------------------------
# Brute-force small-model search.
# ---------------------------------------------------------------------------

def store_patterns(q: int):
    """Stores up to a renaming of locations: variable i takes location
    pattern[i-1], locations introduced in increasing order."""

    def rec(prefix, top):
        if len(prefix) == q:
            yield tuple(prefix)
            return
        for v in range(top + 2):
            yield from rec(prefix + [v], max(top, v))

    yield from rec([], -1)


def all_heaps(locations, max_cells):
    locations = sorted(locations)
    for k in range(max_cells + 1):
        for srcs in combinations(locations, k):
            for tgts in product(locations, repeat=k):
                yield dict(zip(srcs, tgts))


def brute_model(f, q: int, max_cells: int, max_locs: int):
    """A (store, heap) satisfying f with at most max_cells cells over
    locations 0..max_locs-1, or None.  Only stores up to renaming are tried,
    which loses nothing since every location is available to the heap."""
    locs = range(max_locs)
    for pattern in store_patterns(q):
        if max(pattern) >= max_locs:
            continue
        store = {i + 1: v for i, v in enumerate(pattern)}
        for heap in all_heaps(locs, max_cells):
            if holds(store, heap, f):
                return store, heap
    return None


# ---------------------------------------------------------------------------
# The four auxiliary predicates in closed form, with their side conditions.
# ---------------------------------------------------------------------------

def alloc_inv(store, heap):
    """x1 has a predecessor (valid when x1 != x2)."""
    return store[1] in heap.values()


def loop2(store, heap):
    """x1 reaches itself in exactly two steps (valid when x1 != x2)."""
    a = heap.get(store[1])
    return a is not None and a != store[1] and heap.get(a) == store[1] and a in heap


def next_eq(store, heap):
    """h(x1) = h(x2), both allocated."""
    return store[1] in heap and store[2] in heap and heap[store[1]] == heap[store[2]]


def next_pointsto(store, heap):
    """h(h(x1)) = h(x2), x1 and x2 allocated (valid when x3 differs from both)."""
    x, y = store[1], store[2]
    return x in heap and y in heap and heap[x] in heap and heap[heap[x]] == heap[y]


PREDICATES = {
    # name: (slreach text, number of variables, side condition, closed form)
    "alloc_inv": ("allocinv(x1; x2)", 2, lambda s: s[1] != s[2], alloc_inv),
    "loop2": ("loop2(x1; x2)", 2, lambda s: s[1] != s[2], loop2),
    "next_eq": ("nexteq(x1,x2)", 2, lambda s: True, next_eq),
    "next_pointsto": (
        "nextpt(x1,x2; x3)", 3, lambda s: s[1] != s[3] and s[2] != s[3], next_pointsto,
    ),
    "next_pointsto_swapped": (
        "nextpt(x2,x1; x3)", 3, lambda s: s[1] != s[3] and s[2] != s[3],
        lambda store, heap: next_pointsto({1: store[2], 2: store[1]}, heap),
    ),
}


# ---------------------------------------------------------------------------
# States up to isomorphism.
# ---------------------------------------------------------------------------

def canonical_form(store_vals, heap):
    """A complete isomorphism invariant of (store, heap): number locations in
    order of first appearance from the store along the heap, then from each
    cell still unnumbered; those cells are tried in every order and the
    least result is kept."""

    def number(lab, seq, starts):
        i = 0
        for s in starts:
            if s not in lab:
                lab[s] = len(lab)
                seq.append(s)
            while i < len(seq):
                t = heap.get(seq[i])
                if t is not None and t not in lab:
                    lab[t] = len(lab)
                    seq.append(t)
                i += 1
        return lab

    lab = number({}, [], store_vals)
    rest = [l for l in heap if l not in lab]
    best = None
    for order in _perms(rest):
        full = number(dict(lab), list(lab), order)
        key = (
            tuple(full[v] for v in store_vals),
            tuple(sorted((full[s], full[t]) for s, t in heap.items())),
        )
        if best is None or key < best:
            best = key
    return best


def _perms(items):
    if not items:
        yield ()
        return
    for i, x in enumerate(items):
        for rest in _perms(items[:i] + items[i + 1:]):
            yield (x,) + rest


def iso_classes(nvars: int, max_locs: int, max_cells: int, side=lambda s: True):
    """One (store, heap) per isomorphism class over max_locs locations."""
    seen = set()
    out = []
    heaps = list(all_heaps(range(max_locs), max_cells))
    for pattern in store_patterns(nvars):
        store = {i + 1: v for i, v in enumerate(pattern)}
        if max(pattern) >= max_locs or not side(store):
            continue
        for heap in heaps:
            key = canonical_form(pattern, heap)
            if key not in seen:
                seen.add(key)
                out.append((store, heap))
    return out


def spread_out(rng, n, labels):
    """An order-preserving renaming of 0..n-1 into random labels below
    `labels`."""
    return dict(enumerate(sorted(rng.sample(range(labels), n))))


def relabel(store, heap, mapping):
    return (
        {v: mapping[l] for v, l in store.items()},
        {mapping[s]: mapping[t] for s, t in heap.items()},
    )


# ---------------------------------------------------------------------------
# First-order formulae without -*.
# ---------------------------------------------------------------------------
#   ("eq", x, y) ("pt", x, y) ("not", f) ("or", f, g) ("and", f, g)
#   ("implies", f, g) ("forall", x, f) ("wand", f, g)

def fo_text(f) -> str:
    op = f[0]
    if op == "eq":
        return f"x{f[1]} = x{f[2]}"
    if op == "pt":
        return f"x{f[1]} ~> x{f[2]}"
    if op == "not":
        return f"not ({fo_text(f[1])})"
    if op == "forall":
        return f"forall x{f[1]} . ({fo_text(f[2])})"
    sym = {"or": "\\/", "and": "/\\", "implies": "=>", "wand": "-*"}[op]
    return f"({fo_text(f[1])}) {sym} ({fo_text(f[2])})"


def fo_has_wand(f) -> bool:
    return f[0] == "wand" or any(
        isinstance(g, tuple) and fo_has_wand(g) for g in f[1:]
    )


def fo_free_vars(f) -> set:
    op = f[0]
    if op in ("eq", "pt"):
        return {f[1], f[2]}
    if op == "forall":
        return fo_free_vars(f[2]) - {f[1]}
    out = set()
    for g in f[1:]:
        out |= fo_free_vars(g)
    return out


def fo_holds(store, heap, f, fresh=2) -> bool:
    """First-order satisfaction; quantifiers range over the locations of the
    state plus `fresh` new ones, which is exact once fresh exceeds the
    quantifier depth (all new locations look alike)."""
    op = f[0]
    if op == "eq":
        return store[f[1]] == store[f[2]]
    if op == "pt":
        return store[f[1]] in heap and heap[store[f[1]]] == store[f[2]]
    if op == "not":
        return not fo_holds(store, heap, f[1], fresh)
    if op == "or":
        return fo_holds(store, heap, f[1], fresh) or fo_holds(store, heap, f[2], fresh)
    if op == "and":
        return fo_holds(store, heap, f[1], fresh) and fo_holds(store, heap, f[2], fresh)
    if op == "implies":
        return not fo_holds(store, heap, f[1], fresh) or fo_holds(store, heap, f[2], fresh)
    if op == "forall":
        locs = set(store.values()) | set(heap) | set(heap.values())
        base = max(locs, default=-1) + 1
        for l in sorted(locs) + [base + i for i in range(fresh)]:
            if not fo_holds({**store, f[1]: l}, heap, f[2], fresh):
                return False
        return True
    raise ValueError(f"no reference for first-order node {op!r}")


# ---------------------------------------------------------------------------
# Test-atom profiles (meet-points, support graph, atoms) from the definitions.
# ---------------------------------------------------------------------------

def _walk(heap, start):
    """start, h(start), ... until the walk leaves the heap or repeats."""
    out, seen, cur = [start], {start}, start
    while cur in heap:
        cur = heap[cur]
        if cur in seen:
            out.append(cur)
            break
        out.append(cur)
        seen.add(cur)
    return out


def meet(store, heap, i, j):
    """The first location on x_i's walk that x_j also reaches, provided it
    reaches the value of some variable; None otherwise."""
    from_j = set(_walk(heap, store[j]))
    values = set(store.values())
    for loc in _walk(heap, store[i]):
        if loc in from_j:
            return loc if any(l in values for l in _walk(heap, loc)) else None
    return None


def terms(q):
    out = [("var", i, 0) for i in range(1, q + 1)]
    out += [("meet", i, j) for i in range(1, q + 1) for j in range(1, q + 1)]
    return out


def ref_profile(store, heap, q, alpha) -> frozenset:
    """The satisfied test atoms, as (kind, term1, term2, bound) tuples with
    terms as (kind, i, j) and equality pairs in sorted order."""
    where = {}
    for t in terms(q):
        loc = store[t[1]] if t[0] == "var" else meet(store, heap, t[1], t[2])
        if loc is not None:
            where[t] = loc
    vertices = set(where.values())
    edges = {}
    inside = set()
    for v in vertices:
        between, cur, seen = [], heap.get(v), set()
        while cur is not None and cur not in seen:
            if cur in vertices:
                edges[v] = (cur, len(between))
                inside.update(between)
                break
            seen.add(cur)
            between.append(cur)
            cur = heap.get(cur)
    rem = sum(1 for l in heap if l not in vertices and l not in inside)
    out = set()
    ts = list(where)
    for a in ts:
        if where[a] in heap:
            out.add(("alloc", a, None, 0))
        for b in ts:
            if where[a] == where[b]:
                out.add(("eq",) + tuple(sorted((a, b))) + (0,))
            edge = edges.get(where[a])
            if edge is None or edge[0] != where[b]:
                continue
            if edge[1] == 0:
                out.add(("pointsto", a, b, 0))
            for bound in range(2, alpha + 2):
                if edge[1] >= bound - 1:
                    out.add(("sees", a, b, bound))
    for bound in range(1, alpha + 1):
        if rem >= bound:
            out.add(("sizeothers", None, None, bound))
    return frozenset(out)
