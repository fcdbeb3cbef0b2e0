"""Stores, heaps and memory states.

Locations are plain natural numbers.  A heap is a finite partial function
from locations to locations; a memory state pairs a store (total on the
program variables x1..xq) with a heap.  Fresh locations, when needed, are
taken as max(relevant) + 1, + 2, ...
"""

from __future__ import annotations

import json
from itertools import combinations, product
from typing import Dict, Iterable, Iterator, Mapping, Optional, Tuple


class OverlapError(ValueError):
    """Composition of two heaps whose domains share a location."""

    def __init__(self, location: int):
        self.location = location
        super().__init__(f"heaps overlap at location {location}")


class Heap:
    """Immutable finite functional graph on naturals."""

    __slots__ = ("_cells", "_hash")

    def __init__(self, cells: Mapping[int, int] | Iterable[Tuple[int, int]] = ()):
        d = dict(cells)
        for k, v in d.items():
            if not (isinstance(k, int) and isinstance(v, int) and k >= 0 and v >= 0):
                raise ValueError(f"heap cell {k} -> {v} is not a pair of naturals")
        self._cells = d
        self._hash = None

    @classmethod
    def _unchecked(cls, cells: Dict[int, int]) -> "Heap":
        """The heap on cells as given, unchecked and uncopied: for cells
        taken from valid heaps."""
        h = object.__new__(cls)
        h._cells, h._hash = cells, None
        return h

    @property
    def cells(self) -> Dict[int, int]:
        """The underlying source -> target mapping (do not mutate)."""
        return self._cells

    def domain(self) -> frozenset:
        return frozenset(self._cells)

    def locations(self) -> frozenset:
        return frozenset(self._cells) | frozenset(self._cells.values())

    def get(self, loc: int) -> Optional[int]:
        return self._cells.get(loc)

    def items(self):
        return self._cells.items()

    def __contains__(self, loc: int) -> bool:
        return loc in self._cells

    def __getitem__(self, loc: int) -> int:
        return self._cells[loc]

    def __len__(self) -> int:
        return len(self._cells)

    def __iter__(self):
        return iter(sorted(self._cells))

    def __add__(self, other: "Heap") -> "Heap":
        return compose(self, other)

    def __eq__(self, other) -> bool:
        return isinstance(other, Heap) and self._cells == other._cells

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash(tuple(sorted(self._cells.items())))
        return self._hash

    def __repr__(self) -> str:
        inside = ", ".join(f"{k}->{v}" for k, v in sorted(self._cells.items()))
        return "Heap({%s})" % inside


class MemoryState:
    """A store on x1..xq paired with a heap."""

    __slots__ = ("q", "store", "heap", "_hash")

    def __init__(self, q: int, store: Mapping[int, int], heap: Heap):
        if not (isinstance(q, int) and q >= 1):
            raise ValueError("q must be an integer >= 1")
        store = dict(store)
        if set(store) != set(range(1, q + 1)):
            raise ValueError(f"store must be defined exactly on x1..x{q}")
        for v in store.values():
            if not (isinstance(v, int) and v >= 0):
                raise ValueError("store values must be naturals")
        if not isinstance(heap, Heap):
            heap = Heap(heap)
        self.q = q
        self.store = store
        self.heap = heap
        self._hash = None

    def locations(self) -> frozenset:
        return frozenset(self.store.values()) | self.heap.locations()

    @classmethod
    def _unchecked(cls, q: int, store: Dict[int, int], cells: Dict[int, int]) -> "MemoryState":
        """The state on store and cells as given, unchecked and uncopied."""
        m = object.__new__(cls)
        m.q, m.store, m.heap, m._hash = q, store, Heap._unchecked(cells), None
        return m

    def with_heap(self, heap: Heap) -> "MemoryState":
        return MemoryState(self.q, self.store, heap)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, MemoryState)
            and self.q == other.q
            and self.store == other.store
            and self.heap == other.heap
        )

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash((self.q, tuple(sorted(self.store.items())), self.heap))
        return self._hash

    def __repr__(self) -> str:
        st = ", ".join(f"x{i}->{v}" for i, v in sorted(self.store.items()))
        return f"MemoryState(q={self.q}, store={{{st}}}, heap={self.heap!r})"


def compose(h1: Heap, h2: Heap) -> Heap:
    """Disjoint union of the two heap graphs; OverlapError names a witness."""
    small, big = (h1, h2) if len(h1) <= len(h2) else (h2, h1)
    for loc in small.cells:
        if loc in big.cells:
            raise OverlapError(loc)
    merged = dict(big.cells)
    merged.update(small.cells)
    return Heap._unchecked(merged)


def iterate(h: Heap, loc: int, i: int) -> Optional[int]:
    """i-fold application of the heap; None once the walk leaves the domain."""
    cur = loc
    for _ in range(i):
        nxt = h.get(cur)
        if nxt is None:
            return None
        cur = nxt
    return cur


def subheaps(h: Heap) -> Iterator[Heap]:
    """All restrictions of h, by increasing cell count, duplicate-free."""
    sources = sorted(h.cells)
    for k in range(len(sources) + 1):
        for combo in combinations(sources, k):
            yield Heap({s: h.cells[s] for s in combo})


def extensions(h: Heap, universe: Iterable[int], max_cells: int) -> Iterator[Heap]:
    """Every heap disjoint from h with sources in universe \\ dom(h), targets in
    universe, and at most max_cells cells.  Exhaustive and duplicate-free."""
    uni = sorted(set(universe))
    free = [l for l in uni if l not in h]
    for k in range(min(max_cells, len(free)) + 1):
        for srcs in combinations(free, k):
            for tgts in product(uni, repeat=k):
                yield Heap(dict(zip(srcs, tgts)))


def canonical_labelling(values: Tuple[int, ...], heap: Mapping[int, int]):
    """((store_part, cells), labelling): a complete isomorphism invariant of
    the state (values, heap) and the relabelling onto 0..n-1 that gives it.

    Locations reached from the values are numbered in order of first
    appearance.  Every other cell lies on an in-tree hanging from a numbered
    location, from an unreached cycle or from a location outside the heap.
    In-trees are ranked by height, then by their children's ranks; a cycle
    starts at its least rotation; the unreached components are numbered in
    order of their codes.  Ties are isomorphic, so the keys of two states
    are equal exactly when the states are isomorphic."""
    order = list(dict.fromkeys(values))
    reached = set(order)
    for l in order:
        t = heap.get(l)
        if t is not None and t not in reached:
            reached.add(t)
            order.append(t)
    rest = [l for l in heap if l not in reached]
    if rest:
        _order_unreached(heap, rest, reached, order)
    lab = {l: i for i, l in enumerate(order)}
    cells = tuple(sorted([(lab[s], lab[t]) for s, t in heap.items()]))
    return (tuple([lab[v] for v in values]), cells), lab


def _order_unreached(heap, rest, reached, order) -> None:
    """Append the cells of rest, and the locations outside the heap that only
    they point to, to order, as canonical_labelling numbers them."""
    kids: Dict[int, list] = {}
    for l in rest:
        kids.setdefault(heap[l], []).append(l)
    # Peel the in-trees from the leaves (all alike) up, one height per round:
    # a rank orders by height, then by the children's ranks.  Locations
    # outside the heap are peeled too; cells never peeled lie on cycles.
    waiting = {p: len(ks) for p, ks in kids.items() if p not in reached}
    rank: Dict[int, int] = dict.fromkeys([l for l in rest if l not in kids], 0)
    level = list(rank)
    while level:
        up = []
        for l in level:
            p = heap.get(l)
            if p in waiting:
                waiting[p] -= 1
                if not waiting[p]:
                    up.append(p)
        if len(up) == 1:  # alone at its height: nothing to compare
            rank[up[0]] = len(rank)
        elif up:
            sig = {p: tuple(sorted([rank[c] for c in kids[p]])) for p in up}
            index = {g: len(rank) + i for i, g in enumerate(sorted(set(sig.values())))}
            for p in up:
                rank[p] = index[sig[p]]
        level = up
    comps = []
    for p in waiting:
        if p not in heap:
            comps.append(((1, rank[p]), [p]))
        elif waiting[p]:
            cyc = [p]
            while heap[cyc[-1]] != p:
                cyc.append(heap[cyc[-1]])
            for c in cyc:
                kids[heap[c]].remove(c)
                waiting[c] = 0
            codes = [tuple(sorted([rank[c] for c in kids[x]])) for x in cyc]
            i = _least_rotation(codes)
            comps.append(((0, *codes[i:], *codes[:i]), cyc[i:] + cyc[:i]))
    comps.sort(key=lambda comp: comp[0])
    order.extend(l for _, start in comps for l in start)
    for l in order:
        if l in kids:
            order.extend(sorted(kids[l], key=rank.__getitem__))


def _least_rotation(seq) -> int:
    """Where the least rotation of seq starts, in linear time."""
    n, i, j, k = len(seq), 0, 1, 0
    while j < n and k < n:
        a, b = seq[(i + k) % n], seq[(j + k) % n]
        if a == b:
            k += 1
            continue
        if a > b:
            i, j = j, max(j + 1, i + k + 1)
        else:
            j += k + 1
        k = 0
    return i


def isomorphic_wrt(m1: MemoryState, m2: MemoryState, X: Iterable[int]):
    """A bijection on the relevant locations extendable to an X-isomorphism
    (heap-graph isomorphism mapping s1(x) to s2(x) for x in X), or None."""
    if m1.q != m2.q:
        raise ValueError("states must share q")
    xs = sorted(set(X))
    key1, lab1 = canonical_labelling(tuple(m1.store[x] for x in xs), m1.heap.cells)
    key2, lab2 = canonical_labelling(tuple(m2.store[x] for x in xs), m2.heap.cells)
    if key1 != key2:
        return None
    order2 = sorted(lab2, key=lab2.get)
    return {l: order2[i] for l, i in lab1.items()}


def fresh_locations(taken: Iterable[int], count: int):
    """count fresh naturals above everything in taken."""
    base = max(taken, default=-1) + 1
    return [base + i for i in range(count)]


# ---------------------------------------------------------------------------
# Memory-state files: {"q": n, "store": {"x1": loc, ...}, "heap": {"loc": loc}}
# ---------------------------------------------------------------------------

def state_to_json(m: MemoryState) -> dict:
    return {
        "q": m.q,
        "store": {f"x{i}": v for i, v in sorted(m.store.items())},
        "heap": {str(k): v for k, v in sorted(m.heap.items())},
    }


def state_from_json(data) -> MemoryState:
    """The state a state file holds; ValueError if the file has another
    shape."""
    if not (isinstance(data, dict) and {"q", "store", "heap"} <= set(data)
            and isinstance(data["store"], dict) and isinstance(data["heap"], dict)):
        raise ValueError('a state file holds "q" and the objects "store" and "heap"')
    store = {}
    for name, loc in data["store"].items():
        index = name[1:]
        if not (name.startswith("x") and index.isdecimal()) or int(index) in store:
            raise ValueError(f"bad or repeated variable name {name!r}")
        store[int(index)] = loc
    heap = Heap({int(k): v for k, v in data["heap"].items()})
    return MemoryState(data["q"], store, heap)


def save_state(m: MemoryState, path: str) -> None:
    with open(path, "w") as fh:
        json.dump(state_to_json(m), fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_state(path: str) -> MemoryState:
    with open(path) as fh:
        return state_from_json(json.load(fh))
