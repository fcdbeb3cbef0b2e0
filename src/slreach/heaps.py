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
        if q < 1:
            raise ValueError("q must be >= 1")
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
    return Heap(merged)


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


def _propagate(mapping, inv, h1: Heap, h2: Heap):
    """Close mapping under the heap-successor constraint; None on conflict."""
    queue = list(mapping)
    while queue:
        a = queue.pop()
        b = mapping[a]
        in1, in2 = a in h1, b in h2
        if in1 != in2:
            return None
        if in1:
            ta, tb = h1[a], h2[b]
            if ta in mapping:
                if mapping[ta] != tb:
                    return None
            elif tb in inv:
                return None
            else:
                mapping[ta] = tb
                inv[tb] = ta
                queue.append(ta)
    return mapping


def isomorphic_wrt(m1: MemoryState, m2: MemoryState, X: Iterable[int]):
    """A bijection on the relevant locations extendable to an X-isomorphism
    (heap-graph isomorphism mapping s1(x) to s2(x) for x in X), or None."""
    if m1.q != m2.q:
        raise ValueError("states must share q")
    h1, h2 = m1.heap, m2.heap
    if len(h1) != len(h2):
        return None
    xs = sorted(set(X))
    mapping: Dict[int, int] = {}
    inv: Dict[int, int] = {}
    for x in xs:
        a, b = m1.store[x], m2.store[x]
        if mapping.get(a, b) != b or inv.get(b, a) != a:
            return None
        mapping[a] = b
        inv[b] = a
    if _propagate(mapping, inv, h1, h2) is None:
        return None

    def search(mapping, inv):
        pend = sorted(l for l in h1.cells if l not in mapping)
        if not pend:
            rel1 = frozenset(m1.store[x] for x in xs) | h1.locations()
            if any(l not in mapping for l in rel1):
                # only unreached range-side locations can remain; map them
                rest1 = sorted(l for l in rel1 if l not in mapping)
                rel2 = frozenset(m2.store[x] for x in xs) | h2.locations()
                rest2 = sorted(l for l in rel2 if l not in inv)
                if len(rest1) != len(rest2):
                    return None
                for a, b in zip(rest1, rest2):
                    mapping[a] = b
                    inv[b] = a
            return mapping
        a = pend[0]
        for b in sorted(l for l in h2.cells if l not in inv):
            trial = dict(mapping)
            trial_inv = dict(inv)
            trial[a] = b
            trial_inv[b] = a
            if _propagate(trial, trial_inv, h1, h2) is None:
                continue
            res = search(trial, trial_inv)
            if res is not None:
                return res
        return None

    return search(mapping, inv)


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


def state_from_json(data: dict) -> MemoryState:
    q = data["q"]
    store = {}
    for name, loc in data["store"].items():
        if not name.startswith("x"):
            raise ValueError(f"bad variable name {name!r}")
        store[int(name[1:])] = int(loc)
    heap = Heap({int(k): int(v) for k, v in data["heap"].items()})
    return MemoryState(q, store, heap)


def save_state(m: MemoryState, path: str) -> None:
    with open(path, "w") as fh:
        json.dump(state_to_json(m), fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_state(path: str) -> MemoryState:
    with open(path) as fh:
        return state_from_json(json.load(fh))
