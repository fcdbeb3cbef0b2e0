"""Meet-points, labelled locations and support graphs.

A term is a program variable or a meet-point expression m(xi,xj): the first
location on xi's path that is also reachable from xj and itself reaches the
value of some program variable.  The degenerate m(xi,xi) is included: it
denotes s(xi) whenever s(xi) reaches a variable value (trivially itself),
which on every state makes m(xi,xi) either s(xi) or undefined.

The support graph of a state collects the labelled locations V, the
compressed successor relation E between them, the allocated labelled
locations rho, the labelling, the intermediate cells btw of each compressed
edge (kept in path order), and the remaining cells rem.  rho, rem and the
btw sets partition the heap domain.

The terms are read off one walk from each distinct variable value: the set
of locations it visits, and its head, the path up to the last variable value
on it.  m(xi,xj) is the first location of xi's head that xj's walk visits.
The first location of xi's walk that xj's walk visits comes at or before the
entry of any cycle closing xi's walk (a walk that meets the cycle runs
through all of it), so it reaches exactly the rest of xi's walk, and it
reaches a variable value exactly when it lies on the head.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Dict, FrozenSet, List, NamedTuple, Optional, Tuple

from .heaps import MemoryState


class Term(NamedTuple):
    kind: str  # "var" | "meet"
    i: int
    j: int = 0

    def __str__(self):
        if self.kind == "var":
            return f"x{self.i}"
        return f"m(x{self.i},x{self.j})"


def var_term(i: int) -> Term:
    return Term("var", i)


def meet_term(i: int, j: int) -> Term:
    return Term("meet", i, j)


@lru_cache(maxsize=None)
def _terms(q: int) -> Tuple[Tuple[Term, ...], Tuple[Tuple[Term, ...], ...]]:
    """The terms x_i and the rows m(x_i, x_1..x_q), built once per q."""
    r = range(1, q + 1)
    return tuple(var_term(i) for i in r), tuple(tuple(meet_term(i, j) for j in r) for i in r)


def all_terms(q: int) -> List[Term]:
    """The q^2 + q terms over x1..xq."""
    xs, rows = _terms(q)
    return [*xs, *(t for row in rows for t in row)]


def _walk(heap: dict, start: int, var_values) -> Tuple[List[int], set]:
    """(head, seen) for the walk from start, which ends when it leaves the
    domain or closes a cycle: seen holds the locations it visits and None
    (the successor outside the domain), head lists them in path order up to
    the last one in var_values, or all of them when the cycle closes on a
    value in var_values."""
    path = [start]
    seen = {start, None}
    get = heap.get
    nxt = get(start)
    while nxt not in seen:
        path.append(nxt)
        seen.add(nxt)
        nxt = get(nxt)
    if nxt in var_values:
        return path, seen
    return path[: max([path.index(v) for v in var_values if v in seen], default=-1) + 1], seen


def meet_point(m: MemoryState, i: int, j: int) -> Optional[int]:
    """The unique location satisfying the three meet-point conditions."""
    if not (1 <= i <= m.q and 1 <= j <= m.q):
        raise ValueError("variable index out of range")
    heap = m.heap.cells
    var_values = set(m.store.values())
    head = _walk(heap, m.store[i], var_values)[0]
    seen = _walk(heap, m.store[j], var_values)[1]
    return next((loc for loc in head if loc in seen), None)


def term_value(m: MemoryState, t: Term) -> Optional[int]:
    if t.kind == "var":
        if not 1 <= t.i <= m.q:
            raise ValueError("variable index out of range")
        return m.store[t.i]
    return meet_point(m, t.i, t.j)


class SupportGraph(NamedTuple):
    q: int
    vertices: FrozenSet[int]
    # functional edge relation: source -> (target, btw cells in path order)
    edges: Dict[int, Tuple[int, Tuple[int, ...]]]
    rho: FrozenSet[int]
    labels: Dict[int, FrozenSet[Term]]
    rem: FrozenSet[int]
    # the location of every defined term; the inverse of labels
    term_map: Dict[Term, int]

    def edge_pairs(self) -> FrozenSet[Tuple[int, int]]:
        return frozenset((a, b) for a, (b, _) in self.edges.items())

    def btw(self, a: int, b: int) -> Tuple[int, ...]:
        tgt, cells = self.edges[a]
        if tgt != b:
            raise KeyError((a, b))
        return cells


def build_support_graph(m: MemoryState) -> SupportGraph:
    """The support graph of m: the location of every defined term
    (term_map) and its inverse (labels), the labelled locations (vertices),
    the edge from each vertex to the next vertex its path reaches with the
    cells strictly between them in path order, the allocated vertices (rho)
    and the remaining cells (rem).  rho, rem and the btw sets partition the
    heap domain.

    It walks once from each distinct variable value, reads each meet-point
    off the walks up to the last variable value, and steps once from each
    vertex to the next."""
    heap = m.heap.cells
    store = m.store
    var_values = set(store.values())
    walks = {v: _walk(heap, v, var_values) for v in var_values}
    xs, rows = _terms(m.q)
    term_map: Dict[Term, int] = {xs[i - 1]: u for i, u in store.items()}
    for i, u in store.items():
        head, row = walks[u][0], rows[i - 1]
        for j, w in store.items():
            seen = walks[w][1]
            for loc in head:
                if loc in seen:
                    term_map[row[j - 1]] = loc
                    break
    labels: Dict[int, set] = {}
    for t, loc in term_map.items():
        labels.setdefault(loc, set()).add(t)
    vertices = frozenset(labels)
    edges: Dict[int, Tuple[int, Tuple[int, ...]]] = {}
    rem = heap.keys() - vertices
    get = heap.get
    steps = range(len(heap) + 1)  # a path can run into a cycle holding no vertex
    for v in vertices:
        cur = get(v)
        between: List[int] = []
        for _ in steps:
            if cur is None:
                break
            if cur in vertices:
                edges[v] = (cur, tuple(between))
                rem.difference_update(between)
                break
            between.append(cur)
            cur = get(cur)
    return SupportGraph(
        q=m.q,
        vertices=vertices,
        edges=edges,
        rho=frozenset(heap.keys() & vertices),
        labels={loc: frozenset(ts) for loc, ts in labels.items()},
        rem=frozenset(rem),
        term_map=term_map,
    )


def taxonomy(m: MemoryState, i: int, j: int) -> Optional[int]:
    """Which of the three meet-point shapes m(xi,xj) falls under:
    1 = the first variable value reached is not inside a loop,
    2 = it is inside a loop and m(xi,xj) = m(xj,xi),
    3 = it is inside a loop and the two meets differ.
    None when the meet-point is undefined."""
    loc = meet_point(m, i, j)
    if loc is None:
        return None
    heap = m.heap.cells
    var_values = set(m.store.values())
    first_var = next(l for l in _walk(heap, loc, var_values)[0] if l in var_values)
    if first_var not in heap or first_var not in _walk(heap, heap[first_var], var_values)[1]:
        return 1
    return 2 if loc == meet_point(m, j, i) else 3


def dump_support_graph(g: SupportGraph) -> str:
    """Stable text rendering for debugging and golden tests."""
    lines = [f"support graph (q={g.q})"]
    for v in sorted(g.vertices):
        terms = ",".join(sorted(str(t) for t in g.labels[v]))
        alloc = "alloc" if v in g.rho else "free"
        lines.append(f"  vertex {v} [{alloc}] labels: {terms}")
    for a in sorted(g.edges):
        b, btw = g.edges[a]
        lines.append(f"  edge {a} -> {b} (btw {len(btw)})")
    lines.append(f"  rem: {len(g.rem)}")
    return "\n".join(lines)
