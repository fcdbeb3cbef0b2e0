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
"""

from __future__ import annotations

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


def all_terms(q: int) -> List[Term]:
    """The q^2 + q terms over x1..xq."""
    out = [var_term(i) for i in range(1, q + 1)]
    out.extend(meet_term(i, j) for i in range(1, q + 1) for j in range(1, q + 1))
    return out


def _walk(heap: dict, start: int) -> List[int]:
    """Locations visited from start (start included) until the walk leaves
    the domain or closes a cycle; at most |dom|+1 entries."""
    out = [start]
    seen = {start}
    cur = start
    for _ in range(len(heap)):
        nxt = heap.get(cur)
        if nxt is None:
            break
        if nxt in seen:
            out.append(nxt)
            break
        out.append(nxt)
        seen.add(nxt)
        cur = nxt
    return out


class _VarWalk(NamedTuple):
    """The walk from one variable's value, read once for all its meet-points."""

    path: List[int]  # _walk from the value
    on_path: FrozenSet[int]
    last_var: int  # the last index on path holding a variable value


def _var_walk(heap: dict, start: int, var_values) -> _VarWalk:
    path = _walk(heap, start)
    last_var = max(k for k, loc in enumerate(path) if loc in var_values)
    return _VarWalk(path, frozenset(path), last_var)


def _meet(wi: _VarWalk, wj: _VarWalk) -> Optional[int]:
    """m(xi,xj) from the walks of xi and xj: the first location on xi's path
    that xj's path visits, provided it reaches some variable value.

    That first location comes at or before the entry of any cycle closing
    xi's path (a path that meets the cycle runs through all of it), so what
    it reaches is exactly the rest of xi's path, and it reaches a variable
    value exactly when one lies at or after it there."""
    on_j = wj.on_path
    for k, loc in enumerate(wi.path):
        if loc in on_j:
            return loc if k <= wi.last_var else None
    return None


def meet_point(m: MemoryState, i: int, j: int) -> Optional[int]:
    """The unique location satisfying the three meet-point conditions."""
    if not (1 <= i <= m.q and 1 <= j <= m.q):
        raise ValueError("variable index out of range")
    heap = m.heap.cells
    var_values = set(m.store.values())
    return _meet(
        _var_walk(heap, m.store[i], var_values),
        _var_walk(heap, m.store[j], var_values),
    )


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
    heap = m.heap.cells
    var_values = set(m.store.values())
    walks = {i: _var_walk(heap, v, var_values) for i, v in m.store.items()}
    term_map: Dict[Term, int] = {var_term(i): v for i, v in m.store.items()}
    for i, wi in walks.items():
        for j, wj in walks.items():
            loc = _meet(wi, wj)
            if loc is not None:
                term_map[meet_term(i, j)] = loc
    labels: Dict[int, set] = {}
    for t, loc in term_map.items():
        labels.setdefault(loc, set()).add(t)
    vertices = frozenset(labels)
    edges: Dict[int, Tuple[int, Tuple[int, ...]]] = {}
    used_btw = set()
    for v in vertices:
        cur = heap.get(v)
        between: List[int] = []
        steps = 0
        while cur is not None and steps <= len(heap):
            if cur in vertices:
                edges[v] = (cur, tuple(between))
                used_btw.update(between)
                break
            between.append(cur)
            cur = heap.get(cur)
            steps += 1
    rho = frozenset(v for v in vertices if v in heap)
    rem = frozenset(l for l in heap if l not in rho and l not in used_btw)
    return SupportGraph(
        q=m.q,
        vertices=vertices,
        edges=edges,
        rho=rho,
        labels={l: frozenset(ts) for l, ts in labels.items()},
        rem=rem,
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
    walk = _walk(heap, loc)
    first_var = next(l for l in walk if l in var_values)
    on_loop = first_var in _walk(heap, heap.get(first_var)) if first_var in heap else False
    if not on_loop:
        return 1
    return 2 if meet_point(m, i, j) == meet_point(m, j, i) else 3


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
