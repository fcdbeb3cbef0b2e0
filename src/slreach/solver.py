"""Satisfiability for the decidable fragments, plus a brute-force oracle.

The reach+ fragment is decided against the canonical small-state space: every
state is equivalent (at rank alpha = memory size of the query) to one whose
heap consists of paths of at most alpha intermediate cells between at most
q^2 + q labelled locations, a remainder block of at most alpha cells pointing
at one sink, and dangling labelled cells pointing at one dump location.
At most q variable vertices and q - 1 meet-points are needed (see
_skeletons).  Enumerating those states covers every satisfiability class;
any model found lies within the small-heap bound (q^2+q)(n+1)+n.  States
with equal profiles are not merged: sweeping an equivalent duplicate is
sound, and at q <= 2, alpha <= 4 no two canonical states share a profile.

A sweep ascends by cell count, then by store pattern, so returned models
are cell-minimal.  It builds a (cells, pattern) bucket of shapes when it
first reaches it, so a q = 3 sweep never holds its whole space: one that
checks all 416 760 states of memory size 4 peaks at 24 MB resident.  A
state's store is fixed by its pattern, so the sweep takes the footprint
(semantics._footprint: lo <= cells <= hi, must locations allocated) once
per pattern and checks only the states it leaves open; the others are
skipped before they are built.  They are non-models and the rest keep their
order, so statuses and models are those of the full sweep, and only
`explored` (the states checked) drops: without the pruning a sat round
(seed 1, fresh import) takes 1.55 times the CPU (medians of 20 paired
rounds) and checks 17 685 states, not 2 033.  ls and reach are rewritten
into SL(*, reach+) (rewrite_reach) only for the rank and the footprint: the
rewrite keeps truth on every state, so each state is checked against the
query as written, one heap walk per ls where the rewrite splits a *.
sat_boolcomb sweeps unpruned: it decides -* parts with the bounded check,
and that the footprint agrees with it there is not shown.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import Dict, Iterator, List, Optional, Tuple

from . import syntax as S
from .heaps import Heap, MemoryState, extensions
from .semantics import FORBID, WandPolicy, _Evaluator, _footprint, check, check_exact
from .semantics import sl_star_wand_bound
from .syntax import msize, rewrite_reach


class FragmentError(ValueError):
    pass


@dataclass(frozen=True)
class SatResult:
    status: str  # "sat" | "unsat" | "unknown"
    model: Optional[MemoryState] = None
    explored: int = 0

    @property
    def is_sat(self) -> bool:
        return self.status == "sat"


# ---------------------------------------------------------------------------
# Canonical small-state space.
# ---------------------------------------------------------------------------

def _store_patterns(q: int) -> Iterator[Tuple[int, ...]]:
    """Restricted-growth strings: which vertex each variable shares."""

    def rec(prefix: List[int], mx: int):
        if len(prefix) == q:
            yield tuple(prefix)
            return
        for v in range(mx + 2):
            yield from rec(prefix + [v], max(mx, v))

    yield from rec([], -1)


_NO_SUCC = ("none",)
_DUMP = ("dump",)


def _most_cells(q: int, alpha: int) -> int:
    """The most cells of a canonical shape: at most 2q - 1 vertices, each
    with at most alpha + 1 cells, plus a remainder block of alpha."""
    return (2 * q - 1) * (alpha + 1) + alpha


def _skeletons(pattern: Tuple[int, ...]) -> List[tuple]:
    """(skeleton, edge vertices, base cells) for every canonical shape of one
    store pattern with its path lengths left open.

    A shape gives each vertex v a compressed successor: none, the dump, or
    an edge to vertex t through k intermediate cells; the skeleton has
    ("edge", t) there, and base counts one cell per vertex with a successor.
    Vertices below n_store carry the variables; the n_extra above them are
    meet-points, which are real only with two incoming edges and a path to a
    variable vertex (other extra configurations only duplicate profiles
    already covered without extras).  So 2 * n_extra edges enter the extras
    and, once there is an extra, at least one more enters a variable vertex,
    all out of the n_store + n_extra vertices: n_extra <= n_store - 1 < q.
    Successors are chosen vertex by vertex, and a prefix is dropped as soon
    as the vertices left cannot supply the incoming edges the extras still
    lack.
    """
    n_store = max(pattern) + 1
    out = []
    for n_extra in range(n_store):
        nv = n_store + n_extra
        options = [_NO_SUCC, _DUMP] + [("edge", t) for t in range(nv)]
        indeg = [0] * nv
        succ: List[tuple] = []

        def rec(lacking: int):
            if lacking > nv - len(succ):
                return
            if len(succ) == nv:
                if all(_reaches_store(succ, e, n_store) for e in range(n_store, nv)):
                    edges = tuple(v for v, sc in enumerate(succ) if sc[0] == "edge")
                    base = sum(sc is not _NO_SUCC for sc in succ)
                    out.append((tuple(succ), edges, base))
                return
            for sc in options:
                gain = 0
                if sc[0] == "edge":
                    t = sc[1]
                    if t >= n_store and indeg[t] < 2:
                        gain = 1
                    indeg[t] += 1
                succ.append(sc)
                rec(lacking - gain)
                succ.pop()
                if sc[0] == "edge":
                    indeg[sc[1]] -= 1

        rec(2 * n_extra)
    return out


def _spread(total: int, parts: int, cap: int) -> Iterator[Tuple[int, ...]]:
    """Every tuple of `parts` integers in [0, cap] that sums to total."""
    if parts == 1:
        if total <= cap:
            yield (total,)
        return
    for k in range(max(0, total - (parts - 1) * cap), min(cap, total) + 1):
        for rest in _spread(total - k, parts - 1, cap):
            yield (k,) + rest


def _shapes(pattern: Tuple[int, ...], skeletons: List[tuple], alpha: int, cells: int) -> List[tuple]:
    """(pattern, succ, rem, cells) tuples, sorted, describing every canonical
    shape of the pattern with exactly `cells` cells: each skeleton with its
    spare cells spread over its paths (at most alpha intermediate cells
    each) and the remainder block (at most alpha cells)."""
    edge = [[("edge", t, k) for k in range(alpha + 1)] for t in range(len(pattern) * 2)]
    out = []
    for skel, edges, base in skeletons:
        spare = cells - base
        if not 0 <= spare <= (len(edges) + 1) * alpha:
            continue
        for ks in _spread(spare, len(edges) + 1, alpha):
            succ = list(skel)
            for v, k in zip(edges, ks):
                succ[v] = edge[skel[v][1]][k]
            out.append((pattern, tuple(succ), ks[-1], cells))
    out.sort()
    return out


def _shape_descriptors(q: int, alpha: int) -> List[tuple]:
    """Every canonical shape of (q, alpha), in sweep order: ascending by
    (cells, pattern, succ, rem)."""
    skeletons = {p: _skeletons(p) for p in _store_patterns(q)}
    return [
        d
        for cells in range(_most_cells(q, alpha) + 1)
        for p, skels in skeletons.items()
        for d in _shapes(p, skels, alpha, cells)
    ]


def _reaches_store(succ: List[tuple], v: int, n_store: int) -> bool:
    """Whether the compressed path from vertex v reaches a variable vertex."""
    seen = set()
    while v >= n_store:
        if v in seen or succ[v][0] != "edge":
            return False
        seen.add(v)
        v = succ[v][1]
    return True


def _materialize(q: int, desc: tuple) -> MemoryState:
    pattern, succ, rem, _ = desc
    nv = len(succ)
    nxt = nv
    heap: Dict[int, int] = {}
    dump = None
    for v, sc in enumerate(succ):
        if sc[0] == "none":
            continue
        if sc[0] == "dump":
            if dump is None:
                dump = nxt
                nxt += 1
            heap[v] = dump
        else:
            _, tgt, k = sc
            cur = v
            for _ in range(k):
                heap[cur] = nxt
                cur = nxt
                nxt += 1
            heap[cur] = tgt
    if rem:
        sink = nxt + rem
        for _ in range(rem):
            heap[nxt] = sink
            nxt += 1
        nxt += 1
    # locations and store values are naturals by construction
    return MemoryState._unchecked(q, {i + 1: pattern[i] for i in range(q)}, heap)


# The most states a space keeps between sweeps.  The largest space at
# q <= 2, alpha <= 4 has 2005 states, and the sat sweeps at that scale
# revisit it constantly.  q = 3 spaces hold 3744 (alpha = 1) to 416 760
# (alpha = 4) states, about 640 B each materialized, so they keep nothing
# and every sweep generates one (cells, pattern) bucket at a time.
_KEEP_STATES = 2005


class _CanonicalSpace:
    """The canonical states of (q, alpha) in buckets of one cell count and
    one store pattern, swept ascending by cells, then by pattern.  A space
    of at most _KEEP_STATES states keeps each bucket's descriptors once a
    sweep has reached it, and each state once a sweep has materialized it;
    a larger space keeps nothing and regenerates each bucket that a sweep
    reaches."""

    def __init__(self, q: int, alpha: int):
        self.q, self.alpha = q, alpha
        self.patterns = list(_store_patterns(q))
        self.top = _most_cells(q, alpha)
        self.skeletons = {p: _skeletons(p) for p in self.patterns}
        # a skeleton with e edges gives (alpha + 1) ** (e + 1) shapes: 0 to
        # alpha intermediate cells on each path and in the remainder block
        skels = [sk for p in self.patterns for sk in self.skeletons[p]]
        self.size = sum((alpha + 1) ** (len(edges) + 1) for _, edges, _ in skels)
        # (cells, pattern) -> [descriptors, their states or None]
        self.kept: Optional[Dict[tuple, list]] = {} if self.size <= _KEEP_STATES else None

    def __iter__(self) -> Iterator[MemoryState]:
        return self.sweep()

    def sweep(self, f: Optional[S.Formula] = None) -> Iterator[MemoryState]:
        """The states in sweep order; with f, only those that f's footprint
        under their store leaves open (_footprint: the cell count lies in
        [lo, hi] and every must location is allocated).  Every state left
        out is a non-model of the wand-free f."""
        live = []
        for p in self.patterns:
            if f is None:
                lo, hi, must = 0, self.top, ()
            else:
                lo, hi, must = _footprint(f, {i + 1: v for i, v in enumerate(p)})
            if lo <= hi:
                live.append((p, lo, hi, must))
        if not live:
            return
        last = min(self.top, max(hi for _, _, hi, _ in live))
        for cells in range(min(lo for _, lo, _, _ in live), last + 1):
            for p, lo, hi, must in live:
                if not lo <= cells <= hi:
                    continue
                if self.kept is None:
                    descs, states = _shapes(p, self.skeletons[p], self.alpha, cells), None
                else:
                    if (cells, p) not in self.kept:  # built when a sweep first reaches it
                        descs = _shapes(p, self.skeletons[p], self.alpha, cells)
                        self.kept[cells, p] = [descs, [None] * len(descs)]
                    descs, states = self.kept[cells, p]
                for i, d in enumerate(descs):
                    # vertex l (location l) is allocated iff succ[l] is not none
                    if any(d[1][l] is _NO_SUCC for l in must):
                        continue
                    if states is None:
                        yield _materialize(self.q, d)
                        continue
                    if states[i] is None:
                        states[i] = _materialize(self.q, d)
                    yield states[i]


_REP_CACHES: Dict[Tuple[int, int], _CanonicalSpace] = {}


def canonical_states(q: int, alpha: int) -> _CanonicalSpace:
    key = (q, alpha)
    if key not in _REP_CACHES:
        _REP_CACHES[key] = _CanonicalSpace(q, alpha)
    return _REP_CACHES[key]


# ---------------------------------------------------------------------------
# Fragment solvers.
# ---------------------------------------------------------------------------

def _formula_q(f: S.Formula) -> int:
    return max(f.vars) if f.vars else 1


def _sweep(f: S.Formula, g: S.Formula) -> SatResult:
    """Sweep the canonical space for a model of the wand-free f, where g is
    an SL(*, reach+) formula true on the same states as f: g fixes the rank
    (its memory size) and the footprint that prunes the sweep, and each
    state is checked against f."""
    q = _formula_q(f)
    ev = _Evaluator(FORBID).ev  # f is wand-free; one footprint table for the sweep
    explored = 0
    for m in canonical_states(q, msize(g)).sweep(g):
        explored += 1
        if ev(m.store, m.heap.cells, f):
            return SatResult("sat", m, explored)
    return SatResult("unsat", None, explored)


def sat_reachplus(f: S.Formula) -> SatResult:
    """Satisfiability for SL(*, reach+) via the canonical small-state space;
    sat models are re-checked and lie within the small-heap bound."""
    if not S.strictly_in_sl_star_reachplus(f):
        raise FragmentError(
            "sat_reachplus expects a wand-free formula without ls/reach atoms "
            "(apply rewrite_reach first)"
        )
    return _sweep(f, f)


def shf_rewrite(f: S.Formula) -> S.Formula:
    """The satisfaction-preserving rewrite into SL(*, reach+), which is
    rewrite_reach toward reach+: exact points-to is already the conjunction
    with size = 1; list segments become the empty/loop-free reach+
    disjunction."""
    return rewrite_reach(f, "reachplus")


def sat_bool_shf(f: S.Formula) -> SatResult:
    """Satisfiability for Boolean combinations of symbolic-heap formulae."""
    if not S.in_bool_shf(f):
        raise FragmentError("formula is not a Boolean combination of symbolic heaps")
    return _sweep(f, shf_rewrite(f))


def sat_boolcomb(f: S.Formula) -> SatResult:
    """Satisfiability for Boolean combinations of SL(*,-*) and SL(*,reach+)
    formulae: sweep the canonical space at a rank covering every maximal
    part (2|part| for wand parts, msize for reach+ parts), evaluating wand
    parts with the complete bounded-wand budget."""
    parts = S.boolcomb_parts(f)
    if parts is None:
        raise FragmentError(
            "formula is not a Boolean combination of SL(*,-*) and SL(*,reach+)"
        )
    alpha = 1
    wand_bound = 0
    for p in parts:
        if p.wand_free:
            alpha = max(alpha, msize(p))
        else:
            b = sl_star_wand_bound(p)
            alpha = max(alpha, b)
            wand_bound = max(wand_bound, b)
    q = _formula_q(f)
    policy = WandPolicy("bounded", wand_bound or 1, max(wand_bound, 1))
    explored = 0
    for m in canonical_states(q, alpha):
        explored += 1
        if check(m, f, policy).truth:
            return SatResult("sat", m, explored)
    return SatResult("unsat", None, explored)


def sat(f: S.Formula, fragment: str = "auto") -> SatResult:
    """Dispatch on fragment; "auto" tries reach+ (after rewriting), then the
    Boolean-combination procedure."""
    if fragment == "reachplus":
        return sat_reachplus(f)
    if fragment == "boolshf":
        return sat_bool_shf(f)
    if fragment == "boolcomb":
        return sat_boolcomb(f)
    if fragment != "auto":
        raise ValueError(f"unknown fragment {fragment!r}")
    if f.wand_free:
        return _sweep(f, rewrite_reach(f, "reachplus"))
    try:
        rewritten = rewrite_reach(f, "reachplus")
    except ValueError:
        rewritten = f
    return sat_boolcomb(rewritten)


def entails(f: S.Formula, g: S.Formula) -> bool:
    """f entails g iff f /\\ not g is unsatisfiable."""
    res = counterexample(f, g)
    return res is None


def counterexample(f: S.Formula, g: S.Formula) -> Optional[MemoryState]:
    """A state satisfying f but not g, or None when the entailment holds."""
    query = S.And(f, S.Not(g))
    res = sat(query)
    if res.status == "sat":
        return res.model
    if res.status == "unsat":
        return None
    raise FragmentError("entailment query fell outside the decided fragments")


def brute_sat(
    f: S.Formula,
    max_cells: int,
    max_locs: int,
    policy: WandPolicy = WandPolicy(),
) -> SatResult:
    """Reference oracle: exhaustively try every store and every heap over
    locations 0..max_locs-1 with at most max_cells cells."""
    q = _formula_q(f)
    used_vars = sorted(f.vars) or [1]
    locs = list(range(max_locs))
    explored = 0
    for store_vals in product(locs, repeat=len(used_vars)):
        store = {i: 0 for i in range(1, q + 1)}
        store.update(dict(zip(used_vars, store_vals)))
        for h in extensions(Heap(), locs, max_cells):
            explored += 1
            m = MemoryState(q, store, h)
            if f.wand_free:
                ok = check_exact(m, f)
            else:
                ok = check(m, f, policy).truth
            if ok:
                return SatResult("sat", m, explored)
    return SatResult("unknown", None, explored)
