"""Test atoms, literal profiles, the indistinguishability relation, atomic
encodings, the distributivity split and the small-model shrinker.

The atom family over q variables at rank alpha:

    t = t'        alloc(t)        t ~> t'
    sees(t,t') >= beta+1          sizeothers >= beta        beta in [1,alpha]

with t, t' terms (variables or meet-points).  sees(t,t') >= 1 is not an atom;
it abbreviates  t ~> t'  or  sees(t,t') >= 2.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Dict, FrozenSet, List, NamedTuple, Optional, Tuple

from . import syntax as S
from .heaps import Heap, MemoryState, fresh_locations
from .semantics import _size_geq_value
from .support import SupportGraph, Term, all_terms, build_support_graph


class TestAtom(NamedTuple):
    kind: str  # "eq" | "alloc" | "pointsto" | "sees" | "sizeothers"
    t1: Optional[Term] = None
    t2: Optional[Term] = None
    bound: int = 0  # sees: asserts btw >= bound-1 (atom reads ">= bound")

    def __str__(self):
        if self.kind == "eq":
            return f"{self.t1} = {self.t2}"
        if self.kind == "alloc":
            return f"alloc({self.t1})"
        if self.kind == "pointsto":
            return f"{self.t1} ~> {self.t2}"
        if self.kind == "sees":
            return f"sees({self.t1},{self.t2}) >= {self.bound}"
        return f"sizeothers >= {self.bound}"


def eq_atom(t1: Term, t2: Term) -> TestAtom:
    a, b = sorted((t1, t2))
    return TestAtom("eq", a, b)


def alloc_atom(t: Term) -> TestAtom:
    return TestAtom("alloc", t)


def pointsto_atom(t1: Term, t2: Term) -> TestAtom:
    return TestAtom("pointsto", t1, t2)


def sees_atom(t1: Term, t2: Term, bound: int) -> TestAtom:
    if bound < 2:
        raise ValueError("sees atoms start at >= 2")
    return TestAtom("sees", t1, t2, bound)


def sizeothers_atom(bound: int) -> TestAtom:
    if bound < 1:
        raise ValueError("sizeothers atoms start at >= 1")
    return TestAtom("sizeothers", None, None, bound)


@lru_cache(maxsize=None)
def atom_family(q: int, alpha: int) -> Tuple[TestAtom, ...]:
    """The full atom set Test(q, alpha), built once per (q, alpha)."""
    if q < 1 or alpha < 1:
        raise ValueError("q and alpha must be >= 1")
    terms = all_terms(q)
    atoms: List[TestAtom] = []
    for i, t1 in enumerate(terms):
        for t2 in terms[i:]:
            atoms.append(eq_atom(t1, t2))
    atoms.extend(alloc_atom(t) for t in terms)
    for t1 in terms:
        for t2 in terms:
            atoms.append(pointsto_atom(t1, t2))
    for t1 in terms:
        for t2 in terms:
            for beta in range(1, alpha + 1):
                atoms.append(sees_atom(t1, t2, beta + 1))
    atoms.extend(sizeothers_atom(beta) for beta in range(1, alpha + 1))
    return tuple(atoms)


def eval_atom_on_graph(g: SupportGraph, a: TestAtom) -> bool:
    """One atom on a support graph, by the atom's definition."""
    tm = g.term_map
    if a.kind == "sizeothers":
        return len(g.rem) >= a.bound
    l1 = tm.get(a.t1)
    if a.kind == "alloc":
        return l1 is not None and l1 in g.rho
    l2 = tm.get(a.t2)
    if a.kind == "eq":
        return l1 is not None and l2 is not None and l1 == l2
    if l1 is None or l2 is None:
        return False
    edge = g.edges.get(l1)
    if edge is None or edge[0] != l2:
        return False
    if a.kind == "pointsto":
        return len(edge[1]) == 0
    return len(edge[1]) >= a.bound - 1  # sees >= bound


def eval_atom(m: MemoryState, a: TestAtom) -> bool:
    return eval_atom_on_graph(build_support_graph(m), a)


def _satisfied_atoms(g: SupportGraph, alpha: int):
    """The atoms of atom_family(g.q, alpha) that hold on g, read off its
    vertices, edges and rem in one pass instead of testing every atom."""
    if alpha < 1:
        raise ValueError("alpha must be >= 1")
    labels = g.labels
    for v, terms in labels.items():
        ts = sorted(terms)
        for k, t1 in enumerate(ts):
            for t2 in ts[k:]:
                yield TestAtom("eq", t1, t2)
        if v in g.rho:
            for t in ts:
                yield TestAtom("alloc", t)
    for a, (b, btw) in g.edges.items():
        top = min(alpha, len(btw))
        for t1 in labels[a]:
            for t2 in labels[b]:
                if not btw:
                    yield TestAtom("pointsto", t1, t2)
                for beta in range(1, top + 1):
                    yield TestAtom("sees", t1, t2, beta + 1)
    for beta in range(1, min(alpha, len(g.rem)) + 1):
        yield TestAtom("sizeothers", None, None, beta)


@dataclass(frozen=True)
class LiteralProfile:
    q: int
    alpha: int
    satisfied: FrozenSet[TestAtom]

    def dump(self) -> str:
        return "\n".join(sorted(str(a) for a in self.satisfied))


def profile(m: MemoryState, alpha: int) -> LiteralProfile:
    """The satisfied subset of Test(q, alpha)."""
    return LiteralProfile(m.q, alpha, profile_of_graph(build_support_graph(m), alpha))


def profile_of_graph(g: SupportGraph, alpha: int) -> FrozenSet[TestAtom]:
    return frozenset(_satisfied_atoms(g, alpha))


# ---------------------------------------------------------------------------
# The equivalence.
# ---------------------------------------------------------------------------

def structure_witness(
    m1: MemoryState,
    m2: MemoryState,
    alpha: int,
    g1: Optional[SupportGraph] = None,
    g2: Optional[SupportGraph] = None,
):
    """The A1-A5 map between the two support graphs, or None.  g1 and g2,
    when given, are the support graphs of m1 and m2, already built.

    The labelling forces the only possible map (distinct vertices carry
    disjoint nonempty term sets), so no search is needed: build it from the
    labels and verify the five conditions."""
    if g1 is None:
        g1 = build_support_graph(m1)
    if g2 is None:
        g2 = build_support_graph(m2)
    if len(g1.vertices) != len(g2.vertices):
        return None
    by_labels = {g2.labels[v]: v for v in g2.vertices}
    f: Dict[int, int] = {}
    for v in g1.vertices:
        w = by_labels.get(g1.labels[v])  # A3
        if w is None:
            return None
        f[v] = w
    if len(set(f.values())) != len(g2.vertices):
        return None
    for v in g1.vertices:
        if (v in g1.rho) != (f[v] in g2.rho):  # A2
            return None
    e1 = {(a, b) for a, (b, _) in g1.edges.items()}
    e2 = {(a, b) for a, (b, _) in g2.edges.items()}
    if {(f[a], f[b]) for (a, b) in e1} != e2:  # A1
        return None
    for a, (b, btw) in g1.edges.items():
        btw2 = g2.edges[f[a]][1]
        if min(alpha, len(btw)) != min(alpha, len(btw2)):  # A4
            return None
    if min(alpha, len(g1.rem)) != min(alpha, len(g2.rem)):  # A5
        return None
    return f


def equivalent(m1: MemoryState, m2: MemoryState, alpha: int) -> bool:
    """Indistinguishability by every atom of Test(q, alpha), decided by the
    A1-A5 witness.  Equal literal profiles are the definition; the tests
    check the witness against them."""
    if m1.q != m2.q:
        raise ValueError("states must share q")
    if alpha < 1:
        raise ValueError("alpha must be >= 1")
    return structure_witness(m1, m2, alpha) is not None


# ---------------------------------------------------------------------------
# Atomic formulae as Boolean combinations of test atoms.
# ---------------------------------------------------------------------------

class TestFormula:
    """Tiny and/or/not tree over TestAtom leaves."""

    __slots__ = ("op", "parts", "atom")

    def __init__(self, op: str, parts=(), atom: Optional[TestAtom] = None):
        self.op = op  # "atom" | "not" | "and" | "or" | "true" | "false"
        self.parts = tuple(parts)
        self.atom = atom

    @staticmethod
    def of(atom: TestAtom) -> "TestFormula":
        return TestFormula("atom", atom=atom)

    @staticmethod
    def neg(p: "TestFormula") -> "TestFormula":
        return TestFormula("not", (p,))

    @staticmethod
    def conj(parts) -> "TestFormula":
        parts = tuple(parts)
        return parts[0] if len(parts) == 1 else TestFormula("and", parts)

    @staticmethod
    def disj(parts) -> "TestFormula":
        parts = tuple(parts)
        if not parts:
            return TestFormula("false")
        return parts[0] if len(parts) == 1 else TestFormula("or", parts)

    def evaluate(self, g: SupportGraph) -> bool:
        if self.op == "atom":
            return eval_atom_on_graph(g, self.atom)
        if self.op == "not":
            return not self.parts[0].evaluate(g)
        if self.op == "and":
            return all(p.evaluate(g) for p in self.parts)
        if self.op == "or":
            return any(p.evaluate(g) for p in self.parts)
        return self.op == "true"

    def atoms(self):
        if self.op == "atom":
            yield self.atom
        for p in self.parts:
            yield from p.atoms()


def eval_test_formula(m: MemoryState, tf: TestFormula) -> bool:
    return tf.evaluate(build_support_graph(m))


def _chains(terms: List[Term], first: Term, last: Term):
    """Sequences t1..tn, n >= 2, t1 = first, tn = last, t1..t(n-1) pairwise
    distinct: the skeletons of unlabelled-interior paths."""
    others = [t for t in terms if t != first]

    def rec(prefix: List[Term]):
        yield prefix + [last]
        for t in others:
            if t not in prefix:
                yield from rec(prefix + [t])

    yield from rec([first])


def _sees_geq1(t1: Term, t2: Term) -> TestFormula:
    return TestFormula.disj(
        [TestFormula.of(pointsto_atom(t1, t2)), TestFormula.of(sees_atom(t1, t2, 2))]
    )


def _size_v_geq(t: Term, beta: int, q: int, alpha: int) -> TestFormula:
    """At least beta cells on t's outgoing compressed edge (t included)."""
    if beta == 0:
        return TestFormula("true")
    if beta == 1:
        return TestFormula.of(alloc_atom(t))
    return TestFormula.disj(
        [TestFormula.of(sees_atom(t, t2, beta)) for t2 in all_terms(q)]
    )


def encode_atomic(f: S.Formula, q: int, alpha: int) -> TestFormula:
    """Boolean combination of Test(q,alpha) atoms equivalent to an atomic
    formula among reach+(x,y), emp and size >= beta (beta <= alpha)."""
    if isinstance(f, S.Emp):
        parts = [TestFormula.neg(TestFormula.of(sizeothers_atom(1)))]
        parts.extend(
            TestFormula.neg(TestFormula.of(alloc_atom(Term("var", i))))
            for i in range(1, q + 1)
        )
        return TestFormula.conj(parts)
    if isinstance(f, S.ReachPlus):
        terms = all_terms(q)
        first, last = Term("var", f.x), Term("var", f.y)
        disjuncts = []
        for chain in _chains(terms, first, last):
            disjuncts.append(
                TestFormula.conj(
                    [_sees_geq1(a, b) for a, b in zip(chain, chain[1:])]
                )
            )
        return TestFormula.disj(disjuncts)
    beta = _size_geq_value(f)
    if beta is not None:
        if beta == 0:
            return TestFormula("true")
        if beta > alpha:
            raise ValueError(f"size >= {beta} needs alpha >= {beta}, got {alpha}")
        terms = all_terms(q)
        disjuncts = []
        for br in range(0, min(alpha, beta) + 1):
            for v_terms, parts in _compositions(terms, beta - br, alpha + 1):
                conj = []
                if br > 0:
                    conj.append(TestFormula.of(sizeothers_atom(br)))
                for t, b in zip(v_terms, parts):
                    conj.append(_size_v_geq(t, b, q, alpha))
                for i, t in enumerate(v_terms):
                    for t2 in v_terms[i + 1:]:
                        conj.append(TestFormula.neg(TestFormula.of(eq_atom(t, t2))))
                disjuncts.append(
                    TestFormula.conj(conj) if conj else TestFormula("true")
                )
        return TestFormula.disj(disjuncts)
    raise ValueError("encode_atomic supports reach+(x,y), emp and size >= beta")


def _compositions(terms: List[Term], total: int, cap: int):
    """All (term subset, positive parts summing to total with parts <= cap)."""
    if total == 0:
        yield [], []
        return

    def rec(idx: int, remaining: int, chosen: List[Term], parts: List[int]):
        if remaining == 0:
            yield list(chosen), list(parts)
            return
        if idx == len(terms):
            return
        yield from rec(idx + 1, remaining, chosen, parts)
        t = terms[idx]
        for b in range(1, min(remaining, cap) + 1):
            chosen.append(t)
            parts.append(b)
            yield from rec(idx + 1, remaining - b, chosen, parts)
            chosen.pop()
            parts.pop()

    yield from rec(0, total, [], [])


# ---------------------------------------------------------------------------
# Distributivity: mirroring a split across equivalent states.
# ---------------------------------------------------------------------------

class SplitPreconditionError(ValueError):
    pass


def match_split(
    m1: MemoryState,
    m2: MemoryState,
    h_a: Heap,
    h_b: Heap,
    alpha1: int,
    alpha2: int,
) -> Tuple[Heap, Heap]:
    """Given m1 ~ m2 at rank alpha1+alpha2 and a split of m1's heap, produce
    the mirrored split of m2's heap whose parts are equivalent at alpha1 and
    alpha2 respectively.

    Deterministic choices: the first part always receives a prefix (in path
    order for btw sets, in location order for rem) whose length the case
    analysis fixes; when both parts are saturated, alpha1 cells go to the
    first part."""
    if alpha1 < 1 or alpha2 < 1:
        raise SplitPreconditionError("alpha1 and alpha2 must be >= 1")
    if h_a + h_b != m1.heap:
        raise SplitPreconditionError("h_a + h_b must be exactly m1's heap")
    alpha = alpha1 + alpha2
    g1, g2 = build_support_graph(m1), build_support_graph(m2)
    wit = structure_witness(m1, m2, alpha, g1, g2)
    if wit is None:
        raise SplitPreconditionError("states are not equivalent at alpha1+alpha2")

    part_of: Dict[int, int] = {}
    # C1: allocated labelled cells follow the witness map.
    for v in g1.rho:
        part_of[wit[v]] = 1 if v in h_a.cells else 2
    # C2: per-edge partition of the intermediate cells.
    for a, (b, btw) in g1.edges.items():
        btw2 = list(g2.edges[wit[a]][1])
        n1 = sum(1 for c in btw if c in h_a.cells)
        n2 = len(btw) - n1
        if n1 < alpha1:
            take1 = n1
        elif n2 < alpha2:
            take1 = len(btw2) - n2
        else:
            take1 = alpha1
        for idx, c in enumerate(btw2):
            part_of[c] = 1 if idx < take1 else 2
    # C3: partition of the remainder cells.
    rem2 = sorted(g2.rem)
    r1 = sum(1 for c in g1.rem if c in h_a.cells)
    r2 = len(g1.rem) - r1
    if r1 < alpha1:
        take1 = r1
    elif r2 < alpha2:
        take1 = len(rem2) - r2
    else:
        take1 = alpha1
    for idx, c in enumerate(rem2):
        part_of[c] = 1 if idx < take1 else 2

    cells_a = {l: t for l, t in m2.heap.items() if part_of[l] == 1}
    cells_b = {l: t for l, t in m2.heap.items() if part_of[l] == 2}
    return Heap._unchecked(cells_a), Heap._unchecked(cells_b)


# ---------------------------------------------------------------------------
# Small-model shrinking.
# ---------------------------------------------------------------------------

def small_heap_bound(q: int, n: int) -> int:
    """The polynomial (q^2 + q)(n + 1) + n."""
    return (q * q + q) * (n + 1) + n


def shrink(m: MemoryState, alpha: int) -> MemoryState:
    """An equivalent-at-alpha state with at most small_heap_bound(q, alpha)
    cells: keep min(alpha, |rem|) remainder cells redirected to a fresh sink,
    contract every compressed edge to at most alpha intermediate cells (the
    first ones in path order), keep allocated labelled cells."""
    if alpha < 1:
        raise ValueError("alpha must be >= 1")
    g = build_support_graph(m)
    heap = m.heap.cells
    sink = fresh_locations(m.locations(), 1)[0]
    new: Dict[int, int] = {}
    # remainder cells: the smallest min(alpha, |rem|), all redirected to sink
    for l in sorted(g.rem)[: min(alpha, len(g.rem))]:
        new[l] = sink
    # compressed edges
    for a, (b, btw) in g.edges.items():
        if len(btw) > alpha:
            kept = list(btw[:alpha])
            new[a] = kept[0] if kept else b
            for c, nxt in zip(kept, kept[1:]):
                new[c] = nxt
            if kept:
                new[kept[-1]] = b
        else:
            new[a] = heap[a]
            for c in btw:
                new[c] = heap[c]
    # remaining allocated labelled cells (dangling or edge sources already set)
    for v in g.rho:
        if v not in new:
            new[v] = heap[v]
    return MemoryState._unchecked(m.q, dict(m.store), new)
