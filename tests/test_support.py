import random

import pytest
from hypothesis import given, settings

from slreach import solver
from slreach.heaps import Heap, MemoryState
from slreach.support import (
    SupportGraph,
    all_terms,
    build_support_graph,
    dump_support_graph,
    meet_point,
    meet_term,
    taxonomy,
    term_value,
    var_term,
)

from oracle import all_states, naive_meet, naive_support_graph, random_states, shaped_states


def test_term_count():
    assert len(all_terms(2)) == 2 * 2 + 2
    assert len(all_terms(3)) == 3 * 3 + 3


def test_meet_point_examples(merge_states):
    a, _ = merge_states
    assert meet_point(a, 1, 2) == 21
    assert meet_point(a, 2, 1) == 23
    shared = MemoryState(2, {1: 1, 2: 1}, Heap({1: 1}))
    assert meet_point(shared, 1, 2) == 1
    disconnected = MemoryState(2, {1: 1, 2: 2}, Heap())
    assert meet_point(disconnected, 1, 2) is None


def test_meet_point_degenerate():
    # m(x1,x1) denotes s(x1) exactly when s(x1) reaches a variable value
    m = MemoryState(1, {1: 1}, Heap())
    assert meet_point(m, 1, 1) == 1
    assert term_value(m, meet_term(1, 1)) == 1
    assert term_value(m, var_term(1)) == 1
    loop = MemoryState(1, {1: 1}, Heap({1: 2, 2: 1}))
    assert term_value(loop, meet_term(1, 1)) == 1
    dangling = MemoryState(2, {1: 1, 2: 9}, Heap({1: 2, 2: 3}))
    assert meet_point(dangling, 1, 1) == 1  # reaches itself in zero steps


def test_meet_against_three_condition_scan():
    rng = random.Random(11)
    states = list(all_states(2, range(5), 3))
    rng.shuffle(states)
    for m in states[:400]:
        for i, j in ((1, 1), (1, 2), (2, 1), (2, 2)):
            cands = naive_meet(m, i, j)
            assert len(cands) <= 1  # uniqueness
            got = meet_point(m, i, j)
            assert got == (cands[0] if cands else None), (m, i, j)


def test_build_example_empty_heap():
    g = build_support_graph(MemoryState(1, {1: 1}, Heap()))
    assert g.vertices == {1}
    assert g.edges == {}
    assert g.rho == frozenset()
    assert g.labels[1] == frozenset({var_term(1), meet_term(1, 1)})
    assert g.rem == frozenset()


def test_build_example_chain():
    g = build_support_graph(MemoryState(2, {1: 1, 2: 4}, Heap({1: 2, 2: 3, 3: 4})))
    assert g.vertices == {1, 4}
    assert g.edge_pairs() == {(1, 4)}
    assert g.btw(1, 4) == (2, 3)
    assert g.rho == {1}
    assert g.rem == frozenset()


def test_build_example_unreachable_cell():
    g = build_support_graph(MemoryState(1, {1: 1}, Heap({5: 6})))
    assert g.vertices == {1}
    assert g.rem == {5}


def test_partition_property():
    rng = random.Random(3)
    states = list(all_states(2, range(6), 4))
    rng.shuffle(states)
    for m in states[:500]:
        g = build_support_graph(m)
        pieces = [set(g.rho), set(g.rem)]
        pieces.extend(set(btw) for _, (_, btw) in g.edges.items())
        union = set()
        total = 0
        for p in pieces:
            union |= p
            total += len(p)
        assert union == set(m.heap.domain())
        assert total == len(m.heap)  # pairwise disjoint


def test_labels_shrink_under_subheaps():
    rng = random.Random(5)
    states = list(all_states(2, range(5), 3))
    rng.shuffle(states)
    from slreach.heaps import subheaps

    for m in states[:120]:
        full = build_support_graph(m).vertices
        for h in subheaps(m.heap):
            sub = build_support_graph(m.with_heap(h)).vertices
            assert sub <= full, (m, h)


def test_taxonomy(merge_states):
    a, b = merge_states
    assert taxonomy(a, 1, 2) == 3
    assert taxonomy(b, 1, 2) == 3
    # simple merge onto a variable that dangles
    m = MemoryState(3, {1: 0, 2: 1, 3: 3}, Heap({0: 2, 1: 2, 2: 3}))
    assert taxonomy(m, 1, 2) == 1
    # merge into a loop carrying the meet itself
    m2 = MemoryState(3, {1: 0, 2: 1, 3: 2}, Heap({0: 2, 1: 2, 2: 2}))
    assert taxonomy(m2, 1, 2) == 2
    assert taxonomy(MemoryState(2, {1: 0, 2: 1}, Heap()), 1, 2) is None


def test_taxonomy_exhaustive():
    rng = random.Random(13)
    states = list(all_states(2, range(5), 3))
    rng.shuffle(states)
    for m in states[:400]:
        for i, j in ((1, 2), (2, 1)):
            t = taxonomy(m, i, j)
            if meet_point(m, i, j) is None:
                assert t is None
            else:
                assert t in (1, 2, 3)
                if t == 2:
                    assert meet_point(m, i, j) == meet_point(m, j, i)
                if t == 3:
                    assert meet_point(m, i, j) != meet_point(m, j, i)


def test_dump_is_stable():
    m = MemoryState(2, {1: 1, 2: 4}, Heap({1: 2, 2: 3, 3: 4, 9: 9}))
    text = dump_support_graph(build_support_graph(m))
    assert text == dump_support_graph(build_support_graph(m))
    assert "vertex 1 [alloc]" in text
    assert "edge 1 -> 4 (btw 2)" in text
    assert "rem: 1" in text


def _assert_labels_by_term_value(m):
    """The support graph's labelling against per-term term_value."""
    g = build_support_graph(m)
    by_term = {}
    for t in all_terms(m.q):
        loc = term_value(m, t)
        if loc is not None:
            by_term.setdefault(loc, set()).add(t)
    assert g.labels == {loc: frozenset(ts) for loc, ts in by_term.items()}, m
    assert g.term_map == {t: loc for loc, ts in by_term.items() for t in ts}, m


@pytest.mark.parametrize("q,alpha", [(1, 3), (2, 3)])
def test_labels_by_term_value_on_canonical_states(q, alpha):
    for d in solver._shape_descriptors(q, alpha):
        _assert_labels_by_term_value(solver._materialize(q, d))


@settings(max_examples=300, deadline=None)
@given(random_states())
def test_labels_by_term_value_on_random_states(m):
    _assert_labels_by_term_value(m)
    for i in range(1, m.q + 1):
        for j in range(1, m.q + 1):
            assert [meet_point(m, i, j)] == (naive_meet(m, i, j) or [None]), (m, i, j)


def _assert_matches_reference(m):
    g, ref = build_support_graph(m), naive_support_graph(m)
    for field, want in ref.items():
        assert getattr(g, field) == want, (field, m)
    assert g.q == m.q


@settings(max_examples=200, deadline=None, derandomize=True)
@given(shaped_states())
def test_support_graph_matches_reference_on_shaped_states(m):
    _assert_matches_reference(m)


@pytest.mark.parametrize("q,alpha", [(2, 3), (3, 1)])
def test_support_graph_matches_reference_on_canonical_states(q, alpha):
    for d in solver._shape_descriptors(q, alpha):
        _assert_matches_reference(solver._materialize(q, d))
