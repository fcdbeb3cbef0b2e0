import random

import pytest
from hypothesis import given, settings, strategies as st

from slreach import solver
from slreach import syntax as S
from slreach.heaps import Heap, MemoryState
from slreach.parser import parse
from slreach.semantics import check_exact
from slreach.support import build_support_graph, meet_term, var_term
from slreach.testform import (
    LiteralProfile,
    SplitPreconditionError,
    alloc_atom,
    encode_atomic,
    eq_atom,
    equivalent,
    eval_atom,
    eval_atom_on_graph,
    eval_test_formula,
    match_split,
    pointsto_atom,
    profile,
    profile_of_graph,
    sees_atom,
    shrink,
    sizeothers_atom,
    small_heap_bound,
    structure_witness,
    atom_family,
)

from oracle import all_states, random_states


def test_atom_family_size_check_size():
    # q=2: 6 terms; eq unordered-with-repeat 21, alloc 6, pointsto 36,
    # sees 36 per beta, sizeothers per beta
    atoms = atom_family(2, 3)
    assert len(atoms) == 21 + 6 + 36 + 36 * 3 + 3


def test_eval_atom_examples(cycle_states, merge_states):
    fwd, bwd = cycle_states
    assert eval_atom(fwd, sees_atom(var_term(1), var_term(2), 2)) is True
    assert eval_atom(bwd, sees_atom(var_term(1), var_term(2), 2)) is False
    a, b = merge_states
    pt = pointsto_atom(meet_term(1, 2), meet_term(2, 1))
    assert eval_atom(a, pt) is True
    assert eval_atom(b, pt) is False
    stray = MemoryState(1, {1: 1}, Heap({5: 6}))
    assert eval_atom(stray, sizeothers_atom(1)) is True


def test_profile_smallest():
    m = MemoryState(1, {1: 1}, Heap())
    p = profile(m, 1)
    # on the empty heap m(x1,x1) still denotes s(x1): all equalities among
    # the two terms hold and nothing else does
    assert p.satisfied == {
        eq_atom(var_term(1), var_term(1)),
        eq_atom(var_term(1), meet_term(1, 1)),
        eq_atom(meet_term(1, 1), meet_term(1, 1)),
    }


def test_profile_isomorphism_invariance():
    m1 = MemoryState(2, {1: 0, 2: 3}, Heap({0: 1, 1: 3, 7: 7}))
    m2 = MemoryState(2, {1: 10, 2: 13}, Heap({10: 11, 11: 13, 17: 17}))
    assert profile(m1, 2).satisfied == profile(m2, 2).satisfied


def test_profiles_distinguish_cycles(cycle_states):
    fwd, bwd = cycle_states
    assert profile(fwd, 2).satisfied != profile(bwd, 2).satisfied


def test_equivalent_reflexive_and_merge(merge_states):
    a, b = merge_states
    assert equivalent(a, a, 1)
    assert equivalent(b, b, 3)
    # the meet points-to atom differs already at rank 1
    assert not equivalent(a, b, 1)


def test_equivalent_rem_saturation():
    base = {1: 0, 2: 1}
    m5 = MemoryState(2, base, Heap({10 + i: 99 for i in range(5)}))
    m7 = MemoryState(2, base, Heap({10 + i: 99 for i in range(7)}))
    assert equivalent(m5, m7, 3)
    assert not equivalent(m5, m7, 6)


def test_witness_matches_profiles_randomly():
    rng = random.Random(99)
    states = list(all_states(2, range(5), 3))
    for _ in range(2000):
        m1, m2 = rng.choice(states), rng.choice(states)
        alpha = rng.choice((1, 2, 3))
        eq = profile(m1, alpha).satisfied == profile(m2, alpha).satisfied
        assert (structure_witness(m1, m2, alpha) is not None) == eq


def _assert_profiles_by_definition(m, alpha):
    """profile and profile_of_graph against the per-atom definition: every
    atom of the family evaluated on the support graph."""
    g = build_support_graph(m)
    family = atom_family(m.q, alpha)
    want = frozenset(a for a in family if eval_atom_on_graph(g, a))
    assert profile(m, alpha).satisfied == want, (m, alpha)
    assert profile_of_graph(g, alpha) == want, (m, alpha)


@pytest.mark.parametrize("q,alpha", [(q, a) for q in (1, 2) for a in (1, 2, 3)])
def test_profiles_by_definition_on_canonical_states(q, alpha):
    descs = solver._shape_descriptors(q, alpha)
    for d in descs:
        _assert_profiles_by_definition(solver._materialize(q, d), alpha)


@settings(max_examples=300, deadline=None)
@given(random_states(), st.integers(1, 4))
def test_profiles_by_definition_on_random_states(m, alpha):
    _assert_profiles_by_definition(m, alpha)


@settings(max_examples=300, deadline=None)
@given(random_states(), st.integers(1, 4), st.data())
def test_witness_matches_profiles_on_copies_and_mutants(m, alpha, data):
    # equivalent decides by the witness alone; profile equality is the
    # definition it must match, here up to q = 4 and alpha = 4
    image = data.draw(st.lists(st.integers(0, 40), min_size=12, max_size=12, unique=True))
    ren = dict(zip(sorted(m.locations()), image))
    copy = MemoryState(
        m.q, {i: ren[v] for i, v in m.store.items()}, Heap({ren[a]: ren[b] for a, b in m.heap.items()})
    )
    assert profile(m, alpha).satisfied == profile(copy, alpha).satisfied
    assert equivalent(m, copy, alpha) and structure_witness(m, copy, alpha) is not None
    cells = dict(m.heap.cells)
    loc = data.draw(st.integers(0, 11))
    target = data.draw(st.none() | st.integers(0, 11))
    if target is None:
        cells.pop(loc, None)
    else:
        cells[loc] = target
    mutant = MemoryState(m.q, m.store, Heap(cells))
    same = profile(m, alpha).satisfied == profile(mutant, alpha).satisfied
    assert equivalent(m, mutant, alpha) == same
    assert (structure_witness(m, mutant, alpha) is not None) == same


def test_encode_atomic_emp():
    tf = encode_atomic(S.EMP, 1, 1)
    for m in all_states(1, range(3), 2):
        assert eval_test_formula(m, tf) == check_exact(m, S.EMP)


def test_encode_atomic_reachplus():
    tf = encode_atomic(S.ReachPlus(1, 1), 1, 1)
    for m in all_states(1, range(4), 3):
        assert eval_test_formula(m, tf) == check_exact(m, S.ReachPlus(1, 1)), m
    tf2 = encode_atomic(S.ReachPlus(1, 2), 2, 2)
    rng = random.Random(1)
    states = list(all_states(2, range(5), 4))
    rng.shuffle(states)
    for m in states[:600]:
        assert eval_test_formula(m, tf2) == check_exact(m, S.ReachPlus(1, 2)), m


@pytest.mark.parametrize("beta,alpha", [(1, 1), (2, 2), (2, 3), (3, 3)])
def test_encode_atomic_size(beta, alpha):
    f = S.size_geq(beta)
    tf = encode_atomic(f, 2, alpha)
    rng = random.Random(beta * 10 + alpha)
    states = list(all_states(2, range(5), 4))
    rng.shuffle(states)
    for m in states[:400]:
        assert eval_test_formula(m, tf) == check_exact(m, f), m


def test_encode_atomic_rejects():
    with pytest.raises(ValueError):
        encode_atomic(S.Ls(1, 2), 2, 2)
    with pytest.raises(ValueError):
        encode_atomic(S.size_geq(3), 1, 2)  # beta above alpha


def test_match_split_identity():
    m = MemoryState(2, {1: 0, 2: 5}, Heap({0: 1, 1: 5, 7: 8}))
    a, b = match_split(m, m, m.heap, Heap(), 1, 1)
    assert a == m.heap and b == Heap()
    ha = Heap({0: 1})
    hb = Heap({1: 5, 7: 8})
    a, b = match_split(m, m, ha, hb, 1, 1)
    assert a + b == m.heap
    assert profile(m.with_heap(a), 1).satisfied == profile(m.with_heap(ha), 1).satisfied
    assert profile(m.with_heap(b), 1).satisfied == profile(m.with_heap(hb), 1).satisfied


def test_match_split_chains():
    # two equivalent chain states with different path lengths
    m1 = MemoryState(2, {1: 0, 2: 9}, Heap({0: 1, 1: 2, 2: 3, 3: 9}))
    m2 = MemoryState(2, {1: 0, 2: 9}, Heap({0: 4, 4: 5, 5: 6, 6: 7, 7: 9}))
    assert equivalent(m1, m2, 3)
    h_a = Heap({0: 1, 1: 2})
    h_b = Heap({2: 3, 3: 9})
    a, b = match_split(m1, m2, h_a, h_b, 1, 2)
    assert a + b == m2.heap
    assert profile(m1.with_heap(h_a), 1).satisfied == profile(m2.with_heap(a), 1).satisfied
    assert profile(m1.with_heap(h_b), 2).satisfied == profile(m2.with_heap(b), 2).satisfied


def test_match_split_precondition():
    m1 = MemoryState(1, {1: 0}, Heap({0: 0}))
    m2 = MemoryState(1, {1: 0}, Heap())
    with pytest.raises(SplitPreconditionError):
        match_split(m1, m2, m1.heap, Heap(), 1, 1)
    with pytest.raises(SplitPreconditionError):
        match_split(m1, m1, Heap(), Heap(), 1, 1)  # not a partition


def test_small_heap_bound():
    assert small_heap_bound(2, 3) == 27
    assert small_heap_bound(1, 1) == 5


def test_shrink_long_chain():
    cells = {i: i + 1 for i in range(100)}
    m = MemoryState(2, {1: 0, 2: 100}, Heap(cells))
    small = shrink(m, 2)
    assert len(small.heap) <= small_heap_bound(2, 2)
    # chain contracted to at most alpha intermediate cells
    assert len(small.heap) <= 3
    assert profile(m, 2).satisfied == profile(small, 2).satisfied


def test_shrink_no_growth_and_profile():
    rng = random.Random(17)
    states = list(all_states(2, range(6), 4))
    rng.shuffle(states)
    for m in states[:300]:
        for alpha in (1, 2):
            small = shrink(m, alpha)
            assert len(small.heap) <= len(m.heap)
            assert len(small.heap) <= small_heap_bound(2, alpha)
            assert profile(m, alpha).satisfied == profile(small, alpha).satisfied, (
                m, alpha,
            )


def test_shrink_preserves_formulas():
    corpus = [
        parse("reach+(x1,x2) * true"),
        parse("not (not emp * reach+(x1,x1))"),
        parse("x1 ~> x2 * not emp"),
        parse("emp \\/ reach+(x2,x2)"),
    ]
    rng = random.Random(23)
    states = list(all_states(2, range(6), 4))
    rng.shuffle(states)
    for m in states[:150]:
        for f in corpus:
            alpha = max(S.msize(f), 1)
            small = shrink(m, alpha)
            assert check_exact(m, f) == check_exact(small, f), (m, f)


def test_profile_dump_stable():
    m = MemoryState(1, {1: 1}, Heap({1: 1}))
    p = profile(m, 1)
    assert p.dump() == "\n".join(sorted(str(a) for a in p.satisfied))
