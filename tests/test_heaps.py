import json
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from slreach.heaps import (
    Heap,
    MemoryState,
    OverlapError,
    canonical_labelling,
    compose,
    extensions,
    isomorphic_wrt,
    iterate,
    state_from_json,
    state_to_json,
    subheaps,
)
from slreach.parser import parse
from slreach.semantics import check_exact

from oracle import all_heaps, least_relabelling, random_states

heaps_st = st.dictionaries(
    st.integers(0, 5), st.integers(0, 5), max_size=4
).map(Heap)


def test_compose_examples():
    assert compose(Heap(), Heap({1: 2})) == Heap({1: 2})
    assert compose(Heap({1: 2}), Heap({2: 1})) == Heap({1: 2, 2: 1})
    with pytest.raises(OverlapError) as e:
        compose(Heap({1: 2}), Heap({1: 3}))
    assert e.value.location == 1


@settings(max_examples=150, deadline=None)
@given(heaps_st, heaps_st, heaps_st)
def test_compose_commutative_associative(h1, h2, h3):
    try:
        a = compose(compose(h1, h2), h3)
    except OverlapError:
        a = None
    try:
        b = compose(h1, compose(h2, h3))
    except OverlapError:
        b = None
    assert a == b
    try:
        ab = compose(h1, h2)
    except OverlapError:
        ab = None
    try:
        ba = compose(h2, h1)
    except OverlapError:
        ba = None
    assert ab == ba
    assert compose(h1, Heap()) == h1


def test_iterate_examples():
    assert iterate(Heap({1: 2, 2: 3}), 1, 2) == 3
    assert iterate(Heap({1: 1}), 1, 7) == 1
    assert iterate(Heap({1: 2}), 2, 1) is None
    assert iterate(Heap(), 5, 0) == 5


@settings(max_examples=150, deadline=None)
@given(heaps_st, st.integers(0, 5), st.integers(0, 3), st.integers(0, 3))
def test_iterate_composes(h, l, i, j):
    lhs = iterate(h, l, i + j)
    if lhs is not None:
        mid = iterate(h, l, i)
        assert mid is not None
        assert iterate(h, mid, j) == lhs


def test_subheaps_examples():
    assert list(subheaps(Heap())) == [Heap()]
    assert list(subheaps(Heap({1: 2}))) == [Heap(), Heap({1: 2})]
    two = list(subheaps(Heap({1: 2, 3: 4})))
    # oracle: power set of the domain
    assert len(two) == 4
    assert set(two) == {
        Heap(), Heap({1: 2}), Heap({3: 4}), Heap({1: 2, 3: 4})
    }


@settings(max_examples=100, deadline=None)
@given(heaps_st)
def test_subheaps_count(h):
    subs = list(subheaps(h))
    assert len(subs) == 2 ** len(h)
    assert len(set(subs)) == len(subs)


def test_extensions_example():
    got = set(extensions(Heap({1: 1}), {1, 2}, 1))
    assert got == {Heap(), Heap({2: 1}), Heap({2: 2})}
    # no free source locations
    h = Heap({1: 2, 2: 2})
    assert list(extensions(h, {1, 2}, 3)) == [Heap()]
    assert list(extensions(Heap(), {1}, 0)) == [Heap()]


def test_extensions_exhaustive_against_enumeration():
    base = Heap({0: 1})
    got = set(extensions(base, {0, 1, 2}, 2))
    want = {
        Heap(d)
        for d in all_heaps({0, 1, 2}, 2)
        if all(k != 0 for k in d)
    }
    assert got == want


def test_isomorphic_examples():
    m = MemoryState(1, {1: 1}, Heap({1: 1}))
    w = isomorphic_wrt(m, m, {1})
    assert w is not None and w[1] == 1
    m2 = MemoryState(1, {1: 5}, Heap({5: 5}))
    w = isomorphic_wrt(m, m2, {1})
    assert w is not None and w[1] == 5
    m3 = MemoryState(1, {1: 5}, Heap())
    assert isomorphic_wrt(m, m3, {1}) is None


def test_isomorphic_needs_matching_stores():
    m1 = MemoryState(2, {1: 0, 2: 1}, Heap({0: 1}))
    m2 = MemoryState(2, {1: 0, 2: 2}, Heap({0: 1}))
    assert isomorphic_wrt(m1, m2, {1, 2}) is None  # x2 maps elsewhere
    assert isomorphic_wrt(m1, m2, {1}) is not None


def test_isomorphic_unreached_cells():
    m1 = MemoryState(1, {1: 0}, Heap({4: 5, 5: 4}))
    m2 = MemoryState(1, {1: 0}, Heap({7: 9, 9: 7}))
    assert isomorphic_wrt(m1, m2, {1}) is not None
    m3 = MemoryState(1, {1: 0}, Heap({7: 9, 9: 9}))
    assert isomorphic_wrt(m1, m3, {1}) is None


def test_canonical_key_is_complete():
    # equal keys exactly when the least relabellings are equal, on every
    # state over <= 4 locations with two values and over <= 5 with none
    for nvals, nlocs, classes in [(2, 4, 465), (0, 5, 121)]:
        pairs = {
            (canonical_labelling(vals, h)[0], least_relabelling(vals, h))
            for h in all_heaps(range(nlocs), nlocs)
            for vals in product(range(nlocs), repeat=nvals)
        }
        assert len({key for key, _ in pairs}) == len(pairs) == classes
        assert len({least for _, least in pairs}) == classes


@given(random_states(max_q=3, max_loc=8, max_cells=8), st.randoms(use_true_random=False))
@settings(max_examples=200, deadline=None)
def test_isomorphic_wrt_maps_onto_a_relabelled_copy(m, rng):
    locs = sorted(m.locations())
    rename = dict(zip(locs, rng.sample(range(100), len(locs))))
    copy = MemoryState(
        m.q,
        {x: rename[v] for x, v in m.store.items()},
        Heap({rename[s]: rename[t] for s, t in m.heap.items()}),
    )
    xs = rng.sample(range(1, m.q + 1), rng.randint(0, m.q))
    w = isomorphic_wrt(m, copy, xs)
    assert w is not None
    assert all(w[m.store[x]] == copy.store[x] for x in xs)
    assert all(copy.heap.get(w[s]) == w[t] for s, t in m.heap.items())
    key, lab = canonical_labelling(tuple(m.store[x] for x in xs), m.heap.cells)
    assert set(lab) == {m.store[x] for x in xs} | m.heap.locations()
    assert sorted(lab.values()) == list(range(len(lab)))
    assert key == (
        tuple(lab[m.store[x]] for x in xs),
        tuple(sorted((lab[s], lab[t]) for s, t in m.heap.items())),
    )


def test_isomorphism_preserves_formulas():
    # witnessed isomorphic states satisfy the same small formulas over X
    pairs = [
        (
            MemoryState(2, {1: 0, 2: 3}, Heap({0: 1, 1: 3})),
            MemoryState(2, {1: 9, 2: 4}, Heap({9: 7, 7: 4})),
        ),
        (
            MemoryState(2, {1: 0, 2: 0}, Heap({2: 2})),
            MemoryState(2, {1: 5, 2: 5}, Heap({0: 0})),
        ),
    ]
    formulas = [
        parse(t)
        for t in [
            "emp", "x1 = x2", "x1 ~> x2", "ls(x1,x2)", "reach(x1,x2)",
            "reach+(x1,x1)", "not emp * not emp", "ls(x1,x2) /\\ not emp",
            "true * x2 ~> x2", "reach+(x1,x2) * true",
        ]
    ]
    for m1, m2 in pairs:
        assert isomorphic_wrt(m1, m2, {1, 2}) is not None
        for f in formulas:
            assert check_exact(m1, f) == check_exact(m2, f), f


def test_state_json_roundtrip(tmp_path):
    m = MemoryState(2, {1: 3, 2: 0}, Heap({0: 3, 3: 3}))
    data = state_to_json(m)
    assert data == {"q": 2, "store": {"x1": 3, "x2": 0}, "heap": {"0": 3, "3": 3}}
    assert state_from_json(json.loads(json.dumps(data))) == m


def test_state_validation():
    with pytest.raises(ValueError):
        MemoryState(2, {1: 0}, Heap())  # store not total
    with pytest.raises(ValueError):
        MemoryState(1, {1: -1}, Heap())
    with pytest.raises(ValueError):
        Heap({-1: 0})
