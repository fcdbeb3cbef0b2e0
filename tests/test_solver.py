import os
import random

import pytest
from hypothesis import given, settings, strategies as st

from slreach import syntax as S
from slreach.heaps import Heap, MemoryState
from slreach.parser import parse
from slreach.semantics import WandPolicy, check, check_exact
from slreach import solver
from slreach.solver import (
    FragmentError,
    brute_sat,
    counterexample,
    entails,
    sat,
    sat_bool_shf,
    sat_boolcomb,
    sat_reachplus,
    shf_rewrite,
)
from slreach.syntax import msize, rewrite_reach
from slreach.testform import small_heap_bound

from oracle import naive_shape_descriptors, reference_sat, reference_sats


def rp(text):
    return rewrite_reach(parse(text), "reachplus")


def test_sat_reachplus_examples():
    r = sat_reachplus(parse("emp"))
    assert r.is_sat and len(r.model.heap) == 0
    # the footprint of emp /\ not emp is empty under every store pattern,
    # so the sweep checks no state
    r = sat_reachplus(parse("emp /\\ not emp"))
    assert r.status == "unsat" and r.explored == 0
    r = sat_reachplus(rp("reach+(x1,x1) /\\ size<=1"))
    assert r.is_sat
    assert len(r.model.heap) == 1
    loc = r.model.store[1]
    assert r.model.heap[loc] == loc  # the minimal loop


def test_sat_reachplus_fragment_guard():
    with pytest.raises(FragmentError):
        sat_reachplus(parse("ls(x1,x2)"))
    with pytest.raises(FragmentError):
        sat_reachplus(parse("emp -* emp"))


def test_models_are_minimal_and_verified():
    f = rp("reach+(x1,x2) /\\ not (x1 = x2)")
    r = sat_reachplus(f)
    assert r.is_sat and check_exact(r.model, f)
    assert len(r.model.heap) == 1  # single-cell path suffices


def test_sat_bool_shf_examples():
    r = sat_bool_shf(parse("x1 |-> x2"))
    assert r.is_sat and len(r.model.heap) == 1
    r = sat_bool_shf(parse("ls(x1,x2) /\\ not (x1 = x2)"))
    assert r.is_sat and len(r.model.heap) == 1
    # x2 ~> x2 in derived form: x2 |-> x2 * true
    r = sat_bool_shf(parse("x1 = x2 /\\ (x1 |-> x1) /\\ not (x2 |-> x2 * true)"))
    assert r.status == "unsat"
    with pytest.raises(FragmentError):
        sat_bool_shf(parse("reach+(x1,x2)"))


def test_shf_rewrite_preserves_satisfaction():
    from oracle import all_states

    pairs = [
        (parse("x1 |-> x2"), shf_rewrite(parse("x1 |-> x2"))),
        (parse("ls(x1,x2)"), shf_rewrite(parse("ls(x1,x2)"))),
        (parse("ls(x1,x1) * x1 |-> x2"), shf_rewrite(parse("ls(x1,x1) * x1 |-> x2"))),
    ]
    rng = random.Random(31)
    states = list(all_states(2, range(5), 4))
    rng.shuffle(states)
    for f, g in pairs:
        for m in states[:250]:
            assert check_exact(m, f) == check_exact(m, g), (f, m)


def test_sat_boolcomb_examples():
    r = sat_boolcomb(parse("alloc(x1) /\\ not reach+(x1,x1)"))
    assert r.is_sat
    pol = WandPolicy("bounded", 12, 12)
    assert check(r.model, parse("alloc(x1)"), pol).truth
    assert not check_exact(r.model, parse("reach+(x1,x1)"))
    r = sat_boolcomb(parse("emp -* emp"))
    assert r.is_sat and len(r.model.heap) == 0
    r = sat_boolcomb(parse("reach+(x1,x1) /\\ emp"))
    assert r.status == "unsat"
    with pytest.raises(FragmentError):
        sat_boolcomb(parse("(reach+(x1,x1) /\\ emp) -* emp"))


def test_sat_boolcomb_alloc_size_equisat():
    # size >= 2 /\ alloc(x1) is satisfiable together with not emp * alloc(x1):
    # the two sides are equivalent, so their conjunction is satisfiable
    f = parse("(size>=2 /\\ alloc(x1)) /\\ (not emp * alloc(x1))")
    r = sat_boolcomb(f)
    assert r.is_sat
    pol = WandPolicy("bounded", 2 * f.size, 2 * f.size)
    assert check(r.model, f, pol).truth
    # pointwise equivalence at desk scale (unsat sweeps at rank 2|f| are
    # beyond desk scale, so the disagreement check runs over explicit states)
    from oracle import all_states

    lhs, rhs = parse("size>=2 /\\ alloc(x1)"), parse("not emp * alloc(x1)")
    small = WandPolicy("bounded", 6, 4)
    for m in all_states(1, range(4), 3):
        assert check(m, lhs, small).truth == check(m, rhs, small).truth


def test_sat_auto_dispatch():
    assert sat(parse("ls(x1,x2)")).is_sat
    assert sat(parse("emp -* emp")).is_sat
    with pytest.raises(FragmentError):
        sat(parse("ls(x1,x2) -* emp"))


def test_entails_examples():
    assert entails(parse("ls(x1,x2)"), parse("reach(x1,x2)")) is True
    assert entails(parse("reach(x1,x2)"), parse("ls(x1,x2)")) is False
    f = parse("ls(x1,x2) * true")
    assert entails(f, f) is True


def test_counterexample_has_stray_cell():
    c = counterexample(parse("reach(x1,x2)"), parse("ls(x1,x2)"))
    assert c is not None
    assert check_exact(c, parse("reach(x1,x2)"))
    assert not check_exact(c, parse("ls(x1,x2)"))
    assert len(c.heap) >= 1


def test_entailment_equivalences():
    # reach(x,y) and x=y \/ reach+(x,y) entail each other
    lhs = parse("reach(x1,x2)")
    rhs = parse("x1 = x2 \\/ reach+(x1,x2)")
    assert entails(lhs, rhs) and entails(rhs, lhs)
    # reach(x,y) and true * ls(x,y) entail each other
    rhs2 = parse("true * ls(x1,x2)")
    assert entails(lhs, rhs2) and entails(rhs2, lhs)


def test_brute_sat_examples():
    assert brute_sat(parse("emp"), 0, 1).is_sat
    r = brute_sat(parse("size>=3"), 2, 4)
    assert r.status == "unknown" and r.explored > 0
    assert brute_sat(parse("size>=3"), 3, 4).is_sat


_Q2_ATOMS = [S.EMP, S.TRUE, S.FALSE] + [
    k(i, j) for k in (S.Eq, S.PointsTo, S.ReachPlus) for i in (1, 2) for j in (1, 2)
]


def test_oracle_agreement_random():
    rng = random.Random(4242)

    def gen(budget):
        if budget <= 1 or rng.random() < 0.3:
            return rng.choice(_Q2_ATOMS)
        op = rng.choice(["not", "and", "star"])
        if op == "not":
            return S.Not(gen(budget - 1))
        left = gen((budget - 1) // 2)
        return (S.And if op == "and" else S.Star)(left, gen(budget - 1 - left.size))

    n_checked = 0
    for _ in range(120):
        f = gen(6)
        if f.size > 6:
            continue
        n_checked += 1
        mine = sat_reachplus(f)
        oracle = brute_sat(f, 3, 5)
        if mine.is_sat:
            assert check_exact(mine.model, f)
            q = max(f.vars) if f.vars else 1
            assert len(mine.model.heap) <= small_heap_bound(q, f.size)
            if oracle.is_sat:
                assert len(mine.model.heap) <= len(oracle.model.heap)
        else:
            assert oracle.status == "unknown", (f, oracle.model)
    assert n_checked >= 60


@pytest.mark.parametrize("q,alpha", [(q, a) for q in (1, 2) for a in (1, 2, 3, 4)])
def test_shape_descriptors_match_full_product(q, alpha):
    assert solver._shape_descriptors(q, alpha) == naive_shape_descriptors(q, alpha)


def _q3_corpus():
    path = os.path.join(os.path.dirname(__file__), "data", "sat_q3.txt")
    with open(path) as fh:
        for line in fh:
            if line.strip() and not line.startswith("#"):
                verdict, text = line.rstrip("\n").split("\t")
                yield verdict, parse(text)


def test_q3_corpus_agrees_with_brute_force():
    corpus = list(_q3_corpus())
    assert len(corpus) >= 40 and {v for v, _ in corpus} == {"sat", "unsat"}
    assert sum(msize(f) == 3 for _, f in corpus) >= 8
    assert sum(msize(f) == 4 for _, f in corpus) >= 8
    for verdict, f in corpus:
        assert max(f.vars) == 3 and msize(f) <= 4, f
        mine = sat_reachplus(f)
        oracle = brute_sat(f, 3, 4)
        assert mine.status == verdict, f
        # every sat entry has a model within 3 cells over 4 locations
        assert oracle.is_sat == mine.is_sat, f
        if mine.is_sat:
            assert check_exact(mine.model, f)
            assert len(mine.model.heap) <= len(oracle.model.heap)


@st.composite
def _q2_formulas(draw, budget=6):
    """The formulae of test_oracle_agreement_random, drawn by Hypothesis."""
    if budget <= 1 or draw(st.integers(0, 9)) < 3:
        return draw(st.sampled_from(_Q2_ATOMS))
    op = draw(st.sampled_from(("not", "and", "star")))
    if op == "not":
        return S.Not(draw(_q2_formulas(budget - 1)))
    left = draw(_q2_formulas((budget - 1) // 2))
    return (S.And if op == "and" else S.Star)(left, draw(_q2_formulas(budget - 1 - left.size)))


def _same_answer(mine, ref):
    assert mine.status == ref.status
    if mine.is_sat:
        assert mine.model.store == ref.model.store
        assert mine.model.heap.cells == ref.model.heap.cells


# Pruning skips only states that the footprint proves to be non-models and
# keeps the order of the rest, so the first model is the same state.
@settings(max_examples=300, deadline=None, derandomize=True)
@given(_q2_formulas())
def test_pruned_sweep_matches_reference(f):
    _same_answer(sat_reachplus(f), reference_sat(f))


def test_pruned_sweep_matches_reference_on_q3_corpus():
    corpus = [f for _, f in _q3_corpus()]
    for alpha in sorted({msize(f) for f in corpus}):
        fs = [f for f in corpus if msize(f) == alpha]
        for f, ref in zip(fs, reference_sats(3, alpha, fs)):
            _same_answer(sat_reachplus(f), ref)


def test_large_canonical_spaces_keep_no_states():
    # the footprint of this q = 3, memory-size-3 formula leaves every state
    # open, so the sweep materializes each of the 122 792 states when it
    # reaches it and keeps none; spaces of at most 2005 keep theirs
    f = parse("not (true * true * true) /\\ x3 = x3")
    assert msize(f) == 3
    r = sat_reachplus(f)
    assert r.status == "unsat" and r.explored == 122792
    assert solver.canonical_states(3, 3).kept is None
    assert solver.canonical_states(3, 3).size == 122792
    small = solver.canonical_states(2, 4)
    assert len(list(small)) == 2005
    kept = [m for _, states in small.kept.values() for m in states]
    assert len(kept) == 2005 and None not in kept
    # the closed-form count is the number of states a full sweep yields
    for q in (1, 2):
        for alpha in (1, 2, 3, 4):
            space = solver.canonical_states(q, alpha)
            assert space.size == sum(1 for _ in space), (q, alpha)
    # the smallest q = 3 space is already past the bound
    space = solver.canonical_states(3, 1)
    assert space.size == 3744 == sum(1 for _ in space)
    assert space.kept is None


_WAND_FREE_ATOMS = [S.EMP, S.TRUE] + [
    k(i, j) for k in (S.Eq, S.PointsTo, S.Ls, S.Reach, S.ReachPlus) for i in (1, 2) for j in (1, 2)
]


@st.composite
def _wand_free_formulas(draw, budget=6):
    """Wand-free q <= 2 formulae over ls, reach and reach+ as well."""
    if budget <= 1 or draw(st.integers(0, 9)) < 3:
        return draw(st.sampled_from(_WAND_FREE_ATOMS))
    op = draw(st.sampled_from(("not", "and", "star")))
    if op == "not":
        return S.Not(draw(_wand_free_formulas(budget - 1)))
    left = draw(_wand_free_formulas((budget - 1) // 2))
    right = draw(_wand_free_formulas(budget - 1 - left.size))
    return (S.And if op == "and" else S.Star)(left, right)


# sat sweeps the space of the rewritten formula but checks each state
# against the formula as written; rewrite_reach keeps truth on every state
@settings(max_examples=300, deadline=None, derandomize=True)
@given(_wand_free_formulas())
def test_sweep_as_written_matches_rewritten(f):
    mine, ref = sat(f), sat_reachplus(rewrite_reach(f, "reachplus"))
    _same_answer(mine, ref)
    assert mine.explored == ref.explored


def test_ls_entailment_with_an_empty_side():
    # ls(x1,x1) holds only on emp, so the left side is ls(x1,x2) and the
    # entailment holds; brute force finds no counterexample either
    f, g = parse("(ls(x1,x2)) * (ls(x1,x1))"), parse("(ls(x2,x2)) * (true)")
    assert entails(f, g) is True
    assert brute_sat(S.And(f, S.Not(g)), 3, 4).status == "unknown"
