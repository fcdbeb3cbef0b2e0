import copy
import json
import os
import pickle
from itertools import product

import pytest

from slreach import syntax as S
from slreach.fowand import (
    EncodingContext,
    FOEq,
    FOForall,
    FONot,
    FOOr,
    FOPointsTo,
    FOWand,
    check_fo,
    default_targets,
    encode_sat,
    encode_state,
    encode_val,
    fo_to_text,
    parse_fo,
    quantifier_depth,
    translate,
)
from slreach.heaps import Heap, MemoryState
from slreach.parser import parse
from slreach.semantics import WandPolicy, check

from oracle import fo_bound_vars, fo_free_vars
from test_acceptance import FO_CORPUS


def test_parse_fo():
    psi = parse_fo("forall x2 . not (x2 ~> x1)")
    assert psi is FOForall(2, FONot(FOPointsTo(2, 1)))
    assert psi.free_vars == (1,)
    assert quantifier_depth(psi) == 1
    w = parse_fo("(x1 ~> x2) -* (x1 = x2)")
    assert w is FOWand(FOPointsTo(1, 2), FOEq(1, 2))
    both = parse_fo("x1 = x2 \\/ x2 ~> x1")
    assert both is FOOr(FOEq(1, 2), FOPointsTo(2, 1))
    assert parse_fo(fo_to_text(psi)) is psi
    assert FOEq(1, 2) is FOEq(1, 2) and FOEq(1, 2) is not FOPointsTo(1, 2)
    for f in (psi, w, both):
        assert copy.deepcopy(f) is f and pickle.loads(pickle.dumps(f)) is f


def test_stored_scope_matches_recursive_walk():
    # the corpus quantifies at most once; the last two texts nest quantifiers
    texts = [text for text, _ in FO_CORPUS] + [
        "forall x1 . forall x2 . ((x1 ~> x2) -* (x1 ~> x2))",
        "(forall x2 . x2 = x1) \\/ not forall x3 . (x3 ~> x1 /\\ forall x4 . x4 = x3)",
    ]
    for text in texts:
        todo = [parse_fo(text)]
        while todo:
            g = todo.pop()
            assert g.free_vars == tuple(sorted(fo_free_vars(g))), text
            assert g.bound_vars == tuple(fo_bound_vars(g)), text
            todo += g.children()


def test_parse_fo_rejects_rebinding():
    with pytest.raises(ValueError):
        parse_fo("forall x1 . (x1 = x1 \\/ forall x1 . x1 = x1)")
    with pytest.raises(ValueError):
        parse_fo("x1 = x1 /\\ forall x1 . x1 = x1")


def test_context_involution():
    ctx = EncodingContext(2)
    assert [ctx.bar(i) for i in (1, 2, 3, 4)] == [3, 4, 1, 2]
    with pytest.raises(ValueError):
        ctx.bar(5)
    with pytest.raises(ValueError):
        EncodingContext(2, Z=[3])


def test_translate_atoms():
    ctx = EncodingContext(2, Z=[1, 2])
    assert translate(parse_fo("x1 = x2"), ctx) == S.next_eq(1, 2)
    # the helper for the successor points-to is the involution partner
    assert translate(parse_fo("x1 ~> x2"), ctx) == S.next_pointsto(1, 2, 3)


def test_translate_forall_shape():
    ctx = EncodingContext(1)
    t = translate(parse_fo("forall x1 . x1 = x1"), ctx)
    assert isinstance(t, S.Wand)
    assert t.left == S.And(S.alloc(1), S.size_eq(1))
    # right side: Safe(X) => body
    assert t.right == S.f_implies(S.safe([1, 2]), S.next_eq(1, 1))


def test_translate_wand_shape():
    # the two-variable example: x1 ~> x2 -* x1 ~> x2 over q = 2
    ctx = EncodingContext(2, Z=[1, 2])
    t = translate(parse_fo("(x1 ~> x2) -* (x1 ~> x2)"), ctx)
    assert isinstance(t, S.Wand)
    # left: alloc(x3) /\ alloc(x4) /\ not alloc(x1) /\ not alloc(x2)
    #       /\ Safe(X) /\ (translated left argument renamed by the involution)
    left_parts = []

    def flatten(g):
        if isinstance(g, S.And):
            flatten(g.left)
            flatten(g.right)
        else:
            left_parts.append(g)

    flatten(t.left)
    assert left_parts[0] == S.alloc(3)
    assert left_parts[1] == S.alloc(4)
    assert S.Not(S.alloc(1)) in left_parts
    assert S.Not(S.alloc(2)) in left_parts
    assert left_parts[-1] == S.next_pointsto(3, 4, 1)
    assert translate(parse_fo("(x1 ~> x2) -* (x1 ~> x2)"), ctx) is t
    # right: (next-equalities /\ Safe) => ((alloc(x3)/\alloc(x4)/\size=2) * body)
    assert isinstance(t.right, S.Not)
    guard_and_neg = t.right.child
    assert isinstance(guard_and_neg, S.And)
    star = guard_and_neg.right.child
    assert isinstance(star, S.Star)
    pinned = star.left
    # the star's first conjunct constrains exactly |Z| = 2 cells
    sizes = [g for g in S.subformulas(pinned) if g == S.size_eq(2)]
    assert sizes, "pinned conjunct must fix size = |Z|"
    assert star.right == S.next_pointsto(1, 2, 3)


def test_renamed_left_argument_stays_registered():
    # over q = 3 the left argument becomes nextpt(x4,x5; x1), an instance
    # nothing else builds: the rename itself must register it
    t = translate(parse_fo("(x1 ~> x2) -* (x1 ~> x2)"), EncodingContext(3, Z=[1, 2]))
    assert S.special_form(t.left.right) == ("next_pointsto", 4, 5, 1)


def test_translate_requires_Z_cover():
    ctx = EncodingContext(2, Z=[1])
    with pytest.raises(ValueError):
        translate(parse_fo("x1 = x2"), ctx)


def test_encode_sat_val_shapes():
    psi = parse_fo("forall x1 . not (x1 ~> x1)")
    ts = encode_sat(psi)
    tv = encode_val(psi)
    allocs = [g for g in S.subformulas(ts) if g == S.Not(S.alloc(1)) or g == S.Not(S.alloc(2))]
    assert len(allocs) >= 2  # 2q alloc-negations with q = 1
    assert isinstance(tv, S.Not)  # an implication
    with pytest.raises(ValueError):
        encode_sat(parse_fo("x1 = x1"))  # not closed


def test_encode_sat_lands_in_ls_wand_logic():
    # the encoding targets the logic with *, -* and ls only
    psi = parse_fo("forall x1 . x1 = x1")
    ts = encode_sat(psi)
    assert S.in_sl_star_wand_ls(ts)
    assert not ts.wand_free


def test_encode_state_figure():
    # three variables, two of them aliased, pointing into a two-cell heap
    m1 = MemoryState(3, {1: 0, 2: 0, 3: 1}, Heap({0: 1, 1: 1}))
    m2 = encode_state(m1, default_targets(m1), Z=[1, 2, 3])
    assert m2.q == 6
    # encoder cells: one per encoded variable
    assert len(m2.heap) == len(m1.heap) + 3
    h2, s2 = m2.heap.cells, m2.store
    # n(x1) = n(x2), n(x1) ~> n(x3), n(x3) ~> n(x3) hold on the encoding
    assert h2[s2[1]] == h2[s2[2]]
    assert h2[h2[s2[1]]] == h2[s2[3]]
    assert h2[h2[s2[3]]] == h2[s2[3]]
    # Safe-style side conditions: targets pairwise distinct, no predecessors
    targets = [s2[i] for i in range(1, 7)]
    assert len(set(targets)) == 6
    assert not (set(targets) & set(h2.values()))


def test_encode_state_empty_Z():
    m1 = MemoryState(1, {1: 5}, Heap({5: 6}))
    m2 = encode_state(m1, default_targets(m1), Z=[])
    assert m2.heap == m1.heap
    assert m2.q == 2


def test_encode_state_single_cell():
    m1 = MemoryState(1, {1: 5}, Heap())
    m2 = encode_state(m1, default_targets(m1), Z=[1])
    assert len(m2.heap) == 1
    assert m2.heap[m2.store[1]] == 5


def test_encode_state_validation():
    m1 = MemoryState(1, {1: 5}, Heap({5: 6}))
    with pytest.raises(ValueError):
        encode_state(m1, {1: 5, 2: 9}, Z=[1])  # collides with the source
    with pytest.raises(ValueError):
        encode_state(m1, {1: 8, 2: 8}, Z=[1])  # not distinct
    with pytest.raises(ValueError):
        encode_state(m1, {1: 8}, Z=[1])  # wrong domain


def test_check_fo_examples():
    m = MemoryState(1, {1: 1}, Heap())
    assert check_fo(m, parse_fo("forall x2 . not (x2 ~> x2)"), fresh=2) is True
    loop = MemoryState(1, {1: 1}, Heap({1: 1}))
    assert check_fo(loop, parse_fo("forall x2 . (x2 ~> x2 => x2 = x1)"), fresh=2) is True
    two = MemoryState(1, {1: 1}, Heap({1: 1, 2: 2}))
    assert check_fo(two, parse_fo("forall x2 . (x2 ~> x2 => x2 = x1)"), fresh=2) is False
    assert check_fo(m, parse_fo("forall x2 . x2 = x1"), fresh=1) is False


def test_check_fo_wand():
    m = MemoryState(1, {1: 1}, Heap())
    alloc_like = parse_fo("(x1 ~> x1) -* not (x1 = x1)")
    assert check_fo(m, alloc_like, policy=WandPolicy("bounded", 2, 2)) is False
    m2 = MemoryState(1, {1: 1}, Heap({1: 2}))
    assert check_fo(m2, alloc_like, policy=WandPolicy("bounded", 2, 2)) is True


def test_translation_correctness_spot():
    # one spot instance of the correctness lemma; the acceptance suite runs
    # the full corpus
    psi = parse_fo("forall x2 . not (x2 ~> x1)")
    Z = psi.free_vars
    ctx = EncodingContext(2, Z)
    t = translate(psi, ctx)
    pol = WandPolicy("bounded", 6, 6, macro_shortcuts=True)
    for m1 in [
        MemoryState(2, {1: 0, 2: 1}, Heap()),
        MemoryState(2, {1: 0, 2: 1}, Heap({1: 0})),
        MemoryState(2, {1: 0, 2: 0}, Heap({0: 1, 1: 0})),
    ]:
        fo = check_fo(m1, psi, fresh=2, policy=WandPolicy("bounded", 3, 3))
        m2 = encode_state(m1, default_targets(m1), Z)
        assert check(m2, t, pol).truth == fo, m1


FLAGS_FILE = os.path.join(os.path.dirname(__file__), "data", "translation_flags.json")


def _flag_cases():
    """(text, q, store, heap) of every check the flag file pins: each -*
    formula of criterion 10's corpus on each of its states with at most one
    cell, and (x1 ~> x2) -* (x1 ~> x2) on the slowest state of the
    translation benchmark."""
    one_cell = [{}] + [{a: b} for a in range(4) for b in range(4)]
    for text, q in FO_CORPUS:
        if "-*" in text:
            for h in one_cell:
                for sv in product(range(4), repeat=q):
                    yield text, q, dict(zip(range(1, q + 1), sv)), h
    yield "(x1 ~> x2) -* (x1 ~> x2)", 2, {1: 1, 2: 1}, {15: 15, 25: 15}


def _translated_flags():
    """[text, q, store, heap, truth, exact] of each case, checked as
    criterion 10 checks it."""
    rows = []
    for text, q, store, heap in _flag_cases():
        psi = parse_fo(text)
        Z = psi.free_vars
        m1 = MemoryState(q, store, Heap(heap))
        m2 = encode_state(m1, default_targets(m1), Z)
        pol = WandPolicy("bounded", 2 * q + 2, 2 * q + 2, macro_shortcuts=True)
        r = check(m2, translate(psi, EncodingContext(q, Z)), pol)
        rows.append([text, q, sorted(map(list, store.items())), sorted(map(list, heap.items())),
                     r.truth, r.exact])
    return rows


def test_translated_wand_flags_pinned():
    # a pruning of the -* scan must keep every verdict and exactness flag;
    # the file changes only with a change meant to move a flag
    with open(FLAGS_FILE) as fh:
        want = json.load(fh)
    assert _translated_flags() == want


if __name__ == "__main__":
    # rewrite the flag file: PYTHONPATH=src python tests/test_fowand.py
    with open(FLAGS_FILE, "w") as fh:
        fh.write("[\n" + ",\n".join(json.dumps(r) for r in _translated_flags()) + "\n]\n")
