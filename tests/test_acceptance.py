"""Acceptance suite: one test per criterion, one pass line each.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion lines.
Criteria with stated wall-clock budgets assert them.
"""

import random
import time
from functools import lru_cache
from itertools import combinations, product

import pytest

from slreach import syntax as S
from slreach.heaps import Heap, MemoryState, canonical_labelling
from slreach.parser import parse
from slreach.semantics import WandPolicy, check, check_exact
from slreach.solver import brute_sat, counterexample, entails, sat_reachplus, shf_rewrite
from slreach.syntax import msize, rewrite_reach
from slreach.testform import (
    match_split,
    profile,
    shrink,
    small_heap_bound,
    structure_witness,
)
from slreach.fowand import (
    EncodingContext,
    check_fo,
    default_targets,
    encode_state,
    parse_fo,
    translate,
)


@pytest.fixture(autouse=True)
def _fresh_memos():
    from slreach.semantics import clear_wand_memo
    from slreach.fowand import clear_fo_memo

    clear_wand_memo()
    clear_fo_memo()
    yield


def _report(num, label, t0):
    print(f"\nACCEPTANCE {num} ({label}): PASS ({time.time() - t0:.1f}s)")


def _heaps(locs, max_cells):
    locs = sorted(locs)
    for k in range(max_cells + 1):
        for srcs in combinations(locs, k):
            for tgts in product(locs, repeat=k):
                yield dict(zip(srcs, tgts))


@lru_cache(maxsize=None)
def _canonical_states(q, locs, max_cells):
    """One state per isomorphism class (sound: isomorphic states share both
    profiles and formula truth).  Criteria 3 and 9, and 5 and 6, ask for the
    same classes, so each set is built once per session."""
    seen = set()
    out = []
    for h in _heaps(locs, max_cells):
        for sv in product(sorted(locs), repeat=q):
            key = canonical_labelling(sv, h)[0]
            if key in seen:
                continue
            seen.add(key)
            out.append(MemoryState(q, dict(zip(range(1, q + 1), sv)), Heap(h)))
    return tuple(out)


def _formula_corpus(rng, count, max_size, qs=(1, 2)):
    """Deterministic corpus of SL(*, reach+) formulae."""
    out = []
    seen = set()
    while len(out) < count:
        q = rng.choice(qs)
        atoms = [S.EMP, S.TRUE, S.FALSE] + [
            k(i, j)
            for k in (S.Eq, S.PointsTo, S.ReachPlus)
            for i in range(1, q + 1)
            for j in range(1, q + 1)
        ]

        def gen(budget):
            if budget <= 1 or rng.random() < 0.3:
                return rng.choice(atoms)
            op = rng.choice(["not", "and", "star"])
            if op == "not":
                return S.Not(gen(budget - 1))
            left = gen((budget - 1) // 2)
            return (S.And if op == "and" else S.Star)(
                left, gen(budget - 1 - left.size)
            )

        f = gen(max_size)
        if f.size <= max_size and f not in seen:
            seen.add(f)
            out.append(f)
    return out


# ---------------------------------------------------------------------------


def test_criterion_1_figure_discrimination(cycle_states, merge_states):
    t0 = time.time()
    fwd, bwd = cycle_states
    fa = parse("true * (reach+(x1,x2) /\\ reach+(x2,x3) /\\ not reach+(x3,x1))")
    assert check_exact(fwd, fa) is True
    assert check_exact(bwd, fa) is False
    a, b = merge_states
    fb = parse("size=1 * (reach+(x2,x3) /\\ not reach+(x1,x3) /\\ not reach+(x3,x3))")
    assert check_exact(a, fb) is True
    assert check_exact(b, fb) is False
    elapsed = time.time() - t0
    assert elapsed < 1.0, f"criterion 1 took {elapsed:.2f}s"
    _report(1, "figure discrimination", t0)


def test_criterion_2_macro_lemma_suite():
    t0 = time.time()
    policy = WandPolicy("bounded", 4, 4)
    locs = range(6)
    heaps = list(_heaps(locs, 3))

    def walk2(h, l):
        a = h.get(l)
        return a is not None and h.get(a) == l and a != l

    cases = [
        ("alloc_inv", S.alloc_inv(1, 2), 2,
         lambda s: s[0] != s[1],
         lambda h, s: s[0] in set(h.values())),
        ("loop2", S.loop2(1, 2), 2,
         lambda s: s[0] != s[1],
         lambda h, s: walk2(h, s[0])),
        ("next_eq", S.next_eq(1, 2), 2,
         lambda s: True,
         lambda h, s: s[0] in h and s[1] in h and h[s[0]] == h[s[1]]),
        ("next_pointsto", S.next_pointsto(1, 2, 3), 3,
         lambda s: s[0] != s[2] and s[1] != s[2],
         lambda h, s: s[0] in h and s[1] in h and h[s[0]] in h
         and h[h[s[0]]] == h[s[1]]),
    ]
    counter = 0
    for name, formula, nvars, side, want in cases:
        seen = set()
        for h in heaps:
            for sv in product(locs, repeat=nvars):
                if not side(sv):
                    continue
                key = canonical_labelling(sv, h)[0]
                if key in seen:
                    continue
                seen.add(key)
                m = MemoryState(nvars, dict(zip(range(1, nvars + 1), sv)), Heap(h))
                if check(m, formula, policy).truth != want(h, sv):
                    counter += 1
    assert counter == 0
    elapsed = time.time() - t0
    assert elapsed < 300, f"criterion 2 took {elapsed:.1f}s"
    _report(2, "macro-lemma suite", t0)


def test_criterion_3_interdefinability():
    t0 = time.time()
    pairs = [
        (parse("reach(x1,x2)"), parse("x1 = x2 \\/ reach+(x1,x2)")),
        (parse("ls(x1,x2)"),
         parse("reach(x1,x2) /\\ not (not emp * reach(x1,x2))")),
        (parse("reach(x1,x2)"), parse("true * ls(x1,x2)")),
    ]
    counter = 0
    for m in _canonical_states(2, range(6), 4):
        for lhs, rhs in pairs:
            if check_exact(m, lhs) != check_exact(m, rhs):
                counter += 1
    assert counter == 0
    _report(3, "interdefinability", t0)


def test_criterion_4_abstraction_theorem():
    t0 = time.time()
    rng = random.Random(40_41)
    corpus = [f for f in _formula_corpus(rng, 230, 6) if not f.vars or max(f.vars) <= 2]
    assert len(corpus) >= 200
    states = _canonical_states(2, range(5), 3)
    profiles = {
        alpha: [profile(m, alpha).satisfied for m in states] for alpha in (1, 2, 3)
    }
    violations = 0
    for f in corpus:
        alpha = msize(f)
        assert alpha <= 3
        by_profile = {}
        for m, p in zip(states, profiles[alpha]):
            truth = check_exact(m, f)
            if p in by_profile:
                if by_profile[p] != truth:
                    violations += 1
            else:
                by_profile[p] = truth
    assert violations == 0
    _report(4, "abstraction theorem", t0)


def test_criterion_5_equivalence_cross_check():
    t0 = time.time()
    rng = random.Random(1234)
    pool = _canonical_states(2, range(5), 5)
    checked = 0
    agreement = True
    for _ in range(9000):
        m1, m2 = rng.choice(pool), rng.choice(pool)
        alpha = rng.choice((1, 2, 3))
        eq_profiles = profile(m1, alpha).satisfied == profile(m2, alpha).satisfied
        eq_witness = structure_witness(m1, m2, alpha) is not None
        agreement &= eq_profiles == eq_witness
        checked += 1
    # engineered equivalent pairs exercise the positive branch
    for _ in range(1500):
        m1 = rng.choice(pool)
        alpha = rng.choice((1, 2, 3))
        kind = rng.choice(("iso", "shrink", "pad"))
        if kind == "iso":
            shift = 50
            m2 = MemoryState(
                m1.q,
                {v: l + shift for v, l in m1.store.items()},
                Heap({k + shift: v + shift for k, v in m1.heap.items()}),
            )
        elif kind == "shrink":
            m2 = shrink(m1, alpha)
        else:
            base = max(m1.locations(), default=0) + 1
            extra = {base + i: base + 50 for i in range(alpha + rng.randint(1, 3))}
            grown = dict(m1.heap.cells)
            grown.update(extra)
            m2 = m1.with_heap(Heap(grown))
            m1 = m1.with_heap(
                Heap({**m1.heap.cells,
                      **{base + 100 + i: base + 150 for i in range(alpha + rng.randint(1, 3))}})
            )
        eq_profiles = profile(m1, alpha).satisfied == profile(m2, alpha).satisfied
        eq_witness = structure_witness(m1, m2, alpha) is not None
        agreement &= eq_profiles == eq_witness
        if kind in ("iso", "shrink"):
            assert eq_profiles, (kind, m1, m2)
        checked += 1
    assert agreement and checked >= 10_000
    _report(5, f"equivalence cross-check ({checked} pairs)", t0)


def test_criterion_6_distributivity_witness():
    t0 = time.time()
    rng = random.Random(77)
    pool = _canonical_states(2, range(5), 5)
    done = 0
    while done < 1000:
        m1 = rng.choice(pool)
        alpha1, alpha2 = rng.choice(((1, 1), (1, 2), (2, 1), (2, 2)))
        alpha = alpha1 + alpha2
        kind = rng.choice(("iso", "shrink", "self"))
        if kind == "iso":
            m2 = MemoryState(
                m1.q,
                {v: l + 60 for v, l in m1.store.items()},
                Heap({k + 60: v + 60 for k, v in m1.heap.items()}),
            )
        elif kind == "shrink":
            m2 = shrink(m1, alpha)
        else:
            m2 = m1
        cells = sorted(m1.heap.cells)
        chosen = [c for c in cells if rng.random() < 0.5]
        h_a = Heap({c: m1.heap.cells[c] for c in chosen})
        h_b = Heap({c: t for c, t in m1.heap.items() if c not in h_a.cells})
        got_a, got_b = match_split(m1, m2, h_a, h_b, alpha1, alpha2)
        assert got_a + got_b == m2.heap
        assert profile(m1.with_heap(h_a), alpha1).satisfied == profile(
            m2.with_heap(got_a), alpha1
        ).satisfied, (m1, m2, h_a, alpha1)
        assert profile(m1.with_heap(h_b), alpha2).satisfied == profile(
            m2.with_heap(got_b), alpha2
        ).satisfied
        done += 1
    _report(6, f"distributivity witness ({done} instances)", t0)


@pytest.fixture(scope="module")
def reachplus_corpus():
    rng = random.Random(2718)
    corpus = _formula_corpus(rng, 210, 6)
    extra = [
        parse("reach+(x1,x1)"),
        parse("reach+(x1,x2) /\\ reach+(x2,x1)"),
        parse("reach+(x1,x2) * reach+(x2,x1)"),
        parse("not emp * (x1 ~> x2)"),
        parse("emp \\/ reach+(x1,x1)"),
    ]
    return corpus + [f for f in extra if f.size <= 6]


@pytest.fixture(scope="module")
def reachplus_results(reachplus_corpus):
    return [(f, sat_reachplus(f)) for f in reachplus_corpus]


def test_criterion_7_small_model_bound(reachplus_results):
    t0 = time.time()
    n_sat = 0
    for f, res in reachplus_results:
        q = max(f.vars) if f.vars else 1
        bound = small_heap_bound(q, f.size)
        if res.is_sat:
            n_sat += 1
            assert len(res.model.heap) <= bound, f
            assert check_exact(res.model, f)
            alpha = msize(f)
            small = shrink(res.model, alpha)
            assert len(small.heap) <= bound
            assert profile(res.model, alpha).satisfied == profile(small, alpha).satisfied
    assert n_sat >= 50  # the corpus is not degenerate
    _report(7, f"small-model bound ({len(reachplus_results)} formulae)", t0)


def test_criterion_8_oracle_equivalence(reachplus_results):
    t0 = time.time()
    caps_cells, caps_locs = 3, 5
    for f, res in reachplus_results:
        oracle = brute_sat(f, caps_cells, caps_locs)
        if oracle.is_sat:
            # completeness: whatever brute force finds, the procedure finds
            assert res.is_sat, f
        if res.is_sat:
            assert check_exact(res.model, f)
            fits = len(res.model.heap) <= caps_cells and all(
                l < caps_locs for l in res.model.locations()
            )
            if fits:
                assert oracle.is_sat, f
        else:
            assert oracle.status == "unknown" and oracle.model is None, f
    _report(8, "oracle equivalence", t0)


def test_criterion_9_bool_shf():
    t0 = time.time()
    # the two satisfaction-preserving rewrites, exhaustively at 4 cells
    shf_formulas = [
        parse("x1 |-> x2"),
        parse("ls(x1,x2)"),
        parse("ls(x1,x1)"),
        parse("x1 |-> x2 * ls(x2,x1)"),
        parse("(x1 = x2 /\\ ls(x1,x2)) \\/ not (x1 |-> x1 * true)"),
    ]
    counter = 0
    for m in _canonical_states(2, range(6), 4):
        for f in shf_formulas:
            if check_exact(m, f) != check_exact(m, shf_rewrite(f)):
                counter += 1
    assert counter == 0
    assert entails(parse("ls(x1,x2)"), parse("reach(x1,x2)")) is True
    cm = counterexample(parse("reach(x1,x2)"), parse("ls(x1,x2)"))
    assert cm is not None
    assert check_exact(cm, parse("reach(x1,x2)"))
    assert not check_exact(cm, parse("ls(x1,x2)"))
    _report(9, "Bool(SHF) rewrites and entailment", t0)


FO_CORPUS = [
    ("x1 = x1", 1), ("x1 = x2", 2), ("x1 ~> x2", 2), ("x1 ~> x1", 1),
    ("not (x1 ~> x2)", 2), ("x1 = x2 \\/ x2 ~> x1", 2),
    ("x1 ~> x2 /\\ not (x1 = x2)", 2),
    ("forall x1 . x1 = x1", 1),
    ("forall x2 . not (x2 ~> x1)", 2),
    ("forall x2 . not (x1 ~> x2)", 2),
    ("forall x2 . (x2 ~> x2 => x2 = x1)", 2),
    ("forall x2 . x2 = x1", 2),
    ("forall x2 . (x2 ~> x1 => x2 = x1)", 2),
    ("forall x1 . not (x1 ~> x1)", 1),
    ("forall x2 . (x1 ~> x2 => x2 ~> x1)", 2),
    ("x1 = x1 /\\ forall x2 . (x2 = x1 \\/ not (x2 ~> x2))", 2),
    ("(x1 ~> x1) -* not (x1 = x1)", 1),
    ("(x1 ~> x1) -* (x1 ~> x1)", 1),
    ("not ((x1 ~> x1) -* not (x1 ~> x1))", 1),
    ("(x1 ~> x2) -* (x1 ~> x2)", 2),
    ("not ((x1 ~> x2) -* not (x2 ~> x1))", 2),
    ("forall x2 . not (x2 = x1 /\\ x2 ~> x2)", 2),
]


def test_criterion_10_translation_correctness():
    t0 = time.time()
    assert len(FO_CORPUS) >= 20
    fo_policy = WandPolicy("bounded", 3, 3)
    mismatches = 0
    for text, q in FO_CORPUS:
        psi = parse_fo(text)
        assert corpus_shape_ok(psi)
        Z = psi.free_vars
        ctx = EncodingContext(q, Z)
        t = translate(psi, ctx)
        sl_policy = WandPolicy("bounded", 2 * q + 2, 2 * q + 2, macro_shortcuts=True)
        for h in _heaps(range(4), 2):
            for sv in product(range(4), repeat=q):
                m1 = MemoryState(q, dict(zip(range(1, q + 1), sv)), Heap(h))
                fo = check_fo(m1, psi, fresh=2, policy=fo_policy)
                m2 = encode_state(m1, default_targets(m1), Z)
                sl = check(m2, t, sl_policy).truth
                if fo != sl:
                    mismatches += 1
    assert mismatches == 0
    elapsed = time.time() - t0
    assert elapsed < 600, f"criterion 10 took {elapsed:.1f}s"
    _report(10, "translation correctness", t0)


def corpus_shape_ok(psi):
    from slreach.fowand import FOWand, quantifier_depth

    wands = 0

    def count(g):
        nonlocal wands
        if isinstance(g, FOWand):
            wands += 1
        for c in g.children():
            count(c)

    count(psi)
    return quantifier_depth(psi) <= 1 and wands <= 1
