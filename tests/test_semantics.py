import random

import pytest
from hypothesis import example, given, settings, strategies as st

from slreach import syntax as S
from slreach.heaps import Heap, MemoryState
from slreach.parser import parse
from slreach.semantics import (
    FORBID,
    WandForbiddenError,
    WandPolicy,
    _footprint,
    check,
    check_exact,
    sl_star_wand_bound,
)

from oracle import all_states, naive_check, random_states


def test_cycle_discrimination(cycle_states):
    fwd, bwd = cycle_states
    f = parse("true * (reach+(x1,x2) /\\ reach+(x2,x3) /\\ not reach+(x3,x1))")
    assert check_exact(fwd, f) is True
    assert check_exact(bwd, f) is False


def test_merge_discrimination(merge_states):
    a, b = merge_states
    f = parse("size=1 * (reach+(x2,x3) /\\ not reach+(x1,x3) /\\ not reach+(x3,x3))")
    assert check_exact(a, f) is True
    assert check_exact(b, f) is False


def test_ls_requires_exact_path():
    loop = MemoryState(1, {1: 1}, Heap({1: 2, 2: 1}))
    assert check_exact(loop, parse("ls(x1,x1)")) is False
    empty = MemoryState(1, {1: 1}, Heap())
    assert check_exact(empty, parse("ls(x1,x1)")) is True
    assert check_exact(loop, parse("reach(x1,x1)")) is True
    two = MemoryState(2, {1: 1, 2: 3}, Heap({1: 2, 2: 3}))
    assert check_exact(two, parse("ls(x1,x2)")) is True
    assert check_exact(two, parse("x1 ~> x2")) is False


def test_check_exact_rejects_wand():
    m = MemoryState(1, {1: 0}, Heap())
    with pytest.raises(WandForbiddenError):
        check_exact(m, parse("emp -* emp"))
    with pytest.raises(WandForbiddenError):
        check(m, parse("emp -* emp"), FORBID)


def test_check_rejects_oversized_variables():
    m = MemoryState(1, {1: 0}, Heap())
    with pytest.raises(ValueError):
        check_exact(m, parse("x1 = x2"))


def test_check_exact_matches_naive_oracle():
    rng = random.Random(2024)
    atoms = [S.EMP, S.TRUE, S.FALSE] + [
        k(i, j)
        for k in (S.Eq, S.PointsTo, S.Ls, S.Reach, S.ReachPlus)
        for i in (1, 2)
        for j in (1, 2)
    ]

    def gen(budget):
        if budget <= 1 or rng.random() < 0.35:
            return rng.choice(atoms)
        op = rng.choice(["not", "and", "star"])
        if op == "not":
            return S.Not(gen(budget - 1))
        left = gen((budget - 1) // 2)
        right = gen(budget - 1 - left.size)
        return (S.And if op == "and" else S.Star)(left, right)

    formulas = [gen(7) for _ in range(120)]
    states = [m for m in all_states(2, range(5), 3)]
    rng.shuffle(states)
    for f in formulas:
        for m in states[:25]:
            assert check_exact(m, f) == naive_check(m.store, dict(m.heap.cells), f), (
                f, m,
            )
    # the path atoms on every state of two variables over four locations:
    # self-loops, cycles, equal variables and garbage cells
    paths = [k(i, j) for k in (S.Ls, S.Reach, S.ReachPlus) for i in (1, 2) for j in (1, 2)]
    for m in all_states(2, range(4), 4):
        for f in paths:
            assert check_exact(m, f) == naive_check(m.store, dict(m.heap.cells), f), (f, m)


_ALLOCATING = (S.PointsTo, S.ReachPlus, S.Ls, S.Reach)


@st.composite
def _star_formulae(draw, q):
    """x * y where each side is a conjunction of |->, reach+, ls and reach
    atoms, sometimes with a negated atom, an equality, true or not emp, and
    sometimes split again by *."""
    var = st.integers(1, q)

    def atom(kinds):
        return draw(st.sampled_from(kinds))(draw(var), draw(var))

    def side(depth):
        f = atom(_ALLOCATING)
        for _ in range(draw(st.integers(0, 2))):
            f = S.And(f, atom(_ALLOCATING))
        extra = draw(st.sampled_from(("none", "not", "eq", "true", "nonempty")))
        if extra == "not":
            f = S.And(f, S.Not(atom(_ALLOCATING)))
        elif extra == "eq":
            f = S.And(f, atom((S.Eq,)))
        elif extra == "true":
            f = S.And(f, S.TRUE)
        elif extra == "nonempty":
            f = S.And(f, S.Not(S.EMP))
        if depth and draw(st.booleans()):
            f = S.Star(f, side(depth - 1))
        return f

    return S.Star(side(1), side(1))


@settings(max_examples=400, deadline=None)
@given(st.data())
def test_star_split_matches_naive(data):
    m = data.draw(random_states(max_q=3, max_loc=5, max_cells=6))
    f = data.draw(_star_formulae(m.q))
    assert check_exact(m, f) == naive_check(m.store, dict(m.heap.cells), f), (m, f)


def test_star_split_on_shared_must_cells():
    # both sides must allocate s(x1), or one side needs a cell not in the heap
    formulae = [
        parse(t)
        for t in (
            "x1 |-> x2 * reach+(x1,x2)",
            "(x1 |-> x2 /\\ true) * (ls(x1,x2) /\\ true)",
            "reach(x1,x2) * (x1 |-> x1)",
            "(x1 |-> x2 * true) * (reach+(x2,x1) /\\ true)",
            "reach+(x1,x1) * (x2 |-> x1)",
        )
    ]
    for m in all_states(2, range(3), 3):
        for f in formulae:
            assert check_exact(m, f) == naive_check(m.store, dict(m.heap.cells), f), (m, f)


def test_bounded_wand_matches_naive_on_small_instances():
    # same per-node universe policy, same bound: the optimized scan must
    # agree with raw enumeration over extensions
    rng = random.Random(7)
    formulas = [
        parse("alloc(x1)"),
        parse("(x1 ~> x2) -* reach+(x1,x2)"),
        parse("true -* not reacheq(x1,x2; 2)"),
        parse("emp -* ls(x1,x2)"),
        S.septraction(parse("size=1"), parse("reach+(x1,x1)")),
        parse("allocinv(x1; x2)"),
        S.Wand(parse("reach(x1,x2) -* x1 ~> x2"), parse("emp")),
    ]
    pol = WandPolicy("bounded", 2, 2)
    states = [m for m in all_states(2, range(4), 2)]
    rng.shuffle(states)
    for f in formulas:
        for m in states[:40]:
            heap = dict(m.heap.cells)
            want = naive_check(m.store, heap, f, wand_bound=pol.cell_bound,
                               wand_fresh=pol.fresh_locations)
            assert check(m, f, pol).truth == want, (f, m)


def test_alloc_equivalence():
    # not emp * alloc(x1) is satisfied exactly when size >= 2 and alloc(x1)
    lhs = parse("not emp * alloc(x1)")
    rhs = parse("size>=2 /\\ alloc(x1)")
    pol = WandPolicy("bounded", 6, 4)
    for m in all_states(1, range(4), 3):
        assert check(m, lhs, pol).truth == check(m, rhs, pol).truth, m


def test_monotone_bound_soundness():
    f = S.septraction(parse("size=2"), parse("reach+(x1,x1)"))
    m = MemoryState(1, {1: 0}, Heap())
    truths = []
    for bound in (1, 2, 3, 4, 5):
        truths.append(check(m, f, WandPolicy("bounded", bound, 4)).truth)
    # once true under some bound, true for all larger bounds
    first = truths.index(True) if True in truths else len(truths)
    assert all(truths[first:])


def test_exactness_flags():
    m = MemoryState(1, {1: 0}, Heap({0: 1}))
    # allocated: no disjoint extension can satisfy x1 ~> x1, vacuously exact
    r = check(m, parse("alloc(x1)"), WandPolicy("bounded", 2, 2))
    assert r == (True, True)
    # refutations are exact
    m2 = MemoryState(1, {1: 5}, Heap({0: 1}))
    r = check(m2, parse("alloc(x1)"), WandPolicy("bounded", 2, 2))
    assert r == (False, True)
    # exhausting the bound without a counterexample is not exact
    r = check(m, S.Wand(parse("size=1"), parse("size=2")), WandPolicy("bounded", 1, 1))
    assert r.truth is True and r.exact is False
    # no extension of any size satisfies psi: true -* not psi holds exactly,
    # whether psi's certificates or the scan decide it
    m3 = MemoryState(2, {1: 0, 2: 1}, Heap({0: 1}))
    for text in ("true -* not (x1 = x2)", "true -* not (x1 ~> x1)", "true -* not false"):
        assert check(m3, parse(text), WandPolicy()) == (True, True), text
    # a path bracket with gamma 0 or 1 has no certificate or one fixed by
    # the store; s(x1) points to itself, so no extension satisfies either
    m4 = MemoryState(2, {1: 0, 2: 1}, Heap({0: 0}))
    for text in ("true -* not reacheq(x1,x2; 0)", "true -* not reacheq(x1,x2; 1)"):
        f = parse(text)
        assert check(m4, f, WandPolicy()) == (True, True), text
        assert check(m4, f, WandPolicy("bounded", 1, 1)) == (True, True), text
        assert naive_check(m4.store, {0: 0}, f, 3, 3) is True, text
    # every exact answer on true -* not psi holds at a larger bound too
    pol = WandPolicy("bounded", 1, 1)
    psis = [
        parse("x1 = x2"), parse("x1 ~> x1"), parse("x1 ~> x2 /\\ x2 ~> x1"),
        parse("x1 = x2 \\/ x2 ~> x2"), parse("reacheq(x1,x2; 1)"),
        parse("reacheq(x1,x2; 2)"), parse("x1 = x1 /\\ reacheq(x2,x1; 0)"),
    ]
    for psi in psis:
        f = S.Wand(S.TRUE, S.Not(psi))
        for m in all_states(2, range(3), 1):
            r = check(m, f, pol)
            if r.exact:
                want = naive_check(m.store, dict(m.heap.cells), f,
                                   pol.cell_bound + 2, pol.fresh_locations + 2)
                assert r.truth == want, (psi, m)


@st.composite
def _pruned_wands(draw):
    """L -* R over three variables, each side an auxiliary predicate,
    alloc(x), not alloc(x) or not alloc_inv(x, y), or two of them under * or
    /\\: the shapes whose conjuncts the -* scan leaves unchecked and whose
    must cells * gives to one side."""
    var = st.integers(1, 3)

    def leaf():
        kind = draw(st.sampled_from(("alloc", "not alloc", "alloc_inv", "not alloc_inv",
                                     "loop2", "next_eq", "next_pointsto")))
        if kind == "alloc":
            return S.alloc(draw(var))
        if kind == "not alloc":
            return S.Not(S.alloc(draw(var)))
        if kind == "not alloc_inv":
            return S.Not(S.alloc_inv(draw(var), draw(var)))
        if kind == "next_pointsto":
            return S.next_pointsto(draw(var), draw(var), draw(var))
        return getattr(S, kind)(draw(var), draw(var))

    def side():
        op = draw(st.sampled_from((None, S.Star, S.And)))
        return leaf() if op is None else op(leaf(), leaf())

    return S.Wand(side(), side())


# stores with s(x) = s(y) and s(x) = s(z), where the shortcuts decline
_PRUNED_STORES = st.sampled_from(((0, 0, 1), (0, 1, 0), (0, 0, 0), (0, 1, 1)))
_PRUNED_HEAPS = st.sampled_from(({}, {0: 0}, {0: 1}, {1: 0}, {1: 1}))


def _check_pruned_wand(f, values, heap, pol):
    store = dict(zip((1, 2, 3), values))
    r = check(MemoryState(3, store, Heap(heap)), f, pol)
    if r.exact:
        want = naive_check(store, heap, f, pol.cell_bound + 1, 1)
        assert r.truth == want, (f, store, heap, pol)


# At cell bound 0 the scan sees only the empty extension, so its "true" is
# exact only when the left side or not-B's witnesses need no cell; both
# examples are refuted by one cell.
@example(f=S.Wand(S.TRUE, S.EMP), values=(0, 0, 1), heap={}, bound=0)
@example(
    f=S.Wand(S.Not(S.alloc_inv(1, 1)), S.Not(S.alloc_inv(1, 3))),
    values=(0, 0, 1), heap={}, bound=0,
)
@settings(max_examples=200, deadline=None)
@given(f=_pruned_wands(), values=_PRUNED_STORES, heap=_PRUNED_HEAPS, bound=st.integers(0, 3))
def test_wand_pruning_matches_naive(f, values, heap, bound):
    _check_pruned_wand(f, values, heap, WandPolicy("bounded", bound, 1))


# The oracle gets one more cell but one fresh location, not two: with two,
# single examples take over 15 s.  A refutation needing both fresh
# locations would show as a mismatch; the fixed example set has none.
@settings(max_examples=60, deadline=None, derandomize=True)
@given(values=_PRUNED_STORES, heap=_PRUNED_HEAPS, f=_pruned_wands())
def test_wand_pruning_with_shortcuts_matches_naive(values, heap, f):
    _check_pruned_wand(f, values, heap, WandPolicy("bounded", 3, 2, macro_shortcuts=True))


def test_exact_answers_at_small_bounds_match_naive():
    # every exact answer at cell bounds 0-2 (one fresh location) holds at
    # bound + 2 with two fresh ones: A -* B over ten atoms and their
    # negations, and * around a -* side, where bound 0 scans alloc(x)
    atoms = [parse(t) for t in ("emp", "true", "x1 = x2", "x1 ~> x2", "x2 ~> x1",
                                "x1 ~> x1", "ls(x1,x2)", "reach+(x1,x2)", "alloc(x1)",
                                "size>=2")]
    lits = atoms + [S.Not(a) for a in atoms]
    wands = [S.Wand(a, b) for a in lits for b in lits]
    stars = [
        g
        for lit in lits
        for p in (S.EMP, parse("x1 ~> x2"), S.TRUE, S.Not(S.EMP))
        for g in (S.Star(S.Wand(S.TRUE, lit), p), S.Star(p, S.Wand(lit, S.FALSE)))
    ]
    states = list(all_states(2, range(2), 2))
    wrong = []
    for f in wands + stars:
        for m in states:
            heap = dict(m.heap.cells)
            for bound in (0, 1, 2):
                r = check(m, f, WandPolicy("bounded", bound, 1))
                if r.exact and r.truth != naive_check(m.store, heap, f, bound + 2, 2):
                    wrong.append((bound, f, m))
    assert wrong == []


def test_truth_wand_without_certificates():
    # right sides outside the certified bracket class go through the plain
    # scan (with the witness-size cap when one is derivable)
    m = MemoryState(2, {1: 0, 2: 1}, Heap())
    pol = WandPolicy("bounded", 3, 3)
    refutable = S.Wand(S.TRUE, S.Not(S.ReachPlus(1, 2)))
    assert check(m, refutable, pol) == (False, True)
    m2 = MemoryState(2, {1: 0, 2: 0}, Heap())
    stable = S.Wand(S.TRUE, parse("reach(x1,x2)"))
    assert check(m2, stable, pol).truth is True
    # emp under negation is not monotone: no cap, full scan, inexact result
    holds = S.Wand(S.TRUE, S.Not(S.Not(S.Reach(1, 1))))
    assert check(m, holds, pol).truth is True


def test_isomorphic_states_share_a_wand_memo_entry():
    from slreach import semantics

    f = parse("(x1 ~> x1) -* reach+(x1,x1)")
    semantics.clear_wand_memo()
    sizes = []
    for cells in [{1: 0, 2: 0, 3: 2}, {1: 0, 2: 0, 3: 1}]:
        check(MemoryState(1, {1: 0}, Heap(cells)), f)
        sizes.append(len(semantics._WAND_MEMO))
    assert sizes[0] >= 1 and sizes[1] == sizes[0]


def test_wand_bound():
    f = parse("emp -* emp")
    assert sl_star_wand_bound(f) == 6
    g = parse("alloc(x1)")
    assert g.size == 3
    assert sl_star_wand_bound(g) == 6
    h = parse("not emp * ((x1 ~> x1) -* false)")
    assert sl_star_wand_bound(h) == 2 * h.size
    with pytest.raises(ValueError):
        sl_star_wand_bound(parse("ls(x1,x2)"))


def test_macro_shortcut_policy_agrees():
    # shortcut evaluation equals the literal bounded evaluation
    plain = WandPolicy("bounded", 4, 4)
    fast = WandPolicy("bounded", 4, 4, macro_shortcuts=True)
    forms = [
        S.alloc_inv(1, 2), S.loop2(1, 2), S.next_eq(1, 2), S.next_pointsto(1, 2, 3),
    ]
    states = list(all_states(3, range(4), 2))
    rng = random.Random(5)
    rng.shuffle(states)
    for f in forms:
        for m in states[:60]:
            if f.vars and max(f.vars) > m.q:
                continue
            assert check(m, f, plain).truth == check(m, f, fast).truth, (f, m)


def test_alloc_decided_like_the_scan():
    # alloc(x) is decided without a scan once cell_bound >= 1; with bound 0
    # the scan finds no extension and the answer is true, inexact
    for m in all_states(2, range(4), 2):
        heap = dict(m.heap.cells)
        for x in (1, 2):
            f = S.alloc(x)
            for cb in (0, 1, 2):
                for fr in (1, 2):
                    r = check(m, f, WandPolicy("bounded", cb, fr))
                    assert r.truth == naive_check(m.store, heap, f, cb, fr), (m, x, cb, fr)
                    assert r.exact == (cb >= 1 or m.store[x] in heap), (m, x, cb, fr)
            with pytest.raises(WandForbiddenError):
                check(m, f, FORBID)


def test_unallocated_source_keeps_the_wand_exact():
    # not alloc(x1) bans s(x1) as a source while x1 ~> x2 forces it, so the
    # scan answers true, exactly, without enumerating an extension
    f = parse("not alloc(x1) -* not (x1 ~> x2)")
    results = [check(m, f, WandPolicy("bounded", 4, 4)) for m in all_states(2, range(4), 2)]
    assert len(results) == 1808
    assert sum(r.truth for r in results) == 1600
    assert sum(r.exact for r in results) == 1184


@st.composite
def _alloc_formulae(draw, q):
    """alloc(x) and not alloc(x) leaves, with some points-to and (not) emp
    leaves, combined by * and /\\."""
    var = st.integers(1, q)

    def leaf():
        kind = draw(st.sampled_from(("alloc", "not alloc", "pt", "emp", "not emp")))
        if kind == "alloc":
            return S.alloc(draw(var))
        if kind == "not alloc":
            return S.Not(S.alloc(draw(var)))
        if kind == "pt":
            return S.PointsTo(draw(var), draw(var))
        return S.EMP if kind == "emp" else S.Not(S.EMP)

    def tree(depth):
        if depth == 0 or draw(st.booleans()):
            return leaf()
        op = draw(st.sampled_from((S.Star, S.And)))
        return op(tree(depth - 1), tree(depth - 1))

    return tree(3)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_nested_alloc_matches_naive(data):
    m = data.draw(random_states(max_q=3, max_loc=5, max_cells=4))
    f = data.draw(_alloc_formulae(m.q))
    cb, fr = data.draw(st.integers(0, 2)), data.draw(st.integers(1, 2))
    got = check(m, f, WandPolicy("bounded", cb, fr)).truth
    assert got == naive_check(m.store, dict(m.heap.cells), f, cb, fr), (m, f, cb, fr)


@st.composite
def _footprint_formulae(draw, q):
    """Wand-free formulae built from the shapes _footprint reads: atoms
    (ls(x, x) and x = y among them), not emp, size >= k, not, not not, or,
    /\\ and *, where a * sometimes gives both sides a cell of one variable."""
    var = st.integers(1, q)

    def tree(depth):
        if depth == 0 or draw(st.integers(0, 3)) == 0:
            kind = draw(st.sampled_from(
                (S.Eq, S.PointsTo, S.Ls, S.Reach, S.ReachPlus, "lsxx", "const")))
            if kind == "lsxx":
                x = draw(var)
                return S.Ls(x, x)
            if kind == "const":
                return draw(st.sampled_from(
                    (S.EMP, S.TRUE, S.FALSE, S.Not(S.EMP), S.size_geq(1), S.size_geq(2))))
            return kind(draw(var), draw(var))
        op = draw(st.sampled_from(("not", "notnot", "or", "and", "star", "shared")))
        if op in ("not", "notnot"):
            g = S.Not(tree(depth - 1))
            return S.Not(g) if op == "notnot" else g
        a, b = tree(depth - 1), tree(depth - 1)
        if op == "shared":
            x = draw(var)
            a, b = S.And(a, S.PointsTo(x, draw(var))), S.And(b, S.ReachPlus(x, draw(var)))
        return {"or": S.f_or, "and": S.And}.get(op, S.Star)(a, b)

    return tree(3)


@settings(max_examples=400, deadline=None)
@given(st.data())
def test_footprint_is_sound(data):
    # every model lies inside the footprint, so an empty footprint (lo > hi)
    # means no model; ls(x, x) holds only on emp, so f * ls(x, x) has f's
    # footprint
    m = data.draw(random_states(max_q=3, max_loc=4, max_cells=5))
    f = data.draw(_footprint_formulae(m.q))
    heap = dict(m.heap.cells)
    lo, hi, must = _footprint(f, m.store)
    if naive_check(m.store, heap, f):
        assert lo <= len(heap) <= hi and must <= heap.keys(), (m, f, lo, hi, must)
    assert lo <= hi or not check_exact(m, f), (m, f)
    x = data.draw(st.integers(1, m.q))
    if lo <= hi:
        assert _footprint(S.Star(f, S.Ls(x, x)), m.store) == (lo, hi, must), (m, f)
