import copy
import gc
import pickle
import weakref

import pytest
from hypothesis import given, settings, strategies as st

from slreach import syntax as S
from slreach.fowand import FOEq, fo_to_text
from slreach.parser import ParseError, parse, to_text
from slreach.semantics import check_exact
from slreach.syntax import Fragment, classify, expand_macro, msize, rewrite_reach

from oracle import all_states


def test_parse_atoms():
    assert parse("emp") == S.EMP
    assert parse("x1 = x2") == S.Eq(1, 2)
    assert parse("x1 ~> x2") == S.PointsTo(1, 2)
    assert parse("ls(x1,x2)") == S.Ls(1, 2)
    assert parse("reach(x1,x2)") == S.Reach(1, 2)
    assert parse("reach+(x1,x2)") == S.ReachPlus(1, 2)


def test_parse_connectives():
    f = parse("ls(x1,x2) * not(emp)")
    assert f == S.Star(S.Ls(1, 2), S.Not(S.EMP))
    g = parse("(x1 ~> x1) -* false")
    assert g == S.Wand(S.PointsTo(1, 1), S.FALSE)
    assert g.size == 3
    assert parse("emp \\/ not emp") == S.f_or(S.EMP, S.Not(S.EMP))
    assert parse("emp => emp") == S.f_implies(S.EMP, S.EMP)
    assert parse("emp -o emp") == S.septraction(S.EMP, S.EMP)


def test_parse_precedence():
    # * binds tighter than /\ which binds tighter than -*
    f = parse("emp * emp /\\ emp -* emp")
    assert isinstance(f, S.Wand)
    assert isinstance(f.left, S.And)
    assert isinstance(f.left.left, S.Star)


def test_parse_macros():
    assert parse("size>=2") == S.Star(S.Star(S.TRUE, S.Not(S.EMP)), S.Not(S.EMP))
    assert parse("alloc(x1)") == S.Wand(S.PointsTo(1, 1), S.FALSE)
    assert parse("x1 |-> x2") == S.And(S.PointsTo(1, 2), S.size_eq(1))
    assert parse("allocinv(x1; x2)") == S.alloc_inv(1, 2)
    assert parse("safe(x1,x2)") == S.safe([1, 2])
    assert parse("nextpt(x1,x2; x3)") == S.next_pointsto(1, 2, 3)
    assert parse("reacheq(x1,x2; 2)") == S.reach_eq(1, 2, 2)


def test_equal_formulae_are_one_object():
    text = "nextpt(x1,x2; x3) /\\ safe(x1,x2) -* size>=2"
    assert parse(text) is parse(text)
    assert S.Emp() is S.EMP
    a, b = S.Eq(1, 2), S.Not(S.PointsTo(2, 1))
    a2, b2 = parse("x1 = x2"), S.f_implies(S.TRUE, S.PointsTo(2, 1)).child.right
    assert S.And(a, b) is S.And(a2, b2)
    assert S.And(a, b) is parse("x1 = x2 /\\ not (x2 ~> x1)")
    assert S.And(a, b) is not S.Star(a, b)
    assert S.And(a, b) != S.And(b, a)
    f = parse(text)
    assert copy.deepcopy(f) is f and pickle.loads(pickle.dumps(f)) is f


def test_special_form_survives_collection():
    parse("nextpt(x1,x2; x3)")
    gc.collect()
    assert S.special_form(parse("nextpt(x1,x2; x3)")) == ("next_pointsto", 1, 2, 3)
    assert S.special_form(S.next_pointsto(1, 2, 3)) == ("next_pointsto", 1, 2, 3)


def test_special_node_is_released_with_its_cache_entry():
    # the registration lives on the node, so it does not keep the node alive
    # once the macro cache has evicted it, and a rebuild registers it again
    ref = weakref.ref(S.alloc_inv(91, 92))
    for i in range(S._MACRO_CACHE_SIZE):
        S.alloc_inv(93, 100 + i)
    gc.collect()
    assert ref() is None
    assert S.special_form(S.alloc_inv(91, 92)) == ("alloc_inv", 91, 92)


_CACHED_MACROS = [
    (S.size_geq, (3,)), (S.size_leq, (2,)), (S.size_eq, (2,)), (S.alloc, (2,)),
    (S.reach_eq, (1, 2, 2)), (S.reach_leq, (2, 1, 3)), (S.alloc_inv, (2, 3)),
    (S.loop2, (1, 3)), (S.next_eq, (3, 1)), (S.next_pointsto, (1, 2, 3)),
    (S._safe, (1, 2, 3, 4)),
]


def test_cached_macros_return_the_fresh_build():
    for fn, args in _CACHED_MACROS:
        built = fn(*args)
        hits = fn.cache_info().hits
        assert fn(*args) is built and fn.cache_info().hits == hits + 1
        assert fn.__wrapped__(*args) is built, fn.__name__
    assert S.safe([1, 2, 3, 4]) is S._safe(1, 2, 3, 4)


def test_cached_macros_still_reject_bad_arguments():
    for fn, good, bad in (
        (S.size_geq, 2, 2.0), (S.alloc, 1, 1.0), (S.safe, [1, 2], [1.0, 2.0]),
    ):
        fn(good)
        with pytest.raises(ValueError):
            fn(bad)


def test_bad_variable_registers_nothing():
    # True == 1 and hash(True) == hash(1), so a node built from True would be
    # the one found for x1; first-order nodes share the table
    for cls, text in ((S.Eq, to_text), (FOEq, fo_to_text)):
        for bad in (0, True):
            with pytest.raises(ValueError):
                cls(bad, 2)
            assert (cls, 0, 2) not in S._NODES
            assert text(cls(1, 2)) == "x1 = x2"
    with pytest.raises(ValueError):
        S.alloc(True)
    assert to_text(parse("x1 ~> x1")) == "x1 ~> x1"


def test_parse_errors_carry_position():
    with pytest.raises(ParseError) as e:
        parse("emp /\\ ")
    assert e.value.position >= 6
    with pytest.raises(ParseError):
        parse("foo(x1)")
    with pytest.raises(ParseError):
        parse("x0 = x1")
    # every call form with the wrong separator, a missing ')', a natural
    # where a variable belongs and a variable where a natural belongs
    sep, close = "expected {!r}, found {!r}", "expected ')', found 'end of input'"
    var, nat = "expected 'var', found {!r}", "expected 'int', found {!r}"
    for text, message, position in [
        ("ls(x1;x2)", sep.format(",", ";"), 5), ("ls(x1,x2", close, 8),
        ("ls(1,x2)", var.format("1"), 3),
        ("reach(x1;x2)", sep.format(",", ";"), 8), ("reach(x1,x2", close, 11),
        ("reach(x1,2)", var.format("2"), 9),
        ("reach+(x1;x2)", sep.format(",", ";"), 9), ("reach+(x1,x2", close, 12),
        ("reach+(1,x2)", var.format("1"), 7),
        ("alloc(x1,x2)", sep.format(")", ","), 8), ("alloc(x1", close, 8),
        ("alloc(1)", var.format("1"), 6),
        ("allocinv(x1,x2)", sep.format(";", ","), 11), ("allocinv(x1;x2", close, 14),
        ("allocinv(x1;2)", var.format("2"), 12),
        ("loop2(x1,x2)", sep.format(";", ","), 8), ("loop2(x1;x2", close, 11),
        ("loop2(1;x2)", var.format("1"), 6),
        ("nexteq(x1;x2)", sep.format(",", ";"), 9), ("nexteq(x1,x2", close, 12),
        ("nexteq(x1,2)", var.format("2"), 10),
        ("nextpt(x1,x2,x3)", sep.format(";", ","), 12), ("nextpt(x1,x2;x3", close, 15),
        ("nextpt(x1,x2;3)", var.format("3"), 13),
        ("reacheq(x1,x2,2)", sep.format(";", ","), 13), ("reacheq(x1,x2;2", close, 15),
        ("reacheq(1,x2;2)", var.format("1"), 8), ("reacheq(x1,x2;x3)", nat.format("x3"), 14),
        ("reachle(x1;x2;2)", sep.format(",", ";"), 10), ("reachle(x1,x2;2", close, 15),
        ("reachle(x1,2;2)", var.format("2"), 11), ("reachle(x1,x2;x1)", nat.format("x1"), 14),
        ("size~>2", "expected >=, <= or = after size", 4), ("size>=x1", nat.format("x1"), 6),
        ("safe(x1;x2)", sep.format(")", ";"), 7), ("safe(x1,x2", close, 10),
        ("safe(x1,2)", var.format("2"), 8),
    ]:
        with pytest.raises(ParseError) as e:
            parse(text)
        assert (str(e.value), e.value.position) == (
            f"{message} (at position {position})", position
        ), text


@pytest.mark.parametrize(
    "text",
    [
        "emp",
        "ls(x1,x2) * not(emp)",
        "(x1 ~> x1) -* false",
        "size=2",
        "safe(x1,x2)",
        "reach+(x1,x1) /\\ true * x1 = x2",
        "nextpt(x1,x2; x3)",
        "reach(x2,x1) * ls(x1,x1)",
        "alloc(x1)",
        "allocinv(x1; x2)",
        "loop2(x2; x1)",
        "nexteq(x1,x2)",
        "reacheq(x1,x2; 2)",
        "reachle(x2,x1; 3)",
        "size>=2 /\\ size<=3",
    ],
)
def test_print_parse_roundtrip(text):
    f = parse(text)
    assert parse(to_text(f)) == f


_atom_st = st.sampled_from(
    [S.EMP, S.TRUE, S.FALSE]
    + [k(i, j) for k in (S.Eq, S.PointsTo, S.Ls, S.Reach, S.ReachPlus)
       for i in (1, 2) for j in (1, 2)]
)


def _formulas(max_leaves=5):
    return st.recursive(
        _atom_st,
        lambda kids: st.one_of(
            st.builds(S.Not, kids),
            st.builds(S.And, kids, kids),
            st.builds(S.Star, kids, kids),
            st.builds(S.Wand, kids, kids),
        ),
        max_leaves=max_leaves,
    )


@settings(max_examples=200, deadline=None)
@given(_formulas())
def test_roundtrip_property(f):
    assert parse(to_text(f)) == f


@settings(max_examples=200, deadline=None)
@given(_formulas())
def test_msize_bounds(f):
    assert 1 <= msize(f) <= f.size


def test_msize_examples():
    assert msize(parse("emp")) == 1
    assert msize(parse("emp * emp")) == 2
    assert msize(parse("(emp * emp) /\\ not emp")) == 2


def test_macro_size_examples():
    assert expand_macro("size_geq", [2]) == parse("(true * not emp) * not emp")
    assert expand_macro("size_geq", [0]) == S.TRUE
    assert expand_macro("alloc", [1]) == S.Wand(S.PointsTo(1, 1), S.FALSE)
    # size = beta is the conjunction size <= beta /\ size >= beta
    assert expand_macro("size_eq", [1]) == S.And(S.size_leq(1), S.size_geq(1))


def test_macro_bracket_example():
    got = expand_macro("reach_eq_gamma", [1, 2, 0])
    want = S.Star(S.And(S.size_eq(0), S.Ls(1, 2)), S.TRUE)
    assert got == want


def test_macro_errors():
    with pytest.raises(ValueError):
        expand_macro("nosuch", [])
    with pytest.raises(ValueError):
        expand_macro("alloc", [1, 2])
    with pytest.raises(ValueError):
        expand_macro("size_geq", [-1])
    with pytest.raises(ValueError):
        expand_macro("safe", [1])  # odd arity


def test_expansions_contain_no_macro_nodes():
    # fully expanded: every node is a core constructor
    core = (S.Emp, S.Truth, S.Falsum, S.Eq, S.PointsTo, S.Ls, S.Reach,
            S.ReachPlus, S.Not, S.And, S.Star, S.Wand)
    for name, args in [
        ("next_pointsto", [1, 2, 3]),
        ("safe", [1, 2, 3, 4]),
        ("loop2", [1, 2]),
        ("reach_leq_gamma", [1, 2, 3]),
    ]:
        for g in S.subformulas(expand_macro(name, args)):
            assert isinstance(g, core)


def test_rewrite_reach_examples():
    assert rewrite_reach(S.Reach(1, 2), "reachplus") == S.f_or(
        S.Eq(1, 2), S.ReachPlus(1, 2)
    )
    assert rewrite_reach(S.ReachPlus(1, 2), "reachplus") == S.ReachPlus(1, 2)
    ls_rw = rewrite_reach(S.Ls(1, 2), "reachplus")
    assert ls_rw == S.f_or(
        S.And(S.Eq(1, 2), S.EMP),
        S.f_and(
            S.Not(S.Eq(1, 2)),
            S.ReachPlus(1, 2),
            S.Not(S.Star(S.Not(S.EMP), S.ReachPlus(1, 2))),
        ),
    )
    assert rewrite_reach(S.Reach(1, 2), "ls") == S.Star(S.TRUE, S.Ls(1, 2))
    with pytest.raises(ValueError):
        rewrite_reach(S.ReachPlus(1, 2), "ls")


def test_rewrite_preserves_semantics_at_desk_scale():
    # double rewriting stays equivalent on every state with <= 4 cells over
    # <= 6 locations (one representative per isomorphism class)
    from slreach.heaps import canonical_labelling

    formulas = [
        S.Ls(1, 2), S.Reach(1, 2), S.ReachPlus(1, 1),
        S.Star(S.Ls(1, 2), S.TRUE), S.Not(S.Reach(2, 1)),
        S.And(S.Reach(1, 2), S.Not(S.Ls(1, 2))),
    ]
    seen = set()
    states = []
    for m in all_states(2, range(6), 4):
        key = canonical_labelling((m.store[1], m.store[2]), m.heap.cells)[0]
        if key not in seen:
            seen.add(key)
            states.append(m)
    target_chains = [
        ("reachplus", "reachplus"),
        ("reach", "reachplus"),
        ("ls", "reachplus"),
        ("ls", "reach"),
    ]
    for f in formulas:
        for a, b in target_chains:
            has_rp = any(isinstance(g, S.ReachPlus) for g in S.subformulas(f))
            if has_rp and a in ("ls", "reach"):
                continue  # reach+ has no ls/reach-only counterpart
            once = rewrite_reach(f, a)
            twice = rewrite_reach(once, b)
            for m in states:
                want = check_exact(m, f)
                assert check_exact(m, once) == want, (f, a, m)
                assert check_exact(m, twice) == want, (f, a, b, m)


def test_classify_examples():
    got = classify(parse("ls(x1,x2) * emp"))
    assert got == frozenset(
        {Fragment.SL_STAR_REACHPLUS, Fragment.SL_STAR_WAND_LS, Fragment.BOOL_SHF}
    )
    got = classify(parse("emp -* emp"))
    assert got == frozenset({Fragment.SL_STAR_WAND, Fragment.SL_STAR_WAND_LS})
    got = classify(parse("(emp -* emp) /\\ reach+(x1,x2)"))
    assert got == frozenset({Fragment.BOOLCOMB})


def test_classify_plain_and_none():
    got = classify(parse("emp"))
    assert Fragment.SL_STAR in got and Fragment.BOOL_SHF in got
    # reach+ under a wand fits nowhere
    assert classify(S.Wand(S.ReachPlus(1, 1), S.EMP)) == frozenset({Fragment.NONE})
