"""Formula AST for propositional separation logic with reachability atoms.

Atoms: emp, true, false, x = y, x ~> y (points-to, non-exact), ls(x,y),
reach(x,y), reach+(x,y).  Connectives: not, /\\, * and -*.  Disjunction,
implication and septraction are sugar normalized away at construction time,
so the core AST stays small for the checker.

Nodes are hash-consed: building a formula returns the one existing node
that is structurally equal to it, if any, so structurally equal formulae are
one object and ``==`` is identity.  The first-order nodes of fowand live in
the same table.  Nodes are immutable, and the size and variable caches on a
node are shared by every formula that contains it.

Each node class has one bit, and each node holds the mask of the kinds in
its subtree, set when it is built: wand-freeness and every fragment test on
atoms are one mask test each (kinds).
"""

from __future__ import annotations

import weakref
from enum import Enum
from functools import lru_cache
from typing import FrozenSet, Sequence, Tuple


def _check_var(i: int) -> int:
    # not isinstance: True == 1 would find and register x1's nodes
    if not (type(i) is int and i >= 1):
        raise ValueError(f"variable index must be a positive integer, got {i!r}")
    return i


# The live nodes of both logics, formulae here and first-order formulae in
# fowand, keyed by (class, *fields).  Values are weak, so a node is
# dropped from the table once no formula or cache refers to it; a key holds
# its child nodes, which the node itself holds anyway.  Lookup and insertion
# are not locked: two threads building the same new node at once could each
# get their own copy, so formulae are built from one thread.
_NODES: "weakref.WeakValueDictionary[tuple, object]" = weakref.WeakValueDictionary()


def _new_node(cls, below: int = 0):
    node = object.__new__(cls)
    node._size = node._msize = node._vars = node._special = None
    node._kinds = cls._bit | below
    return node


class Formula:
    """Base of the formula nodes.  Equality and hashing are object identity,
    inherited from object: interning makes identity coincide with structural
    equality.  Copying and unpickling go through the constructors
    (__reduce__), so they return the interned node too."""

    __slots__ = ("_size", "_msize", "_vars", "_kinds", "_special", "__weakref__")
    _fields: Tuple[str, ...] = ()  # the constructor's arguments

    def __reduce__(self):
        return (type(self), tuple(getattr(self, f) for f in self._fields))

    def children(self) -> Tuple["Formula", ...]:
        return ()

    @property
    def size(self) -> int:
        """Tree size: number of nodes."""
        if self._size is None:
            self._size = 1 + sum(c.size for c in self.children())
        return self._size

    @property
    def vars(self) -> FrozenSet[int]:
        if self._vars is None:
            vs: frozenset = frozenset()
            for c in self.children():
                vs |= c.vars
            self._vars = vs
        return self._vars

    @property
    def wand_free(self) -> bool:
        return not self._kinds & _WAND_BIT

    def __repr__(self):
        from .parser import to_text

        return f"<{to_text(self)}>"


class _Nullary(Formula):
    __slots__ = ()

    def __new__(cls):
        key = (cls,)
        node = _NODES.get(key)
        if node is None:
            node = _NODES[key] = _new_node(cls)
        return node


class Emp(_Nullary):
    __slots__ = ()


class Truth(_Nullary):
    __slots__ = ()


class Falsum(_Nullary):
    __slots__ = ()


class _BinAtom(Formula):
    __slots__ = _fields = ("x", "y")

    def __new__(cls, x: int, y: int):
        key = (cls, _check_var(x), _check_var(y))
        node = _NODES.get(key)
        if node is None:
            node = _new_node(cls)
            node.x = x
            node.y = y
            _NODES[key] = node
        return node

    @property
    def vars(self):
        if self._vars is None:
            self._vars = frozenset((self.x, self.y))
        return self._vars


class Eq(_BinAtom):
    __slots__ = ()


class PointsTo(_BinAtom):
    __slots__ = ()


class Ls(_BinAtom):
    __slots__ = ()


class Reach(_BinAtom):
    __slots__ = ()


class ReachPlus(_BinAtom):
    __slots__ = ()


class Not(Formula):
    __slots__ = _fields = ("child",)

    def __new__(cls, child: Formula):
        key = (cls, child)
        node = _NODES.get(key)
        if node is None:
            node = _new_node(cls, child._kinds)
            node.child = child
            _NODES[key] = node
        return node

    def children(self):
        return (self.child,)


class _BinOp(Formula):
    __slots__ = _fields = ("left", "right")

    def __new__(cls, left: Formula, right: Formula):
        key = (cls, left, right)
        node = _NODES.get(key)
        if node is None:
            node = _new_node(cls, left._kinds | right._kinds)
            node.left = left
            node.right = right
            _NODES[key] = node
        return node

    def children(self):
        return (self.left, self.right)


class And(_BinOp):
    __slots__ = ()


class Star(_BinOp):
    __slots__ = ()


class Wand(_BinOp):
    __slots__ = ()


ATOM_TYPES = (Emp, Truth, Falsum, Eq, PointsTo, Ls, Reach, ReachPlus)

for _i, _cls in enumerate(ATOM_TYPES + (Not, And, Star, Wand)):
    _cls._bit = 1 << _i
del _i, _cls


def kinds(*classes) -> int:
    """The mask of classes: f._kinds & kinds(C) is nonzero iff f has a C node."""
    return sum(c._bit for c in classes)


_WAND_BIT = Wand._bit
_ATOM_MASK = kinds(*ATOM_TYPES)

EMP = Emp()
TRUE = Truth()
FALSE = Falsum()


def f_or(*parts: Formula) -> Formula:
    """Disjunction, normalized to not/and."""
    if not parts:
        return FALSE
    if len(parts) == 1:
        return parts[0]
    acc = parts[0]
    for p in parts[1:]:
        acc = Not(And(Not(acc), Not(p)))
    return acc


def f_and(*parts: Formula) -> Formula:
    if not parts:
        return TRUE
    acc = parts[0]
    for p in parts[1:]:
        acc = And(acc, p)
    return acc


def f_implies(a: Formula, b: Formula) -> Formula:
    return Not(And(a, Not(b)))


def or_parts(f: Formula):
    """Recognize the normalized disjunction pattern not(not a /\\ not b)."""
    if (
        isinstance(f, Not)
        and isinstance(f.child, And)
        and isinstance(f.child.left, Not)
        and isinstance(f.child.right, Not)
    ):
        return f.child.left.child, f.child.right.child
    return None


def msize(f: Formula) -> int:
    """Memory-size measure: atoms count 1, /\\ takes max, * sums.

    not is transparent; -* (not covered by the measure in the source
    material) conservatively combines like /\\ so the measure stays total.
    """
    if f._msize is None:
        if isinstance(f, ATOM_TYPES):
            f._msize = 1
        elif isinstance(f, Not):
            f._msize = msize(f.child)
        elif isinstance(f, Star):
            f._msize = msize(f.left) + msize(f.right)
        elif isinstance(f, (And, Wand)):
            f._msize = max(msize(f.left), msize(f.right))
        else:  # pragma: no cover
            raise TypeError(f"unknown node {f!r}")
    return f._msize


def subformulas(f: Formula):
    yield f
    for c in f.children():
        yield from subformulas(c)


# ---------------------------------------------------------------------------
# Macro catalogue.  Every expansion is purely syntactic.
#
# The builders whose arguments are ints are cached: nodes are interned, so a
# cached call returns the very node a fresh build would, and an auxiliary
# predicate is registered on its node (special_form) by its build.  typed=True
# keeps 2.0 from hitting the entry of 2, so bad arguments are still rejected.
# ---------------------------------------------------------------------------

# Instances kept per builder.  The translations of the first-order corpus
# over two variables build 90 distinct instances over all builders, at most
# 34 of one (reach_eq), so the bound leaves room for larger translations.
_MACRO_CACHE_SIZE = 128
_cached = lru_cache(maxsize=_MACRO_CACHE_SIZE, typed=True)


def _nat(n, what="argument"):
    if not (isinstance(n, int) and n >= 0):
        raise ValueError(f"{what} must be a natural number, got {n!r}")
    return n


@_cached
def size_geq(beta: int) -> Formula:
    _nat(beta, "beta")
    f: Formula = TRUE
    for _ in range(beta):
        f = Star(f, Not(EMP))
    return f


@_cached
def size_leq(beta: int) -> Formula:
    _nat(beta, "beta")
    return Not(size_geq(beta + 1))


@_cached
def size_eq(beta: int) -> Formula:
    _nat(beta, "beta")
    return And(size_leq(beta), size_geq(beta))


def septraction(a: Formula, b: Formula) -> Formula:
    return Not(Wand(a, Not(b)))


@_cached
def alloc(x: int) -> Formula:
    return Wand(PointsTo(x, x), FALSE)


def mapsto(x: int, y: int) -> Formula:
    """Exact points-to: x ~> y and nothing else in the heap."""
    return And(PointsTo(x, y), size_eq(1))


def holds_on_cells(f: Formula, gamma: int) -> Formula:
    """Some subheap with exactly gamma cells satisfies f."""
    _nat(gamma, "gamma")
    return Star(And(size_eq(gamma), f), TRUE)


@_cached
def reach_eq(x: int, y: int, gamma: int) -> Formula:
    """The minimal path from x to y has length exactly gamma."""
    return holds_on_cells(Ls(x, y), gamma)


@_cached
def reach_leq(x: int, y: int, gamma: int) -> Formula:
    _nat(gamma, "gamma")
    return f_or(*[reach_eq(x, y, g) for g in range(gamma + 1)])


def special_form(f: Formula):
    """(name, args...) when f is one of the registered auxiliary-predicate
    expansions (alloc_inv, loop2, next_eq, next_pointsto).  The record lives
    on the node, so it goes when the node is collected, and the builder
    registers a rebuilt node again."""
    return f._special


@_cached
def alloc_inv(x: int, y: int) -> Formula:
    """x has a predecessor in the heap, valid whenever s(x) != s(y)."""
    inner = septraction(
        f_and(alloc(y), Not(PointsTo(y, x)), size_eq(1)),
        reach_eq(y, x, 2),
    )
    out = f_or(PointsTo(x, x), PointsTo(y, x), holds_on_cells(inner, 1))
    out._special = out._special or ("alloc_inv", x, y)
    return out


@_cached
def loop2(x: int, y: int) -> Formula:
    """x reaches itself in exactly two steps, valid whenever s(x) != s(y).

    The helper conjunct is the implication x ~> y => y ~> x, not the
    biconditional: y may legitimately point at x from outside a two-step
    loop that runs through a third location, and the converse direction
    would wrongly reject such states."""
    body = f_and(
        alloc(x),
        alloc_inv(x, y),
        Wand(TRUE, Not(reach_eq(x, y, 2))),
    )
    out = f_and(
        Not(PointsTo(x, x)),
        f_implies(PointsTo(x, y), PointsTo(y, x)),
        holds_on_cells(body, 2),
    )
    out._special = out._special or ("loop2", x, y)
    return out


@_cached
def next_eq(x: int, y: int) -> Formula:
    """h(s(x)) = h(s(y)), both allocated."""
    no_direct = f_and(
        Not(PointsTo(x, x)),
        Not(PointsTo(x, y)),
        Not(PointsTo(y, x)),
        Not(PointsTo(y, y)),
    )
    third = And(
        no_direct,
        Wand(TRUE, Not(And(reach_eq(x, y, 2), reach_eq(y, x, 2)))),
    )
    body = f_and(
        alloc(x),
        alloc(y),
        f_or(
            And(PointsTo(x, y), PointsTo(y, y)),
            And(PointsTo(y, x), PointsTo(x, x)),
            third,
        ),
    )
    out = And(f_implies(Not(Eq(x, y)), holds_on_cells(body, 2)), alloc(x))
    out._special = out._special or ("next_eq", x, y)
    return out


@_cached
def next_pointsto(x: int, y: int, z: int) -> Formula:
    """h(h(s(x))) = h(s(y)) with x and y allocated, valid when s(x) != s(z)
    and s(y) != s(z)."""
    eq_case = f_or(
        And(PointsTo(x, x), PointsTo(y, x)),
        And(PointsTo(y, y), PointsTo(x, y)),
        And(PointsTo(x, z), PointsTo(z, z)),
        holds_on_cells(
            f_and(alloc(x), Not(alloc_inv(x, z)), Wand(TRUE, Not(reach_leq(x, z, 3)))),
            2,
        ),
    )
    no_direct = f_and(
        Not(PointsTo(x, x)),
        Not(PointsTo(x, y)),
        Not(PointsTo(y, x)),
        Not(PointsTo(y, y)),
    )
    neq_case = f_or(
        And(PointsTo(x, y), alloc(y)),
        And(PointsTo(y, y), reach_eq(x, y, 2)),
        And(PointsTo(y, x), loop2(x, y)),
        holds_on_cells(
            f_and(
                alloc(x),
                alloc(y),
                no_direct,
                Not(reach_leq(x, y, 3)),
                septraction(
                    And(size_eq(1), alloc_inv(y, x)),
                    And(reach_eq(x, y, 3), loop2(y, x)),
                ),
            ),
            3,
        ),
    )
    out = f_or(
        And(next_eq(x, y), eq_case),
        And(Not(next_eq(x, y)), neq_case),
    )
    out._special = out._special or ("next_pointsto", x, y, z)
    return out


def safe(xs: Sequence[int]) -> Formula:
    """All listed variables distinct and without predecessors; the helper for
    each variable's predecessor test is its involution partner, so the list
    length must be even."""
    return _safe(*xs)


@_cached
def _safe(*xs: int) -> Formula:
    if len(xs) < 2 or len(xs) % 2 != 0:
        raise ValueError("safe expects an even number (>= 2) of variables")
    half = len(xs) // 2
    parts = []
    for i in range(len(xs)):
        for j in range(i + 1, len(xs)):
            parts.append(Not(Eq(xs[i], xs[j])))
    for i, x in enumerate(xs):
        partner = xs[(i + half) % len(xs)]
        parts.append(Not(alloc_inv(x, partner)))
    return f_and(*parts)


_MACROS = {
    "size_geq": (size_geq, ("nat",)),
    "size_leq": (size_leq, ("nat",)),
    "size_eq": (size_eq, ("nat",)),
    "septraction": (septraction, ("formula", "formula")),
    "alloc": (alloc, ("var",)),
    "mapsto": (mapsto, ("var", "var")),
    "bracket_gamma": (holds_on_cells, ("formula", "nat")),
    "reach_eq_gamma": (reach_eq, ("var", "var", "nat")),
    "reach_leq_gamma": (reach_leq, ("var", "var", "nat")),
    "alloc_inv": (alloc_inv, ("var", "var")),
    "loop2": (loop2, ("var", "var")),
    "next_eq": (next_eq, ("var", "var")),
    "next_pointsto": (next_pointsto, ("var", "var", "var")),
    "safe": (safe, ("varlist",)),
}


def expand_macro(name: str, args: Sequence) -> Formula:
    """Expand one catalogue macro to its defining formula."""
    if name not in _MACROS:
        raise ValueError(f"unknown macro {name!r}")
    fn, kinds = _MACROS[name]
    if kinds == ("varlist",):
        return fn(list(args))
    if len(args) != len(kinds):
        raise ValueError(f"macro {name} expects {len(kinds)} arguments, got {len(args)}")
    checked = []
    for a, kind in zip(args, kinds):
        if kind == "var":
            checked.append(_check_var(a))
        elif kind == "nat":
            checked.append(_nat(a))
        else:
            if not isinstance(a, Formula):
                raise ValueError(f"macro {name} expects a formula argument")
            checked.append(a)
    return fn(*checked)


# ---------------------------------------------------------------------------
# Atom maps: reachability-predicate rewriting and variable renaming.
# ---------------------------------------------------------------------------

def map_atoms(f: Formula, atom, special=None, touched: int = _ATOM_MASK) -> Formula:
    """f with every atom g replaced by atom(g) and the connectives above it
    rebuilt.  When special is given, a registered auxiliary predicate (see
    special_form) is not descended into: it becomes special(name, *args),
    so a rename can rebuild it through its macro and keep it registered.
    A subtree with no atom in the kinds mask touched is returned as it is."""

    def go(g: Formula) -> Formula:
        if not g._kinds & touched:
            return g
        if special is not None:
            spec = special_form(g)
            if spec is not None:
                return special(*spec)
        if isinstance(g, Not):
            return Not(go(g.child))
        if isinstance(g, _BinOp):
            return type(g)(go(g.left), go(g.right))
        return atom(g)

    return go(f)


def rewrite_reach(f: Formula, target: str) -> Formula:
    """Rewrite ls/reach/reach+ atoms so only the target predicate remains.

    Targets "ls" and "reach" cannot absorb reach+ atoms (reach+(x,x), a loop
    through x, has no ls/reach counterpart; the interdefinability only goes
    toward reach+), so those raise ValueError on reach+ input.
    """
    if target not in ("ls", "reach", "reachplus"):
        raise ValueError(f"unknown target {target!r}")

    def atom(g: Formula) -> Formula:
        if isinstance(g, Ls):
            x, y = g.x, g.y
            if target == "ls":
                return g
            if target == "reach":
                return And(Reach(x, y), Not(Star(Not(EMP), Reach(x, y))))
            # the x != y guard matters: on x = y the second disjunct would
            # wrongly accept a loop through the shared location
            return f_or(
                And(Eq(x, y), EMP),
                f_and(
                    Not(Eq(x, y)),
                    ReachPlus(x, y),
                    Not(Star(Not(EMP), ReachPlus(x, y))),
                ),
            )
        if isinstance(g, Reach):
            x, y = g.x, g.y
            if target == "reach":
                return g
            if target == "ls":
                return Star(TRUE, Ls(x, y))
            return f_or(Eq(x, y), ReachPlus(x, y))
        if isinstance(g, ReachPlus) and target != "reachplus":
            raise ValueError(
                "reach+ atoms cannot be rewritten into ls/reach only"
            )
        return g

    touched = kinds(Ls, Reach) if target == "reachplus" else kinds(Ls, Reach, ReachPlus)
    return map_atoms(f, atom, touched=touched)


# ---------------------------------------------------------------------------
# Fragment classification.
# ---------------------------------------------------------------------------

class Fragment(Enum):
    SL_STAR = "SL_STAR"
    SL_STAR_WAND = "SL_STAR_WAND"
    SL_STAR_REACHPLUS = "SL_STAR_REACHPLUS"
    SL_STAR_WAND_LS = "SL_STAR_WAND_LS"
    BOOL_SHF = "BOOL_SHF"
    BOOLCOMB = "BOOLCOMB"
    NONE = "NONE"


def _atoms_within(f: Formula, allowed: int) -> bool:
    return not f._kinds & _ATOM_MASK & ~allowed


_SL_STAR_ATOMS = kinds(Emp, Truth, Falsum, Eq, PointsTo)


def in_sl_star(f: Formula) -> bool:
    return f.wand_free and _atoms_within(f, _SL_STAR_ATOMS)


def in_sl_star_wand(f: Formula) -> bool:
    return _atoms_within(f, _SL_STAR_ATOMS)


def in_sl_star_wand_ls(f: Formula) -> bool:
    return _atoms_within(f, _SL_STAR_ATOMS | kinds(Ls))


def in_sl_star_reachplus(f: Formula) -> bool:
    """Wand-free formulae; ls/reach atoms count since rewrite_reach turns
    them into reach+ form."""
    return f.wand_free


def strictly_in_sl_star_reachplus(f: Formula) -> bool:
    """Literal SL(*, reach+) syntax: no ls or reach atoms at all."""
    return f.wand_free and _atoms_within(f, _SL_STAR_ATOMS | kinds(ReachPlus))


def _is_mapsto_pattern(f: Formula) -> bool:
    return (
        isinstance(f, And)
        and isinstance(f.left, PointsTo)
        and f.right == size_eq(1)
    )


def _is_pure(f: Formula) -> bool:
    if isinstance(f, (Truth, Falsum, Eq)):
        return True
    if isinstance(f, Not) and isinstance(f.child, Eq):
        return True
    if isinstance(f, And):
        return _is_pure(f.left) and _is_pure(f.right)
    return False


def _is_spatial(f: Formula) -> bool:
    if isinstance(f, (Emp, Truth, Ls)):
        return True
    if _is_mapsto_pattern(f):
        return True
    if isinstance(f, Star):
        return _is_spatial(f.left) and _is_spatial(f.right)
    return False


def _is_shf(f: Formula) -> bool:
    """A symbolic-heap formula: pure /\\ spatial, with either side optional."""
    if _is_pure(f) or _is_spatial(f):
        return True
    if isinstance(f, And) and not _is_mapsto_pattern(f):
        l, r = f.left, f.right
        return (
            (_is_pure(l) and _is_shf(r))
            or (_is_shf(l) and _is_pure(r))
            or (_is_pure(l) and _is_spatial(r))
            or (_is_spatial(l) and _is_pure(r))
        )
    return False


def in_bool_shf(f: Formula) -> bool:
    if _is_shf(f):
        return True
    if isinstance(f, Not):
        return in_bool_shf(f.child)
    if isinstance(f, And):
        return in_bool_shf(f.left) and in_bool_shf(f.right)
    return False


def _is_boolcomb_member(f: Formula) -> bool:
    return in_sl_star_wand(f) or strictly_in_sl_star_reachplus(f)


def boolcomb_parts(f: Formula):
    """The maximal SL(*,-*) and SL(*,reach+) parts of f, left to right, when
    f is a Boolean combination of such formulae; None otherwise."""
    parts, todo = [], [f]
    while todo:
        g = todo.pop()
        if _is_boolcomb_member(g):
            parts.append(g)
        elif isinstance(g, Not):
            todo.append(g.child)
        elif isinstance(g, And):
            todo += (g.right, g.left)
        else:
            return None
    return parts


def in_boolcomb(f: Formula) -> bool:
    """Proper Boolean combination of SL(*,-*) and SL(*,reach+) formulae:
    combinations wholly inside one of the two fragments are reported under
    that fragment instead."""
    return boolcomb_parts(f) is not None and not _is_boolcomb_member(f)


def classify(f: Formula) -> FrozenSet[Fragment]:
    out = set()
    if in_sl_star(f):
        out.add(Fragment.SL_STAR)
    if in_sl_star_wand(f):
        out.add(Fragment.SL_STAR_WAND)
    if in_sl_star_reachplus(f):
        out.add(Fragment.SL_STAR_REACHPLUS)
    if in_sl_star_wand_ls(f):
        out.add(Fragment.SL_STAR_WAND_LS)
    if in_bool_shf(f):
        out.add(Fragment.BOOL_SHF)
    if in_boolcomb(f):
        out.add(Fragment.BOOLCOMB)
    if not out:
        out.add(Fragment.NONE)
    return frozenset(out)
