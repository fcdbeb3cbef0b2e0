"""First-order separation logic with the separating implication, its
translation into the propositional logic, and the state-encoding relation.

The translation maps a first-order formula over x1..xq to a propositional
formula over x1..x2q: the extra variables x(q+1)..x2q are the involution
partners used to carry values of free variables across a separating
implication.  Quantification becomes a bounded allocation pattern guarded by
the safety formula (all 2q encoder locations distinct and predecessor-free);
equality and points-to become the successor predicates on encoder cells.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, List, Optional, Tuple

from . import parser as P
from . import syntax as S
from .heaps import Heap, MemoryState, canonical_labelling, extensions, fresh_locations
from .semantics import WandPolicy


# ---------------------------------------------------------------------------
# First-order AST: atoms =, ~>, connectives not/or/-*, universal quantifier.
# ---------------------------------------------------------------------------

class FOFormula:
    __slots__ = ("_hash",)

    def children(self) -> Tuple["FOFormula", ...]:
        return ()

    def _key(self):
        raise NotImplementedError

    def __eq__(self, other):
        return type(self) is type(other) and self._key() == other._key()

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((type(self).__name__, self._key()))
        return self._hash


class FOEq(FOFormula):
    __slots__ = ("x", "y")

    def __init__(self, x: int, y: int):
        self._hash = None
        self.x, self.y = x, y

    def _key(self):
        return (self.x, self.y)


class FOPointsTo(FOFormula):
    __slots__ = ("x", "y")

    def __init__(self, x: int, y: int):
        self._hash = None
        self.x, self.y = x, y

    def _key(self):
        return (self.x, self.y)


class FONot(FOFormula):
    __slots__ = ("child",)

    def __init__(self, child: FOFormula):
        self._hash = None
        self.child = child

    def children(self):
        return (self.child,)

    def _key(self):
        return (self.child,)


class FOOr(FOFormula):
    __slots__ = ("left", "right")

    def __init__(self, left: FOFormula, right: FOFormula):
        self._hash = None
        self.left, self.right = left, right

    def children(self):
        return (self.left, self.right)

    def _key(self):
        return (self.left, self.right)


class FOWand(FOFormula):
    __slots__ = ("left", "right")

    def __init__(self, left: FOFormula, right: FOFormula):
        self._hash = None
        self.left, self.right = left, right

    def children(self):
        return (self.left, self.right)

    def _key(self):
        return (self.left, self.right)


class FOForall(FOFormula):
    __slots__ = ("var", "body")

    def __init__(self, var: int, body: FOFormula):
        self._hash = None
        self.var, self.body = var, body

    def children(self):
        return (self.body,)

    def _key(self):
        return (self.var, self.body)


def fo_and(a: FOFormula, b: FOFormula) -> FOFormula:
    return FONot(FOOr(FONot(a), FONot(b)))


def fo_implies(a: FOFormula, b: FOFormula) -> FOFormula:
    return FOOr(FONot(a), b)


def free_vars(f: FOFormula) -> FrozenSet[int]:
    if isinstance(f, (FOEq, FOPointsTo)):
        return frozenset((f.x, f.y))
    if isinstance(f, FOForall):
        return free_vars(f.body) - {f.var}
    out: frozenset = frozenset()
    for c in f.children():
        out |= free_vars(c)
    return out


def bound_vars(f: FOFormula) -> List[int]:
    out: List[int] = []

    def go(g):
        if isinstance(g, FOForall):
            out.append(g.var)
        for c in g.children():
            go(c)

    go(f)
    return out


def validate_quantifiers(f: FOFormula) -> None:
    """Distinct quantifications bind distinct variables, none of them free."""
    bs = bound_vars(f)
    if len(bs) != len(set(bs)):
        raise ValueError("distinct quantifications must bind distinct variables")
    if set(bs) & free_vars(f):
        raise ValueError("a bound variable also occurs free")


def quantifier_depth(f: FOFormula) -> int:
    if isinstance(f, FOForall):
        return 1 + quantifier_depth(f.body)
    return max((quantifier_depth(c) for c in f.children()), default=0)


def fo_to_text(f: FOFormula) -> str:
    if isinstance(f, FOEq):
        return f"x{f.x} = x{f.y}"
    if isinstance(f, FOPointsTo):
        return f"x{f.x} ~> x{f.y}"
    if isinstance(f, FONot):
        return f"not ({fo_to_text(f.child)})"
    if isinstance(f, FOOr):
        return f"({fo_to_text(f.left)}) \\/ ({fo_to_text(f.right)})"
    if isinstance(f, FOWand):
        return f"({fo_to_text(f.left)}) -* ({fo_to_text(f.right)})"
    if isinstance(f, FOForall):
        return f"forall x{f.var} . ({fo_to_text(f.body)})"
    raise TypeError(f)


class _FOParser(P._Parser):
    def wand(self) -> FOFormula:
        tok = self.peek()
        if tok[0] == "kw" and tok[1] == "forall":
            self.next()
            v = self.var()
            self.expect("op", ".")
            return FOForall(v, self.wand())
        left = self.imp()
        if self.at_op("-*"):
            self.next()
            return FOWand(left, self.wand())
        return left

    def imp(self) -> FOFormula:
        left = self.or_()
        if self.at_op("=>"):
            self.next()
            return fo_implies(left, self.imp())
        return left

    def or_(self) -> FOFormula:
        left = self.and_()
        while self.at_op("\\/"):
            self.next()
            left = FOOr(left, self.and_())
        return left

    def and_(self) -> FOFormula:
        left = self.unary()
        while self.at_op("/\\"):
            self.next()
            left = fo_and(left, self.unary())
        return left

    def unary(self) -> FOFormula:
        tok = self.peek()
        if tok[0] == "kw" and tok[1] == "not":
            self.next()
            return FONot(self.unary())
        return self.atom()

    def atom(self) -> FOFormula:
        tok = self.next()
        kind, val, pos = tok
        if kind == "op" and val == "(":
            f = self.wand()
            self.expect("op", ")")
            return f
        if kind == "kw" and val == "forall":
            self.i -= 1
            return self.wand()
        if kind == "var":
            x = int(val[1:])
            op = self.next()
            if op[0] != "op" or op[1] not in ("=", "~>"):
                raise P.ParseError("expected = or ~> after variable", op[2])
            y = self.var()
            return FOEq(x, y) if op[1] == "=" else FOPointsTo(x, y)
        raise P.ParseError(f"unexpected token {val or 'end of input'!r}", pos)


def parse_fo(text: str) -> FOFormula:
    p = _FOParser(P.tokenize(text), len(text))
    f = p.wand()
    tok = p.peek()
    if tok[0] != "eof":
        raise P.ParseError(f"trailing input {tok[1]!r}", tok[2])
    validate_quantifiers(f)
    return f


# ---------------------------------------------------------------------------
# The translation.
# ---------------------------------------------------------------------------

class EncodingContext:
    """q source variables, the 2q translation variables with the involution
    bar(xi) = x(i+q), and the set Z of currently encoded free variables."""

    def __init__(self, q: int, Z: Iterable[int] = ()):
        if q < 1:
            raise ValueError("q must be >= 1")
        self.q = q
        self.X = list(range(1, 2 * q + 1))
        self.Z = frozenset(Z)
        if not self.Z <= set(range(1, q + 1)):
            raise ValueError("Z must be a subset of x1..xq")

    def bar(self, i: int) -> int:
        if not 1 <= i <= 2 * self.q:
            raise ValueError(f"x{i} outside the translation variables")
        return i + self.q if i <= self.q else i - self.q


def safe_formula(ctx: EncodingContext) -> S.Formula:
    return S.safe(ctx.X)


def translate(psi: FOFormula, ctx: EncodingContext) -> S.Formula:
    """The propositional encoding: homomorphic on Boolean connectives,
    equality and points-to become successor predicates (with the helper
    variable instantiated to the involution partner), the universal
    quantifier becomes a single-cell allocation wand, and the separating
    implication re-encodes the free variables of its left argument through
    the partner variables."""
    validate_quantifiers(psi)
    if not free_vars(psi) <= ctx.Z:
        raise ValueError("free variables of the formula must lie within Z")
    if set(bound_vars(psi)) & ctx.Z:
        raise ValueError("a quantified variable collides with Z")
    return _translate(psi, ctx)


def _translate(psi: FOFormula, ctx: EncodingContext) -> S.Formula:
    if isinstance(psi, FOEq):
        return S.next_eq(psi.x, psi.y)
    if isinstance(psi, FOPointsTo):
        return S.next_pointsto(psi.x, psi.y, ctx.bar(psi.x))
    if isinstance(psi, FONot):
        return S.Not(_translate(psi.child, ctx))
    if isinstance(psi, FOOr):
        return S.f_or(_translate(psi.left, ctx), _translate(psi.right, ctx))
    if isinstance(psi, FOForall):
        body = _translate(psi.body, ctx)
        return S.Wand(
            S.And(S.alloc(psi.var), S.size_eq(1)),
            S.f_implies(safe_formula(ctx), body),
        )
    if isinstance(psi, FOWand):
        Z1 = sorted(free_vars(psi.left))
        left_parts: List[S.Formula] = [S.alloc(ctx.bar(z)) for z in Z1]
        left_parts += [
            S.Not(S.alloc(ctx.bar(v))) for v in ctx.X if v not in Z1
        ]
        left_parts.append(safe_formula(ctx))
        # the left argument, renamed by the involution
        bar = ctx.bar
        left_parts.append(S.map_atoms(
            _translate(psi.left, ctx),
            lambda a: type(a)(bar(a.x), bar(a.y)) if isinstance(a, S._BinAtom) else a,
            lambda name, *args: S.expand_macro(name, [bar(v) for v in args]),
        ))
        guard = S.f_and(
            *[S.next_eq(z, ctx.bar(z)) for z in Z1], safe_formula(ctx)
        )
        pinned = S.f_and(*[S.alloc(ctx.bar(z)) for z in Z1], S.size_eq(len(Z1)))
        right = S.f_implies(
            guard, S.Star(pinned, _translate(psi.right, ctx))
        )
        return S.Wand(S.f_and(*left_parts), right)
    raise TypeError(f"unknown node {psi!r}")


def encode_sat(psi: FOFormula, q: Optional[int] = None) -> S.Formula:
    """The equisatisfiable propositional formula for a closed psi."""
    if free_vars(psi):
        raise ValueError("the formula must be closed")
    if q is None:
        q = max(bound_vars(psi), default=1)
    ctx = EncodingContext(q)
    init = S.f_and(*[S.Not(S.alloc(i)) for i in ctx.X])
    return S.f_and(init, safe_formula(ctx), _translate(psi, ctx))


def encode_val(psi: FOFormula, q: Optional[int] = None) -> S.Formula:
    """The equivalid propositional formula for a closed psi."""
    if free_vars(psi):
        raise ValueError("the formula must be closed")
    if q is None:
        q = max(bound_vars(psi), default=1)
    ctx = EncodingContext(q)
    init = S.f_and(*[S.Not(S.alloc(i)) for i in ctx.X])
    return S.f_implies(S.And(init, safe_formula(ctx)), _translate(psi, ctx))


# ---------------------------------------------------------------------------
# State encoding: the semantic counterpart of the translation.
# ---------------------------------------------------------------------------

def encode_state(
    m1: MemoryState, targets: Dict[int, int], Z: Iterable[int]
) -> MemoryState:
    """The state over x1..x2q encoding m1: the store moves every translation
    variable to its target location, and the heap gains one encoder cell
    target(z) -> s1(z) per z in Z."""
    Z = frozenset(Z)
    q = m1.q
    if set(targets) != set(range(1, 2 * q + 1)):
        raise ValueError("targets must cover exactly x1..x2q")
    if not Z <= set(range(1, q + 1)):
        raise ValueError("Z must be a subset of x1..xq")
    vals = list(targets.values())
    if len(set(vals)) != len(vals):
        raise ValueError("target locations must be pairwise distinct")
    if set(vals) & m1.locations():
        raise ValueError("target locations collide with the source state")
    encoder = Heap({targets[z]: m1.store[z] for z in Z})
    return MemoryState(2 * q, dict(targets), m1.heap + encoder)


def default_targets(m1: MemoryState) -> Dict[int, int]:
    """Smallest fresh locations above the source state."""
    locs = fresh_locations(m1.locations(), 2 * m1.q)
    return {i + 1: locs[i] for i in range(2 * m1.q)}


# ---------------------------------------------------------------------------
# Direct first-order evaluation with bounded quantification.
# ---------------------------------------------------------------------------

_FO_MEMO: Dict[tuple, bool] = {}


def clear_fo_memo():
    _FO_MEMO.clear()


def _fo_must_alloc(f: FOFormula, store) -> frozenset:
    if isinstance(f, FOPointsTo):
        return frozenset((store[f.x],))
    if isinstance(f, FONot) and isinstance(f.child, FOOr):
        # normalized conjunction
        l, r = f.child.left, f.child.right
        if isinstance(l, FONot) and isinstance(r, FONot):
            return _fo_must_alloc(l.child, store) | _fo_must_alloc(r.child, store)
    return frozenset()


class _FOEval:
    __slots__ = ("fresh", "policy")

    def __init__(self, fresh: int, policy: WandPolicy):
        self.fresh = fresh
        self.policy = policy

    def ev(self, store: dict, heap: dict, f: FOFormula) -> bool:
        if isinstance(f, FOEq):
            return store[f.x] == store[f.y]
        if isinstance(f, FOPointsTo):
            return heap.get(store[f.x]) == store[f.y]
        if isinstance(f, FONot):
            return not self.ev(store, heap, f.child)
        if isinstance(f, FOOr):
            return self.ev(store, heap, f.left) or self.ev(store, heap, f.right)
        if isinstance(f, FOForall):
            return self._forall(store, heap, f)
        if isinstance(f, FOWand):
            return self._wand(store, heap, f)
        raise TypeError(f"unknown node {f!r}")

    def _memo_key(self, store, heap, f):
        """f's memo key on the state, and the state's relabelling."""
        values = tuple(store[v] for v in sorted(free_vars(f)))
        state, lab = canonical_labelling(values, heap)
        return (f, self.fresh, self.policy, state), lab

    def _forall(self, store, heap, f: FOForall) -> bool:
        key, lab = self._memo_key(store, heap, f)
        hit = _FO_MEMO.get(key)
        if hit is not None:
            return hit
        relevant = sorted(lab)
        universe = relevant + fresh_locations(relevant, self.fresh)
        inner = dict(store)
        result = True
        for l in universe:
            inner[f.var] = l
            if not self.ev(inner, heap, f.body):
                result = False
                break
        _FO_MEMO[key] = result
        return result

    def _wand(self, store, heap, f: FOWand) -> bool:
        if self.policy.mode == "forbid":
            raise ValueError("formula contains -* but the policy forbids it")
        if any(l in heap for l in _fo_must_alloc(f.left, store)):
            return True
        key, lab = self._memo_key(store, heap, f)
        hit = _FO_MEMO.get(key)
        if hit is not None:
            return hit
        relevant = sorted(lab)
        fresh = fresh_locations(relevant, self.policy.fresh_locations)
        universe = relevant + fresh
        result = True
        base = Heap(heap)
        for h1 in extensions(base, universe, self.policy.cell_bound):
            if not self.ev(store, dict(h1.cells), f.left):
                continue
            union = dict(heap)
            union.update(h1.cells)
            if not self.ev(store, union, f.right):
                result = False
                break
        _FO_MEMO[key] = result
        return result


def check_fo(
    m: MemoryState,
    psi: FOFormula,
    fresh: int = 2,
    policy: WandPolicy = WandPolicy(),
) -> bool:
    """Evaluate psi on m with universal quantifiers ranging over the relevant
    locations plus `fresh` canonical fresh ones; exact for -*-free psi when
    fresh >= quantifier depth + 1."""
    fv = free_vars(psi)
    if fv and max(fv) > m.q:
        raise ValueError(f"free variable x{max(fv)} outside x1..x{m.q}")
    ev = _FOEval(fresh, policy)
    store = dict(m.store)
    for b in bound_vars(psi):
        store.setdefault(b, 0)
    return ev.ev(store, dict(m.heap.cells), psi)
