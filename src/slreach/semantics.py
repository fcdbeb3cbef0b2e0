"""The satisfaction relation.

check_exact is sound and complete for -*-free formulae.  check additionally
evaluates -* by enumerating heap extensions over the relevant locations plus
a policy-controlled supply of fresh ones, up to a policy-controlled cell
bound: refutations found this way are definitive, exhaustion is reported as
"true, not exact".

Special cases, each keeping the enumeration's verdicts, with what turning
it off alone costs (a "round" is one in-process round of the benchmark
workload named, seed 1):

* alloc(x) = (x ~> x) -* false is decided as "s(x) allocated", exactly, when
  the cell bound is at least 1, which is what the scan returns (the witness
  {s(x): s(x)} refutes it otherwise); with bound 0 it is scanned.
* Wand results are memoized under the complete canonical relabelling of
  the state (heaps.canonical_labelling: isomorphic states, which satisfy
  the same formulae, share one entry): a raw key takes the wand round from
  2.3 s to 6.1 s.
* Fresh locations enter an extension in rank order (no permutation twins),
  and * on wand-free sides splits per constraint block (cells grouped by the
  variable cells and minimal variable-to-variable paths they lie on).
* Every * gives each side the cells it must allocate and splits the others
  (_split), with -* in a side at cell bound >= 1 only: a translation round
  takes 0.52 s of CPU, not 0.44 s, without it for such sides, and
  (x1 ~> x2) -* (x1 ~> x2) on its slowest state 0.17 s, not 0.06 s.
* Each * side is summarized once (_footprint: sizes, must-allocated cells,
  no model at all) through false, false (dis)equalities, ls(x, x) (emp
  only), not not, disjunctions and wand-free * sides sharing a must cell;
  the -* scan reads it plain.  Read plain by * too, a sat round takes 0.40 s
  of CPU, not 0.18 s (medians of 15 rounds).
* policy.macro_shortcuts evaluates the auxiliary predicates by their
  characterizations (_shortcut): without it the translation round takes
  150 s, not 0.94 s, with 1181 inexact results instead of 486.
* Conjuncts of the wand's left side and negated right side constrain every
  counterexample (_conjunct_facts): not alloc(x) bans s(x) as a source
  (without it, not alloc(x1) -* not (x1 ~> x2) is exact on 208, not 1184,
  of all_states(2, range(4), 2)); not alloc_inv(x, y) bans s(x) as a
  target (translation round 1.6 s); next_eq pins a successor (8.6 s).
  Each candidate is checked only on the conjuncts of the left side that
  these facts leave open (translation round 0.73 s of CPU, not 0.44 s; the
  slowest state above 0.2 s).
* true -* not psi with psi a monotone bracket pattern is decided from psi's
  minimal witnesses (_certificates; wand round 4.4 s of CPU, not 2.1 s).  A
  refutation is exact; so is "true" when no witness agrees with the heap
  and psi has no path bracket (ls under size = gamma) with gamma >= 2, the
  one pattern whose witnesses depend on the scanned locations; "true" from
  a witness that needs more cells than the bound is inexact.  For other
  extension-monotone psi, _witness_need caps the extension size (33 of
  4000 random -* checks lose their exact flag without it).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Dict, NamedTuple, Optional, Tuple

from . import syntax as S
from .heaps import Heap, MemoryState, canonical_labelling, fresh_locations


class WandForbiddenError(ValueError):
    pass


@dataclass(frozen=True)
class WandPolicy:
    mode: str = "bounded"  # "forbid" | "bounded"
    cell_bound: int = 4
    fresh_locations: int = 4
    # evaluate the registered auxiliary predicates (alloc_inv, loop2,
    # next_eq, next_pointsto) by their proven characterizations instead of
    # expanding their -* structure; requires a budget under which the two
    # agree, so it is opt-in
    macro_shortcuts: bool = False

    def __post_init__(self):
        if self.mode not in ("forbid", "bounded"):
            raise ValueError(f"unknown policy mode {self.mode!r}")
        if self.mode == "bounded" and (self.cell_bound < 0 or self.fresh_locations < 1):
            raise ValueError("bounded mode needs cell_bound >= 0 and fresh_locations >= 1")
        if self.macro_shortcuts and self.mode == "bounded" and (
            self.cell_bound < 3 or self.fresh_locations < 2
        ):
            raise ValueError("macro shortcuts need cell_bound >= 3 and fresh >= 2")


FORBID = WandPolicy("forbid", 0, 1)


class CheckResult(NamedTuple):
    truth: bool
    exact: bool


_INF = float("inf")  # open upper bound in size intervals


def _size_geq_value(f: S.Formula) -> Optional[int]:
    """k when f is structurally the expansion of size >= k, else None."""
    k = 0
    while (
        isinstance(f, S.Star)
        and isinstance(f.right, S.Not)
        and isinstance(f.right.child, S.Emp)
    ):
        k += 1
        f = f.left
    return k if isinstance(f, S.Truth) else None


def _same(f, store) -> bool:
    """Whether atom f's variables are one location: one variable, or equal
    under store."""
    return f.x == f.y or (store is not None and store[f.x] == store[f.y])


_ATOMS = frozenset(S.ATOM_TYPES)
_NONE = frozenset()
_ANY = (0, _INF, _NONE)
_UNSAT = (1, 0, _NONE)  # an empty interval: no model


def _footprint(f: S.Formula, store, plain: bool = False):
    """(lo, hi, must): every model of f under store has lo <= |dom| <= hi
    and allocates every location of must; lo > hi when f has none.  With
    store None must is empty and only store-free facts are read.  plain
    reads sizes and cells through /\\ and * only, as the -* scan always has:
    the sharper facts would make inexact -* answers exact, and change some
    at cell bound 0, where alloc(x) holds unscanned."""
    t = type(f)
    spec = None if t in _ATOMS or store is None or f.wand_free else S.special_form(f)
    if spec is not None:
        # the cells the characterizations read: loop2(x, y) is a two-cell
        # loop through s(x); next_eq and next_pointsto read h(s(x)), h(s(y))
        if spec[0] == "alloc_inv":
            return _ANY
        if spec[0] == "loop2":
            return (2, _INF, frozenset((store[spec[1]],)))
        return (0, _INF, frozenset((store[spec[1]], store[spec[2]])))
    if t is S.And or t is S.Star:
        l1, h1, m1 = _footprint(f.left, store, plain)
        l2, h2, m2 = _footprint(f.right, store, plain)
        if t is S.And:
            return (max(l1, l2), min(h1, h2), m1 | m2)
        # a wand-free * cannot give a must-allocated cell to both sides (the
        # allocation patterns' cells hold only when alloc(x) is decided)
        if not plain and (l1 > h1 or l2 > h2 or (m1 & m2 and f.wand_free)):
            return _UNSAT
        return (l1 + l2, h1 + h2, m1 | m2)
    if t is S.Not:
        g, parts = f.child, None if plain else S.or_parts(f)
        if type(g) is S.Not and not plain:
            return _footprint(g.child, store)
        if parts is not None:  # a disjunction; a side without models drops out
            a, b = _footprint(parts[0], store), _footprint(parts[1], store)
            if a[0] > a[1] or b[0] > b[1]:
                return b if a[0] > a[1] else a
            return (min(a[0], b[0]), max(a[1], b[1]), a[2] & b[2])
        if type(g) is S.Eq and not plain:
            return _UNSAT if _same(g, store) else _ANY
        if type(g) is S.Emp:
            return (1, _INF, _NONE)
        v = _size_geq_value(g)
        return _ANY if v is None else (0, v - 1, _NONE) if v >= 1 else _UNSAT
    if t is S.Eq:
        return _ANY if plain or store is None or _same(f, store) else _UNSAT
    if t is S.Emp or t is S.Falsum:
        return (0, 0, _NONE) if t is S.Emp else _UNSAT
    if t is S.Ls and not plain and _same(f, store):
        return (0, 0, _NONE)  # ls(x, x) holds only on emp
    if (t is S.Ls or t is S.Reach) and (store is None or _same(f, store)):
        return _ANY
    if t in (S.PointsTo, S.ReachPlus, S.Ls, S.Reach):
        return (1, _INF, _NONE if store is None else frozenset((store[f.x],)))
    x = _alloc_pattern(f)
    return _ANY if x is None or store is None else (0, _INF, frozenset((store[x],)))


def _split(store, heap, f: S.Star, musts: bool):
    """(lower, upper, must_l, must_r): the left part's size range and the
    cells each side must take (a side lacking one is false) when heap splits
    for f; None when no split can do.  musts False reads sizes only."""
    n = len(heap)
    lo_l, hi_l, must_l = _footprint(f.left, store)
    lo_r, hi_r, must_r = _footprint(f.right, store)
    if not musts:
        must_l = must_r = _NONE
    lower, upper = max(lo_l, n - hi_r), min(hi_l, n - lo_r)
    if lower > upper or must_l & must_r or any(l not in heap for l in must_l | must_r):
        return None
    return lower, upper, must_l, must_r


def _alloc_pattern(f: S.Formula) -> Optional[int]:
    """x when f is the allocation formula (x ~> x) -* false."""
    if (
        isinstance(f, S.Wand)
        and isinstance(f.left, S.PointsTo)
        and f.left.x == f.left.y
        and isinstance(f.right, S.Falsum)
    ):
        return f.left.x
    return None


def _conjuncts(f: S.Formula) -> list:
    """The conjuncts of f's top and-chain, left to right.  A registered
    auxiliary predicate is one conjunct, even when its expansion is an and."""
    out, todo = [], [f]
    while todo:
        g = todo.pop()
        if isinstance(g, S.And) and S.special_form(g) is None:
            todo += (g.right, g.left)
        else:
            out.append(g)
    return out


def _conjunct_facts(f: S.Formula, store, policy: WandPolicy):
    """Read off f's conjuncts: locations unallocated (not alloc(x)), without
    a predecessor (not alloc_inv(x, y), valid when s(x) != s(y)), the pairs
    (s(x), s(y)) of the next_eq(x, y) conjuncts, and the conjuncts a -* scan
    with left side f must check.  The rest hold exactly on every candidate:
    alloc(x) (s(x) forced or pinned) and not alloc(x) (banned as a source)
    at cell bound >= 1, not alloc_inv(x, y) under macro shortcuts (s(x)
    banned as a target), and store-only (dis)equalities that hold."""
    decided = policy.cell_bound >= 1
    no_alloc, no_pred, next_eqs, open_ = set(), set(), [], []
    for g in _conjuncts(f):
        t = type(g)
        if t is S.Not:
            c = g.child
            x, spec = _alloc_pattern(c), S.special_form(c)
            if x is not None:
                no_alloc.add(store[x])
                if decided:
                    continue
            elif spec and spec[0] == "alloc_inv" and store[spec[1]] != store[spec[2]]:
                no_pred.add(store[spec[1]])
                if policy.macro_shortcuts:
                    continue
            elif type(c) is S.Eq and not _same(c, store):
                continue
        elif (t is S.Eq and _same(g, store)) or (decided and _alloc_pattern(g) is not None):
            continue
        else:
            spec = S.special_form(g)
            if spec and spec[0] == "next_eq":
                next_eqs.append((store[spec[1]], store[spec[2]]))
        open_.append(g)
    return no_alloc, no_pred, next_eqs, open_


def _size_eq_value(f: S.Formula) -> Optional[int]:
    """gamma when f is structurally the expansion of size = gamma."""
    if isinstance(f, S.And) and isinstance(f.left, S.Not):
        hi = _size_geq_value(f.left.child)
        lo = _size_geq_value(f.right)
        if hi is not None and lo is not None and hi == lo + 1:
            return lo
    return None


def _bracket_gamma(f: S.Formula) -> Optional[int]:
    """gamma when f is the path bracket (size = gamma /\\ ls(x, y)) * true."""
    g = f.left if type(f) is S.Star and type(f.right) is S.Truth else None
    return _size_eq_value(g.left) if type(g) is S.And and type(g.right) is S.Ls else None


def _certificates(f: S.Formula, store, universe) -> Optional[list]:
    """Minimal-witness heaps for the monotone bracket patterns: f holds on g
    iff some certificate is a subheap of g.  None when f is outside the
    recognized class (plain equalities, points-to, exact-path brackets and
    their and/or combinations)."""
    if isinstance(f, S.Truth):
        return [{}]
    if isinstance(f, S.Eq):
        return [{}] if store[f.x] == store[f.y] else []
    if isinstance(f, S.PointsTo):
        return [{store[f.x]: store[f.y]}]
    parts = S.or_parts(f)
    if parts is not None:
        ca = _certificates(parts[0], store, universe)
        cb = _certificates(parts[1], store, universe)
        if ca is None or cb is None:
            return None
        return ca + cb
    if isinstance(f, S.And):
        ca = _certificates(f.left, store, universe)
        cb = _certificates(f.right, store, universe)
        if ca is None or cb is None:
            return None
        out = []
        for a in ca:
            for b in cb:
                if all(a[l] == b[l] for l in a.keys() & b.keys()):
                    merged = dict(a)
                    merged.update(b)
                    out.append(merged)
        return out
    gamma = _bracket_gamma(f)
    if gamma is not None:
        a, b = store[f.left.right.x], store[f.left.right.y]
        if gamma == 0:
            return [{}] if a == b else []
        if a == b:
            return []
        out = []

        def paths(prefix):
            if len(prefix) == gamma:
                if b not in prefix:
                    out.append(
                        {p: q for p, q in zip(prefix, prefix[1:] + [b])}
                    )
                return
            for l in universe:
                if l != b and l not in prefix:
                    paths(prefix + [l])

        paths([a])
        return out
    return None


def _witness_need(f: S.Formula):
    """For extension-monotone f: a bound n such that whenever f holds on
    h + h1 it also holds on h + h1' for some h1' within h1 of at most n
    cells; _INF when no such bound is derived."""
    if isinstance(f, (S.Truth, S.Falsum, S.Eq)):
        return 0
    if isinstance(f, S.PointsTo):
        return 1
    parts = S.or_parts(f)
    if parts is not None:
        return max(_witness_need(parts[0]), _witness_need(parts[1]))
    if isinstance(f, S.Not):
        return 0 if isinstance(f.child, S.Eq) else _INF
    if isinstance(f, S.Star):
        if isinstance(f.right, S.Truth):
            return _footprint(f.left, None, plain=True)[1]
        if isinstance(f.left, S.Truth):
            return _footprint(f.right, None, plain=True)[1]
        return _INF
    if isinstance(f, S.And):
        return _witness_need(f.left) + _witness_need(f.right)
    return _INF


# ---------------------------------------------------------------------------
# Heap walks.
# ---------------------------------------------------------------------------

def _reach(heap: dict, a: int, b: int, strict: bool) -> bool:
    if not strict and a == b:
        return True
    cur = a
    for _ in range(len(heap)):
        nxt = heap.get(cur)
        if nxt is None:
            return False
        cur = nxt
        if cur == b:
            return True
    return False


def _ls(heap: dict, a: int, b: int) -> bool:
    n = len(heap)
    if n == 0:
        return a == b
    cur = a
    seen = set()
    for _ in range(n):
        if cur in seen or cur not in heap:
            return False
        seen.add(cur)
        cur = heap[cur]
    return cur == b and cur not in seen


def _path_cells(heap: dict, a: int, b: int) -> Optional[Tuple[int, ...]]:
    """Sources of the minimal >= 1 step path from a to b in heap, or None."""
    cells = []
    cur = a
    for _ in range(len(heap)):
        if cur not in heap:
            return None
        cells.append(cur)
        cur = heap[cur]
        if cur == b:
            return tuple(cells)
    return None


_WAND_MEMO: Dict[tuple, Tuple[bool, bool]] = {}


def clear_wand_memo():
    _WAND_MEMO.clear()


# ---------------------------------------------------------------------------
# Evaluation.
# ---------------------------------------------------------------------------

class _Evaluator:
    __slots__ = ("policy",)

    def __init__(self, policy: WandPolicy):
        self.policy = policy

    # fast path: wand-free, plain booleans -----------------------------------
    def ev(self, store: dict, heap: dict, f: S.Formula) -> bool:
        t = type(f)  # the node classes are final: dispatch by identity
        if t is S.And:
            return self.ev(store, heap, f.left) and self.ev(store, heap, f.right)
        if t is S.Not:
            return not self.ev(store, heap, f.child)
        if t is S.Star:
            return self._star_blocks(store, heap, f)
        if t is S.Eq:
            return store[f.x] == store[f.y]
        if t is S.PointsTo:
            return heap.get(store[f.x]) == store[f.y]
        if t is S.ReachPlus:
            return _reach(heap, store[f.x], store[f.y], strict=True)
        if t is S.Emp:
            return not heap
        if t is S.Truth:
            return True
        if t is S.Falsum:
            return False
        if t is S.Ls:
            return _ls(heap, store[f.x], store[f.y])
        if t is S.Reach:
            return _reach(heap, store[f.x], store[f.y], strict=False)
        raise WandForbiddenError("separating implication outside bounded mode")

    def _star_blocks(self, store: dict, heap: dict, f: S.Star) -> bool:
        # each must cell fixes its block (the singleton holding the only
        # cell tagged ("c", l)) to count 1 on the left, 0 on the right
        split = _split(store, heap, f, True)
        if split is None:
            return False
        lower, upper, must_l, must_r = split
        vals = sorted({store[v] for v in f.vars})
        tags: Dict[int, list] = {}
        for l in vals:
            if l in heap:
                tags.setdefault(l, []).append(("c", l))
        for a in vals:
            for b in vals:
                cells = _path_cells(heap, a, b)
                if cells:
                    for c in cells:
                        tags.setdefault(c, []).append(("p", a, b))
        groups: Dict[frozenset, list] = {}
        for c in heap:
            groups.setdefault(frozenset(tags.get(c, ())), []).append(c)
        blocks = [sorted(cells) for _, cells in sorted(groups.items(), key=lambda kv: min(kv[1]))]
        counts = [
            (1,) if blk[0] in must_l else (0,) if blk[0] in must_r else range(len(blk) + 1)
            for blk in blocks
        ]

        def rec(idx: int, chosen: list, total: int, slack: int) -> bool:
            if idx == len(blocks):
                if not (lower <= total <= upper):
                    return False
                sub = {}
                for blk, cnt in zip(blocks, chosen):
                    for c in blk[:cnt]:
                        sub[c] = heap[c]
                if not self.ev(store, sub, f.left):
                    return False
                rest = {c: t for c, t in heap.items() if c not in sub}
                return self.ev(store, rest, f.right)
            rest_slack = slack - counts[idx][-1]
            for cnt in counts[idx]:
                if total + cnt > upper:
                    break
                if total + cnt + rest_slack < lower:
                    continue
                chosen.append(cnt)
                if rec(idx + 1, chosen, total + cnt, rest_slack):
                    chosen.pop()
                    return True
                chosen.pop()
            return False

        return rec(0, [], 0, sum(c[-1] for c in counts))

    # general path: (truth, exact) -------------------------------------------
    def _shortcut(self, store: dict, heap: dict, f: S.Formula):
        spec = S.special_form(f)
        if spec is None:
            return None
        name = spec[0]
        if name == "alloc_inv":
            x, y = store[spec[1]], store[spec[2]]
            if x == y:
                return None
            return x in heap.values()
        if name == "loop2":
            x, y = store[spec[1]], store[spec[2]]
            if x == y:
                return None
            step = heap.get(x)
            return step is not None and step != x and heap.get(step) == x
        if name == "next_eq":
            a, b = store[spec[1]], store[spec[2]]
            return a in heap and b in heap and heap[a] == heap[b]
        # next_pointsto
        a, b, c = store[spec[1]], store[spec[2]], store[spec[3]]
        if a == c or b == c:
            return None
        if a not in heap or b not in heap:
            return False
        mid = heap[a]
        return mid in heap and heap[mid] == heap[b]

    def evx(self, store: dict, heap: dict, f: S.Formula) -> Tuple[bool, bool]:
        if self.policy.macro_shortcuts and not f.wand_free:
            v = self._shortcut(store, heap, f)
            if v is not None:
                return (v, True)
        if f.wand_free:
            return (self.ev(store, heap, f), True)
        if isinstance(f, S.Not):
            v, e = self.evx(store, heap, f.child)
            return (not v, e)
        if isinstance(f, S.And):
            return self._all(store, heap, (f.left, f.right))
        if isinstance(f, S.Star):
            return self._star_general(store, heap, f)
        if isinstance(f, S.Wand):
            return self._wand(store, heap, f)
        raise TypeError(f"unknown node {f!r}")  # pragma: no cover

    def _all(self, store: dict, heap: dict, parts: list) -> Tuple[bool, bool]:
        """The and-chain of parts: true iff every part is, exact iff every
        part is exact or some false part is."""
        truth = exact = True
        for g in parts:
            v, e = self.evx(store, heap, g)
            if not v and e:
                return (False, True)
            truth, exact = truth and v, exact and v and e
        return (truth, exact)

    def _star_general(self, store: dict, heap: dict, f: S.Star) -> Tuple[bool, bool]:
        # with alloc scanned (cell bound 0) alloc(x) can hold without s(x)
        split = _split(store, heap, f, self.policy.cell_bound >= 1)
        if split is None:
            return (False, True)
        lower, upper, must_l, must_r = split
        cells = sorted(l for l in heap if l not in must_l and l not in must_r)
        inexact_true = False
        refutation_exact = True
        for k in range(max(lower, len(must_l)), upper + 1):
            for combo in combinations(cells, k - len(must_l)):
                sub = {c: heap[c] for c in combo}
                sub.update((c, heap[c]) for c in must_l)
                rest = {c: t for c, t in heap.items() if c not in sub}
                va, ea = self.evx(store, sub, f.left)
                if not va and ea:
                    continue
                vb, eb = self.evx(store, rest, f.right)
                if va and vb:
                    if ea and eb:
                        return (True, True)
                    inexact_true = True
                elif vb or not eb:
                    refutation_exact = False
        if inexact_true:
            return (True, False)
        return (False, refutation_exact)

    def _wand(self, store: dict, heap: dict, f: S.Wand) -> Tuple[bool, bool]:
        # alloc(x) = (x ~> x) -* false, decided as the scan below would: if
        # s(x) is allocated no disjoint extension satisfies x ~> x (true,
        # exact); otherwise the one-cell extension {s(x): s(x)} lies within
        # any cell bound >= 1 and refutes it (false, exact).  With bound 0
        # the scan finds no extension and answers true, inexact.
        x = _alloc_pattern(f)
        if x is not None and self.policy.cell_bound >= 1:
            return (store[x] in heap, True)
        A, B = f.left, f.right
        lo_a, hi_a, musts = _footprint(A, store, plain=True)
        if lo_a > hi_a:
            return (True, True)
        if any(l in heap for l in musts):
            return (True, True)

        state, lab = canonical_labelling(tuple(store[v] for v in sorted(f.vars)), heap)
        key = (f, self.policy, state)
        hit = _WAND_MEMO.get(key)
        if hit is not None:
            return hit

        relevant = sorted(lab)
        fresh = fresh_locations(relevant, self.policy.fresh_locations)

        kmax = min(self.policy.cell_bound, hi_a)
        result = None
        neg_b = B.child if isinstance(B, S.Not) else S.Not(B)
        if isinstance(A, S.Truth):
            certs = _certificates(neg_b, store, relevant + fresh)
            if certs is not None:
                result = self._wand_by_certificates(store, heap, certs, kmax, neg_b)
            else:
                kmax = min(kmax, _witness_need(neg_b))
        if result is None:
            result = self._wand_scan(
                store, heap, A, neg_b, B, relevant, fresh, musts, lo_a, kmax
            )
        _WAND_MEMO[key] = result
        return result

    def _wand_by_certificates(self, store, heap, certs, kmax, psi):
        """true -* not(psi) where psi holds exactly on certificate supersets:
        refuted iff some certificate extends the heap within the bound.  If
        no certificate agrees with the heap, no extension of any size
        satisfies psi: exact, unless psi has a path bracket with gamma >= 2,
        whose certificates only run through the scanned locations (gamma 0
        and 1 give no certificate or one fixed by the store)."""
        consistent = False
        for cert in certs:
            if any(heap.get(l, t) != t for l, t in cert.items()):
                continue
            extra = sum(1 for l in cert if l not in heap)
            if extra <= kmax:
                return (False, True)
            consistent = True
        if consistent:
            return (True, False)
        return (True, all((_bracket_gamma(g) or 0) < 2 for g in S.subformulas(psi)))

    def _wand_scan(self, store, heap, A, neg_b, B, relevant, fresh, musts, lo_a, kmax):
        banned_src, banned_tgt, _, open_a = _conjunct_facts(A, store, self.policy)

        # a counterexample extension must also make not-B hold on the union,
        # so constraints of not-B on the union prune the candidate space
        _, union_tgt_banned, next_eqs, _ = _conjunct_facts(neg_b, store, self.policy)
        if any(t in union_tgt_banned for t in heap.values()):
            return (True, True)
        banned_tgt |= union_tgt_banned
        forced_set = set(musts)
        for l in _footprint(neg_b, store, plain=True)[2]:
            if l not in heap:
                forced_set.add(l)
        pinned: Dict[int, int] = {}
        for la, lb in next_eqs:
            in_a, in_b = la in heap, lb in heap
            if in_a and in_b:
                if heap[la] != heap[lb]:
                    return (True, True)
            elif in_a:
                pinned[lb] = heap[la]
            elif in_b:
                pinned[la] = heap[lb]
        for l, t in pinned.items():
            if l in banned_src or t in banned_tgt:
                return (True, True)
            forced_set.discard(l)
        if forced_set & banned_src:
            return (True, True)

        forced = sorted(forced_set)
        rank = {l: i for i, l in enumerate(fresh)}
        optional = [
            l
            for l in relevant
            if l not in heap
            and l not in banned_src
            and l not in forced_set
            and l not in pinned
        ] + fresh
        sources = forced + optional
        targets_rel = [l for l in relevant if l not in banned_tgt]

        def bump(l, used):
            """Fresh locations in use once l is placed; None when l would
            skip the next fresh one (fresh locations go in rank order)."""
            r = rank.get(l)
            if r is None or r < used:
                return used
            return used + 1 if r == used else None

        def extend(start, remaining, used, acc):
            """acc plus `remaining` cells with sources from sources[start:]:
            each forced source, in order, then a subset of the optional ones."""
            if remaining == 0:
                yield acc
                return
            stop = start + 1 if start < len(forced) else len(sources)
            for i in range(start, stop):
                s = sources[i]
                u1 = bump(s, used)
                if u1 is None:
                    continue
                for t in targets_rel + fresh[: u1 + 1]:
                    acc[s] = t
                    yield from extend(i + 1, remaining - 1, bump(t, u1), acc)
                    del acc[s]

        inexact_counter = False
        empty_exact = None
        kmin = max(lo_a, len(forced) + len(pinned), 0)
        for k in range(kmin, min(kmax, len(sources) + len(pinned)) + 1):
            for h1 in extend(0, k - len(pinned), 0, dict(pinned)):
                va, ea = self._all(store, dict(h1), open_a)
                if not va:
                    continue
                union = dict(heap)
                union.update(h1)
                vb, eb = self.evx(store, union, B)
                if k == 0:
                    empty_exact = eb
                if vb:
                    continue
                if ea and eb:
                    return (False, True)
                inexact_counter = True
        if inexact_counter:
            return (False, False)
        if kmin == 0 and kmax == 0:
            return (True, bool(empty_exact))
        return (True, False)


def check(m: MemoryState, f: S.Formula, policy: WandPolicy = WandPolicy()) -> CheckResult:
    """Evaluate f on m; exact on wand-free formulae, bounded-witness on -*."""
    if f.vars and max(f.vars) > m.q:
        raise ValueError(f"formula mentions x{max(f.vars)} but q = {m.q}")
    if policy.mode == "forbid" and not f.wand_free:
        raise WandForbiddenError("formula contains -* but policy forbids it")
    ev = _Evaluator(policy)
    truth, exact = ev.evx(m.store, dict(m.heap.cells), f)
    return CheckResult(truth, exact)


def check_exact(m: MemoryState, f: S.Formula) -> bool:
    """Exact semantics; the formula must be -*-free (after macro expansion)."""
    if not f.wand_free:
        raise WandForbiddenError("check_exact requires a -*-free formula")
    if f.vars and max(f.vars) > m.q:
        raise ValueError(f"formula mentions x{max(f.vars)} but q = {m.q}")
    ev = _Evaluator(FORBID)
    return ev.ev(m.store, dict(m.heap.cells), f)


def sl_star_wand_bound(f: S.Formula) -> int:
    """A cell bound making bounded -* checking complete on SL(*,-*)."""
    from .syntax import in_sl_star_wand

    if not in_sl_star_wand(f):
        raise ValueError("formula is outside SL(*,-*)")
    return 2 * f.size
