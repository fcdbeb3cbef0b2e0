"""translation: the reduction from first-order separation logic.

One query takes one first-order formula psi (as text) and one small state
m1.  It parses psi, translates it, checks psi on m1 with `check_fo`, encodes
m1 with `encode_state`, and checks the translation on the encoding with
`check` under WandPolicy(2q+2, 2q+2, macro_shortcuts=True).  The two
verdicts must agree, and for -*-free psi both must equal the reference
first-order evaluator's.

The corpus is the acceptance suite's (criterion 10) and the states are one
per isomorphism class of states over 4 locations with at most 2 cells, under
a seeded renaming of locations that keeps their order, so every seed does
the same work.  As in the acceptance suite, the queries of one formula run
together, in corpus order.  (With a shuffled order the memos grow in a
seed-dependent order and the cost moves between queries: queries_per_s
moved by 30% and p50_ms by 15% from seed to seed.)  The -* formulae cost far more than the
rest, from milliseconds to seconds per state, so they run on a fixed sample
of SAMPLE states each; with a fresh draw per seed their cost alone would
move queries_per_s by more than its bound.
"""

from __future__ import annotations

import random

import reference as R

LOCATIONS = 4
MAX_CELLS = 2
LABELS = 32
SAMPLE = {1: 5, 2: 1}  # states per -* formula, by q
SAMPLE_SEED = 10

_eq, _pt, _not = (lambda a, b: ("eq", a, b)), (lambda a, b: ("pt", a, b)), (lambda f: ("not", f))

CORPUS = [
    _eq(1, 1),
    _eq(1, 2),
    _pt(1, 2),
    _pt(1, 1),
    _not(_pt(1, 2)),
    ("or", _eq(1, 2), _pt(2, 1)),
    ("and", _pt(1, 2), _not(_eq(1, 2))),
    ("forall", 1, _eq(1, 1)),
    ("forall", 2, _not(_pt(2, 1))),
    ("forall", 2, _not(_pt(1, 2))),
    ("forall", 2, ("implies", _pt(2, 2), _eq(2, 1))),
    ("forall", 2, _eq(2, 1)),
    ("forall", 2, ("implies", _pt(2, 1), _eq(2, 1))),
    ("forall", 1, _not(_pt(1, 1))),
    ("forall", 2, ("implies", _pt(1, 2), _pt(2, 1))),
    ("and", _eq(1, 1), ("forall", 2, ("or", _eq(2, 1), _not(_pt(2, 2))))),
    ("wand", _pt(1, 1), _not(_eq(1, 1))),
    ("wand", _pt(1, 1), _pt(1, 1)),
    _not(("wand", _pt(1, 1), _not(_pt(1, 1)))),
    ("wand", _pt(1, 2), _pt(1, 2)),
    _not(("wand", _pt(1, 2), _not(_pt(2, 1)))),
    ("forall", 2, _not(("and", _eq(2, 1), _pt(2, 2)))),
]


def _all_vars(f):
    out = set()
    for g in f[1:]:
        out |= _all_vars(g) if isinstance(g, tuple) else {g}
    return out


def _sampled(f):
    """The -* formulae whose states are sampled: all but (x1 ~> x1) -* not
    (x1 = x1), whose right side is false everywhere, so its scan stops at
    the first extension and it runs on every state."""
    return R.fo_has_wand(f) and f != ("wand", _pt(1, 1), _not(_eq(1, 1)))


def make_queries(seed):
    rng = random.Random(seed)
    fixed = random.Random(SAMPLE_SEED)
    classes = {q: R.iso_classes(q, LOCATIONS, MAX_CELLS) for q in (1, 2)}
    queries = []
    for psi in CORPUS:
        q = max(_all_vars(psi))
        states = classes[q]
        if _sampled(psi):
            states = fixed.sample(states, SAMPLE[q])
        text = R.fo_text(psi)
        for store, heap in states:
            store, heap = R.relabel(store, heap, R.spread_out(rng, LOCATIONS, LABELS))
            queries.append({
                "label": f"{text} store={store} heap={heap}",
                "psi": psi, "text": text, "q": q,
                "Z": sorted(R.fo_free_vars(psi)),
                "store": store, "heap": heap,
            })
    return queries


def run_query(api, q):
    n = q["q"]
    psi = api.parse_fo(q["text"])
    t = api.translate(psi, api.EncodingContext(n, q["Z"]))
    m1 = api.MemoryState(n, q["store"], api.Heap(q["heap"]))
    fo = api.check_fo(m1, psi, fresh=2, policy=api.WandPolicy("bounded", 3, 3))
    used = set(q["store"].values()) | set(q["heap"]) | set(q["heap"].values())
    base = max(used) + 1
    targets = {i + 1: base + i for i in range(2 * n)}
    m2 = api.encode_state(m1, targets, q["Z"])
    sl = api.check(m2, t, api.WandPolicy("bounded", 2 * n + 2, 2 * n + 2, macro_shortcuts=True))
    return fo, sl.truth


def check(q, out):
    fo, sl = out
    if fo != sl:
        return f"first-order verdict {fo}, translated verdict {sl}"
    if not R.fo_has_wand(q["psi"]):
        want = R.fo_holds(q["store"], q["heap"], q["psi"])
        if fo != want:
            return f"verdict {fo}, reference says {want}"
    return None
