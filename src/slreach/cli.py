"""Command-line front end.

Exit status: 0 for true/SAT/entailment-holds, 1 for false/UNSAT/refuted,
2 on usage errors, including formulae nested too deeply to process.
Reports are stable line-oriented text; --json switches to machine-readable
output.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional

from . import fowand, solver
from .heaps import MemoryState, load_state, save_state, state_to_json
from .parser import ParseError, parse, to_text
from .semantics import WandPolicy, check, check_exact
from .support import build_support_graph, dump_support_graph
from .testform import LiteralProfile, equivalent, profile_of_graph, shrink, small_heap_bound


def _policy(args) -> WandPolicy:
    return WandPolicy("bounded", args.wand_bound, args.fresh)


def _emit(args, lines: List[str], payload: dict) -> None:
    if getattr(args, "json", False):
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        for line in lines:
            print(line)


def _cmd_check(args) -> int:
    f = parse(args.formula)
    m = load_state(args.state)
    if f.wand_free:
        truth, exact = check_exact(m, f), True
    else:
        truth, exact = check(m, f, _policy(args))
    _emit(
        args,
        [f"result: {'true' if truth else 'false'}",
         f"exact: {'yes' if exact else 'no'}"],
        {"result": truth, "exact": exact},
    )
    return 0 if truth else 1


def _cmd_sat(args) -> int:
    f = parse(args.formula)
    res = solver.sat(f, args.fragment)
    if res.is_sat:
        lines = ["SAT", f"explored: {res.explored}"]
        payload = {
            "status": "sat",
            "explored": res.explored,
            "model": state_to_json(res.model),
        }
        if args.model_out:
            save_state(res.model, args.model_out)
            lines.append(f"model written to {args.model_out}")
        else:
            lines.append("model: " + json.dumps(state_to_json(res.model), sort_keys=True))
        _emit(args, lines, payload)
        return 0
    _emit(
        args,
        ["UNSAT", f"explored: {res.explored}"],
        {"status": res.status, "explored": res.explored},
    )
    return 1


def _cmd_entail(args) -> int:
    f, g = parse(args.formula), parse(args.other)
    counter = solver.counterexample(f, g)
    if counter is None:
        _emit(args, ["entailment holds"], {"entails": True})
        return 0
    lines = [
        "entailment refuted",
        "counter-model: " + json.dumps(state_to_json(counter), sort_keys=True),
    ]
    _emit(args, lines, {"entails": False, "counter_model": state_to_json(counter)})
    return 1


def _cmd_translate(args) -> int:
    psi = fowand.parse_fo(args.fo)
    sat_f = fowand.encode_sat(psi)
    val_f = fowand.encode_val(psi)
    _emit(
        args,
        [f"T_SAT: {to_text(sat_f)}", f"T_VAL: {to_text(val_f)}"],
        {"t_sat": to_text(sat_f), "t_val": to_text(val_f)},
    )
    return 0


def _reframe(m, q):
    """Extend the state's variable frame to q, duplicating the last value."""
    if q is None or q == m.q:
        return m
    if q < m.q:
        raise ValueError("-q below the state's variable count")
    store = dict(m.store)
    for i in range(m.q + 1, q + 1):
        store[i] = m.store[m.q]
    return MemoryState(q, store, m.heap)


def _cmd_abstract(args) -> int:
    m = _reframe(load_state(args.state), args.q)
    g = build_support_graph(m)
    p = LiteralProfile(m.q, args.alpha, profile_of_graph(g, args.alpha))
    lines = dump_support_graph(g).splitlines()
    lines.append(f"profile (alpha={args.alpha}):")
    lines.extend("  " + s for s in p.dump().splitlines())
    _emit(
        args,
        lines,
        {
            "support_graph": dump_support_graph(g),
            "profile": sorted(str(a) for a in p.satisfied),
        },
    )
    return 0


def _cmd_equiv(args) -> int:
    m1, m2 = load_state(args.m1), load_state(args.m2)
    eq = equivalent(m1, m2, args.alpha)
    _emit(args, [f"equivalent: {'yes' if eq else 'no'}"], {"equivalent": eq})
    return 0 if eq else 1


def _cmd_shrink(args) -> int:
    m = _reframe(load_state(args.state), args.q)
    small = shrink(m, args.alpha)
    bound = small_heap_bound(m.q, args.alpha)
    out = args.output or (args.state + ".small")
    save_state(small, out)
    _emit(
        args,
        [f"cells: {len(small.heap)} (bound {bound})", f"written to {out}"],
        {"cells": len(small.heap), "bound": bound, "output": out},
    )
    return 0


def build_arg_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="slreach",
        description="workbench for separation logic with reachability predicates",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    c = sub.add_parser("check", help="model-check a formula against a state file")
    c.add_argument("-f", "--formula", required=True)
    c.add_argument("-m", "--state", required=True)
    c.add_argument("--wand-bound", type=int, default=4)
    c.add_argument("--fresh", type=int, default=4)
    c.add_argument("--json", action="store_true")
    c.set_defaults(fn=_cmd_check)

    s = sub.add_parser("sat", help="decide satisfiability")
    s.add_argument("-f", "--formula", required=True)
    s.add_argument(
        "--fragment",
        choices=["auto", "reachplus", "boolshf", "boolcomb"],
        default="auto",
    )
    s.add_argument("--model-out")
    s.add_argument("--json", action="store_true")
    s.set_defaults(fn=_cmd_sat)

    e = sub.add_parser("entail", help="decide an entailment")
    e.add_argument("-f", "--formula", required=True)
    e.add_argument("-g", "--other", required=True)
    e.add_argument("--json", action="store_true")
    e.set_defaults(fn=_cmd_entail)

    t = sub.add_parser("translate", help="translate a first-order formula")
    t.add_argument("--fo", required=True)
    t.add_argument("--json", action="store_true")
    t.set_defaults(fn=_cmd_translate)

    a = sub.add_parser("abstract", help="support graph and literal profile")
    a.add_argument("-m", "--state", required=True)
    a.add_argument("-q", type=int, default=None)
    a.add_argument("--alpha", type=int, default=1)
    a.add_argument("--json", action="store_true")
    a.set_defaults(fn=_cmd_abstract)

    q = sub.add_parser("equiv", help="compare two states at a rank")
    q.add_argument("--m1", required=True)
    q.add_argument("--m2", required=True)
    q.add_argument("--alpha", type=int, required=True)
    q.add_argument("--json", action="store_true")
    q.set_defaults(fn=_cmd_equiv)

    k = sub.add_parser("shrink", help="shrink a state preserving its profile")
    k.add_argument("-m", "--state", required=True)
    k.add_argument("--alpha", type=int, required=True)
    k.add_argument("-q", type=int, default=None)
    k.add_argument("-o", "--output")
    k.add_argument("--json", action="store_true")
    k.set_defaults(fn=_cmd_shrink)

    return ap


def main(argv: Optional[List[str]] = None) -> int:
    ap = build_arg_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.fn(args)
    except (ParseError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except RecursionError:
        # the parser and the formula walks recurse once per nesting level
        print("error: formula nested too deeply", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
