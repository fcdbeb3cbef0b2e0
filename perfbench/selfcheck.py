"""Check that each workload notices a wrong verdict.

    python3 perfbench/selfcheck.py

For every workload it plants one wrong answer: a patched slreach function
returns a flipped verdict for one query of a round, and the workload's check
must report that query and no other.  The few queries before it run
unpatched, so a check that fails on right answers is caught as well.  Exits
1 if any workload misses its planted fault.
"""

from __future__ import annotations

import os
import sys

sys.path[:0] = [os.path.dirname(os.path.abspath(__file__))]

import run  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

BEFORE = 4


def _flip_sat(api, out):
    return api.SatResult("unsat", None, out.explored)


def _flip_check(api, out):
    return api.CheckResult(not out.truth, out.exact)


# workload -> (patched API function, which query, the wrong answer)
PLANTS = {
    "sat": ("sat", lambda q: q["g"] is None and q["brute"], _flip_sat),
    "wand": ("check", lambda q: True, _flip_check),
    "translation": ("check", lambda q: True, _flip_check),
    "abstract": ("equivalent", lambda q: q["op"] == "equivalent", lambda api, out: not out),
}


def plant(name, seed=1):
    workload = WORKLOADS[name]
    fn_name, pick, wrong = PLANTS[name]
    api = run.fresh_slreach()
    queries = workload.make_queries(seed)
    target = next(i for i, q in enumerate(queries) if pick(q))
    chosen = queries[max(0, target - BEFORE): target + 1]
    original = getattr(api, fn_name)
    armed = [False]

    def patched(*args, **kwargs):
        out = original(*args, **kwargs)
        return wrong(api, out) if armed[0] else out

    setattr(api, fn_name, patched)
    caught = []
    for i, query in enumerate(chosen):
        armed[0] = i == len(chosen) - 1
        problem = workload.check(query, workload.run_query(api, query))
        if problem is not None:
            caught.append((i, problem))
    ok = [i for i, _ in caught] == [len(chosen) - 1]
    print(f"{name}: planted a wrong {fn_name} verdict in query {target}; "
          f"{'caught' if ok else 'NOT caught as expected'}: {caught}")
    return ok


def main():
    results = [plant(name) for name in WORKLOADS]
    return 0 if all(results) else 1


if __name__ == "__main__":
    sys.exit(main())
