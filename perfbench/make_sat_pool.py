"""Regenerate data/sat_pool.json: the sat workload's formula pool with the
brute-force verdict of each entry.

    python3 perfbench/make_sat_pool.py

Uses only perfbench/reference.py, never slreach.  The brute-force search
sweeps every state within the caps for each formula that has no small model,
which takes a few minutes for the whole pool.
"""

import json
import os
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from workloads import sat  # noqa: E402


def write_pool(doc):
    """The pool file, one entry per line."""
    head = {k: v for k, v in doc.items() if k != "pool"}
    with open(sat.POOL, "w") as fh:
        fh.write(json.dumps(head)[:-1] + ',\n"pool": [\n')
        fh.write(",\n".join(json.dumps(e) for e in doc["pool"]))
        fh.write("\n]}\n")


def main():
    t0 = time.perf_counter()
    pool = sat.make_pool()
    for i, entry in enumerate(pool):
        entry["brute"] = sat.brute_verdict(entry)
        if i % 50 == 0:
            print(f"{i}/{len(pool)} {time.perf_counter() - t0:.0f}s", file=sys.stderr)
    doc = {
        "about": "sat workload pool; brute = a model exists within "
                 f"{sat.BRUTE_CELLS} cells over {sat.BRUTE_LOCS} locations",
        "pool_seed": sat.POOL_SEED,
        "brute_cells": sat.BRUTE_CELLS,
        "brute_locs": sat.BRUTE_LOCS,
        "pool": pool,
    }
    write_pool(doc)
    print(f"{len(pool)} entries in {time.perf_counter() - t0:.0f}s", file=sys.stderr)


if __name__ == "__main__":
    main()
