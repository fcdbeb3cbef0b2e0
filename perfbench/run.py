"""Run one slreach benchmark workload and print its metrics.

    python3 perfbench/run.py --workload sat --seed 1 --seconds 20 --trace 0

Run from the root of a checkout.  The workload's queries form a round that
is fixed by the seed; the run repeats whole rounds until the next one would
end after --seconds.  Each round starts from a fresh import of slreach (so
module memos start empty) and regenerates its inputs: that is the set-up
whose median is setup_s.  One client issues each query after the previous
verdict, in one thread.  Every output is checked against reference code
that does not use slreach.

With --trace 0 the last line of output is the end-to-end metrics; with
--trace 1 the public functions of each layer are wrapped and the last line
is the per-layer metrics (per round), and the spans go to perfbench/out/.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import math
import os
import resource
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
sys.path[:0] = [HERE, SRC]

import spans  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

MIN_SETUPS = 5
MIN_QUERIES = 100


def _drop_slreach():
    for name in [n for n in sys.modules if n == "slreach" or n.startswith("slreach.")]:
        del sys.modules[name]


def fresh_slreach():
    """Import slreach from this checkout's src/, dropping any earlier copy
    so that its module-level memos start empty."""
    _drop_slreach()
    api = importlib.import_module("slreach")
    if not os.path.abspath(api.__file__).startswith(SRC + os.sep):
        raise ImportError(f"slreach was imported from {api.__file__}, not {SRC}")
    return api


def set_up(workload, seed):
    """A fresh slreach and the round's queries, with the time both took.
    The previous copy's garbage is collected first, outside the timing."""
    _drop_slreach()
    gc.collect()
    t0 = time.perf_counter()
    api = fresh_slreach()
    queries = workload.make_queries(seed)
    return api, queries, time.perf_counter() - t0


def quantile(values, p):
    """Nearest-rank percentile of a non-empty list."""
    ordered = sorted(values)
    return ordered[max(1, math.ceil(len(ordered) * p / 100)) - 1]


def run(workload, seed, seconds, tracer):
    setups, round_latencies, errors, failures = [], [], [], []
    attempted = failed = rounds = 0
    run_start = time.perf_counter()
    last_round = 0.0
    while rounds == 0 or time.perf_counter() - run_start + last_round <= seconds:
        round_start = time.perf_counter()
        api, queries, setup = set_up(workload, seed)
        setups.append(setup)
        if len(queries) < MIN_QUERIES:
            raise SystemExit(f"a round has {len(queries)} queries, fewer than {MIN_QUERIES}")
        if tracer is not None:
            tracer.install(api)
        latencies = []
        for query in queries:
            if tracer is not None:
                tracer.query = attempted
            attempted += 1
            t0 = time.perf_counter()
            try:
                out = workload.run_query(api, query)
            except Exception as exc:  # a crash is a failed operation
                failed += 1
                failures.append(f"{query['label']}: {type(exc).__name__}: {exc}")
                continue
            latencies.append(time.perf_counter() - t0)
            problem = workload.check(query, out)
            if problem is not None:
                errors.append(f"{query['label']}: {problem}")
        round_latencies.append(latencies)
        rounds += 1
        last_round = time.perf_counter() - round_start
        del api, queries
    while len(setups) < MIN_SETUPS:
        setups.append(set_up(workload, seed)[2])
    return {
        "rounds": rounds,
        "attempted": attempted,
        "failed": failed,
        "errors": errors,
        "failures": failures,
        "round_latencies": round_latencies,
        "setups": setups,
    }


def end_to_end(result):
    """Latency figures are taken per round and reported as their median over
    the run's rounds, so a spell of a slower machine in a few rounds does
    not move them."""
    rounds = [lat for lat in result["round_latencies"] if lat]

    def per_round(figure):
        return statistics.median(figure(lat) for lat in rounds)

    return {
        "queries_per_s": (per_round(lambda lat: len(lat) / sum(lat)), "1/s"),
        "p50_ms": (per_round(lambda lat: quantile(lat, 50)) * 1e3, "ms"),
        "p90_ms": (per_round(lambda lat: quantile(lat, 90)) * 1e3, "ms"),
        "setup_s": (statistics.median(result["setups"]), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "slreach", "__init__.py")):
        print(f"error: no slreach sources under {SRC}", file=sys.stderr)
        return 2
    tracer = spans.Tracer() if args.trace else None
    result = run(WORKLOADS[args.workload], args.seed, args.seconds, tracer)
    e2e = end_to_end(result)
    for line in result["failures"][:20]:
        print(f"failed: {line}", file=sys.stderr)
    for line in result["errors"][:20]:
        print(f"wrong: {line}", file=sys.stderr)
    print(
        f"# {args.workload} seed={args.seed}: {result['rounds']} round(s), "
        f"{result['attempted']} queries, {result['failed']} failed, "
        f"{len(result['errors'])} wrong",
        file=sys.stderr,
    )
    metrics = e2e
    if tracer is not None:
        metrics = tracer.metrics(result["rounds"])
        os.makedirs(OUT, exist_ok=True)
        tracer.write(
            os.path.join(OUT, f"trace-{args.workload}-seed{args.seed}.json.gz"),
            {
                "workload": args.workload,
                "seed": args.seed,
                "rounds": result["rounds"],
                "end_to_end": {k: v for k, (v, _) in e2e.items()},
                "per_layer": {k: v for k, (v, _) in metrics.items()},
            },
        )
    correct = not result["errors"]
    print(json.dumps({
        "correct": correct,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
