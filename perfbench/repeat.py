"""Repeat benchmark runs of the current checkout and summarise them.

    python3 perfbench/repeat.py --runs 10 [--workloads sat,wand] [--first-seed 1]
                                [--trace 0] [--compare perfbench/out/set-a.json]
                                --save perfbench/out/set-b.json

Runs perfbench/run.py once per (workload, seed), one after another, with
the run length from BENCHMARK.json.  For every metric of every workload it
prints the median, the quartiles (statistics.quantiles, n=4) and their
distance as a share of the median, next to the metric's bound, and the share
of failed operations.  With --compare it also checks that each median is no
worse than the earlier set's by more than the bound.  It exits 1 when a
spread or a comparison is out of bounds or a run is wrong.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def summarise(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else float("inf"), "values": values}


def main():
    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    with open(spec_path) as fh:
        spec = json.load(fh)
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--compare")
    ap.add_argument("--save")
    args = ap.parse_args()
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    better = {m["name"]: m["better"] for m in spec["end_to_end"] + spec["per_layer"]}
    earlier = None
    if args.compare:
        with open(args.compare) as fh:
            earlier = json.load(fh)["workloads"]
    ok = True
    report = {"runs": args.runs, "trace": args.trace, "workloads": {}}
    for name in args.workloads.split(","):
        results = []
        for i in range(args.runs):
            seed = args.first_seed + i
            cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", name,
                   "--seed", str(seed), "--seconds", str(spec["run_seconds"]),
                   "--trace", str(args.trace)]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print(proc.stderr, file=sys.stderr)
                print(f"{name} seed {seed}: exit {proc.returncode}", file=sys.stderr)
                ok = False
                continue
            results.append(json.loads(lines[-1]))
            print(f"  {name} seed {seed}: {proc.stderr.strip().splitlines()[-1]}",
                  file=sys.stderr)
        if not results:
            continue
        fail_shares = sorted({r["failed"] / r["attempted"] for r in results})
        entry = {"failed_shares": fail_shares, "correct": all(r["correct"] for r in results),
                 "metrics": {}}
        ok &= entry["correct"] and len(fail_shares) == 1
        print(f"{name}: {len(results)} runs, correct={entry['correct']}, "
              f"failed shares={fail_shares}")
        for metric in results[0]["metrics"]:
            values = [r["metrics"][metric]["value"] for r in results]
            s = summarise(values)
            entry["metrics"][metric] = s
            line = (f"  {metric:38s} median {s['median']:12.5g}  q1 {s['q1']:12.5g}  "
                    f"q3 {s['q3']:12.5g}  spread {s['spread']:6.1%}")
            bound = bounds.get(metric, {}).get("bound")
            if bound is not None:
                line += f"  bound {bound:.0%}"
                if metric != "setup_s" and s["spread"] > bound:
                    line += "  SPREAD OVER BOUND"
                    ok = False
                elif metric != "setup_s" and s["spread"] > bound / 3:
                    line += "  (over a third of the bound)"
            if earlier and bound is not None and name in earlier:
                before = earlier[name]["metrics"][metric]["median"]
                worse = (s["median"] - before) / before
                if better[metric] == "higher":
                    worse = -worse
                line += f"  vs earlier {worse:+.1%}"
                if worse > bound:
                    line += "  WORSE THAN BOUND"
                    ok = False
            print(line)
        report["workloads"][name] = entry
    if args.save:
        os.makedirs(os.path.dirname(os.path.abspath(args.save)), exist_ok=True)
        with open(args.save, "w") as fh:
            json.dump(report, fh, indent=1)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
