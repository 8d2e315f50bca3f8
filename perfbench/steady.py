#!/usr/bin/env python3
"""Run a workload repeatedly and report how steady its metrics are.

Usage, from the root of a checkout:

    python3 perfbench/steady.py --workload aot-corpus [--runs 10]
        [--seed0 1] [--seconds 20] [--trace 0]

Run k gets seed seed0 + k.  For every metric the report gives the median,
the quartiles (Python's statistics.quantiles, n=4) and the spread: the
distance between the quartiles as a share of the median.  It flags an
end-to-end metric whose spread exceeds its bound in BENCHMARK.json, an
exact count that differs between runs, a share of
failed operations that differs between runs, and any run that was not
correct.  It also summarizes the raw figures of the detail line.  Exits
1 when anything was flagged.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

EXACT = ["compile_work", "alloc_mwords", "run_cycles_geomean", "code_size_geomean"]


def run_once(workload, seed, seconds, trace):
    out = subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        stdout=subprocess.PIPE, text=True, check=False).stdout
    lines = [l for l in out.splitlines() if l.strip()]
    if not lines:
        raise SystemExit("run with seed %d printed nothing" % seed)
    result = json.loads(lines[-1])
    detail = {}
    if len(lines) > 1 and lines[-2].startswith('{"detail"'):
        detail = json.loads(lines[-2])["detail"]
    return result, detail


def spread(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3, (q3 - q1) / med if med else 0.0


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seed0", type=int, default=1)
    ap.add_argument("--seconds", type=int)
    ap.add_argument("--trace", type=int, default=0)
    args = ap.parse_args()
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    seconds = args.seconds or bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    results, details = [], []
    for k in range(args.runs):
        r, d = run_once(args.workload, args.seed0 + k, seconds, args.trace)
        results.append(r)
        details.append(d)
        print("run %d seed %d: correct=%s attempted=%d failed=%d" % (
            k + 1, args.seed0 + k, r["correct"], r["attempted"], r["failed"]),
            file=sys.stderr)

    flags = []
    if not all(r["correct"] for r in results):
        flags.append("a run was not correct")
    shares = {r["failed"] / r["attempted"] for r in results}
    if len(shares) > 1:
        flags.append("failed share differs between runs: %s" % sorted(shares))
    print("%-34s %12s %12s %12s %8s" % ("metric", "q1", "median", "q3", "spread"))
    for name in results[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in results]
        q1, med, q3, s = spread(values)
        note = ""
        if name in EXACT and len(set(values)) > 1:
            note = "  NOT EXACT"
        elif name in bounds and s > bounds[name]:
            note = "  SPREAD > BOUND %.2f" % bounds[name]
        elif name in bounds:
            note = "  (bound %.2f)" % bounds[name]
        if note.strip().startswith(("NOT", "SPREAD")):
            flags.append(name + note)
        print("%-34s %12.6g %12.6g %12.6g %8.4f%s" % (name, q1, med, q3, s, note))
    print("attempted: %s" % [r["attempted"] for r in results])
    print("failed: %s" % [r["failed"] for r in results])
    keys = sorted({k for d in details for k in d})
    if keys:
        print("detail (raw figures):")
        for k in keys:
            values = [d[k] for d in details if d.get(k) is not None]
            if len(values) >= 2:
                q1, med, q3, s = spread(values)
                print("  %-32s %12.6g %12.6g %12.6g %8.4f" % (k, q1, med, q3, s))
    for f in flags:
        print("FLAG: " + f)
    return 1 if flags else 0


if __name__ == "__main__":
    sys.exit(main())
