#!/usr/bin/env python3
"""Run workloads over several seeds and report each metric's spread.

    python3 perfbench/spread.py [--workloads a,b] [--seeds 1-10] [--trace 0]
                                [--seconds S] [--json FILE]

Run from the repository root.  For every metric: the median of the runs
and the quartile spread, (Q3 - Q1) / median with the quartiles of
statistics.quantiles(values, n=4), next to the bound BENCHMARK.json
fixes.  A spread above a third of its bound is flagged.
"""

import argparse
import json
import statistics
import subprocess
import sys


def seeds_arg(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    bench = json.load(open("BENCHMARK.json"))
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    ap.add_argument("--seeds", default="1-10", type=seeds_arg)
    ap.add_argument("--trace", default=0, type=int, choices=(0, 1))
    ap.add_argument("--seconds", default=bench["run_seconds"], type=float)
    ap.add_argument("--json", help="also write every run's metrics here")
    args = ap.parse_args()

    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    runs = {}
    for w in args.workloads.split(","):
        for seed in args.seeds:
            out = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", w, "--seed", str(seed),
                 "--seconds", str(args.seconds), "--trace", str(args.trace)],
                capture_output=True, text=True)
            lines = out.stdout.strip().splitlines()
            result = json.loads(lines[-1]) if out.returncode == 0 and lines else None
            if result is None or not result["correct"]:
                print("%s seed %d: FAILED (exit %d)\n%s" % (w, seed, out.returncode, out.stdout[-2000:]))
                continue
            runs.setdefault(w, []).append(result)
            print("%s seed %d: ok" % (w, seed), flush=True)
    table = {}
    for w, results in runs.items():
        print("\n%s (%d runs)" % (w, len(results)))
        for name in results[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in results]
            if any(v is None for v in values) or len(values) < 2:
                continue
            med = statistics.median(values)
            q = statistics.quantiles(values, n=4)
            spread = (q[2] - q[0]) / med if med else float("nan")
            bound = bounds.get(name)
            flag = "  <-- above bound/3" if bound and spread > bound / 3 else ""
            print("  %-28s median %14.4f  spread %6.3f  bound %s%s"
                  % (name, med, spread, bound, flag))
            table.setdefault(w, {})[name] = {"median": med, "spread": spread, "values": values}
    if args.json:
        with open(args.json, "w") as f:
            json.dump(table, f, indent=1)


if __name__ == "__main__":
    main()
