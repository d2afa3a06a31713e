#!/usr/bin/env python3
"""Steadiness check for the repository benchmark.

Runs each workload once per seed and set, untraced, with the sets
interleaved (seed 1 of set A, seed 1 of set B, seed 2 of set A, ...) so a
slow or fast phase of the machine hits both sets alike. For every
end-to-end metric it prints each set's median and spread (the distance
between the first and third quartile, statistics.quantiles n=4, as a share
of the median), the ratio of the set medians, and the metric's bound from
BENCHMARK.json.

    python3 perfbench/spread.py --workloads wire-hot,relearn --seeds 1-10 --sets 2

Run it from the repository root. Exits nonzero if any run fails, any
spread other than setup_s exceeds a third of its bound, or any set median
differs from set A's by more than the bound.
"""

import argparse
import json
import statistics
import subprocess
import sys


def seeds(text):
    lo, _, hi = text.partition("-")
    return range(int(lo), int(hi or lo) + 1)


def run(bench, workload, seed, seconds):
    cmd = bench["command"] + ["--workload", workload, "--seed", str(seed),
                              "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else {}
    if done.returncode != 0 or not result.get("correct"):
        print(f"{workload} seed {seed}: FAILED (exit {done.returncode})\n{done.stderr[-2000:]}")
        return None
    return {name: m["value"] for name, m in result["metrics"].items()}


def main():
    bench = json.load(open("BENCHMARK.json"))
    names = [w["name"] for w in bench["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", default=",".join(names))
    ap.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    ap.add_argument("--sets", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    args = ap.parse_args()
    workloads = args.workloads.split(",")
    sets = "ABCDEFGH"[:args.sets]

    values = {(w, s): {m["name"]: [] for m in bench["end_to_end"]} for w in workloads for s in sets}
    ok = True
    for seed in args.seeds:
        for workload in workloads:
            for s in sets:
                got = run(bench, workload, seed, args.seconds)
                if got is None:
                    ok = False
                    continue
                for name, v in values[(workload, s)].items():
                    v.append(got[name])

    for workload in workloads:
        print(f"== {workload} ({len(args.seeds)} seeds x {len(sets)} sets, {args.seconds}s)")
        for m in bench["end_to_end"]:
            name, bound = m["name"], m["bound"]
            cells, medians = [], []
            for s in sets:
                v = values[(workload, s)][name]
                if len(v) < 2:
                    continue
                q1, med, q3 = statistics.quantiles(v, n=4)
                spread = (q3 - q1) / med
                medians.append(med)
                wide = spread > bound / 3 and name != "setup_s"
                ok &= not wide
                cells.append(f"{s}: median {med:<11.5g} spread {spread:5.3f}{' WIDE' if wide else ''}")
            ratio = ""
            if len(medians) > 1:
                worst = max(abs(x / medians[0] - 1) for x in medians[1:])
                moved = worst > bound
                ok &= not moved
                ratio = f"  max |set/A - 1| {worst:5.3f}{' MOVED' if moved else ''}"
            print(f"  {name:13} {'  '.join(cells)}  bound {bound}{ratio}")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
