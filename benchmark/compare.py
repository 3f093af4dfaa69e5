#!/usr/bin/env python3
"""Compare two sets of hyms_bench results: the parent commit and a change.

    python3 benchmark/compare.py --parent p1.json p2.json ... \\
                                 --change c1.json c2.json ...

Each file is what one `hyms_bench --json FILE` run wrote: one JSON line per
workload. Runs pair up by position, parent file i with change file i; make
at least ten pairs with identical settings, alternating which side runs
first. For each workload and each end-to-end metric of BENCHMARK.json it
prints both medians with their quartiles, the change's wins over the pairs,
and a verdict:

  improved    there are at least ten pairs, the change won at least 9 in
              10 of them (ties count for neither), and the medians differ
              by more than the parent's own quartile spread;
  regressed   the change's median is worse than the parent's by more than
              the metric's bound;
  unresolved  the parent's quartile spread is wider than the bound and not
              every change run beats every parent run;
  unchanged   otherwise.

Sim-clock metrics and fingerprints are exact for a seed: any difference
between a parent run and a change run of the same seed is flagged, because
a change that only claims speed must leave them equal. The exit code is 1
when a metric regressed.
"""

import argparse
import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
MIN_PAIRS = 10


def load(path):
    with open(path) as f:
        records = [json.loads(line) for line in f if line.strip()]
    return {r["workload"]: r for r in records}


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def verdict(parent, change, better, bound):
    sign = 1.0 if better == "higher" else -1.0
    wins = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
    pq1, pmed, pq3 = quartiles(parent)
    _, cmed, _ = quartiles(change)
    gain = sign * (cmed - pmed)
    spread = pq3 - pq1
    all_better = (min(change) > max(parent) if sign > 0
                  else max(change) < min(parent))
    if len(parent) >= MIN_PAIRS and wins >= 0.9 * len(parent) and \
            gain > spread:
        return "improved", wins
    if pmed and -gain / abs(pmed) > bound:
        return "regressed", wins
    if pmed and spread / abs(pmed) > bound and not all_better:
        return "unresolved", wins
    return "unchanged", wins


def fmt(values):
    q1, med, q3 = quartiles(values)
    return f"{med:.6g} [{q1:.6g}, {q3:.6g}]"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", nargs="+", required=True)
    ap.add_argument("--change", nargs="+", required=True)
    ap.add_argument("--bench", default=os.path.join(ROOT, "BENCHMARK.json"))
    args = ap.parse_args()
    if len(args.parent) != len(args.change):
        sys.exit("compare.py: --parent and --change need as many files")
    with open(args.bench) as f:
        spec = json.load(f)
    parent = [load(p) for p in args.parent]
    change = [load(c) for c in args.change]

    if len(parent) < MIN_PAIRS:
        print(f"note: {len(parent)} pair(s); no gain is claimed from fewer "
              f"than {MIN_PAIRS}")
    regressed = False
    print(f"{'workload':18} {'metric':20} {'parent median [q1, q3]':32} "
          f"{'change median [q1, q3]':32} {'vs parent':>10} {'wins':>6}  "
          "verdict")
    for w in spec["workloads"]:
        name = w["name"]
        pairs = [(p[name], c[name]) for p, c in zip(parent, change)
                 if name in p and name in c]
        if not pairs:
            print(f"{name:18} (no runs)")
            continue
        same_seed = [(p, c) for p, c in pairs if p["seed"] == c["seed"]]
        for m in spec["end_to_end"]:
            key = m["name"]
            pv = [p["metrics"][key]["value"] for p, _ in pairs]
            cv = [c["metrics"][key]["value"] for _, c in pairs]
            result, wins = verdict(pv, cv, m["better"], m["bound"])
            regressed |= result == "regressed"
            pmed = statistics.median(pv)
            delta = (f"{100 * (statistics.median(cv) - pmed) / pmed:+.1f}%"
                     if pmed else "n/a")
            sim = pairs[0][0]["metrics"][key]["clock"] == "sim"
            if sim and any(p["metrics"][key]["value"] !=
                           c["metrics"][key]["value"] for p, c in same_seed):
                result += "  (sim value changed at a same-seed pair)"
            print(f"{name:18} {key:20} {fmt(pv):32} {fmt(cv):32} "
                  f"{delta:>10} {wins:>3}/{len(pairs):<2}  {result}")
        for p, c in same_seed:
            if p["fingerprint"] != c["fingerprint"]:
                print(f"{name:18} FINGERPRINT CHANGED at seed {p['seed']}: "
                      f"{p['fingerprint']} -> {c['fingerprint']}")
    sys.exit(1 if regressed else 0)


if __name__ == "__main__":
    main()
