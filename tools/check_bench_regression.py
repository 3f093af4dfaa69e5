#!/usr/bin/env python3
"""Fail CI when a guarded benchmark family regresses.

Understands two JSON schemas, sniffed per file:

- google-benchmark JSON from `bench_micro --json`: compares
  items_per_second for every benchmark in the guarded families present in
  both files: BM_PacketForwarding* (the steady-state batched path, the
  unbatched reference path, the train path, and the telemetry-on variant)
  plus the frame-cache pair BM_FrameSynthesis / BM_FrameCacheHit and the
  client-side frame check BM_FrameVerify.

- bench_population JSON (context.benchmark == "bench_population"):
  compares events_per_sec for every (partitions, threads) cell present in
  both files, under names like "population/p2t4". Rows carrying a
  "scenario" field (the --overload sweep) get per-scenario names like
  "population/overload/p2t4" and "population/chaos/p2t4"; the "base"
  scenario keeps the legacy "population/p2t4" name so old baselines stay
  comparable.

For the cell schema the FRESH file's "deterministic" flag must be true —
a divergent parallel simulation is a correctness failure regardless of
speed, and fails hard even when the speed numbers are incomparable.

Guards, mirroring check_telemetry_overhead.py:
- Debug/assert builds (context.assertions == "enabled") in either file are
  not comparable to Release numbers -- skip with exit 0.
- Cross-host comparisons (context.host_name differs) are noise -- warn and
  exit 0 instead of failing.

Exit code 0 = within budget (or nothing comparable), 1 = regression (or a
non-deterministic fresh parallel run).

Usage:
  tools/check_bench_regression.py BENCH_micro.json --baseline OLD.json
      [--budget 10.0]
  tools/check_bench_regression.py BENCH_population.json \
      --baseline OLD_population.json [--budget 15.0]
"""

import argparse
import json
import sys

FAMILY_PREFIXES = ("BM_PacketForwarding", "BM_FrameSynthesis",
                   "BM_FrameCacheHit", "BM_FrameVerify")

# context.benchmark -> synthetic cell-name prefix
CELL_SCHEMAS = {
    "bench_population": "population",
}


def load(path):
    with open(path, "r", encoding="utf-8") as f:
        return json.load(f)


def cell_prefix(doc):
    """The cell-schema name prefix, or None for google-benchmark JSON."""
    return CELL_SCHEMAS.get(doc.get("context", {}).get("benchmark"))


def family_items_per_second(doc):
    prefix = cell_prefix(doc)
    if prefix is not None:
        out = {}
        for row in doc.get("results", []):
            scenario = row.get("scenario", "base")
            mid = "" if scenario == "base" else scenario + "/"
            name = "{}/{}p{}t{}".format(prefix, mid, row.get("partitions"),
                                        row.get("threads"))
            if "events_per_sec" in row:
                out[name] = float(row["events_per_sec"])
        return out
    out = {}
    for bench in doc.get("benchmarks", []):
        name = bench.get("name", "")
        if name.startswith(FAMILY_PREFIXES) and "items_per_second" in bench:
            out[name] = float(bench["items_per_second"])
    return out


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("fresh", help="benchmark JSON from this run")
    parser.add_argument("--baseline", required=True,
                        help="committed benchmark JSON to compare against")
    parser.add_argument("--budget", type=float, default=10.0,
                        help="max %% slowdown per benchmark before failing")
    args = parser.parse_args()

    fresh = load(args.fresh)
    base = load(args.baseline)

    # Byte-identity of parallel vs sequential runs is a hard gate before any
    # speed comparison: a fast divergent simulation is simply wrong.
    if cell_prefix(fresh) is not None and fresh.get("deterministic") is not True:
        print("check_bench_regression: FRESH {} run is NOT deterministic "
              "(parallel != sequential kernel)".format(cell_prefix(fresh)),
              file=sys.stderr)
        return 1

    if cell_prefix(fresh) != cell_prefix(base):
        print("check_bench_regression: fresh and baseline use different "
              "schemas -- nothing to compare", file=sys.stderr)
        return 0

    for label, doc in (("fresh", fresh), ("baseline", base)):
        if doc.get("context", {}).get("assertions") == "enabled":
            print(f"check_bench_regression: {label} run is a debug/assert "
                  "build; numbers are not comparable -- skipping",
                  file=sys.stderr)
            return 0

    fresh_host = fresh.get("context", {}).get("host_name")
    base_host = base.get("context", {}).get("host_name")
    fresh_items = family_items_per_second(fresh)
    base_items = family_items_per_second(base)
    common = sorted(set(fresh_items) & set(base_items))
    if not common:
        print("check_bench_regression: no common guarded benchmarks "
              "between the two files -- nothing to compare")
        return 0

    if base_host != fresh_host:
        print(f"check_bench_regression: baseline host {base_host!r} != "
              f"{fresh_host!r}; cross-host numbers are noise -- warn only")
        for name in common:
            print(f"  {name}: baseline {base_items[name]:,.0f} items/s, "
                  f"fresh {fresh_items[name]:,.0f}")
        return 0

    failed = False
    for name in common:
        cur = fresh_items[name]
        ref = base_items[name]
        slowdown = (ref / cur - 1.0) * 100.0 if cur > 0 else float("inf")
        print(f"{name}: {cur:,.0f} items/s "
              f"(baseline {ref:,.0f}, {slowdown:+.1f}%)")
        if slowdown > args.budget:
            print(f"FAIL: {name} regressed {slowdown:.1f}% > "
                  f"budget {args.budget:.1f}%", file=sys.stderr)
            failed = True

    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
