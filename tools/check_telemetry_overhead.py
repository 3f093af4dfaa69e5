#!/usr/bin/env python3
"""Guard the telemetry layer's hot-path cost from BENCH_micro.json.

Two checks per instrumented pair, both read from a google-benchmark JSON
file produced by `bench_micro --json`. The pairs are:

- BM_PacketForwardingSteadyState / BM_PacketForwardingTelemetryOn: the
  packet forwarding inner loop, with tracing fully on in the second.
- BM_SessionLifecycle / BM_SessionLifecycleQoeOn: a complete short
  session (connect, admission, stream setup, playout, seal), with the
  QoE/flight-recorder plane collecting in the second.

1. Telemetry-off overhead: the off-path benchmark (no hub installed,
   every instrumentation site is one null-check branch) must stay within
   --budget (default 3%) of a baseline file's number — but only when the
   two runs come from the same host (google-benchmark's
   context.host_name); cross-host comparisons are noise, so they warn
   instead of fail. A pair absent from the baseline (older baseline) is
   skipped with a note.
2. Telemetry-on delta: within the fresh run, on vs off is reported
   (informational unless --max-on-overhead is given; the bound applies
   only to the packet pair — session QoE collection is an opt-in path).

Both compare medians over `bench_micro --json`'s repetitions (a
single-run file's plain figure stands in) and print each benchmark's
coefficient of variation. Where a CV exceeds the bound a comparison is
held to, the comparison is reported as unresolved: that spread can hide
a difference of the bound's size. A median beyond the bound fails either
way.

Exit code 0 = within budget (or nothing comparable), 1 = regression.

Usage:
  tools/check_telemetry_overhead.py BENCH_micro.json [--baseline OLD.json]
      [--budget 3.0] [--max-on-overhead PCT]
"""

import argparse
import json
import sys

from gbench_json import (cv_percent, describe_cv, median_items_per_second,
                         unresolved)

STEADY = "BM_PacketForwardingSteadyState"
TRACED = "BM_PacketForwardingTelemetryOn"

# (off-path name, on-path name, does --max-on-overhead bound this pair)
PAIRS = (
    (STEADY, TRACED, True),
    ("BM_SessionLifecycle", "BM_SessionLifecycleQoeOn", False),
)


def load(path):
    with open(path, "r", encoding="utf-8") as f:
        return json.load(f)


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("fresh", help="BENCH_micro.json from this run")
    parser.add_argument("--baseline", help="committed BENCH_micro.json")
    parser.add_argument("--budget", type=float, default=3.0,
                        help="max %% slowdown of any telemetry-off path")
    parser.add_argument("--max-on-overhead", type=float, default=None,
                        help="optionally also bound the tracing-on delta")
    args = parser.parse_args()

    fresh = load(args.fresh)
    if fresh.get("context", {}).get("assertions") == "enabled":
        print("check_telemetry_overhead: fresh run is a debug/assert build; "
              "numbers are not comparable -- skipping", file=sys.stderr)
        return 0

    base = load(args.baseline) if args.baseline else None
    base_host = (base or {}).get("context", {}).get("host_name")
    fresh_host = fresh.get("context", {}).get("host_name")

    failed = False
    for off_name, on_name, bound_on in PAIRS:
        off = median_items_per_second(fresh, off_name)
        on = median_items_per_second(fresh, on_name)
        off_cv = cv_percent(fresh, off_name)
        on_cv = cv_percent(fresh, on_name)

        if off is not None and on is not None and on > 0:
            delta = (off / on - 1.0) * 100.0
            print(f"telemetry-on cost: {off_name} {off:,.0f} items/s vs "
                  f"{on_name} {on:,.0f} items/s ({delta:+.1f}%; CV "
                  f"{describe_cv(off_cv)} vs {describe_cv(on_cv)})")
            if bound_on and args.max_on_overhead is not None:
                if delta > args.max_on_overhead:
                    print(f"FAIL: tracing-on overhead {delta:.1f}% exceeds "
                          f"{args.max_on_overhead:.1f}%", file=sys.stderr)
                    failed = True
                elif unresolved(args.max_on_overhead, off_cv, on_cv):
                    print("  unresolved: a CV above the "
                          f"{args.max_on_overhead:.1f}% bound can hide an "
                          "overhead of that size")

        if base is None:
            continue
        base_off = median_items_per_second(base, off_name)
        base_cv = cv_percent(base, off_name)
        if base_off is None or off is None:
            print("check_telemetry_overhead: no comparable "
                  f"{off_name} in baseline -- skipping off-path check")
        elif base_host != fresh_host:
            print(f"check_telemetry_overhead: baseline host {base_host!r} != "
                  f"{fresh_host!r}; cross-host numbers are noise -- "
                  "warn only")
            print(f"  baseline {base_off:,.0f} items/s, fresh {off:,.0f}")
        else:
            slowdown = (base_off / off - 1.0) * 100.0 if off > 0 else 0.0
            print(f"telemetry-off path vs baseline: {off_name} "
                  f"{off:,.0f} items/s "
                  f"(baseline {base_off:,.0f}, {slowdown:+.1f}%; CV "
                  f"{describe_cv(off_cv)}, baseline {describe_cv(base_cv)})")
            if slowdown > args.budget:
                print(f"FAIL: telemetry-off path {off_name} regressed "
                      f"{slowdown:.1f}% > budget {args.budget:.1f}%",
                      file=sys.stderr)
                failed = True
            elif unresolved(args.budget, off_cv, base_cv):
                print(f"  unresolved: a CV above the {args.budget:.1f}% "
                      "budget can hide a slowdown of that size")

    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
