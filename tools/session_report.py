#!/usr/bin/env python3
"""Render the observability plane's exports as human-readable reports.

Inputs (either or both):

- An SLO JSON file ("hyms-slo-v1", from --slo-json on bench_chaos /
  bench_multisession / bench_population or QoeCollector::to_json):
  prints the fleet SLO table (percentiles per metric, outcome counts,
  compliance, error-budget burn) and then per-session QoE reports —
  slowest/worst exemplars first — including each abnormal session's
  flight-recorder black box.

- A Perfetto trace-event JSON file (from --trace): reconstructs each
  session's causal tree from the flow events (ph s/t/f; the flow id packs
  the trace id in its upper bits, id >> 24) and prints a per-session
  causal timeline: which track touched the request when, request->reply
  latencies, and where the flow terminated.

--validate checks the SLO file against the hyms-slo-v1 schema and exits
non-zero on any violation (CI gate); it is quiet on success.

Usage:
  tools/session_report.py --slo chaos_slo.json [--trace chaos_trace.json]
      [--sessions N] [--validate]

stdlib only; no third-party dependencies.
"""

import argparse
import json
import sys

# Upper bits of a Perfetto flow id carry the session trace id (the low 24
# bits are the client's span sequence) — keep in sync with
# telemetry::TraceContext::flow_id().
FLOW_SPAN_BITS = 24

SCHEMA = "hyms-slo-v1"

SLO_METRICS = ("startup_ms", "rebuffer_ratio", "max_skew_ms", "fresh_ratio")
STAT_FIELDS = ("p50", "p95", "p99", "mean", "max", "samples")
OUTCOMES = ("completed", "degraded", "aborted", "pending")
SESSION_NUMBER_FIELDS = (
    "trace_id", "startup_ms", "rebuffer_count", "rebuffer_ms", "play_ms",
    "rebuffer_ratio", "max_skew_ms", "fresh_ratio", "quality_changes",
    "recoveries", "admission_retries", "queue_wait_ms",
)


def load(path):
    with open(path, "r", encoding="utf-8") as f:
        return json.load(f)


def validate_slo(doc):
    """Return a list of schema-violation strings (empty = valid)."""
    errors = []

    def need(cond, msg):
        if not cond:
            errors.append(msg)
        return cond

    if not need(isinstance(doc, dict), "top level is not an object"):
        return errors
    need(doc.get("schema") == SCHEMA,
         f"schema is {doc.get('schema')!r}, expected {SCHEMA!r}")
    slo = doc.get("slo")
    if need(isinstance(slo, dict), "missing 'slo' object"):
        need(isinstance(slo.get("sessions"), int), "slo.sessions not an int")
        outcomes = slo.get("outcomes")
        if need(isinstance(outcomes, dict), "missing slo.outcomes"):
            for key in OUTCOMES:
                need(isinstance(outcomes.get(key), int),
                     f"slo.outcomes.{key} not an int")
        metrics = slo.get("metrics")
        if need(isinstance(metrics, dict), "missing slo.metrics"):
            for name in SLO_METRICS:
                stat = metrics.get(name)
                if need(isinstance(stat, dict), f"missing slo.metrics.{name}"):
                    for field in STAT_FIELDS:
                        need(isinstance(stat.get(field), (int, float)),
                             f"slo.metrics.{name}.{field} not a number")
        for field in ("compliance", "error_budget_burn"):
            need(isinstance(slo.get(field), (int, float)),
                 f"slo.{field} not a number")
        need(isinstance(slo.get("targets"), dict), "missing slo.targets")
    sessions = doc.get("sessions")
    if need(isinstance(sessions, list), "missing 'sessions' array"):
        if isinstance(slo, dict) and isinstance(slo.get("sessions"), int):
            need(len(sessions) == slo["sessions"],
                 f"slo.sessions={slo['sessions']} but {len(sessions)} records")
        for i, rec in enumerate(sessions):
            if not need(isinstance(rec, dict), f"sessions[{i}] not an object"):
                continue
            for field in SESSION_NUMBER_FIELDS:
                need(isinstance(rec.get(field), (int, float)),
                     f"sessions[{i}].{field} not a number")
            need(rec.get("outcome") in OUTCOMES,
                 f"sessions[{i}].outcome is {rec.get('outcome')!r}")
            need(isinstance(rec.get("session"), str),
                 f"sessions[{i}].session not a string")
            levels = rec.get("level_slots")
            need(isinstance(levels, list) and
                 all(isinstance(v, int) for v in levels),
                 f"sessions[{i}].level_slots not an int array")
    return errors


def badness(rec):
    """Sort key: worst sessions first (aborted > degraded > slow startup)."""
    outcome_rank = {"aborted": 3, "degraded": 2, "pending": 1,
                    "completed": 0}.get(rec.get("outcome"), 0)
    return (outcome_rank, rec.get("rebuffer_ratio", 0.0),
            -rec.get("fresh_ratio", 1.0), rec.get("startup_ms", 0.0))


def print_slo_table(doc):
    slo = doc["slo"]
    out = slo["outcomes"]
    print(f"fleet: {slo['sessions']} sessions — "
          f"completed={out['completed']} degraded={out['degraded']} "
          f"aborted={out['aborted']} pending={out['pending']}")
    print(f"  compliance {slo['compliance']:.4f} "
          f"(target {slo['targets'].get('target_compliance', 0.99)}), "
          f"error-budget burn {slo['error_budget_burn']:.2f}x")
    header = f"  {'metric':<16}{'p50':>10}{'p95':>10}{'p99':>10}" \
             f"{'mean':>10}{'max':>10}{'n':>6}"
    print(header)
    print("  " + "-" * (len(header) - 2))
    for name in SLO_METRICS:
        stat = slo["metrics"][name]
        print(f"  {name:<16}{stat['p50']:>10.3f}{stat['p95']:>10.3f}"
              f"{stat['p99']:>10.3f}{stat['mean']:>10.3f}{stat['max']:>10.3f}"
              f"{stat['samples']:>6}")


def print_session_qoe(rec):
    print(f"\n== {rec['session']} (trace {rec['trace_id']}): "
          f"{rec['outcome'].upper()}")
    print(f"   startup {rec['startup_ms']:.1f} ms | "
          f"play {rec['play_ms'] / 1000.0:.2f} s | "
          f"rebuffers {rec['rebuffer_count']} "
          f"({rec['rebuffer_ms']:.0f} ms, ratio {rec['rebuffer_ratio']:.4f})")
    print(f"   fresh ratio {rec['fresh_ratio']:.3f} | "
          f"max skew {rec['max_skew_ms']:.1f} ms | "
          f"quality changes {rec['quality_changes']} "
          f"levels {rec['level_slots']} | recoveries {rec['recoveries']}")
    if rec.get("admission_retries") or rec.get("queue_wait_ms"):
        print(f"   admission retries {rec['admission_retries']} | "
              f"queue wait {rec['queue_wait_ms']:.0f} ms")
    black_box = rec.get("black_box", [])
    if black_box:
        print("   flight recorder:")
        for line in black_box:
            print(f"     {line}")


def load_flows(trace_path):
    """Map trace id -> chronological flow touches from a Perfetto export."""
    doc = load(trace_path)
    events = doc.get("traceEvents", doc if isinstance(doc, list) else [])
    track_names = {}
    for ev in events:
        if ev.get("ph") == "M" and ev.get("name") == "thread_name":
            track_names[ev.get("tid")] = ev.get("args", {}).get("name", "?")
    flows = {}
    for ev in events:
        if ev.get("ph") not in ("s", "t", "f"):
            continue
        flow_id = int(ev.get("id", 0))
        trace_id = flow_id >> FLOW_SPAN_BITS
        flows.setdefault(trace_id, []).append({
            "ts_us": int(ev.get("ts", 0)),
            "phase": ev["ph"],
            "name": ev.get("name", "?"),
            "track": track_names.get(ev.get("tid"), f"tid {ev.get('tid')}"),
            "flow": flow_id,
        })
    for touches in flows.values():
        touches.sort(key=lambda t: (t["ts_us"], t["flow"],
                                    "stf".index(t["phase"])))
    return flows


PHASE_GLYPH = {"s": "->", "t": " |", "f": "<-"}


def print_causal_timeline(trace_id, touches):
    print(f"   causal timeline ({len(touches)} flow touches):")
    open_at = {}  # flow id -> send timestamp, for request->end latency
    for touch in touches:
        latency = ""
        if touch["phase"] == "s":
            open_at[touch["flow"]] = touch["ts_us"]
        elif touch["flow"] in open_at:
            delta_ms = (touch["ts_us"] - open_at[touch["flow"]]) / 1000.0
            latency = f"  (+{delta_ms:.2f} ms)"
            if touch["phase"] == "f":
                del open_at[touch["flow"]]
        print(f"     t={touch['ts_us'] / 1e6:10.6f}s "
              f"{PHASE_GLYPH[touch['phase']]} {touch['name']:<22} "
              f"@ {touch['track']}{latency}")
    for flow, ts in sorted(open_at.items()):
        print(f"     flow {flow & ((1 << FLOW_SPAN_BITS) - 1)} "
              f"(sent t={ts / 1e6:.6f}s) never terminated")


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--slo", help="hyms-slo-v1 JSON (--slo-json output)")
    parser.add_argument("--trace", help="Perfetto trace JSON (--trace output)")
    parser.add_argument("--sessions", type=int, default=5,
                        help="how many per-session exemplars to print")
    parser.add_argument("--validate", action="store_true",
                        help="only validate the SLO schema (CI gate)")
    args = parser.parse_args()
    if not args.slo and not args.trace:
        parser.error("need --slo and/or --trace")

    slo_doc = load(args.slo) if args.slo else None
    if args.validate:
        if slo_doc is None:
            parser.error("--validate needs --slo")
        errors = validate_slo(slo_doc)
        for err in errors:
            print(f"session_report: schema violation: {err}", file=sys.stderr)
        return 1 if errors else 0

    flows = load_flows(args.trace) if args.trace else {}

    if slo_doc is not None:
        errors = validate_slo(slo_doc)
        if errors:
            for err in errors:
                print(f"session_report: schema violation: {err}",
                      file=sys.stderr)
            return 1
        print_slo_table(slo_doc)
        ranked = sorted(slo_doc["sessions"], key=badness, reverse=True)
        for rec in ranked[:args.sessions]:
            print_session_qoe(rec)
            touches = flows.get(rec["trace_id"])
            if touches:
                print_causal_timeline(rec["trace_id"], touches)
    else:
        # Trace only: print every session's causal timeline.
        for trace_id in sorted(flows):
            print(f"\n== session trace {trace_id}")
            print_causal_timeline(trace_id, flows[trace_id])
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BrokenPipeError:
        # Downstream consumer (e.g. `| head`, `| grep -q`) closed the pipe
        # early; that is not an error. Detach stdout so the interpreter's
        # shutdown flush doesn't raise again.
        sys.stdout = None
        sys.exit(0)
