#include "telemetry/qoe.hpp"

#include <algorithm>
#include <cstdio>

#include "util/stats.hpp"

namespace hyms::telemetry {
namespace {

void append_json_escaped(std::string& out, std::string_view s) {
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
}

// Fixed-precision number formatting so the export is byte-stable: %g would
// flip between fixed and scientific notation across value ranges.
void append_fixed(std::string& out, double v, int precision) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", precision, v);
  out += buf;
}

void append_stat(std::string& out, std::string_view key, const SloStat& s) {
  out += '"';
  out += key;
  out += "\": {\"p50\": ";
  append_fixed(out, s.p50, 3);
  out += ", \"p95\": ";
  append_fixed(out, s.p95, 3);
  out += ", \"p99\": ";
  append_fixed(out, s.p99, 3);
  out += ", \"mean\": ";
  append_fixed(out, s.mean, 3);
  out += ", \"max\": ";
  append_fixed(out, s.max, 3);
  char buf[32];
  std::snprintf(buf, sizeof(buf), ", \"samples\": %zu}", s.samples);
  out += buf;
}

}  // namespace

std::string_view to_string(QoeOutcome outcome) {
  switch (outcome) {
    case QoeOutcome::kPending: return "pending";
    case QoeOutcome::kCompleted: return "completed";
    case QoeOutcome::kDegraded: return "degraded";
    case QoeOutcome::kAborted: return "aborted";
  }
  return "?";
}

SloStat slo_stat(std::vector<double> values) {
  SloStat stat;
  stat.samples = values.size();
  if (values.empty()) return stat;
  std::sort(values.begin(), values.end());
  stat.p50 = util::percentile_of_sorted(values, 50);
  stat.p95 = util::percentile_of_sorted(values, 95);
  stat.p99 = util::percentile_of_sorted(values, 99);
  stat.max = values.back();
  double sum = 0.0;
  for (const double v : values) sum += v;
  stat.mean = sum / static_cast<double>(values.size());
  return stat;
}

QoeRecord& QoeCollector::session(std::uint32_t trace_id,
                                 std::string_view label) {
  const auto it = index_.find(trace_id);
  if (it != index_.end()) {
    QoeRecord& rec = records_[it->second];
    if (rec.session.empty() && !label.empty()) rec.session = label;
    return rec;
  }
  index_.emplace(trace_id, records_.size());
  records_.emplace_back();
  QoeRecord& rec = records_.back();
  rec.trace_id = trace_id;
  rec.session = label;
  return rec;
}

QoeRecord* QoeCollector::find(std::uint32_t trace_id) {
  const auto it = index_.find(trace_id);
  return it == index_.end() ? nullptr : &records_[it->second];
}

const QoeRecord* QoeCollector::find(std::uint32_t trace_id) const {
  const auto it = index_.find(trace_id);
  return it == index_.end() ? nullptr : &records_[it->second];
}

void QoeCollector::add(const QoeRecord& record) {
  QoeRecord& rec = session(record.trace_id, record.session);
  bool levels_empty = true;
  for (int l = 0; l < kQoeLevels; ++l) {
    levels_empty = levels_empty && rec.level_slots[l] == 0;
  }
  if (rec.total_slots == 0 && rec.outcome == QoeOutcome::kPending &&
      rec.black_box.empty() && rec.play_ms == 0.0 && rec.startup_ms < 0 &&
      rec.quality_changes == 0 && rec.rebuffer_count == 0 && levels_empty &&
      rec.recoveries == 0 && rec.max_skew_ms == 0.0 &&
      rec.admission_retries == 0 && rec.queue_wait_ms == 0.0) {
    // Freshly created (or still all-default): plain copy keeps labels exact.
    const std::string label = rec.session;
    rec = record;
    if (rec.session.empty()) rec.session = label;
    return;
  }
  // Field-wise commutative merge over disjoint/partial fills.
  rec.startup_ms = std::max(rec.startup_ms, record.startup_ms);
  rec.rebuffer_count += record.rebuffer_count;
  rec.rebuffer_ms += record.rebuffer_ms;
  rec.play_ms += record.play_ms;
  rec.max_skew_ms = std::max(rec.max_skew_ms, record.max_skew_ms);
  rec.fresh_slots += record.fresh_slots;
  rec.total_slots += record.total_slots;
  rec.quality_changes += record.quality_changes;
  for (int l = 0; l < kQoeLevels; ++l) {
    rec.level_slots[l] += record.level_slots[l];
  }
  rec.recoveries += record.recoveries;
  rec.admission_retries += record.admission_retries;
  rec.queue_wait_ms += record.queue_wait_ms;
  rec.outcome = std::max(rec.outcome, record.outcome);
  rec.black_box.insert(rec.black_box.end(), record.black_box.begin(),
                       record.black_box.end());
}

void QoeCollector::push(Ring& ring, std::int64_t ts_us,
                        std::string_view text) {
  if (ring_capacity_ == 0) return;
  if (ring.entries.size() < ring_capacity_) {
    ring.entries.push_back(RingEntry{ts_us, std::string(text)});
  } else {
    ring.entries[ring.next].ts_us = ts_us;
    ring.entries[ring.next].text = text;
    ring.next = (ring.next + 1) % ring_capacity_;
  }
  ++ring.seen;
}

std::vector<QoeCollector::RingEntry> QoeCollector::chronological(
    const Ring& ring) const {
  std::vector<RingEntry> out;
  out.reserve(ring.entries.size());
  for (std::size_t i = ring.next; i < ring.entries.size(); ++i) {
    out.push_back(ring.entries[i]);
  }
  for (std::size_t i = 0; i < ring.next; ++i) {
    out.push_back(ring.entries[i]);
  }
  return out;
}

void QoeCollector::note_event(std::uint32_t trace_id, Time at,
                              std::string_view text) {
  push(rings_[trace_id], at.us(), text);
}

void QoeCollector::note_world_event(Time at, std::string_view text) {
  push(world_, at.us(), text);
}

std::size_t QoeCollector::ring_size(std::uint32_t trace_id) const {
  const auto it = rings_.find(trace_id);
  return it == rings_.end() ? 0 : it->second.entries.size();
}

void QoeCollector::seal(std::uint32_t trace_id, QoeOutcome outcome) {
  QoeRecord& rec = session(trace_id);
  rec.outcome = std::max(rec.outcome, outcome);
  if (!sealed_.insert(trace_id).second) return;  // only the first seal dumps
  const auto it = rings_.find(trace_id);
  if (rec.outcome == QoeOutcome::kCompleted ||
      rec.outcome == QoeOutcome::kPending) {
    // Normal end: the ring has served its purpose, free it.
    if (it != rings_.end()) rings_.erase(it);
    return;
  }
  // Abnormal end: dump the session ring merged chronologically with the
  // world-scoped ring (fault hits) into the black box.
  std::vector<RingEntry> dump;
  if (it != rings_.end()) dump = chronological(it->second);
  std::int64_t session_dropped = 0;
  if (it != rings_.end()) {
    session_dropped =
        it->second.seen - static_cast<std::int64_t>(it->second.entries.size());
  }
  for (const RingEntry& e : chronological(world_)) {
    dump.push_back(RingEntry{e.ts_us, "world: " + e.text});
  }
  std::stable_sort(dump.begin(), dump.end(),
                   [](const RingEntry& a, const RingEntry& b) {
                     return a.ts_us < b.ts_us;
                   });
  rec.black_box.reserve(rec.black_box.size() + dump.size() + 1);
  if (session_dropped > 0) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "... %lld earlier events dropped",
                  static_cast<long long>(session_dropped));
    rec.black_box.emplace_back(buf);
  }
  for (const RingEntry& e : dump) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "t=%.6fs ",
                  static_cast<double>(e.ts_us) / 1e6);
    rec.black_box.push_back(std::string(buf) + e.text);
  }
  if (it != rings_.end()) rings_.erase(it);
}

SloReport QoeCollector::report(const SloTargets& targets) const {
  SloReport rep;
  rep.targets = targets;
  rep.sessions = records_.size();
  std::vector<double> startup, rebuf, skew, fresh;
  std::size_t compliant = 0;
  for (const QoeRecord& rec : records_) {
    switch (rec.outcome) {
      case QoeOutcome::kCompleted: ++rep.completed; break;
      case QoeOutcome::kDegraded: ++rep.degraded; break;
      case QoeOutcome::kAborted: ++rep.aborted; break;
      case QoeOutcome::kPending: ++rep.pending; break;
    }
    if (rec.startup_ms >= 0.0) startup.push_back(rec.startup_ms);
    if (rec.play_ms + rec.rebuffer_ms > 0.0) {
      rebuf.push_back(rec.rebuffer_ratio());
    }
    skew.push_back(rec.max_skew_ms);
    if (rec.total_slots > 0) fresh.push_back(rec.fresh_ratio());
    const bool ok = rec.outcome == QoeOutcome::kCompleted &&
                    rec.startup_ms >= 0.0 &&
                    rec.startup_ms <= targets.startup_ms &&
                    rec.rebuffer_ratio() <= targets.rebuffer_ratio &&
                    rec.max_skew_ms <= targets.max_skew_ms &&
                    rec.total_slots > 0 &&
                    rec.fresh_ratio() >= targets.min_fresh_ratio;
    if (ok) ++compliant;
  }
  rep.startup_ms = slo_stat(std::move(startup));
  rep.rebuffer_ratio = slo_stat(std::move(rebuf));
  rep.max_skew_ms = slo_stat(std::move(skew));
  rep.fresh_ratio = slo_stat(std::move(fresh));
  rep.compliance = records_.empty()
                       ? 1.0
                       : static_cast<double>(compliant) /
                             static_cast<double>(records_.size());
  const double budget = 1.0 - targets.target_compliance;
  rep.error_budget_burn = budget > 0.0 ? (1.0 - rep.compliance) / budget : 0.0;
  return rep;
}

std::string QoeCollector::to_json(const SloTargets& targets) const {
  const SloReport rep = report(targets);
  std::string out;
  out.reserve(512 + records_.size() * 256);
  char buf[128];
  out += "{\n  \"schema\": \"hyms-slo-v1\",\n  \"slo\": {\n";
  std::snprintf(buf, sizeof(buf),
                "    \"sessions\": %zu,\n"
                "    \"outcomes\": {\"completed\": %d, \"degraded\": %d, "
                "\"aborted\": %d, \"pending\": %d},\n",
                rep.sessions, rep.completed, rep.degraded, rep.aborted,
                rep.pending);
  out += buf;
  out += "    \"targets\": {\"startup_ms\": ";
  append_fixed(out, targets.startup_ms, 3);
  out += ", \"rebuffer_ratio\": ";
  append_fixed(out, targets.rebuffer_ratio, 4);
  out += ", \"max_skew_ms\": ";
  append_fixed(out, targets.max_skew_ms, 3);
  out += ", \"min_fresh_ratio\": ";
  append_fixed(out, targets.min_fresh_ratio, 4);
  out += ", \"target_compliance\": ";
  append_fixed(out, targets.target_compliance, 4);
  out += "},\n    \"metrics\": {\n      ";
  append_stat(out, "startup_ms", rep.startup_ms);
  out += ",\n      ";
  append_stat(out, "rebuffer_ratio", rep.rebuffer_ratio);
  out += ",\n      ";
  append_stat(out, "max_skew_ms", rep.max_skew_ms);
  out += ",\n      ";
  append_stat(out, "fresh_ratio", rep.fresh_ratio);
  out += "\n    },\n    \"compliance\": ";
  append_fixed(out, rep.compliance, 6);
  out += ",\n    \"error_budget_burn\": ";
  append_fixed(out, rep.error_budget_burn, 4);
  out += "\n  },\n  \"sessions\": [";

  // Canonical order: (trace_id, session label) — independent of creation
  // order, so sequential and parallel/partitioned runs export identically.
  std::vector<const QoeRecord*> ordered;
  ordered.reserve(records_.size());
  for (const QoeRecord& rec : records_) ordered.push_back(&rec);
  std::sort(ordered.begin(), ordered.end(),
            [](const QoeRecord* a, const QoeRecord* b) {
              if (a->trace_id != b->trace_id) return a->trace_id < b->trace_id;
              return a->session < b->session;
            });
  bool first = true;
  for (const QoeRecord* rec : ordered) {
    out += first ? "\n" : ",\n";
    first = false;
    std::snprintf(buf, sizeof(buf), "    {\"trace_id\": %u, \"session\": \"",
                  rec->trace_id);
    out += buf;
    append_json_escaped(out, rec->session);
    out += "\", \"outcome\": \"";
    out += to_string(rec->outcome);
    out += "\", \"startup_ms\": ";
    append_fixed(out, rec->startup_ms, 3);
    std::snprintf(buf, sizeof(buf), ", \"rebuffer_count\": %d",
                  rec->rebuffer_count);
    out += buf;
    out += ", \"rebuffer_ms\": ";
    append_fixed(out, rec->rebuffer_ms, 3);
    out += ", \"play_ms\": ";
    append_fixed(out, rec->play_ms, 3);
    out += ", \"rebuffer_ratio\": ";
    append_fixed(out, rec->rebuffer_ratio(), 6);
    out += ", \"max_skew_ms\": ";
    append_fixed(out, rec->max_skew_ms, 3);
    out += ", \"fresh_ratio\": ";
    append_fixed(out, rec->fresh_ratio(), 6);
    std::snprintf(buf, sizeof(buf),
                  ", \"quality_changes\": %d, \"level_slots\": [%d, %d, %d, "
                  "%d], \"recoveries\": %d, \"admission_retries\": %d",
                  rec->quality_changes, rec->level_slots[0],
                  rec->level_slots[1], rec->level_slots[2],
                  rec->level_slots[3], rec->recoveries,
                  rec->admission_retries);
    out += buf;
    out += ", \"queue_wait_ms\": ";
    append_fixed(out, rec->queue_wait_ms, 3);
    out += ", \"black_box\": [";
    for (std::size_t i = 0; i < rec->black_box.size(); ++i) {
      out += i == 0 ? "\"" : ", \"";
      append_json_escaped(out, rec->black_box[i]);
      out += '"';
    }
    out += "]}";
  }
  out += first ? "]\n}\n" : "\n  ]\n}\n";
  return out;
}

void QoeCollector::merge_from(const QoeCollector& other) {
  for (const QoeRecord& rec : other.records_) add(rec);
  for (const auto& [trace_id, ring] : other.rings_) {
    for (const RingEntry& e : chronological(ring)) {
      push(rings_[trace_id], e.ts_us, e.text);
    }
  }
  for (const RingEntry& e : chronological(other.world_)) {
    push(world_, e.ts_us, e.text);
  }
}

}  // namespace hyms::telemetry
