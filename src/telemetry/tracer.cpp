#include "telemetry/tracer.hpp"

#include <algorithm>
#include <cstdio>

namespace hyms::telemetry {
namespace {

// Interning shared by tracks and event names: binary-search a sorted index
// of ids, append to the id->string table on miss.
std::uint32_t intern_name(std::string_view name, std::vector<std::string>& table,
                          std::vector<std::uint32_t>& by_name) {
  const auto it = std::lower_bound(
      by_name.begin(), by_name.end(), name,
      [&table](std::uint32_t id, std::string_view n) { return table[id] < n; });
  if (it != by_name.end() && table[*it] == name) return *it;
  const auto id = static_cast<std::uint32_t>(table.size());
  table.emplace_back(name);
  by_name.insert(it, id);
  return id;
}

// JSON string escaping for names; our names are plain ASCII identifiers but
// escape the JSON-breaking characters anyway so exports always parse.
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

void append_double(std::string& out, double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.6g", v);
  out += buf;
}

}  // namespace

TrackId SpanTracer::track(std::string_view name) {
  return intern_name(name, track_names_, tracks_by_name_);
}

NameId SpanTracer::name(std::string_view event_name) {
  return intern_name(event_name, event_names_, names_by_name_);
}

std::string SpanTracer::to_chrome_json() const {
  std::string out;
  out.reserve(64 + track_names_.size() * 80 + records_.size() * 96);
  out += "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  bool first = true;
  const auto sep = [&out, &first] {
    if (!first) out += ',';
    first = false;
  };
  char buf[64];
  // Thread-name metadata: every track becomes a named thread of process 1,
  // so Perfetto shows the track names instead of bare tids.
  for (std::size_t tid = 0; tid < track_names_.size(); ++tid) {
    sep();
    out += "{\"ph\":\"M\",\"pid\":1,\"tid\":";
    std::snprintf(buf, sizeof(buf), "%zu", tid + 1);
    out += buf;
    out += ",\"name\":\"thread_name\",\"args\":{\"name\":\"";
    append_json_escaped(out, track_names_[tid]);
    out += "\"}}";
  }
  // Stable thread ordering = intern order (creation order reads naturally:
  // sim, links, server, client tracks group together).
  for (std::size_t tid = 0; tid < track_names_.size(); ++tid) {
    sep();
    out += "{\"ph\":\"M\",\"pid\":1,\"tid\":";
    std::snprintf(buf, sizeof(buf), "%zu", tid + 1);
    out += buf;
    out += ",\"name\":\"thread_sort_index\",\"args\":{\"sort_index\":";
    out += buf;
    out += "}}";
  }
  for (const Record& r : records_) {
    sep();
    out += "{\"ph\":\"";
    switch (r.phase) {
      case Phase::kBegin: out += 'B'; break;
      case Phase::kEnd: out += 'E'; break;
      case Phase::kInstant: out += 'i'; break;
      case Phase::kCounter: out += 'C'; break;
      case Phase::kFlowStart: out += 's'; break;
      case Phase::kFlowStep: out += 't'; break;
      case Phase::kFlowEnd: out += 'f'; break;
    }
    out += "\",\"pid\":1,\"tid\":";
    std::snprintf(buf, sizeof(buf), "%u", r.track + 1);
    out += buf;
    std::snprintf(buf, sizeof(buf), ",\"ts\":%lld",
                  static_cast<long long>(r.ts_us));
    out += buf;
    if (r.name != kInvalidTraceId) {
      out += ",\"name\":\"";
      append_json_escaped(out, event_names_[r.name]);
      out += '"';
    }
    switch (r.phase) {
      case Phase::kInstant:
        out += ",\"s\":\"t\"";  // thread-scoped instant
        if (r.value != 0.0) {
          out += ",\"args\":{\"value\":";
          append_double(out, r.value);
          out += '}';
        }
        break;
      case Phase::kCounter:
        out += ",\"args\":{\"value\":";
        append_double(out, r.value);
        out += '}';
        break;
      case Phase::kFlowStart:
      case Phase::kFlowStep:
      case Phase::kFlowEnd:
        // Flow id is an exact integer riding in the double value slot.
        out += ",\"cat\":\"flow\",\"id\":";
        std::snprintf(buf, sizeof(buf), "%llu",
                      static_cast<unsigned long long>(r.value));
        out += buf;
        if (r.phase == Phase::kFlowEnd) out += ",\"bp\":\"e\"";
        break;
      default:
        break;
    }
    out += '}';
  }
  out += "]}";
  return out;
}

std::string SpanTracer::to_csv() const {
  std::string out = "ts_us,track,phase,name,value\n";
  char buf[64];
  for (const Record& r : records_) {
    std::snprintf(buf, sizeof(buf), "%lld,", static_cast<long long>(r.ts_us));
    out += buf;
    out += track_names_[r.track];
    switch (r.phase) {
      case Phase::kBegin: out += ",B,"; break;
      case Phase::kEnd: out += ",E,"; break;
      case Phase::kInstant: out += ",i,"; break;
      case Phase::kCounter: out += ",C,"; break;
      case Phase::kFlowStart: out += ",s,"; break;
      case Phase::kFlowStep: out += ",t,"; break;
      case Phase::kFlowEnd: out += ",f,"; break;
    }
    if (r.name != kInvalidTraceId) out += event_names_[r.name];
    out += ',';
    append_double(out, r.value);
    out += '\n';
  }
  return out;
}

}  // namespace hyms::telemetry
