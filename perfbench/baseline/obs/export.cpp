#include "obs/export.hpp"

#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <map>
#include <set>
#include <utility>

namespace cagvt::obs {
namespace {

/// Deterministic printf into an accumulating string.
template <typename... Args>
void appendf(std::string& out, const char* fmt, Args... args) {
  char buf[256];
  const int n = std::snprintf(buf, sizeof buf, fmt, args...);
  out.append(buf, static_cast<std::size_t>(n > 0 ? n : 0));
}

/// Chrome trace timestamps are microseconds; three decimals keep full
/// nanosecond resolution.
void append_ts(std::string& out, std::int64_t t_ns) {
  appendf(out, "\"ts\":%" PRId64 ".%03d", t_ns / 1000,
          static_cast<int>(t_ns % 1000));
}

/// Track ids within a node's process: 0 is the node/GVT/agent scope, worker
/// w maps to w + 1.
int tid_of(const TraceRecord& rec) { return rec.worker < 0 ? 0 : rec.worker + 1; }

/// JSON has no representation for non-finite doubles; a final-round GVT can
/// legitimately be +infinity. Clamp to the double extreme so the file stays
/// parseable and the value stays unmistakably "off the scale".
double json_double(double v) {
  if (std::isnan(v)) return 0.0;
  if (std::isinf(v)) return v > 0 ? 1e308 : -1e308;
  return v;
}

void append_event_prefix(std::string& out, const char* ph, const TraceRecord& rec) {
  appendf(out, "{\"ph\":\"%s\",\"pid\":%d,\"tid\":%d,", ph, static_cast<int>(rec.node),
          tid_of(rec));
  append_ts(out, rec.t);
}

void append_name(std::string& out, const char* name, const char* suffix) {
  out += ",\"name\":\"";
  out += name;
  if (suffix != nullptr && suffix[0] != '\0') {
    out += ':';
    out += suffix;
  }
  out += '"';
}

}  // namespace

const char* to_string(RecordKind kind) {
  switch (kind) {
    case RecordKind::kRoundBegin: return "round_begin";
    case RecordKind::kRoundEnd: return "round_end";
    case RecordKind::kPhaseChange: return "phase";
    case RecordKind::kWhiteRed: return "white_red";
    case RecordKind::kBarrierEnter: return "barrier_enter";
    case RecordKind::kBarrierExit: return "barrier_exit";
    case RecordKind::kRingLeg: return "ring_leg";
    case RecordKind::kGvtComputed: return "gvt_computed";
    case RecordKind::kModeSwitch: return "mode_switch";
    case RecordKind::kRollback: return "rollback";
    case RecordKind::kFossil: return "fossil";
    case RecordKind::kMpiSend: return "mpi_send";
    case RecordKind::kMpiRecv: return "mpi_recv";
    case RecordKind::kFaultOn: return "fault_on";
    case RecordKind::kFaultOff: return "fault_off";
    case RecordKind::kCkptWrite: return "ckpt_write";
    case RecordKind::kCrash: return "crash";
    case RecordKind::kRestore: return "restore";
    case RecordKind::kRetransmit: return "retransmit";
    case RecordKind::kLbRoughness: return "lb_roughness";
    case RecordKind::kLbMigrate: return "lb_migrate";
    case RecordKind::kFlowPressure: return "flow_pressure";
    case RecordKind::kFlowStorm: return "flow_storm";
    case RecordKind::kFlowCancelback: return "flow_cancelback";
  }
  return "?";
}

std::string to_chrome_trace_json(const TraceRecorder& recorder) {
  std::string out;
  out.reserve(128 + recorder.records().size() * 120);
  out += "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";

  // Track metadata: name every process (node) and thread (track) that
  // appears, so Perfetto shows "node N" / "worker W" instead of raw ids.
  std::set<int> nodes;
  std::set<std::pair<int, int>> tracks;  // (node, tid)
  for (const TraceRecord& rec : recorder.records()) {
    if (rec.node < 0) continue;
    nodes.insert(rec.node);
    tracks.insert({rec.node, tid_of(rec)});
  }
  bool first = true;
  auto sep = [&out, &first] {
    if (!first) out += ',';
    first = false;
  };
  for (const int node : nodes) {
    sep();
    appendf(out,
            "{\"ph\":\"M\",\"pid\":%d,\"name\":\"process_name\","
            "\"args\":{\"name\":\"node %d\"}}",
            node, node);
  }
  for (const auto& [node, tid] : tracks) {
    sep();
    if (tid == 0) {
      appendf(out,
              "{\"ph\":\"M\",\"pid\":%d,\"tid\":0,\"name\":\"thread_name\","
              "\"args\":{\"name\":\"gvt/agent\"}}",
              node);
    } else {
      appendf(out,
              "{\"ph\":\"M\",\"pid\":%d,\"tid\":%d,\"name\":\"thread_name\","
              "\"args\":{\"name\":\"worker %d\"}}",
              node, tid, tid - 1);
    }
  }

  for (const TraceRecord& rec : recorder.records()) {
    sep();
    switch (rec.kind) {
      case RecordKind::kRoundBegin:
        append_event_prefix(out, "B", rec);
        append_name(out, "gvt round", rec.label);
        appendf(out, ",\"args\":{\"round\":%" PRIu64 ",\"mode\":\"%s\"}}", rec.round,
                rec.label);
        break;
      case RecordKind::kRoundEnd:
        append_event_prefix(out, "E", rec);
        out += '}';
        break;
      case RecordKind::kBarrierEnter:
        append_event_prefix(out, "B", rec);
        append_name(out, "barrier", rec.label);
        appendf(out, ",\"args\":{\"round\":%" PRIu64 "}}", rec.round);
        break;
      case RecordKind::kBarrierExit:
        append_event_prefix(out, "E", rec);
        out += '}';
        break;
      case RecordKind::kPhaseChange:
        append_event_prefix(out, "i", rec);
        append_name(out, "phase", rec.label);
        appendf(out, ",\"s\":\"t\",\"args\":{\"round\":%" PRIu64 "}}", rec.round);
        break;
      case RecordKind::kWhiteRed:
        append_event_prefix(out, "i", rec);
        append_name(out, "white->red", "");
        appendf(out, ",\"s\":\"t\",\"args\":{\"round\":%" PRIu64 "}}", rec.round);
        break;
      case RecordKind::kRingLeg:
        append_event_prefix(out, "i", rec);
        append_name(out, "ring", rec.label);
        appendf(out, ",\"s\":\"t\",\"args\":{\"round\":%" PRIu64 ",\"dst\":%" PRIu64 "}}",
                rec.round, rec.u);
        break;
      case RecordKind::kGvtComputed:
        append_event_prefix(out, "i", rec);
        append_name(out, "gvt_computed", "");
        appendf(out,
                ",\"s\":\"p\",\"args\":{\"round\":%" PRIu64
                ",\"gvt\":%.9g,\"efficiency\":%.9g,\"queue_peak\":%" PRIu64 "}}",
                rec.round, json_double(rec.a), rec.b, rec.u);
        // Counter tracks for the per-round GVT value and efficiency.
        sep();
        append_event_prefix(out, "C", rec);
        append_name(out, "gvt", "");
        appendf(out, ",\"args\":{\"gvt\":%.9g}}", json_double(rec.a));
        sep();
        append_event_prefix(out, "C", rec);
        append_name(out, "efficiency_pct", "");
        appendf(out, ",\"args\":{\"value\":%.9g}}", rec.b * 100.0);
        break;
      case RecordKind::kModeSwitch:
        append_event_prefix(out, "i", rec);
        append_name(out, "mode_switch", rec.label);
        appendf(out,
                ",\"s\":\"g\",\"args\":{\"round\":%" PRIu64
                ",\"efficiency\":%.9g,\"queue_peak\":%" PRIu64 "}}",
                rec.round, rec.a, rec.u);
        break;
      case RecordKind::kRollback:
        append_event_prefix(out, "i", rec);
        append_name(out, "rollback", rec.label);
        appendf(out, ",\"s\":\"t\",\"args\":{\"lp\":%" PRIu64 ",\"depth\":%" PRId64 "}}",
                rec.u, rec.value);
        break;
      case RecordKind::kFossil:
        append_event_prefix(out, "i", rec);
        append_name(out, "fossil", "");
        appendf(out, ",\"s\":\"t\",\"args\":{\"gvt\":%.9g,\"committed\":%" PRId64 "}}",
                json_double(rec.a), rec.value);
        break;
      case RecordKind::kMpiSend:
        append_event_prefix(out, "i", rec);
        append_name(out, "mpi_send", rec.label);
        appendf(out, ",\"s\":\"t\",\"args\":{\"dst\":%" PRIu64 ",\"bytes\":%" PRId64 "}}",
                rec.u, rec.value);
        break;
      case RecordKind::kMpiRecv:
        append_event_prefix(out, "i", rec);
        append_name(out, "mpi_recv", rec.label);
        out += ",\"s\":\"t\"}";
        break;
      case RecordKind::kFaultOn:
        // Fault windows render as duration slices on the node's GVT/agent
        // track, so Perfetto shows exactly when the cluster was perturbed.
        append_event_prefix(out, "B", rec);
        append_name(out, "fault", rec.label);
        appendf(out, ",\"args\":{\"fault\":%" PRIu64 ",\"magnitude\":%.9g}}", rec.u,
                rec.a);
        break;
      case RecordKind::kFaultOff:
        append_event_prefix(out, "E", rec);
        out += '}';
        break;
      case RecordKind::kCkptWrite:
        append_event_prefix(out, "i", rec);
        append_name(out, "ckpt_write", "");
        appendf(out, ",\"s\":\"t\",\"args\":{\"round\":%" PRIu64
                ",\"gvt\":%.9g,\"bytes\":%" PRId64 "}}",
                rec.round, json_double(rec.a), rec.value);
        break;
      case RecordKind::kCrash:
        append_event_prefix(out, "i", rec);
        append_name(out, "crash", "");
        appendf(out, ",\"s\":\"g\",\"args\":{\"fault\":%" PRIu64
                ",\"restart_at\":%.9g}}", rec.u, json_double(rec.a));
        break;
      case RecordKind::kRestore:
        append_event_prefix(out, "i", rec);
        append_name(out, "restore", "");
        appendf(out, ",\"s\":\"p\",\"args\":{\"round\":%" PRIu64
                ",\"ckpt_round\":%" PRIu64 ",\"gvt\":%.9g,\"bytes\":%" PRId64 "}}",
                rec.round, rec.u, json_double(rec.a), rec.value);
        break;
      case RecordKind::kRetransmit:
        append_event_prefix(out, "i", rec);
        append_name(out, "retransmit", rec.label);
        appendf(out, ",\"s\":\"t\",\"args\":{\"dst\":%" PRIu64 ",\"bytes\":%" PRId64 "}}",
                rec.u, rec.value);
        break;
      case RecordKind::kLbRoughness:
        // Counter track: the cluster's LVT roughness over time, the signal
        // the load balancer acts on.
        append_event_prefix(out, "C", rec);
        append_name(out, "lvt_roughness", "");
        appendf(out, ",\"args\":{\"width\":%.9g,\"smoothed\":%.9g}}",
                json_double(rec.a), json_double(rec.b));
        break;
      case RecordKind::kLbMigrate:
        append_event_prefix(out, "i", rec);
        append_name(out, "lb_migrate", "");
        appendf(out, ",\"s\":\"g\",\"args\":{\"round\":%" PRIu64 ",\"lp\":%" PRIu64
                ",\"src\":%d,\"dst\":%d,\"bytes\":%" PRId64 "}}",
                rec.round, rec.u, static_cast<int>(rec.a), static_cast<int>(rec.b),
                rec.value);
        break;
      case RecordKind::kFlowPressure:
        // Counter track: each worker's pool occupancy at its tier crossings.
        append_event_prefix(out, "C", rec);
        append_name(out, "flow_pool", "");
        appendf(out, ",\"args\":{\"pool\":%.9g,\"budget\":%.9g}}",
                json_double(rec.a), json_double(rec.b));
        break;
      case RecordKind::kFlowStorm:
        append_event_prefix(out, "i", rec);
        append_name(out, "flow_storm", rec.label);
        appendf(out, ",\"s\":\"g\",\"args\":{\"round\":%" PRIu64
                ",\"secondary_ewma\":%.9g,\"depth_ewma\":%.9g}}",
                rec.round, json_double(rec.a), json_double(rec.b));
        break;
      case RecordKind::kFlowCancelback:
        append_event_prefix(out, "i", rec);
        append_name(out, "flow_cancelback", "");
        appendf(out, ",\"s\":\"t\",\"args\":{\"round\":%" PRIu64 ",\"events\":%" PRId64 "}}",
                rec.round, rec.value);
        break;
    }
  }
  out += "]}";
  return out;
}

std::string to_trace_csv(const TraceRecorder& recorder) {
  std::string out = "seq,t_ns,kind,node,worker,round,a,b,u,value,label\n";
  out.reserve(out.size() + recorder.records().size() * 64);
  for (const TraceRecord& rec : recorder.records()) {
    appendf(out,
            "%" PRIu64 ",%" PRId64 ",%s,%d,%d,%" PRIu64 ",%.9g,%.9g,%" PRIu64
            ",%" PRId64 ",%s\n",
            rec.seq, rec.t, to_string(rec.kind), static_cast<int>(rec.node),
            static_cast<int>(rec.worker), rec.round, rec.a, rec.b, rec.u, rec.value,
            rec.label);
  }
  return out;
}

std::string to_metrics_csv(const MetricsSnapshot& snapshot) {
  std::string out = "name,value\n";
  for (const auto& [name, value] : snapshot.values) appendf(out, "%s,%.9g\n", name.c_str(), value);
  return out;
}

bool write_file(const std::string& path, const std::string& content) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) return false;
  const bool wrote = std::fwrite(content.data(), 1, content.size(), f) == content.size();
  const bool closed = std::fclose(f) == 0;
  return wrote && closed;
}

bool write_chrome_trace(const TraceRecorder& recorder, const std::string& path) {
  return write_file(path, to_chrome_trace_json(recorder));
}

bool write_trace_csv(const TraceRecorder& recorder, const std::string& path) {
  return write_file(path, to_trace_csv(recorder));
}

bool write_metrics_csv(const MetricsSnapshot& snapshot, const std::string& path) {
  return write_file(path, to_metrics_csv(snapshot));
}

}  // namespace cagvt::obs
