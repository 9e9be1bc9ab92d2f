// Trace and metrics exporters.
//
// Two trace formats:
//  * Chrome trace-event JSON ("JSON Array Format"), loadable in Perfetto
//    (ui.perfetto.dev) or chrome://tracing. One process per simulated node,
//    one track per simulated thread (track 0 is the node's GVT/MPI-agent
//    scope). GVT rounds and barrier waits render as duration slices,
//    everything else as instants; the per-round GVT value and measured
//    efficiency are emitted as counter tracks.
//  * CSV time series (one row per record, name-ordered columns) for the
//    analysis scripts under scripts/.
//
// All serialization is byte-deterministic: records are written in sequence
// order with fixed printf formats, so identical seeds produce identical
// files (asserted by tests/obs_trace_test.cpp).
#pragma once

#include <string>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace cagvt::obs {

/// Serialize the trace as Chrome trace-event JSON.
std::string to_chrome_trace_json(const TraceRecorder& recorder);

/// Serialize the trace as CSV: seq,t_ns,kind,node,worker,round,a,b,u,value,label.
std::string to_trace_csv(const TraceRecorder& recorder);

/// Serialize a metrics snapshot as CSV: name,value (name-ordered).
std::string to_metrics_csv(const MetricsSnapshot& snapshot);

/// Write `content` to `path` (overwrite). Returns false on I/O failure.
bool write_file(const std::string& path, const std::string& content);

// Convenience wrappers used by the CLIs.
bool write_chrome_trace(const TraceRecorder& recorder, const std::string& path);
bool write_trace_csv(const TraceRecorder& recorder, const std::string& path);
bool write_metrics_csv(const MetricsSnapshot& snapshot, const std::string& path);

}  // namespace cagvt::obs
