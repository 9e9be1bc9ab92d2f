// In-memory span log for the traced run. Spans are recorded from the
// benchmark's own code, around its calls into each layer, and written once
// at the end as Chrome trace-event JSON (loadable in ui.perfetto.dev). Every
// span carries the run id, its own id and its parent's id.
#pragma once

#include <chrono>
#include <cstdio>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

class SpanLog {
 public:
  struct Span {
    std::string name;
    int parent = -1;
    int tid = 0;
    double start_s = 0;
    double dur_s = 0;
    std::map<std::string, double> args;
  };

  explicit SpanLog(std::string run_id) : run_id_(std::move(run_id)) {}

  /// Open a span now; close it with end(). Returns its id.
  int begin(std::string name, int parent = -1) {
    spans_.push_back(Span{std::move(name), parent, 0, now_s(), 0, {}});
    return static_cast<int>(spans_.size()) - 1;
  }
  void end(int id) {
    Span& s = spans_[static_cast<std::size_t>(id)];
    s.dur_s = now_s() - s.start_s;
  }

  /// Record an already measured span (per-thread handler totals).
  int add(Span span) {
    spans_.push_back(std::move(span));
    return static_cast<int>(spans_.size()) - 1;
  }
  void arg(int id, const std::string& key, double value) {
    spans_[static_cast<std::size_t>(id)].args[key] = value;
  }
  const Span& span(int id) const { return spans_[static_cast<std::size_t>(id)]; }

  /// Seconds since the log was created.
  double now_s() const {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() - origin_).count();
  }

  /// Write every span; returns false if the file could not be written.
  bool write_chrome_json(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    std::fprintf(f, "{\"traceEvents\":[");
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::fprintf(f,
                   "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%d,\"ts\":%.3f,"
                   "\"dur\":%.3f,\"args\":{\"run_id\":\"%s\",\"id\":%zu,\"parent\":%d",
                   i == 0 ? "" : ",", s.name.c_str(), s.tid, s.start_s * 1e6, s.dur_s * 1e6,
                   run_id_.c_str(), i, s.parent);
      for (const auto& [key, value] : s.args) std::fprintf(f, ",\"%s\":%.17g", key.c_str(), value);
      std::fprintf(f, "}}");
    }
    std::fprintf(f, "\n]}\n");
    return std::fclose(f) == 0;
  }

 private:
  std::string run_id_;
  std::chrono::steady_clock::time_point origin_ = std::chrono::steady_clock::now();
  std::vector<Span> spans_;
};

}  // namespace perfbench
