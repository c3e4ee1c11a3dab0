#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

// In-memory span recorder for the traced run. Spans are recorded by the
// benchmark around its own calls into each layer's public functions; the
// program under test is not instrumented. Disabled recorders cost one
// branch per span, so untraced runs measure the same code.

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

struct SpanRecord {
  std::string name;
  double start_s = 0.0;  // Since the recorder was built.
  double end_s = 0.0;
  int parent = -1;       // Index of the parent span, -1 for a root.
  int64_t request_id = -1;
};

/// Per-name summary: durations and self time (duration minus the part of
/// the span's interval that its child spans cover).
struct SpanSummary {
  int count = 0;
  double total_s = 0.0;
  double self_s = 0.0;
  double p50_s = 0.0;
};

class SpanRecorder {
 public:
  explicit SpanRecorder(bool enabled);

  /// Opens a span; returns its id, or -1 when disabled.
  int Begin(const std::string& name, int parent = -1, int64_t request_id = -1);
  void End(int id);

  /// Durations in seconds of every finished span called `name`.
  std::vector<double> Durations(const std::string& name) const;
  std::map<std::string, SpanSummary> Summaries() const;

  /// Writes every span and the per-name summaries as JSON.
  bool WriteJson(const std::string& path) const;

 private:
  double Now() const;

  const bool enabled_;
  const std::chrono::steady_clock::time_point epoch_;
  mutable std::mutex mutex_;
  std::vector<SpanRecord> spans_;  // Guarded by mutex_.
};

/// RAII span: opens on construction, closes on destruction.
class Span {
 public:
  Span(SpanRecorder& recorder, const std::string& name, int parent = -1,
       int64_t request_id = -1)
      : recorder_(recorder), id_(recorder.Begin(name, parent, request_id)) {}
  ~Span() { recorder_.End(id_); }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  int id() const { return id_; }

 private:
  SpanRecorder& recorder_;
  const int id_;
};

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
