#include "trace.h"

#include <algorithm>
#include <fstream>
#include <iomanip>
#include <utility>

#include "stats.h"

namespace perfbench {

SpanRecorder::SpanRecorder(bool enabled)
    : enabled_(enabled), epoch_(std::chrono::steady_clock::now()) {}

double SpanRecorder::Now() const {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       epoch_)
      .count();
}

int SpanRecorder::Begin(const std::string& name, int parent,
                        int64_t request_id) {
  if (!enabled_) return -1;
  const double now = Now();
  std::lock_guard<std::mutex> lock(mutex_);
  spans_.push_back({name, now, -1.0, parent, request_id});
  return static_cast<int>(spans_.size()) - 1;
}

void SpanRecorder::End(int id) {
  if (id < 0) return;
  const double now = Now();
  std::lock_guard<std::mutex> lock(mutex_);
  spans_[id].end_s = now;
}

std::vector<double> SpanRecorder::Durations(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<double> out;
  for (const SpanRecord& s : spans_) {
    if (s.name == name && s.end_s >= 0.0) out.push_back(s.end_s - s.start_s);
  }
  return out;
}

std::map<std::string, SpanSummary> SpanRecorder::Summaries() const {
  std::lock_guard<std::mutex> lock(mutex_);
  // Children of each span, as intervals clipped to the parent.
  std::vector<std::vector<std::pair<double, double>>> children(spans_.size());
  for (const SpanRecord& s : spans_) {
    if (s.parent < 0 || s.end_s < 0.0) continue;
    const SpanRecord& p = spans_[s.parent];
    const double lo = std::max(s.start_s, p.start_s);
    const double hi = p.end_s >= 0.0 ? std::min(s.end_s, p.end_s) : s.end_s;
    if (hi > lo) children[s.parent].emplace_back(lo, hi);
  }
  std::map<std::string, SpanSummary> out;
  std::map<std::string, std::vector<double>> durations;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const SpanRecord& s = spans_[i];
    if (s.end_s < 0.0) continue;
    const double duration = s.end_s - s.start_s;
    // Union of the child intervals (they may overlap: concurrent requests
    // under one phase span).
    std::vector<std::pair<double, double>>& kids = children[i];
    std::sort(kids.begin(), kids.end());
    double covered = 0.0;
    double run_lo = 0.0;
    double run_hi = -1.0;
    for (const auto& [lo, hi] : kids) {
      if (lo > run_hi) {
        if (run_hi > run_lo) covered += run_hi - run_lo;
        run_lo = lo;
        run_hi = hi;
      } else {
        run_hi = std::max(run_hi, hi);
      }
    }
    if (run_hi > run_lo) covered += run_hi - run_lo;
    SpanSummary& summary = out[s.name];
    ++summary.count;
    summary.total_s += duration;
    summary.self_s += std::max(0.0, duration - covered);
    durations[s.name].push_back(duration);
  }
  for (auto& [name, summary] : out) summary.p50_s = Median(durations[name]);
  return out;
}

bool SpanRecorder::WriteJson(const std::string& path) const {
  const std::map<std::string, SpanSummary> summaries = Summaries();
  std::ofstream os(path);
  if (!os) return false;
  os << std::setprecision(9) << "{\"summaries\": {";
  bool first = true;
  for (const auto& [name, s] : summaries) {
    os << (first ? "" : ",") << "\n  \"" << name << "\": {\"count\": "
       << s.count << ", \"total_s\": " << s.total_s
       << ", \"self_s\": " << s.self_s << ", \"p50_s\": " << s.p50_s << "}";
    first = false;
  }
  os << "\n},\n\"spans\": [";
  std::lock_guard<std::mutex> lock(mutex_);
  for (size_t i = 0; i < spans_.size(); ++i) {
    const SpanRecord& s = spans_[i];
    os << (i == 0 ? "" : ",") << "\n  {\"id\": " << i << ", \"name\": \""
       << s.name << "\", \"start_s\": " << s.start_s
       << ", \"end_s\": " << s.end_s << ", \"parent\": " << s.parent
       << ", \"request_id\": " << s.request_id << "}";
  }
  os << "\n]}\n";
  return static_cast<bool>(os);
}

}  // namespace perfbench
