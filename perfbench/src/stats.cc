#include "stats.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <limits>
#include <thread>

namespace perfbench {

namespace {

using Clock = std::chrono::steady_clock;

double SecondsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

// p95 is left out: on serve-hot (700 samples per run) its spread between
// runs of the same code was 25%, where p90 holds.
constexpr double kTailPercentiles[] = {99.9, 99.0, 90.0, 75.0};

// 1-based nearest rank of quantile q among n samples.
int NearestRank(int n, double q) {
  const int rank = static_cast<int>(std::ceil(q * n - 1e-9));
  return std::clamp(rank, 1, n);
}

}  // namespace

double QuantileSorted(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  const int n = static_cast<int>(sorted.size());
  return sorted[NearestRank(n, q) - 1];
}

double Median(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  return QuantileSorted(values, 0.5);
}

double FiniteMean(const std::vector<double>& values) {
  double sum = 0.0;
  int n = 0;
  for (double v : values) {
    if (!std::isfinite(v)) continue;
    sum += v;
    ++n;
  }
  return n > 0 ? sum / n : 0.0;
}

Tail TailOf(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  Tail tail;
  tail.samples = static_cast<int>(values.size());
  tail.value = QuantileSorted(values, 0.5);
  if (tail.samples < 40) return tail;
  for (double p : kTailPercentiles) {
    const int rank = NearestRank(tail.samples, p / 100.0);
    if (tail.samples - rank >= 10) {
      tail.percentile = p;
      tail.value = values[rank - 1];
      tail.beyond = tail.samples - rank;
      return tail;
    }
  }
  return tail;  // Unreachable: p75 of >= 40 samples leaves >= 10 beyond.
}

LoopResult RunOpenLoop(double rate, int count, int connections,
                       const RequestFn& request, const CheckFn& check) {
  LoopResult result;
  result.latency_s.assign(count, 0.0);
  result.lateness_s.assign(count, 0.0);
  std::atomic<int> next{0};
  std::atomic<int> failed{0};
  const Clock::time_point start = Clock::now();
  auto due = [&](int i) {
    return start + std::chrono::duration_cast<Clock::duration>(
                       std::chrono::duration<double>(i / rate));
  };
  std::vector<std::thread> threads;
  for (int c = 0; c < connections; ++c) {
    threads.emplace_back([&, c] {
      for (int i = next++; i < count; i = next++) {
        const Clock::time_point due_at = due(i);
        std::this_thread::sleep_until(due_at);
        result.lateness_s[i] = std::max(0.0, SecondsBetween(due_at, Clock::now()));
        bool ok = request(i, c);
        result.latency_s[i] = SecondsBetween(due_at, Clock::now());
        if (ok && check) ok = check(i, c);
        if (!ok) {
          result.latency_s[i] = std::numeric_limits<double>::infinity();
          ++failed;
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  result.failed = failed;
  result.wall_s = SecondsBetween(start, Clock::now());
  return result;
}

LoopResult RunClosedLoop(double seconds, int connections,
                         const RequestFn& request, const CheckFn& check) {
  LoopResult result;
  std::atomic<int> next{0};
  std::atomic<int> failed{0};
  std::vector<std::vector<std::pair<int, double>>> per_connection(connections);
  const Clock::time_point start = Clock::now();
  const Clock::time_point end =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(seconds));
  std::vector<std::thread> threads;
  for (int c = 0; c < connections; ++c) {
    threads.emplace_back([&, c] {
      while (Clock::now() < end) {
        const int i = next++;
        const Clock::time_point sent = Clock::now();
        bool ok = request(i, c);
        const double latency = SecondsBetween(sent, Clock::now());
        if (ok && check) ok = check(i, c);
        per_connection[c].emplace_back(
            i, ok ? latency : std::numeric_limits<double>::infinity());
        if (!ok) ++failed;
      }
    });
  }
  for (std::thread& t : threads) t.join();
  result.wall_s = SecondsBetween(start, Clock::now());
  result.latency_s.assign(next.load(), 0.0);
  for (const auto& samples : per_connection) {
    for (const auto& [i, latency] : samples) result.latency_s[i] = latency;
  }
  result.failed = failed;
  return result;
}

bool BacklogGrows(const std::vector<double>& lateness_s, double limit_s) {
  const size_t quarter = lateness_s.size() / 4;
  if (quarter == 0) return false;
  const std::vector<double> first(lateness_s.begin(),
                                  lateness_s.begin() + quarter);
  const std::vector<double> last(lateness_s.end() - quarter, lateness_s.end());
  return Median(last) - Median(first) > 0.5 * limit_s;
}

bool RungPasses(const LoopResult& result, double limit_s) {
  if (result.failed > 0 || result.latency_s.empty()) return false;
  if (TailOf(result.latency_s).value > limit_s) return false;
  return !BacklogGrows(result.lateness_s, limit_s);
}

double MaxRateAtSlo(const std::vector<double>& rates,
                    const std::vector<bool>& passed) {
  double best = 0.0;
  for (size_t i = 0; i < rates.size() && i < passed.size(); ++i) {
    if (!passed[i]) break;
    best = rates[i];
  }
  return best;
}

}  // namespace perfbench
