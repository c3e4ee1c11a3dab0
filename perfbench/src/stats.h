#ifndef PERFBENCH_STATS_H_
#define PERFBENCH_STATS_H_

// Load shapes and the statistics the benchmark reports: the tail rule,
// open- and closed-loop load generators, and the rate-ladder decision.
// Kept free of the DeepMVI libraries so the benchmark's own tests can
// drive them with fake requests.

#include <functional>
#include <vector>

namespace perfbench {

/// Nearest-rank quantile of ascending `sorted` (q in [0, 1]); 0 when empty.
double QuantileSorted(const std::vector<double>& sorted, double q);
double Median(std::vector<double> values);
/// Mean of the finite values (failed requests read +infinity and are left
/// out; they count against the tail instead); 0 when none is finite.
double FiniteMean(const std::vector<double>& values);

/// The tail a sample supports: the highest of the standard percentiles
/// (99.9, 99, 90, 75) with at least ten samples ranked beyond
/// it. With fewer than forty samples there is no tail: `percentile` is 0
/// and `value` is the median.
struct Tail {
  double percentile = 0.0;
  double value = 0.0;
  int samples = 0;
  int beyond = 0;  // Samples ranked above the reported one.
};
Tail TailOf(std::vector<double> values);

/// One timed request. Returns false when the request failed.
using RequestFn = std::function<bool(int index, int connection)>;
/// Checks the answer of a request after its latency is taken, on the same
/// connection thread. Returns false when the answer is wrong; the request
/// then counts as failed.
using CheckFn = std::function<bool(int index, int connection)>;

struct LoopResult {
  /// Seconds per request, indexed by request. Open loop: from when the
  /// request was due to when its answer arrived. Closed loop: from send to
  /// answer. Failed requests read +infinity, so they miss every limit.
  std::vector<double> latency_s;
  /// Open loop only: how late the generator sent each request (send time
  /// minus due time), indexed by request.
  std::vector<double> lateness_s;
  int failed = 0;
  double wall_s = 0.0;
};

/// Open loop: request i is due at start + i / rate. `connections` threads
/// take requests in index order, sleep until each is due and send it; a
/// request whose connection is still busy is sent late, and that wait is
/// part of its latency.
LoopResult RunOpenLoop(double rate, int count, int connections,
                       const RequestFn& request, const CheckFn& check = {});

/// Closed loop: `connections` threads send back to back until `seconds`
/// have passed; the request index is shared, so it counts completions.
LoopResult RunClosedLoop(double seconds, int connections,
                         const RequestFn& request, const CheckFn& check = {});

/// True when the generator fell further and further behind: the median
/// lateness of the last quarter of requests exceeds that of the first
/// quarter by more than half of `limit_s`.
bool BacklogGrows(const std::vector<double>& lateness_s, double limit_s);

/// A rung of the rate ladder passes when no request failed, the tail stays
/// within `limit_s` and the backlog does not grow.
bool RungPasses(const LoopResult& result, double limit_s);

/// The highest rate of the passing prefix of the ladder (rungs run in
/// increasing order; the first failure ends it). 0 when the first fails.
double MaxRateAtSlo(const std::vector<double>& rates,
                    const std::vector<bool>& passed);

}  // namespace perfbench

#endif  // PERFBENCH_STATS_H_
