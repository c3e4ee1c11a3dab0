// Tests of the benchmark's own statistics: the tail rule, the finite mean,
// open-loop due-time timing with generator lateness, and the rate-ladder
// decision.

#include "../src/stats.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <limits>
#include <thread>
#include <vector>

namespace perfbench {
namespace {

std::vector<double> Ramp(int n) {
  std::vector<double> v;
  for (int i = 1; i <= n; ++i) v.push_back(i);
  return v;
}

TEST(FiniteMean, LeavesFailedRequestsOut) {
  const double inf = std::numeric_limits<double>::infinity();
  EXPECT_EQ(FiniteMean({1.0, 2.0, inf, 6.0}), 3.0);
  EXPECT_EQ(FiniteMean({inf}), 0.0);
  EXPECT_EQ(FiniteMean({}), 0.0);
}

TEST(TailOf, FewerThanFortySamplesReportTheMedianAlone) {
  const Tail tail = TailOf(Ramp(39));
  EXPECT_EQ(tail.percentile, 0.0);
  EXPECT_EQ(tail.value, 20.0);
  EXPECT_EQ(tail.samples, 39);
}

TEST(TailOf, PicksTheHighestPercentileWithTenSamplesBeyond) {
  struct Case {
    int n;
    double percentile;
    double value;
  };
  for (const Case& c : {Case{40, 75.0, 30.0}, Case{99, 75.0, 75.0},
                        Case{100, 90.0, 90.0}, Case{999, 90.0, 900.0},
                        Case{1000, 99.0, 990.0}, Case{10000, 99.9, 9990.0}}) {
    const Tail tail = TailOf(Ramp(c.n));
    EXPECT_EQ(tail.percentile, c.percentile) << c.n;
    EXPECT_EQ(tail.value, c.value) << c.n;
    EXPECT_GE(tail.beyond, 10) << c.n;
  }
}

TEST(TailOf, UnsortedInputAndFailuresCountAsMisses) {
  std::vector<double> v = Ramp(40);
  std::reverse(v.begin(), v.end());
  v[0] = std::numeric_limits<double>::infinity();
  EXPECT_EQ(TailOf(v).value, 30.0);  // 1..39 plus one failure; p75 = 30th.
}

void SleepMs(double ms) {
  std::this_thread::sleep_for(std::chrono::duration<double, std::milli>(ms));
}

TEST(OpenLoop, TimesFromTheDueTimeAndReportsLateness) {
  // One connection, a request every 10 ms, each taking 25 ms: request i is
  // sent about 15 * i ms late and its latency includes that wait.
  const LoopResult r = RunOpenLoop(100.0, 16, 1, [](int, int) {
    SleepMs(25.0);
    return true;
  });
  ASSERT_EQ(r.latency_s.size(), 16u);
  EXPECT_EQ(r.failed, 0);
  for (int i = 0; i < 16; ++i) {
    EXPECT_GE(r.latency_s[i], r.lateness_s[i] + 0.025 - 1e-3) << i;
  }
  EXPECT_GT(r.lateness_s[15], 0.15);
  EXPECT_GT(r.latency_s[15], 0.2);
  EXPECT_TRUE(BacklogGrows(r.lateness_s, 0.05));
  EXPECT_FALSE(RungPasses(r, 0.05));
}

TEST(OpenLoop, KeepsScheduleWhenConnectionsKeepUp) {
  // Two connections, a request every 20 ms, each taking 2 ms.
  const LoopResult r = RunOpenLoop(50.0, 40, 2, [](int, int) {
    SleepMs(2.0);
    return true;
  });
  EXPECT_FALSE(BacklogGrows(r.lateness_s, 0.05));
  EXPECT_LT(Median(r.lateness_s), 0.01);
  EXPECT_GE(Median(r.latency_s), 0.002);
  EXPECT_TRUE(RungPasses(r, 0.05));
  EXPECT_GE(r.wall_s, 39 / 50.0);
}

TEST(OpenLoop, FailedRequestsAndFailedChecksCount) {
  const LoopResult r = RunOpenLoop(
      1000.0, 10, 2, [](int i, int) { return i != 3; },
      [](int i, int) { return i != 7; });
  EXPECT_EQ(r.failed, 2);
  EXPECT_TRUE(std::isinf(r.latency_s[3]));
  EXPECT_TRUE(std::isinf(r.latency_s[7]));
  EXPECT_FALSE(RungPasses(r, 1.0));
}

TEST(ClosedLoop, RunsForItsDurationAndIndexesEveryRequest) {
  const LoopResult r = RunClosedLoop(0.1, 2, [](int, int) {
    SleepMs(5.0);
    return true;
  });
  EXPECT_GE(r.wall_s, 0.1);
  EXPECT_GE(r.latency_s.size(), 20u);
  for (double latency : r.latency_s) EXPECT_GE(latency, 0.005);
  EXPECT_TRUE(r.lateness_s.empty());
}

TEST(Ladder, HighestRungOfThePassingPrefix) {
  const std::vector<double> rates = {10, 20, 30, 45};
  EXPECT_EQ(MaxRateAtSlo(rates, {true, true, false}), 20.0);
  EXPECT_EQ(MaxRateAtSlo(rates, {true, true, true, true}), 45.0);
  EXPECT_EQ(MaxRateAtSlo(rates, {false}), 0.0);
  // A pass above a failed rung does not count.
  EXPECT_EQ(MaxRateAtSlo(rates, {true, false, true}), 10.0);
}

TEST(Ladder, RungFailsOnTailBacklogOrFailure) {
  LoopResult r;
  r.latency_s = Ramp(100);
  for (double& v : r.latency_s) v /= 1000.0;  // 1..100 ms; p90 = 90 ms.
  r.lateness_s.assign(100, 0.0);
  EXPECT_TRUE(RungPasses(r, 0.090));
  EXPECT_FALSE(RungPasses(r, 0.089));
  for (int i = 75; i < 100; ++i) r.lateness_s[i] = 0.05;
  EXPECT_FALSE(RungPasses(r, 0.090));  // Last quarter fell 50 ms behind.
  r.lateness_s.assign(100, 0.0);
  r.failed = 1;
  EXPECT_FALSE(RungPasses(r, 1.0));
}

}  // namespace
}  // namespace perfbench
