// Unit tests for the benchmark's reporting rules (perfbench/src/analysis.hpp).
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "analysis.hpp"

namespace perfbench {
namespace {

std::vector<double> ramp(std::size_t n) {
  std::vector<double> v(n);
  for (std::size_t i = 0; i < n; ++i) v[i] = static_cast<double>(i + 1);
  return v;
}

TEST(Quantile, NearestRank) {
  const auto v = ramp(100);
  EXPECT_EQ(quantile_sorted(v, 0.5), 50.0);
  EXPECT_EQ(quantile_sorted(v, 0.99), 99.0);
  EXPECT_EQ(quantile_sorted(v, 1.0), 100.0);
  EXPECT_EQ(quantile_sorted(v, 0.0), 1.0);
  EXPECT_EQ(quantile_sorted({}, 0.5), 0.0);
}

TEST(SupportedPercentile, NeedsTenSamplesBeyond) {
  // 1000 samples: p99 leaves 10 beyond, p99.9 only 1.
  auto t = highest_supported_percentile(ramp(1000));
  ASSERT_TRUE(t);
  EXPECT_EQ(t->percentile, 99.0);
  EXPECT_EQ(t->beyond, 10u);
  EXPECT_EQ(t->value, 990.0);
  // 10000 samples: p99.9 leaves exactly 10.
  t = highest_supported_percentile(ramp(10000));
  ASSERT_TRUE(t);
  EXPECT_EQ(t->percentile, 99.9);
  // 999 samples: p99 leaves 9, so p90 is the highest supported.
  t = highest_supported_percentile(ramp(999));
  ASSERT_TRUE(t);
  EXPECT_EQ(t->percentile, 90.0);
  // Too few samples for any percentile.
  EXPECT_FALSE(highest_supported_percentile(ramp(15)));
}

TEST(WindowedQuantile, MedianOfPerWindowQuantiles) {
  // Three windows of 1..200; the middle one also holds a 50 ms stall.
  std::vector<double> v;
  std::vector<std::uint8_t> w;
  for (std::uint8_t win = 0; win < 3; ++win) {
    for (int i = 1; i <= 200; ++i) {
      v.push_back(win == 1 && i > 190 ? 50'000.0 : static_cast<double>(i));
      w.push_back(win);
    }
  }
  EXPECT_EQ(windowed_quantile(v, w, 0.99), 198.0);  // the stalled window is outvoted
  EXPECT_EQ(windowed_quantile(v, w, 0.5), 100.0);
  // Two qualifying windows: the median is the mean of their quantiles,
  // and a too-small third window is left out.
  std::vector<double> two;
  std::vector<std::uint8_t> tw;
  for (std::uint8_t win = 0; win < 2; ++win) {
    for (std::size_t i = 0; i < kWindowMinSamples; ++i) {
      two.push_back(win == 0 ? 10.0 : 30.0);
      tw.push_back(win);
    }
  }
  two.push_back(1e6);
  tw.push_back(2);
  EXPECT_EQ(windowed_quantile(two, tw, 0.5), 20.0);
  // No window has enough samples: the whole-sample quantile.
  const std::vector<double> few = {1, 2, 3, 40};
  const std::vector<std::uint8_t> fw = {0, 0, 1, 1};
  EXPECT_EQ(windowed_quantile(few, fw, 1.0), 40.0);
}

TEST(DueTime, LatencyCountsFromDueAndLatenessFromSend) {
  const QueryTimes t{1'000, 1'300, 2'000};
  EXPECT_EQ(due_latency_ns(t), 1'000);  // includes the 300 ns the sender was late
  EXPECT_EQ(lateness_ns(t), 300);
  const QueryTimes on_time{5'000, 5'000, 5'400};
  EXPECT_EQ(due_latency_ns(on_time), 400);
  EXPECT_EQ(lateness_ns(on_time), 0);
}

TEST(Schedule, SeededPoissonIsReproducibleWithTheRightMean) {
  PoissonSchedule a(10'000.0, 7), b(10'000.0, 7), c(10'000.0, 8);
  double sum = 0.0;
  bool differs = false;
  for (int i = 0; i < 200'000; ++i) {
    const auto ga = a.next_gap_ns();
    EXPECT_EQ(ga, b.next_gap_ns());
    differs |= ga != c.next_gap_ns();
    sum += static_cast<double>(ga);
  }
  EXPECT_TRUE(differs);
  EXPECT_NEAR(sum / 200'000.0, 100'000.0, 1'000.0);  // 1e9 / 10k qps
}

TEST(Ladder, GeometricRungs) {
  // x1.1 from 100: 100, 110, 121, 133.1, 146.41, ... up to 200.
  const auto r = geometric_ladder(100, 200);
  ASSERT_EQ(r.size(), 8u);
  EXPECT_EQ(r[0], 100.0);
  EXPECT_EQ(r[1], 110.0);
  EXPECT_EQ(r[3], 133.0);
  EXPECT_EQ(r[7], 195.0);
  EXPECT_TRUE(geometric_ladder(0, 200).empty());
}

TEST(Capacity, RuleChecksLatencyFailuresAndBacklog) {
  const StepOutcome ok{50'000, 400.0, 100'000, 100, 20, 30};
  EXPECT_TRUE(step_passes(ok));

  StepOutcome slow = ok;
  slow.p99_us = 1000.5;
  EXPECT_FALSE(step_passes(slow));

  StepOutcome lossy = ok;
  lossy.failed = 101;  // 0.101% > 0.1%
  EXPECT_FALSE(step_passes(lossy));

  StepOutcome nothing = ok;
  nothing.attempted = 0;
  EXPECT_FALSE(step_passes(nothing));
}

TEST(Capacity, GrowingBacklogFailsEvenWithGoodLatencySoFar) {
  // At 50k qps, one latency limit holds 50 queries in flight; the floor
  // is 64. Outstanding growing from 40 to 4000 over half a step means the
  // server is falling behind, even if the answers so far were fast.
  StepOutcome growing{50'000, 300.0, 100'000, 0, 40, 4'000};
  EXPECT_TRUE(backlog_grows(growing));
  EXPECT_FALSE(step_passes(growing));
  // A steady queue (same depth at mid and end) does not.
  StepOutcome steady{50'000, 300.0, 100'000, 0, 500, 520};
  EXPECT_FALSE(backlog_grows(steady));
  // Growth within one limit's worth of arrivals is tolerated: 200k qps
  // allows 200 more.
  StepOutcome fast{200'000, 300.0, 400'000, 0, 100, 290};
  EXPECT_FALSE(backlog_grows(fast));
  fast.outstanding_end = 310;
  EXPECT_TRUE(backlog_grows(fast));
}

TEST(Capacity, BacklogMarksAreQuarterMedians) {
  // 16 samples: a steady queue of 10 with one 5000 spike in each of the
  // marked quarters — the marks ignore single spikes.
  std::vector<std::uint64_t> steady(16, 10);
  steady[5] = 5000;
  steady[14] = 5000;
  auto [mid, end] = backlog_marks(steady);
  EXPECT_EQ(mid, 10u);
  EXPECT_EQ(end, 10u);
  // A queue that keeps growing: 0, 100, 200, ... 1500.
  std::vector<std::uint64_t> growing;
  for (std::uint64_t i = 0; i < 16; ++i) growing.push_back(i * 100);
  std::tie(mid, end) = backlog_marks(growing);
  EXPECT_EQ(mid, 600u);   // median of 400..700
  EXPECT_EQ(end, 1400u);  // median of 1200..1500
  EXPECT_TRUE(backlog_grows({50'000, 300.0, 1000, 0, mid, end}));
  EXPECT_EQ(backlog_marks({}).first, 0u);
}

TEST(Capacity, BinarySearchFindsTheHighestPassingRung) {
  for (std::size_t knee = 0; knee <= 20; ++knee) {
    std::size_t probes = 0;
    const int got = search_capacity(20, [&](std::size_t i) {
      ++probes;
      return i < knee;  // rungs below the knee pass
    });
    EXPECT_EQ(got, static_cast<int>(knee) - 1) << "knee " << knee;
    EXPECT_LE(probes, 5u);  // ceil(log2(21))
  }
  EXPECT_EQ(search_capacity(0, [](std::size_t) { return true; }), -1);
}

TEST(Spans, SelfTimeSubtractsTheUnionOfChildren) {
  std::vector<Span> spans = {
      {1, 0, -1, 0, 100},   // 0: parent, 100 ns
      {1, 1, 0, 10, 30},    // 1: child 20 ns
      {1, 2, 0, 20, 50},    // 2: child overlapping 1: union [10, 50) = 40
      {1, 3, 0, 90, 120},   // 3: child running past the parent: clipped to 10
      {1, 4, 2, 25, 35},    // 4: grandchild: only reduces 2
      {2, 5, -1, 200, 260}, // 5: unrelated root
  };
  const auto self = self_times(spans);
  EXPECT_EQ(self[0], 100 - 40 - 10);
  EXPECT_EQ(self[1], 20);
  EXPECT_EQ(self[2], 30 - 10);
  EXPECT_EQ(self[3], 30);
  EXPECT_EQ(self[4], 10);
  EXPECT_EQ(self[5], 60);
}

TEST(Skew, MaxOverMin) {
  EXPECT_DOUBLE_EQ(max_min_ratio({100, 104}), 1.04);
  EXPECT_DOUBLE_EQ(max_min_ratio({7}), 1.0);
  EXPECT_TRUE(std::isinf(max_min_ratio({200'000, 0})));
}

}  // namespace
}  // namespace perfbench
