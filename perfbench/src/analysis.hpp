// Pure arithmetic behind the benchmark's reported numbers: quantiles and
// the supported-tail rule, due-time latency, the offered-rate ladder and
// its capacity rule, the seeded open-loop schedule, and span self time.
// Nothing here touches a socket or a clock, so tests/analysis_test.cpp
// pins every rule the report depends on.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

/// Nearest-rank quantile (q in [0, 1]) of an ascending sample. 0 when empty.
double quantile_sorted(const std::vector<double>& sorted, double q);

/// Windows with fewer samples than this are left out of a windowed quantile.
constexpr std::size_t kWindowMinSamples = 200;

/// Quantile q of each time window's samples (`window[i]` tags
/// `values[i]`), then the median across windows holding at least
/// kWindowMinSamples. A stall that hits one window moves this by at most
/// one rank, where it can move a whole-run percentile arbitrarily. Falls
/// back to the whole-sample quantile when no window qualifies.
double windowed_quantile(const std::vector<double>& values,
                         const std::vector<std::uint8_t>& window, double q);

/// Samples a reported tail percentile needs beyond it.
constexpr std::size_t kMinBeyond = 10;

/// The highest reported percentile that still has at least kMinBeyond
/// samples above it, chosen from 99.99 / 99.9 / 99 / 90 / 50.
struct TailChoice {
  double percentile = 0.0;  // e.g. 99.9
  double value = 0.0;
  std::size_t beyond = 0;   // samples strictly above the percentile rank
};
std::optional<TailChoice> highest_supported_percentile(const std::vector<double>& sorted);

/// Open-loop timing of one query: when the schedule said it was due, when
/// the generator actually sent it, and when its answer arrived.
struct QueryTimes {
  std::int64_t due_ns = 0;
  std::int64_t sent_ns = 0;
  std::int64_t recv_ns = 0;
};
/// Latency counted from the due time: a generator or server stall delays
/// every later query, and that wait is charged, not hidden.
inline std::int64_t due_latency_ns(const QueryTimes& t) { return t.recv_ns - t.due_ns; }
/// How late the generator sent the query (validity of the run, not of the SUT).
inline std::int64_t lateness_ns(const QueryTimes& t) { return t.sent_ns - t.due_ns; }

/// The seeded open-loop schedule: Poisson arrivals at `rate_qps`
/// (exponential gaps), identical for identical (rate, seed).
class PoissonSchedule {
 public:
  PoissonSchedule(double rate_qps, std::uint64_t seed);
  /// Next inter-arrival gap in nanoseconds (>= 1).
  std::int64_t next_gap_ns();

 private:
  double mean_gap_ns_;
  std::uint64_t state_;
};

/// SplitMix64 step (the schedule's and the query picker's generator).
std::uint64_t splitmix64(std::uint64_t& state);

/// Ratio between neighbouring rungs of the offered-rate ladder.
constexpr double kLadderRatio = 1.1;

/// Offered-rate ladder: geometric rungs (x kLadderRatio) from `lo` up to
/// at most `hi`.
std::vector<double> geometric_ladder(double lo, double hi);

/// One ladder step as measured.
struct StepOutcome {
  double rate_qps = 0.0;
  double p99_us = 0.0;              // legit, due-time latency
  std::uint64_t attempted = 0;      // legit queries sent
  std::uint64_t failed = 0;         // legit dropped / mismatched / SERVFAIL
  /// Outstanding (sent, unanswered) queries at the middle and at the end
  /// of the step's send window.
  std::uint64_t outstanding_mid = 0;
  std::uint64_t outstanding_end = 0;
};

/// The capacity rule's limits: legit p99 and the failed share of a rung.
constexpr double kLatencyLimitUs = 1000.0;
constexpr double kMaxFailedRatio = 0.001;

/// Outstanding-query marks from evenly spaced samples over a step's send
/// window: the median of the second quarter and of the last quarter. A
/// momentary stall moves one sample, not the median of a quarter.
std::pair<std::uint64_t, std::uint64_t> backlog_marks(const std::vector<std::uint64_t>& samples);

/// Whether the queue of unanswered queries grew during the step. At a
/// sustainable rate the outstanding count hovers near rate x latency; a
/// growth larger than what the latency limit allows in flight means the
/// server fell behind.
bool backlog_grows(const StepOutcome& step);

/// The capacity rule for one rung: p99 within the limit, failures within
/// the ratio, and no growing backlog.
bool step_passes(const StepOutcome& step);

/// Binary search for the highest passing rung of an ascending ladder
/// (assumes passing is monotone). `passes(i)` runs rung i. Returns -1
/// when even the lowest rung fails.
int search_capacity(std::size_t rungs, const std::function<bool(std::size_t)>& passes);

/// One traced span: a layer call (or a batch) with the span that caused it.
struct Span {
  std::uint64_t query_id = 0;  // flow, sequence and txid of the query (0: batch span)
  std::uint32_t name = 0;      // index into the run's span-name table
  std::int32_t parent = -1;    // index of the parent span in the same buffer
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
};

/// Self time of every span: its duration minus the union of its
/// children's intervals, clipped to the span. Children may overlap.
std::vector<std::int64_t> self_times(const std::vector<Span>& spans);

/// Max/min of a set of counts (1.0 for a single element; +inf with a zero).
double max_min_ratio(const std::vector<std::uint64_t>& counts);

}  // namespace perfbench
