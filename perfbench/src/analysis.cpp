#include "analysis.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

namespace perfbench {

double quantile_sorted(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  const double rank = std::ceil(q * static_cast<double>(sorted.size()) - 1e-9);
  const std::size_t idx = rank < 1.0 ? 0 : static_cast<std::size_t>(rank) - 1;
  return sorted[std::min(idx, sorted.size() - 1)];
}

double windowed_quantile(const std::vector<double>& values,
                         const std::vector<std::uint8_t>& window, double q) {
  std::vector<std::vector<double>> by_window(256);
  for (std::size_t i = 0; i < values.size() && i < window.size(); ++i) {
    by_window[window[i]].push_back(values[i]);
  }
  std::vector<double> per_window;
  for (auto& w : by_window) {
    if (w.size() < kWindowMinSamples) continue;
    std::sort(w.begin(), w.end());
    per_window.push_back(quantile_sorted(w, q));
  }
  if (per_window.empty()) {
    std::vector<double> all = values;
    std::sort(all.begin(), all.end());
    return quantile_sorted(all, q);
  }
  std::sort(per_window.begin(), per_window.end());
  // Median; the mean of the middle two for an even count.
  const std::size_t n = per_window.size();
  return n % 2 ? per_window[n / 2] : 0.5 * (per_window[n / 2 - 1] + per_window[n / 2]);
}

std::optional<TailChoice> highest_supported_percentile(const std::vector<double>& sorted) {
  static constexpr double kCandidates[] = {99.99, 99.9, 99.0, 90.0, 50.0};
  const auto n = static_cast<double>(sorted.size());
  for (const double p : kCandidates) {
    // Samples above the nearest rank of p: n - ceil(p/100 * n).
    const double rank = std::ceil(p / 100.0 * n - 1e-9);
    const auto beyond = static_cast<std::size_t>(std::max(0.0, n - rank));
    if (beyond >= kMinBeyond) {
      return TailChoice{p, quantile_sorted(sorted, p / 100.0), beyond};
    }
  }
  return std::nullopt;
}

std::uint64_t splitmix64(std::uint64_t& state) {
  std::uint64_t z = (state += 0x9E3779B97F4A7C15ULL);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

PoissonSchedule::PoissonSchedule(double rate_qps, std::uint64_t seed)
    : mean_gap_ns_(1e9 / std::max(rate_qps, 1e-9)), state_(seed) {}

std::int64_t PoissonSchedule::next_gap_ns() {
  // Uniform in (0, 1]: never log(0).
  const double u =
      static_cast<double>((splitmix64(state_) >> 11) + 1) * (1.0 / 9007199254740992.0);
  const double gap = -std::log(u) * mean_gap_ns_;
  return std::max<std::int64_t>(1, static_cast<std::int64_t>(gap));
}

std::vector<double> geometric_ladder(double lo, double hi) {
  std::vector<double> rungs;
  if (lo <= 0.0) return rungs;
  for (double r = lo; r <= hi * (1.0 + 1e-9); r *= kLadderRatio) rungs.push_back(std::round(r));
  return rungs;
}

std::pair<std::uint64_t, std::uint64_t> backlog_marks(const std::vector<std::uint64_t>& samples) {
  const auto median = [&](std::size_t lo, std::size_t hi) -> std::uint64_t {
    if (hi <= lo) return samples.empty() ? 0 : samples.back();
    std::vector<std::uint64_t> part(samples.begin() + static_cast<long>(lo),
                                    samples.begin() + static_cast<long>(hi));
    std::nth_element(part.begin(), part.begin() + static_cast<long>(part.size() / 2), part.end());
    return part[part.size() / 2];
  };
  const std::size_t n = samples.size();
  return {median(n / 4, n / 2), median(3 * n / 4, n)};
}

bool backlog_grows(const StepOutcome& step) {
  const double allowance = std::max(64.0, step.rate_qps * kLatencyLimitUs * 1e-6);
  return static_cast<double>(step.outstanding_end) >
         static_cast<double>(step.outstanding_mid) + allowance;
}

bool step_passes(const StepOutcome& step) {
  if (step.attempted == 0) return false;
  const double failed_ratio =
      static_cast<double>(step.failed) / static_cast<double>(step.attempted);
  return step.p99_us <= kLatencyLimitUs && failed_ratio <= kMaxFailedRatio &&
         !backlog_grows(step);
}

int search_capacity(std::size_t rungs, const std::function<bool(std::size_t)>& passes) {
  // Invariant: rung lo passes (or lo == -1), rung hi fails (or hi == rungs).
  long lo = -1;
  long hi = static_cast<long>(rungs);
  while (hi - lo > 1) {
    const long mid = lo + (hi - lo) / 2;
    if (passes(static_cast<std::size_t>(mid))) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  return static_cast<int>(lo);
}

std::vector<std::int64_t> self_times(const std::vector<Span>& spans) {
  std::vector<std::vector<std::size_t>> children(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const auto p = spans[i].parent;
    if (p >= 0 && static_cast<std::size_t>(p) < spans.size()) {
      children[static_cast<std::size_t>(p)].push_back(i);
    }
  }
  std::vector<std::int64_t> out(spans.size());
  std::vector<std::pair<std::int64_t, std::int64_t>> iv;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    iv.clear();
    for (const std::size_t c : children[i]) {
      const std::int64_t a = std::max(s.start_ns, spans[c].start_ns);
      const std::int64_t b = std::min(s.end_ns, spans[c].end_ns);
      if (b > a) iv.emplace_back(a, b);
    }
    std::sort(iv.begin(), iv.end());
    std::int64_t covered = 0;
    std::int64_t cur_a = 0, cur_b = 0;
    bool open = false;
    for (const auto& [a, b] : iv) {
      if (open && a <= cur_b) {
        cur_b = std::max(cur_b, b);
        continue;
      }
      if (open) covered += cur_b - cur_a;
      cur_a = a;
      cur_b = b;
      open = true;
    }
    if (open) covered += cur_b - cur_a;
    out[i] = std::max<std::int64_t>(0, (s.end_ns - s.start_ns) - covered);
  }
  return out;
}

double max_min_ratio(const std::vector<std::uint64_t>& counts) {
  if (counts.empty()) return 1.0;
  const auto [mn, mx] = std::minmax_element(counts.begin(), counts.end());
  if (*mn == 0) return *mx == 0 ? 1.0 : std::numeric_limits<double>::infinity();
  return static_cast<double>(*mx) / static_cast<double>(*mn);
}

}  // namespace perfbench
