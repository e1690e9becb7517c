// Open-loop load generator: up to two pinned threads, each owning a few
// UDP client sockets (flows), sending a seeded Poisson schedule of
// corpus queries regardless of how fast answers come back. Every answer
// is checked by a Verifier and timed from when its query was due.
#pragma once

#include <netinet/in.h>

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <vector>

namespace perfbench {

/// Byte strings in one arena, addressed by index.
class Arena {
 public:
  void push(std::span<const std::uint8_t> bytes) {
    bytes_.insert(bytes_.end(), bytes.begin(), bytes.end());
    off_.push_back(static_cast<std::uint32_t>(bytes_.size()));
  }
  std::span<const std::uint8_t> at(std::size_t i) const {
    return {bytes_.data() + off_[i], off_[i + 1] - off_[i]};
  }
  std::size_t size() const noexcept { return off_.size() - 1; }

 private:
  std::vector<std::uint8_t> bytes_;
  std::vector<std::uint32_t> off_{0};
};

enum class Verdict : std::uint8_t { Ok, Mismatch, ServFail, Stale };

/// Byte-checks one answer. Called from the generator thread that owns
/// `flow`; implementations keep any per-flow state per flow.
class Verifier {
 public:
  virtual ~Verifier() = default;
  virtual Verdict check(std::size_t flow, std::uint32_t entry,
                        std::span<const std::uint8_t> response, std::int64_t now_ns) = 0;
};

/// Compares every byte but the transaction id against one expected table.
class StaticVerifier final : public Verifier {
 public:
  explicit StaticVerifier(const Arena& expected) : expected_(expected) {}
  Verdict check(std::size_t, std::uint32_t entry, std::span<const std::uint8_t> response,
                std::int64_t) override;

 private:
  const Arena& expected_;
};

/// True when `response` equals `expected` apart from bytes 0-1 (the id).
bool same_answer(std::span<const std::uint8_t> response, std::span<const std::uint8_t> expected);
inline bool is_servfail(std::span<const std::uint8_t> wire) {
  return wire.size() >= 4 && (wire[3] & 0xF) == 2;
}

/// One client socket and where it sends.
struct Flow {
  int fd = -1;
  sockaddr_in dst{};
  /// Direct address of the machine this flow is steered to (relay probes).
  sockaddr_in direct{};
};

/// Opens a nonblocking UDP socket on 127.0.0.1:<ephemeral>; -1 on error.
int open_client_socket();
sockaddr_in loopback(std::uint16_t port);

struct GenConfig {
  /// flows[t] are owned by generator thread t (at most 2 threads).
  std::vector<std::vector<Flow>> flows;
  /// CPU each generator thread is pinned to.
  std::vector<int> cores;
  const Arena* corpus = nullptr;
  const std::vector<std::uint8_t>* is_attack = nullptr;
  Verifier* verifier = nullptr;
  std::uint64_t seed = 1;
  /// Relay probes (pop_attack traced run): every interval the first
  /// thread sends entry `probe_entry` alternately through the front and
  /// straight to the flow's machine. 0 disables.
  std::int64_t probe_interval_ns = 0;
  std::uint32_t probe_entry = 0;
};

struct StepSpec {
  double rate_qps = 0.0;
  double seconds = 1.0;
  bool keep_samples = true;  // keep legit latencies and lateness
};

struct StepStats {
  double rate_qps = 0.0;
  double seconds = 0.0;
  std::uint64_t sent_legit = 0, sent_attack = 0;
  std::uint64_t ok_legit = 0, ok_attack = 0;
  std::uint64_t dropped_legit = 0, dropped_attack = 0;
  std::uint64_t mismatched_legit = 0, mismatched_attack = 0;
  std::uint64_t servfail_legit = 0, stale_legit = 0;
  std::uint64_t unexpected = 0;
  std::uint64_t send_errors = 0;
  /// Legit queries sent and unanswered around the middle / end of the
  /// send window (backlog_marks over outstanding_samples; attack queries
  /// are excluded: shedding them is the point).
  std::uint64_t outstanding_mid = 0, outstanding_end = 0;
  std::int64_t gen_cpu_ns = 0;
  std::int64_t wall_ns = 0;
  std::vector<double> latency_us;   // legit, from due time
  std::vector<std::uint8_t> latency_window;  // each sample's time window
  std::vector<double> lateness_us;  // every send
  /// Legit outstanding queries sampled every 25 ms of the send
  /// window (summed over generator threads).
  std::vector<std::uint64_t> outstanding_samples;
  std::vector<double> probe_front_us, probe_direct_us;  // relay probe RTTs
  std::vector<std::uint64_t> per_flow_sent;

  std::uint64_t failed_legit() const noexcept {
    return dropped_legit + mismatched_legit + servfail_legit + stale_legit;
  }
  /// Every answer the SUT produced, relay probes included.
  std::uint64_t answered() const noexcept {
    return ok_legit + ok_attack + mismatched_legit + mismatched_attack + servfail_legit +
           stale_legit + probe_front_us.size() + probe_direct_us.size();
  }
  std::uint64_t mismatched() const noexcept { return mismatched_legit + mismatched_attack; }
  void merge(StepStats&& o);
};

class Generator {
 public:
  explicit Generator(GenConfig config);
  ~Generator();

  /// Runs one open-loop step on every generator thread and merges the
  /// result (latencies unsorted). Blocks until the drain window closes.
  /// `side`, when set, runs on the calling thread meanwhile and is given
  /// the end of the send window (CLOCK_MONOTONIC ns).
  StepStats run(const StepSpec& spec, const std::function<void(std::int64_t)>& side = {});

 private:
  struct FlowState;
  StepStats run_thread(std::size_t t, const StepSpec& spec, std::uint64_t step);

  GenConfig config_;
  std::vector<std::vector<std::unique_ptr<FlowState>>> state_;
  std::uint64_t steps_ = 0;
};

}  // namespace perfbench
