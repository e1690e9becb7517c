// In-memory span recording for the traced run. Each traced worker owns
// one SpanBuffer (no sharing, no locks); spans are summarized and dumped
// only after the run ends.
#pragma once

#include <cstdint>
#include <string>
#include <time.h>
#include <vector>

#include "analysis.hpp"

namespace perfbench {

/// Span names, one per layer boundary the traced loop times.
enum SpanName : std::uint32_t {
  kNetRecv,            // net::UdpBatch::recv (one batch)
  kQuery,              // one query's pass through the loop (glue is its self time)
  kDnsDecode,          // dns::decode_query_view
  kDefenseFirewall,    // DefenseEngine::firewall_drops
  kDefenseScore,       // DefenseEngine::score
  kDefenseEnqueue,     // DefenseEngine::enqueue (incl. the pooled copy)
  kDefenseNext,        // DefenseEngine::next (one released query)
  kDefenseQueueWait,   // enqueue end -> next return (waiting, not work)
  kRespondHit,         // Responder::respond_view_into, answered from the cache
  kRespondCompiled,    // ... stitched from compiled fragments
  kRespondInterpreted, // ... built by the interpreted encoder
  kDefenseObserve,     // DefenseEngine::observe_response
  kNetSend,            // net::UdpBatch::send / deferred sendmmsg (one batch)
  kSpanNameCount
};

const char* span_name(std::uint32_t name);

inline std::int64_t mono_ns() noexcept {
  timespec ts;
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

/// Query identifier shared by every span of one query: the client flow
/// (source port), the flow's receive sequence number, and the txid.
inline std::uint64_t query_id(std::uint16_t port, std::uint32_t seq, std::uint16_t txid) {
  return (static_cast<std::uint64_t>(port) << 48) |
         (static_cast<std::uint64_t>(seq) << 16) | txid;
}

class SpanBuffer {
 public:
  explicit SpanBuffer(std::size_t capacity = 0) { spans_.reserve(capacity); }

  /// Opens a span; returns its index (or -1 once the buffer is full —
  /// recording stops rather than reallocating mid-run).
  std::int32_t open(std::uint32_t name, std::uint64_t qid, std::int32_t parent,
                    std::int64_t start_ns) {
    if (spans_.size() == spans_.capacity()) {
      ++overflow_;
      return -1;
    }
    spans_.push_back(Span{qid, name, parent, start_ns, start_ns});
    return static_cast<std::int32_t>(spans_.size() - 1);
  }
  void close(std::int32_t idx, std::int64_t end_ns) {
    if (idx >= 0) spans_[static_cast<std::size_t>(idx)].end_ns = end_ns;
  }
  /// Records a complete span in one call.
  std::int32_t add(std::uint32_t name, std::uint64_t qid, std::int32_t parent,
                   std::int64_t start_ns, std::int64_t end_ns) {
    const auto idx = open(name, qid, parent, start_ns);
    close(idx, end_ns);
    return idx;
  }
  void clear() {
    spans_.clear();
    overflow_ = 0;
  }

  const std::vector<Span>& spans() const noexcept { return spans_; }
  std::uint64_t overflow() const noexcept { return overflow_; }

 private:
  std::vector<Span> spans_;
  std::uint64_t overflow_ = 0;
};

/// Per-name totals over one or more buffers.
struct LayerTotals {
  std::uint64_t count = 0;
  double total_ns = 0.0;  // sum of durations
  double self_ns = 0.0;   // sum of self times
  std::vector<double> durations_ns;  // every duration (for percentiles)
};

std::vector<LayerTotals> summarize(const std::vector<const SpanBuffer*>& buffers);

/// Writes every span as one tab-separated line:
///   buffer  index  query_id  name  parent  start_ns  end_ns
/// Returns false when the file cannot be written.
bool write_span_dump(const std::string& path, const std::vector<const SpanBuffer*>& buffers);

}  // namespace perfbench
