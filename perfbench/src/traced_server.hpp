// The traced run's stand-in for net::Server's UDP workers: the same
// public calls in the same order as Server::Worker::drain_udp —
// UdpBatch::recv, dns::decode_query_view, the DefenseEngine calls,
// Responder::respond_view_into, UdpBatch::send — each wrapped in a span
// recorded from the benchmark's own files. Zone updates reach each
// worker through a propagation::ZoneSubscriber replica, as in Server.
// Only the UDP query path is mirrored (the benchmark sends nothing else).
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <thread>
#include <vector>

#include "common/clock.hpp"
#include "common/result.hpp"
#include "defense/defense_engine.hpp"
#include "net/server.hpp"
#include "propagation/zone_publisher.hpp"
#include "propagation/zone_subscriber.hpp"
#include "server/answer_cache.hpp"
#include "server/responder.hpp"
#include "trace.hpp"
#include "zone/zone_store.hpp"

namespace perfbench {

struct TracedCounters {
  std::uint64_t udp_packets = 0;
  std::uint64_t responses = 0, cache_hits = 0, interpreted = 0;
  std::uint64_t cache_invalidations = 0;
  std::uint64_t defense_drops = 0;  // score discards + queue-full + firewall
  std::int64_t sync_max_latency_ns = 0;
};

class TracedServer {
 public:
  /// Same configuration surface as net::Server (ServeConfig: workers,
  /// batch, responder, defense); static content adopted into an owned
  /// publisher, as net::Server's static mode does.
  TracedServer(akadns::net::ServeConfig config, const akadns::zone::ZoneStore& store,
               std::size_t span_capacity);
  ~TracedServer();

  akadns::Result<bool> start();
  void stop();

  std::uint16_t udp_port() const noexcept { return port_; }
  akadns::propagation::ZonePublisher& publisher() noexcept { return publisher_; }

  /// Drops recorded spans. Call only while tracing is off and the
  /// workers are idle (between load phases).
  void clear_spans();
  /// Spans are recorded only while tracing is on.
  void set_tracing(bool on) noexcept { tracing_.store(on, std::memory_order_release); }

  /// Per-worker datagram counts (live, relaxed reads).
  std::vector<std::uint64_t> per_worker_udp() const;
  /// Counters summed over workers (live reads of single-writer counters).
  TracedCounters counters() const;

  /// Span buffers, one per worker. Read only after stop().
  std::vector<const SpanBuffer*> buffers() const;

 private:
  struct Worker;

  akadns::net::ServeConfig config_;
  akadns::MonotonicClock clock_;
  akadns::propagation::ZonePublisher publisher_;
  std::size_t span_capacity_;
  std::vector<std::unique_ptr<Worker>> workers_;
  std::vector<std::thread> threads_;
  std::atomic<bool> tracing_{false};
  std::uint16_t port_ = 0;
  bool running_ = false;
};

}  // namespace perfbench
