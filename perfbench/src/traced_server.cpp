#include "traced_server.hpp"

#include <poll.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cerrno>
#include <cstring>

#include "common/buffer_pool.hpp"
#include "defense/filter_chain.hpp"
#include "dns/wire.hpp"
#include "net/socket.hpp"
#include "net/udp_batch.hpp"
#include "server/query_context.hpp"

namespace perfbench {

namespace ad = akadns;

namespace {

using Steady = std::chrono::steady_clock;

ad::dns::Rcode rcode_of(const std::vector<std::uint8_t>& wire) {
  return wire.size() >= 4 ? static_cast<ad::dns::Rcode>(wire[3] & 0xF) : ad::dns::Rcode::ServFail;
}

std::uint16_t txid_of(std::span<const std::uint8_t> wire) {
  return wire.size() >= 2 ? static_cast<std::uint16_t>((wire[0] << 8) | wire[1]) : 0;
}

/// Deferred-response sendmmsg batch for queries released from the
/// penalty queues (they outlive the receive batch), as in net::Server.
class TxBatch {
 public:
  explicit TxBatch(std::size_t cap) : cap_(std::max<std::size_t>(1, cap)) {
    addrs_.resize(cap_);
    hdrs_.resize(cap_);
    iov_.resize(cap_);
  }
  bool full() const noexcept { return offs_.size() == cap_; }
  bool empty() const noexcept { return offs_.empty(); }
  void append(const ad::Endpoint& dst, std::span<const std::uint8_t> wire) {
    lens_.push_back(wire.size());
    offs_.push_back(bytes_.size());
    lens_addr_.push_back(ad::net::sockaddr_from_endpoint(dst, addrs_[offs_.size() - 1]));
    bytes_.insert(bytes_.end(), wire.begin(), wire.end());
  }
  std::size_t flush(int fd) {
    const std::size_t n = offs_.size();
    for (std::size_t i = 0; i < n; ++i) {
      iov_[i] = iovec{bytes_.data() + offs_[i], lens_[i]};
      std::memset(&hdrs_[i], 0, sizeof(mmsghdr));
      hdrs_[i].msg_hdr.msg_iov = &iov_[i];
      hdrs_[i].msg_hdr.msg_iovlen = 1;
      hdrs_[i].msg_hdr.msg_name = &addrs_[i];
      hdrs_[i].msg_hdr.msg_namelen = lens_addr_[i];
    }
    std::size_t sent = 0;
    while (sent < n) {
      const int r = ::sendmmsg(fd, hdrs_.data() + sent, static_cast<unsigned>(n - sent), 0);
      if (r < 0) {
        if (errno == EINTR) continue;
        if (errno == EAGAIN || errno == EWOULDBLOCK) {
          pollfd pfd{fd, POLLOUT, 0};
          ::poll(&pfd, 1, 10);
          continue;
        }
        break;
      }
      sent += static_cast<std::size_t>(r);
    }
    bytes_.clear();
    offs_.clear();
    lens_.clear();
    lens_addr_.clear();
    return sent;
  }

 private:
  std::size_t cap_;
  std::vector<std::uint8_t> bytes_;
  std::vector<std::size_t> offs_, lens_;
  std::vector<socklen_t> lens_addr_;
  std::vector<sockaddr_storage> addrs_;
  std::vector<mmsghdr> hdrs_;
  std::vector<iovec> iov_;
};

ad::defense::DefenseConfig engine_config(const ad::net::ServeConfig& cfg) {
  ad::defense::DefenseConfig d;
  d.lanes = 1;
  if (cfg.defense.compute_qps > 0.0) {
    d.compute_capacity_qps =
        cfg.defense.compute_qps / static_cast<double>(std::max<std::size_t>(1, cfg.workers));
  }
  d.queue_config = cfg.defense.queue_config;
  return d;
}

/// Per client flow (source port): receive sequence numbers and, on the
/// defense path, the admission sequence/time of each queued txid.
struct FlowTrack {
  std::uint16_t port = 0;
  std::uint32_t next_seq = 0;
  std::vector<std::uint32_t> seq_of;     // by txid (defense path)
  std::vector<std::int64_t> enqueued_at; // by txid (defense path)
};

constexpr std::size_t kMaxTrackedFlows = 64;

}  // namespace

struct TracedServer::Worker {
  Worker(const ad::net::ServeConfig& cfg, ad::propagation::ZonePublisher& pub, Steady::time_point epoch,
         std::size_t span_capacity, const std::atomic<bool>& tracing_flag)
      : config(cfg),
        publisher(pub),
        responder(replica, cfg.responder),
        batch(cfg.udp_batch),
        sync(replica),
        clock(epoch),
        pool(std::make_unique<ad::BufferPool>()),
        engine(engine_config(cfg), clock),
        tx(cfg.udp_batch),
        defense_on(cfg.defense.enabled),
        queue_path(cfg.defense.enabled || cfg.defense.compute_qps > 0.0),
        spans(span_capacity),
        tracing(tracing_flag) {
    if (defense_on) {
      ad::filters::NxDomainFilter::Config nx;
      nx.penalty = cfg.defense.nxdomain_penalty;
      nx.nxdomain_threshold = std::max<std::uint64_t>(
          1, cfg.defense.nxdomain_threshold /
                 static_cast<std::uint64_t>(std::max<std::size_t>(1, cfg.workers)));
      engine.install_filter(
          ad::defense::nxdomain_factory(nx, ad::defense::zone_store_hooks(replica)));
      if (cfg.defense.hopcount) engine.install_filter(ad::defense::hopcount_factory());
    }
    for (const auto& name : cfg.defense.qod_rules) {
      engine.firewall().install(ad::dns::Question{name, ad::dns::RecordType::ANY}, clock.now(),
                                ad::Duration::days(3650));
    }
    flows.reserve(kMaxTrackedFlows);
  }

  const ad::net::ServeConfig& config;
  ad::propagation::ZonePublisher& publisher;
  ad::zone::ZoneStore replica;
  ad::server::Responder responder;
  ad::net::UdpBatch batch;
  ad::net::UdpSocket udp;
  ad::net::FdHandle stop_event;
  ad::net::FdHandle update_event;
  ad::net::FdHandle epoll;
  ad::propagation::ZoneSubscriber sync;
  ad::MonotonicClock clock;
  std::unique_ptr<ad::BufferPool> pool;
  ad::defense::DefenseEngine<ad::server::QueryContext> engine;
  TxBatch tx;
  std::vector<std::uint8_t> backlog_scratch;
  const bool defense_on;
  const bool queue_path;
  SpanBuffer spans;
  const std::atomic<bool>& tracing;
  std::atomic<std::uint64_t> udp_packets{0};
  std::vector<FlowTrack> flows;

  ad::SimTime now() const noexcept {
    return ad::SimTime::from_nanos(
        std::chrono::duration_cast<std::chrono::nanoseconds>(Steady::now() - clock.epoch())
            .count());
  }

  FlowTrack& flow_of(std::uint16_t port) {
    for (auto& f : flows) {
      if (f.port == port) return f;
    }
    if (flows.size() == kMaxTrackedFlows) return flows.back();  // shared overflow slot
    flows.push_back(FlowTrack{port, 0, {}, {}});
    if (queue_path) {
      flows.back().seq_of.assign(65536, 0);
      flows.back().enqueued_at.assign(65536, 0);
    }
    return flows.back();
  }

  void run();
  void drain_udp(bool on);
  void process_backlog(bool on);
  void respond(std::span<const std::uint8_t> wire, ad::dns::QueryView& view,
               const ad::Endpoint& client, std::vector<std::uint8_t>& out, std::uint64_t qid,
               std::int32_t parent, bool on);
};

void TracedServer::Worker::respond(std::span<const std::uint8_t> wire, ad::dns::QueryView& view,
                                   const ad::Endpoint& client, std::vector<std::uint8_t>& out,
                                   std::uint64_t qid, std::int32_t parent, bool on) {
  const auto& st = responder.stats();
  const std::uint64_t hits0 = st.cache_hits, interp0 = st.interpreted_answers;
  const std::int64_t t0 = on ? mono_ns() : 0;
  responder.respond_view_into(wire, view, client, now(), out);
  if (!on) return;
  const std::int64_t t1 = mono_ns();
  const std::uint32_t kind = st.cache_hits != hits0         ? kRespondHit
                             : st.interpreted_answers != interp0 ? kRespondInterpreted
                                                                 : kRespondCompiled;
  spans.add(kind, qid, parent, t0, t1);
}

void TracedServer::Worker::drain_udp(bool on) {
  const int fd = udp.fd();
  while (true) {
    const std::int64_t r0 = on ? mono_ns() : 0;
    const int n = batch.recv(fd);
    if (n <= 0) break;
    const std::int32_t recv_span = on ? spans.add(kNetRecv, 0, -1, r0, mono_ns()) : -1;
    udp_packets.fetch_add(static_cast<std::uint64_t>(n), std::memory_order_relaxed);
    const bool check_firewall = !engine.firewall().rules().empty();
    std::size_t want = 0;
    for (int i = 0; i < n; ++i) {
      const auto slot = static_cast<std::size_t>(i);
      const auto wire = batch.packet(slot);
      const ad::Endpoint client = ad::net::endpoint_from_sockaddr(batch.source(slot));
      FlowTrack& flow = flow_of(client.port);
      const std::uint32_t seq = flow.next_seq++;
      const std::uint64_t qid = query_id(client.port, seq, txid_of(wire));
      const std::int64_t q0 = on ? mono_ns() : 0;
      const std::int32_t qspan = on ? spans.open(kQuery, qid, recv_span, q0) : -1;
      auto view = ad::dns::decode_query_view(wire);
      if (on) spans.add(kDnsDecode, qid, qspan, q0, mono_ns());
      if (!view || view.value().header.opcode == ad::dns::Opcode::Notify) {
        spans.close(qspan, on ? mono_ns() : 0);
        continue;  // nothing to answer (the benchmark sends no NOTIFY)
      }
      if (check_firewall) {
        const std::int64_t f0 = on ? mono_ns() : 0;
        const bool dropped = engine.firewall_drops(0, view.value().question);
        if (on) spans.add(kDefenseFirewall, qid, qspan, f0, mono_ns());
        if (dropped) {
          spans.close(qspan, on ? mono_ns() : 0);
          continue;
        }
      }
      if (!queue_path) {
        respond(wire, view.value(), client, batch.response(slot), qid, qspan, on);
        ++want;
        spans.close(qspan, on ? mono_ns() : 0);
        continue;
      }
      ad::server::QueryContext ctx;
      ctx.view = std::move(view).value();
      ctx.parsed = true;
      ctx.source = client;
      ctx.ip_ttl = 64;
      ctx.arrival = engine.clock().now();
      if (defense_on) {
        const std::int64_t s0 = on ? mono_ns() : 0;
        ctx.score = engine.score(0, ctx.filter_view(ctx.arrival));
        if (on) spans.add(kDefenseScore, qid, qspan, s0, mono_ns());
      }
      const std::int64_t e0 = on ? mono_ns() : 0;
      ctx.wire = pool->copy_of(wire);
      const double score = ctx.score;
      const auto outcome = engine.enqueue(0, std::move(ctx), score);
      const std::int64_t e1 = on ? mono_ns() : 0;
      if (on) spans.add(kDefenseEnqueue, qid, qspan, e0, e1);
      if (outcome == ad::filters::EnqueueOutcome::Enqueued) {
        const std::uint16_t id = txid_of(wire);
        flow.seq_of[id] = seq;
        flow.enqueued_at[id] = e1;
      }
      spans.close(qspan, on ? mono_ns() : 0);
    }
    if (want > 0) {
      const std::int64_t s0 = on ? mono_ns() : 0;
      batch.send(fd);
      if (on) spans.add(kNetSend, 0, -1, s0, mono_ns());
    }
    if (sync.has_pending()) sync.poll(publisher.clock().now());
    if (static_cast<std::size_t>(n) < batch.capacity()) break;
  }
}

void TracedServer::Worker::process_backlog(bool on) {
  if (!engine.has_pending()) return;
  if (!engine.begin_phase()) return;
  const int fd = udp.fd();
  while (true) {
    const std::int64_t n0 = on ? mono_ns() : 0;
    auto item = engine.next(0);
    if (!item) break;
    const std::int64_t n1 = on ? mono_ns() : 0;
    FlowTrack& flow = flow_of(item->source.port);
    const std::uint16_t id = txid_of(item->bytes());
    const std::uint64_t qid = query_id(item->source.port, flow.seq_of[id], id);
    const std::int32_t qspan = on ? spans.open(kQuery, qid, -1, n0) : -1;
    if (on) {
      spans.add(kDefenseNext, qid, qspan, n0, n1);
      if (flow.enqueued_at[id] > 0 && flow.enqueued_at[id] <= n1) {
        spans.add(kDefenseQueueWait, qid, -1, flow.enqueued_at[id], n1);
      }
    }
    respond(item->bytes(), item->view, item->source, backlog_scratch, qid, qspan, on);
    const std::int64_t o0 = on ? mono_ns() : 0;
    engine.observe_response(0, item->filter_view(engine.clock().now()), rcode_of(backlog_scratch));
    if (on) spans.add(kDefenseObserve, qid, qspan, o0, mono_ns());
    if (tx.full()) {
      const std::int64_t s0 = on ? mono_ns() : 0;
      tx.flush(fd);
      if (on) spans.add(kNetSend, 0, -1, s0, mono_ns());
    }
    tx.append(item->source, backlog_scratch);
    spans.close(qspan, on ? mono_ns() : 0);
  }
  engine.end_phase();
  if (!tx.empty()) {
    const std::int64_t s0 = on ? mono_ns() : 0;
    tx.flush(fd);
    if (on) spans.add(kNetSend, 0, -1, s0, mono_ns());
  }
}

void TracedServer::Worker::run() {
  std::array<epoll_event, 16> events{};
  while (true) {
    const int timeout_ms = queue_path && engine.has_pending() ? 1 : -1;
    const int n = ::epoll_wait(epoll.get(), events.data(), static_cast<int>(events.size()),
                               timeout_ms);
    if (n < 0 && errno != EINTR) break;
    const bool on = tracing.load(std::memory_order_relaxed);
    bool stop = false;
    for (int i = 0; i < std::max(n, 0); ++i) {
      const int fd = events[static_cast<std::size_t>(i)].data.fd;
      if (fd == stop_event.get()) {
        stop = true;
      } else if (fd == update_event.get()) {
        std::uint64_t v = 0;
        [[maybe_unused]] const ssize_t r = ::read(update_event.get(), &v, sizeof(v));
        sync.poll(publisher.clock().now());
      } else if (fd == udp.fd()) {
        drain_udp(on);
      }
    }
    if (stop) break;
    if (queue_path) process_backlog(on);
  }
}

TracedServer::TracedServer(ad::net::ServeConfig config, const ad::zone::ZoneStore& store,
                           std::size_t span_capacity)
    : config_(std::move(config)), publisher_(clock_), span_capacity_(span_capacity) {
  publisher_.adopt(store);
}

TracedServer::~TracedServer() { stop(); }

ad::Result<bool> TracedServer::start() {
  std::uint16_t port = config_.port;
  for (std::size_t i = 0; i < config_.workers; ++i) {
    auto w = std::make_unique<Worker>(config_, publisher_, clock_.epoch(), span_capacity_,
                                      tracing_);
    auto udp = ad::net::UdpSocket::open(config_.bind_addr, port, config_.udp_rcvbuf,
                                        config_.udp_sndbuf);
    if (!udp) return ad::Error{"traced worker udp: " + udp.error()};
    w->udp = std::move(udp).take();
    if (i == 0) port = w->udp.port();
    w->stop_event = ad::net::FdHandle(::eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK));
    w->update_event = ad::net::FdHandle(::eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK));
    w->epoll = ad::net::FdHandle(::epoll_create1(EPOLL_CLOEXEC));
    if (!w->stop_event.valid() || !w->update_event.valid() || !w->epoll.valid()) {
      return ad::Error{"traced worker: eventfd/epoll"};
    }
    for (const int fd : {w->udp.fd(), w->stop_event.get(), w->update_event.get()}) {
      epoll_event ev{};
      ev.events = EPOLLIN;
      ev.data.fd = fd;
      if (::epoll_ctl(w->epoll.get(), EPOLL_CTL_ADD, fd, &ev) != 0) {
        return ad::Error{"traced worker: epoll_ctl"};
      }
    }
    const int ufd = w->update_event.get();
    w->sync.attach(publisher_, [ufd] {
      const std::uint64_t one = 1;
      [[maybe_unused]] const ssize_t r = ::write(ufd, &one, sizeof(one));
    });
    workers_.push_back(std::move(w));
  }
  port_ = port;
  running_ = true;
  for (auto& w : workers_) threads_.emplace_back([p = w.get()] { p->run(); });
  return true;
}

void TracedServer::stop() {
  if (!running_) return;
  for (auto& w : workers_) {
    const std::uint64_t one = 1;
    [[maybe_unused]] const ssize_t r = ::write(w->stop_event.get(), &one, sizeof(one));
  }
  for (auto& t : threads_) t.join();
  threads_.clear();
  running_ = false;
}

std::vector<std::uint64_t> TracedServer::per_worker_udp() const {
  std::vector<std::uint64_t> out;
  for (const auto& w : workers_) out.push_back(w->udp_packets.load(std::memory_order_relaxed));
  return out;
}

TracedCounters TracedServer::counters() const {
  TracedCounters c;
  for (const auto& w : workers_) {
    const auto& rs = w->responder.stats();
    c.udp_packets += w->udp_packets.load(std::memory_order_relaxed);
    c.responses += rs.responses;
    c.cache_hits += rs.cache_hits;
    c.interpreted += rs.interpreted_answers;
    c.cache_invalidations += w->responder.answer_cache().stats().invalidations;
    c.defense_drops += w->engine.lane_stats(0).drops.total();
    c.sync_max_latency_ns = std::max<std::int64_t>(
        c.sync_max_latency_ns, static_cast<std::int64_t>(w->sync.stats().max_latency_ns.value()));
  }
  return c;
}

void TracedServer::clear_spans() {
  for (auto& w : workers_) w->spans.clear();
}

std::vector<const SpanBuffer*> TracedServer::buffers() const {
  std::vector<const SpanBuffer*> out;
  for (const auto& w : workers_) out.push_back(&w->spans);
  return out;
}

}  // namespace perfbench
